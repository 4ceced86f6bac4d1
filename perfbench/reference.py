"""Host-speed reference: fixed work done by this directory's own code.

    python3 perfbench/reference.py

Generates the layered-batch units for seed 0, writes them as FOON text,
reads the text back with the benchmark's own reader and forward-chains
over the result. It never imports the package under test, so its run time
depends only on how fast the host runs Python at that moment. ``run.py``
times it between samples and divides it out of the timing metrics.
"""

from workloads import layered_batch, reachable_keys, read_tree_text, write_foon_text

if __name__ == "__main__":
    workload = layered_batch(0)
    units = read_tree_text(write_foon_text(workload.units))
    if len(reachable_keys(units, workload.kitchen)) != len(workload.kitchen) + len(units):
        raise SystemExit("reference task computed a wrong result")
