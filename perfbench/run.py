"""Outside-in benchmark of FOON task-tree retrieval.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout of the repository. The workload's input
files are generated from the seed by this directory's own writer, then
three kinds of sample take turns, each in a fresh process, until S seconds
have passed:

  * a whole ``python -m foon.cli run --algorithm all --emit-dot --report``
    run, timed from spawn to exit, with its peak RSS from ``os.wait4``;
  * a library pass (``libpass.py``) that times set-up and every
    ``ids_search``/``gbfs_search`` call on its own;
  * the host-speed reference (``reference.py``), which the timing metrics
    are scaled by (see ``end_to_end``).

Fresh processes matter: the package keeps process-global caches, so a
second run in one process would start warm where a real CLI run never does.

Every (goal, algorithm) pair of every sample is checked against the
benchmark's own ground truth and written files (see ``check_cli``), and
the CLI and library passes must agree. With ``--trace 1`` the samples are
untraced and traced CLI runs (``traced_cli.py``) plus one library pass
that also times the reachability oracle, and the per-layer metrics are
printed instead of the end-to-end ones.

The last line of standard output is one JSON object: correct, attempted,
failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from workloads import (
    ALGORITHMS,
    WORKLOADS,
    TreeFileError,
    digests,
    read_tree_text,
    reachable_keys,
    replay,
    signature,
    slug,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
PROCESS_CAP_S = 40.0
MIN_SAMPLES = 3
# Timing metrics are scaled to a host on which reference.py takes this long,
# and libpass.py's calibration task this long.
REFERENCE_S = 0.35
CALIBRATION_MS = 0.35

# Failure reasons that mean the program gave a wrong answer, as opposed to
# failing to give one (crash, missing row, missing file).
WRONG_ANSWERS = (
    "ids status differs from ground truth",
    "gbfs solved an unreachable goal",
    "tree file",
    "result differs",
)


class BenchmarkError(Exception):
    """The benchmark itself is broken; no result is printed."""


@dataclass
class Truth:
    """Ground truth for one workload, from the generated units alone."""

    kitchen: frozenset
    reachable: frozenset
    signatures: frozenset
    goals: list
    pairs: list  # [(goal node, algorithm)] in report order

    @classmethod
    def of(cls, workload) -> "Truth":
        return cls(
            kitchen=frozenset(workload.kitchen),
            reachable=frozenset(reachable_keys(workload.units, workload.kitchen)),
            signatures=frozenset(signature(u) for u in workload.units),
            goals=list(workload.goals),
            pairs=[(g, a) for g in workload.goals for a in ALGORITHMS],
        )

    def status_reason(self, goal, algorithm: str, solved: bool) -> str | None:
        reachable = goal in self.reachable
        if algorithm == "ids" and solved != reachable:
            return "ids status differs from ground truth"
        if solved and not reachable:
            return "gbfs solved an unreachable goal"
        return None


@dataclass
class Sample:
    kind: str  # "cli", "traced" or "lib"
    wall_s: float
    rss_mb: float
    exit_code: int | None
    crash: str | None  # why every pair of this sample failed
    rows: list | None = None  # the CLI's report rows
    results: list = field(default_factory=list)  # per pair: (status, units, tree sha)
    reasons: list = field(default_factory=list)  # per pair: failure reason or None
    lib: dict | None = None
    trace: dict | None = None


def spawn(argv: list[str], log: Path) -> tuple[float, float, int | None, str]:
    """Run a child to completion; return wall s, peak RSS MB, exit code, stderr.

    The exit code is None when the child overran the per-process cap.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with open(log, "wb") as out, open(log.with_suffix(".err"), "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
        done = threading.Event()
        killed = threading.Event()

        def cap():
            if not done.wait(PROCESS_CAP_S):
                killed.set()
                proc.kill()

        timer = threading.Thread(target=cap, daemon=True)
        timer.start()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        done.set()
        timer.join()
        proc.returncode = os.waitstatus_to_exitcode(status)
    stderr = log.with_suffix(".err").read_text(encoding="utf-8", errors="replace")
    code = None if killed.is_set() else proc.returncode
    return wall, usage.ru_maxrss / 1024, code, stderr


class Bench:
    def __init__(self, workload, work: Path):
        self.workload = workload
        self.truth = Truth.of(workload)
        self.work = work
        self.inputs = work / "inputs"
        self.trees: dict[str, str | None] = {}  # (file sha, pair, units) -> failure reason
        self.cli_ref: Sample | None = None
        self.lib_ref: Sample | None = None

    def cli_args(self, out: Path, report: Path) -> list[str]:
        def path(name):
            return str(self.inputs / name)

        return [
            "run",
            "--foon", path("foon.txt"),
            "--kitchen", path("kitchen.json"),
            "--goals", path("goals.json"),
            "--motion-rates", path("rates.json"),
            "--algorithm", "all",
            "--emit-dot",
            "--report", str(report),
            "--out-dir", str(out),
            "--jobs", str(self.workload.jobs),
        ]

    # --- samples -----------------------------------------------------------

    def run_cli(self, traced: bool = False, out_name: str = "out") -> Sample:
        out = self.work / out_name
        report = self.work / "report.json"
        trace_file = self.work / "trace.json"
        for stale in (report, trace_file):
            stale.unlink(missing_ok=True)
        shutil.rmtree(out, ignore_errors=True)
        if traced:
            argv = [sys.executable, str(HERE / "traced_cli.py"), str(trace_file)]
        else:
            argv = [sys.executable, "-m", "foon.cli"]
        wall, rss, code, stderr = spawn(
            argv + self.cli_args(out, report), self.work / "cli.log"
        )
        sample = Sample("traced" if traced else "cli", wall, rss, code, None)
        if code is None:
            sample.crash = f"process overran {PROCESS_CAP_S:.0f} s"
        elif code not in (0, 2):
            sample.crash = f"exit code {code}"
        elif "Traceback" in stderr:
            sample.crash = "traceback on stderr"
        rows = None
        if sample.crash is None:
            try:
                rows = json.loads(report.read_text(encoding="utf-8"))["rows"]
                if traced:
                    sample.trace = json.loads(trace_file.read_text(encoding="utf-8"))
            except (OSError, ValueError, KeyError, TypeError) as exc:
                sample.crash = f"report or trace unreadable: {exc}"
        if sample.crash is None:
            all_solved = all(row.get("status") == "solved" for row in rows)
            if (code == 0) != all_solved:
                sample.crash = f"exit code {code} contradicts the report"
        sample.rows = rows
        self.check_cli(sample, rows, out)
        return sample

    def run_lib(self, oracle: bool = False) -> Sample:
        result = self.work / "lib.json"
        result.unlink(missing_ok=True)
        argv = [sys.executable, str(HERE / "libpass.py"), str(self.inputs), str(result)]
        wall, rss, code, stderr = spawn(
            argv + (["--oracle"] if oracle else []), self.work / "lib.log"
        )
        sample = Sample("lib", wall, rss, code, None)
        if code != 0:
            sample.crash = "process overran" if code is None else f"exit code {code}"
        else:
            sample.lib = json.loads(result.read_text(encoding="utf-8"))
            pairs = sample.lib["pairs"]
            expected = [(g[0], a) for g, a in self.truth.pairs]
            if [(p["goal"], p["algorithm"]) for p in pairs] != expected:
                sample.crash = "library pass returned other pairs than asked"
        self.check_lib(sample)
        return sample

    def run_reference(self) -> float:
        wall, _, code, _ = spawn([sys.executable, str(HERE / "reference.py")], self.work / "ref.log")
        if code != 0:
            raise BenchmarkError(f"reference task failed with exit code {code}")
        return wall

    # --- checks ------------------------------------------------------------

    def tree_reason(self, text: str, goal, units: int | None) -> str | None:
        try:
            steps = read_tree_text(text)
        except TreeFileError as exc:
            return f"tree file does not re-read: {exc}"
        problem = replay(steps, self.truth.kitchen, goal, self.truth.signatures)
        if problem:
            return f"tree file does not replay: {problem}"
        if units != len(steps):
            return "tree file unit count differs from the report"
        return None

    def check_cli(self, sample: Sample, rows, out: Path, read=None) -> None:
        """Fill ``sample.results`` and ``sample.reasons``, one per pair.

        A pair fails when its process crashed, its report row is missing,
        its status contradicts ground truth, a solved pair lacks its own
        .txt and .dot files (or an unsolved one has them), its tree file
        does not re-read or replay, or it differs from the library pass.
        ``read`` overrides how tree files are read (for self-tests).
        """
        pairs = self.truth.pairs
        sample.results, sample.reasons = [None] * len(pairs), [sample.crash] * len(pairs)
        if sample.crash:
            return
        read = read or (lambda path: path.read_bytes())
        by_pair = {(r.get("goal_label"), r.get("algorithm")): r for r in rows}
        for index, (goal, algorithm) in enumerate(pairs):
            row = by_pair.get((goal[0], algorithm))
            if row is None:
                sample.reasons[index] = "missing report row"
                continue
            solved = row.get("status") == "solved"
            units = row.get("functional_unit_count")
            reason = self.truth.status_reason(goal, algorithm, solved)
            stem = out / f"{slug(goal[0])}_{algorithm}"
            txt, dot = stem.parent / (stem.name + ".txt"), stem.parent / (stem.name + ".dot")
            sha = None
            if solved and not (txt.is_file() and dot.is_file()):
                reason = reason or "solved pair has no file of its own"
            elif not solved and (txt.exists() or dot.exists()):
                reason = reason or "unsolved pair has a file"
            elif solved:
                data = read(txt)
                sha = hashlib.sha256(data).hexdigest()
                key = f"{sha}:{index}:{units}"
                if key not in self.trees:
                    self.trees[key] = self.tree_reason(data.decode("utf-8"), goal, units)
                reason = reason or self.trees[key]
            sample.results[index] = (row.get("status"), units, sha)
            sample.reasons[index] = reason or self.disagreement(index, sample)

    def check_lib(self, sample: Sample) -> None:
        pairs = self.truth.pairs
        sample.results, sample.reasons = [None] * len(pairs), [sample.crash] * len(pairs)
        if sample.crash:
            return
        for index, ((goal, algorithm), p) in enumerate(zip(pairs, sample.lib["pairs"])):
            sample.results[index] = (p["status"], p["units"], p["tree_sha256"])
            reason = self.truth.status_reason(goal, algorithm, p["status"] == "solved")
            sample.reasons[index] = reason or self.disagreement(index, sample)

    def disagreement(self, index: int, sample: Sample) -> str | None:
        other = self.lib_ref if sample.kind != "lib" else self.cli_ref
        if other is None or other.crash or sample.results[index] is None:
            return None
        mine, theirs = sample.results[index], other.results[index]
        if theirs is None:
            return None  # the other side failed this pair for a reason of its own
        # A missing tree file is already a failure of its own; compare the
        # tree digests only where both sides have one.
        if mine[:2] != theirs[:2] or (mine[2] and theirs[2] and mine[2] != theirs[2]):
            return "result differs between cli and library"
        return None

    def self_test(self, rows, out: Path) -> None:
        """A corrupted tree file and a flipped status must each fail a pair."""
        baseline = Sample("cli", 0, 0, 0, None)
        self.check_cli(baseline, rows, out)
        failures = sum(r is not None for r in baseline.reasons)
        victim = next(
            (i for i, r in enumerate(baseline.results)
             if r and r[0] == "solved" and r[2] and baseline.reasons[i] is None),
            None,
        )
        if victim is None:
            raise BenchmarkError("self-test: no cleanly solved pair to corrupt")
        goal, algorithm = self.truth.pairs[victim]
        target = f"{slug(goal[0])}_{algorithm}.txt"

        def corrupt(path: Path) -> bytes:
            data = path.read_bytes()
            if path.name != target:
                return data
            blocks = data.decode("utf-8").split("//\n")
            return "//\n".join(blocks[:-2] + blocks[-1:]).encode("utf-8")  # drop last unit

        flipped = [dict(r) for r in rows]
        for row in flipped:
            if (row.get("goal_label"), row.get("algorithm")) == (goal[0], algorithm):
                row["status"] = "unsolvable"
        for what, kwargs, mutated_rows in (
            ("corrupted tree file", {"read": corrupt}, rows),
            ("flipped status", {}, flipped),
        ):
            probe = Sample("cli", 0, 0, 0, None)
            self.check_cli(probe, mutated_rows, out, **kwargs)
            if sum(r is not None for r in probe.reasons) <= failures:
                raise BenchmarkError(f"self-test: a {what} went undetected")


def median(values):
    return statistics.median(values) if values else None


def p95(values):
    return statistics.quantiles(values, n=20, method="inclusive")[18] if len(values) > 1 else None


def tally(samples: list[Sample]) -> tuple[int, int, dict[str, int]]:
    """Pairs attempted and failed, and how many pairs failed for each reason.

    An operation is one (goal, algorithm) pair of the workload, and it
    fails when it failed in any sample. Counting pairs, not pair-samples,
    keeps both counts independent of how many samples fit in the time, so
    two runs of the same code and seed report the same counts.
    """
    first: dict[int, str] = {}
    for sample in samples:
        for index, reason in enumerate(sample.reasons):
            if reason:
                first.setdefault(index, reason)
    counts: dict[str, int] = {}
    for reason in first.values():
        counts[reason] = counts.get(reason, 0) + 1
    return len(samples[0].reasons), len(first), counts


def end_to_end(
    cli: list[Sample], lib: list[Sample], refs: list[float], attempted: int, failed: int
) -> dict:
    """The end-to-end metrics; timings are scaled to a host of fixed speed.

    The host's speed drifts by up to 40 % over minutes and by 10-20 % from
    one second to the next, and the drift moves the program and the
    benchmark's own code alike. So each CLI run and library set-up is
    multiplied by REFERENCE_S / (mean of the reference runs just before and
    after it), and each library pass's retrievals by CALIBRATION_MS / (that
    pass's median calibration time). Raw values are printed alongside.
    """

    # refs[2k] and refs[2k + 1] enclose cli[k]; refs[2k + 1] and refs[2k + 2] lib[k].
    def host(i: int) -> float:
        return (refs[i] + refs[i + 1]) / 2

    ok_cli = [(2 * k, s) for k, s in enumerate(cli) if not s.crash]
    ok_lib = [(2 * k + 1, s) for k, s in enumerate(lib) if not s.crash]
    runs = [(s.wall_s, s.wall_s * REFERENCE_S / host(i)) for i, s in ok_cli]
    setups = [(s.lib["setup_s"], s.lib["setup_s"] * REFERENCE_S / host(i)) for i, s in ok_lib]
    retrievals = [
        (p["ms"], p["ms"] * CALIBRATION_MS / s.lib["calibration_ms"])
        for _, s in ok_lib
        for p in s.lib["pairs"]
    ]
    units = [
        r[1] for s in cli + lib for r in s.results if r and r[0] == "solved" and r[1] is not None
    ]
    pairs = sum(len(s.reasons) for s in cli + lib)
    timings = {
        "run_s": (runs, median, "s"),
        "setup_s": (setups, median, "s"),
        "retrieval_ms_p50": (retrievals, median, "ms"),
        "retrieval_ms_p95": (retrievals, p95, "ms"),
    }
    calibration = median([s.lib["calibration_ms"] for _, s in ok_lib]) or float("nan")
    print(f"host reference {median(refs):.6g} s (n={len(refs)}), calibration "
          f"{calibration:.6g} ms; timings below are scaled to a host where they take "
          f"{REFERENCE_S} s and {CALIBRATION_MS} ms")
    metrics = {}
    for name, (values, stat, unit) in timings.items():
        raw = stat([v[0] for v in values]) if values else None
        print(f"raw {name} {'n/a' if raw is None else f'{raw:.6g}'} {unit} (n={len(values)})")
        metrics[name] = (stat([v[1] for v in values]) if values else None, unit, len(values))
    return {
        **metrics,
        "peak_rss_mb": (median([s.rss_mb for _, s in ok_cli]), "MB", len(ok_cli)),
        "ok_frac": (1 - failed / attempted, "ratio", attempted),
        "solved_frac": (len(units) / pairs, "ratio", pairs),
        "tree_units_mean": (statistics.fmean(units) if units else None, "units", len(units)),
    }


def per_layer(bench: Bench, plain: list[Sample], traced: list[Sample], oracle: Sample) -> dict:
    ok = [s for s in traced if s.trace]
    truth = bench.truth

    def layer(sample, name, stat="self_ms"):
        return sample.trace["layers"].get(name, {}).get(stat, 0)

    def med(fn, unit):
        return (median([fn(s) for s in ok]), unit, len(ok))

    def ratio(a, b):
        return a / b if b else 0.0

    def stuck(sample):
        reachable = [
            r for r, (g, a) in zip(sample.results, truth.pairs)
            if a != "ids" and g in truth.reachable and r
        ]
        return ratio(sum(r[0] != "solved" for r in reachable), len(reachable))

    def node_key(stat):
        return lambda s: (s.trace["node_key"] or {}).get(stat, 0)

    metrics = {}
    for name in (
        "parsing.parse_foon_text", "parsing.apply_motion_rates", "parsing.parse_kitchen",
        "parsing.parse_goals", "core.build_graph", "core.validate_tree",
        "search.depth_limited_search", "search.ids_search", "search.finalize_tree",
        "search.gbfs_search", "parsing.serialize_task_tree", "parsing.export_dot",
        "cli.write", "cli.main", "cli.format_table", "cli.report",
    ):
        metrics[f"{name}.self_ms"] = med(lambda s, n=name: layer(s, n), "ms")
    for metric, name, stat, unit in (
        ("core.validate_tree.calls", "core.validate_tree", "calls", "count"),
        ("search.depth_limited_search.calls", "search.depth_limited_search", "calls", "count"),
        ("parsing.serialize_task_tree.calls", "parsing.serialize_task_tree", "calls", "count"),
        ("parsing.parse_foon_text.units", "parsing.parse_foon_text", "units", "count"),
        ("search.ids.expanded", "search.ids_search", "expanded", "count"),
        ("search.gbfs.expanded", "search.gbfs_search", "expanded", "count"),
        ("cli.write.files", "cli.write", "calls", "count"),
        ("cli.write.bytes", "cli.write", "bytes", "bytes"),
    ):
        metrics[metric] = med(lambda s, n=name, k=stat: layer(s, n, k), unit)
    metrics["core.build_graph.kept_ratio"] = med(
        lambda s: ratio(layer(s, "core.build_graph", "kept"), layer(s, "core.build_graph", "given")),
        "ratio",
    )
    metrics["core.node_key.calls"] = med(node_key("calls"), "count")
    metrics["core.node_key.misses"] = med(node_key("misses"), "count")
    oracle_ms = oracle.lib.get("oracle_ms_per_goal") if oracle.lib else None
    metrics["core.reachable_oracle.ms_per_goal"] = (oracle_ms, "ms", len(truth.goals))
    metrics["search.ids.useful_ratio"] = med(
        lambda s: ratio(layer(s, "search.ids_search", "units"), layer(s, "search.ids_search", "expanded")),
        "ratio",
    )
    metrics["search.gbfs.stuck_frac"] = med(stuck, "ratio")
    metrics["import_ms"] = med(lambda s: s.trace["import_ms"], "ms")
    untraced = median([s.wall_s for s in plain if not s.crash])
    traced_wall = median([s.wall_s for s in ok])
    overhead = traced_wall / untraced - 1 if untraced and traced_wall else None
    metrics["trace.overhead_frac"] = (overhead, "ratio", len(ok))
    return metrics


def measure(bench: Bench, seconds: float, trace: bool) -> tuple[list, dict]:
    # Untimed warm-up pair: fills the OS file cache and compiled bytecode,
    # and becomes the reference each later sample is compared with.
    bench.cli_ref = bench.run_cli(out_name="ref")
    bench.lib_ref = bench.run_lib()
    # Each reference was checked before the other existed; check again.
    bench.check_lib(bench.lib_ref)
    if not bench.cli_ref.crash:
        bench.check_cli(bench.cli_ref, bench.cli_ref.rows, bench.work / "ref")
        bench.self_test(bench.cli_ref.rows, bench.work / "ref")
    samples = [bench.cli_ref, bench.lib_ref]

    # Untraced CLI runs alternate with library passes, with a host reference
    # run before and after each, or with traced CLI runs under --trace 1.
    cli, other = [], []
    refs = [] if trace else [bench.run_reference()]
    deadline = time.perf_counter() + seconds
    while True:
        cli.append(bench.run_cli())
        if trace:
            other.append(bench.run_cli(traced=True))
        else:
            refs.append(bench.run_reference())
            other.append(bench.run_lib())
            refs.append(bench.run_reference())
        if cli[-1].exit_code is None or other[-1].exit_code is None:
            break  # a hung process: more samples would only hang too
        if time.perf_counter() >= deadline and len(cli) >= MIN_SAMPLES:
            break
    samples += cli + other
    if trace:
        oracle = bench.run_lib(oracle=True)
        samples.append(oracle)
        return samples, per_layer(bench, cli, other, oracle)
    attempted, failed, _ = tally(samples)
    return samples, end_to_end(cli, other, refs, attempted, failed)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "foon" / "cli.py").is_file():
        print(f"error: no package source at {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload](args.seed)
    files = workload.files()
    sums = digests(files)
    if digests(WORKLOADS[args.workload](args.seed).files()) != sums:
        print("error: the same seed generated different inputs", file=sys.stderr)
        return 2

    work = WORK / f"{args.workload}-{os.getpid()}"
    try:
        (work / "inputs").mkdir(parents=True)
        for name, data in files.items():
            (work / "inputs" / name).write_bytes(data)
        bench = Bench(workload, work)
        print(f"workload {args.workload} seed {args.seed}: {len(workload.units)} units, "
              f"{len(workload.goals)} goals, jobs {workload.jobs}")
        for name, digest in sums.items():
            print(f"input {name} sha256 {digest}")
        samples, metrics = measure(bench, args.seconds, bool(args.trace))
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run still uses it

    attempted, failed, counts = tally(samples)
    for reason, count in sorted(counts.items()):
        print(f"failed pairs: {count} x {reason}")
    print(f"failed_frac {failed / attempted:.6f} ratio (n={attempted})")
    for name, (value, unit, n) in metrics.items():
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"{name} {shown} {unit} (n={n})")
    result = {
        "correct": not any(
            r.startswith(WRONG_ANSWERS) for s in samples for r in s.reasons if r
        ),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
