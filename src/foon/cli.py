"""Command-line front end for FOON task-tree retrieval.

Three subcommands, which all read a FOON text file through ``load_graph``:

  * ``run``   searches each goal of a goal document, from a kitchen document
              and optional motion success rates, with the selected
              algorithm(s) and writes one task-tree file per solved
              (goal, algorithm) pair,
  * ``bench`` forces all three algorithms and additionally prints a pivoted
              goal-by-algorithm summary of functional-unit counts,
  * ``dot``   prints the Graphviz DOT of the whole FOON.

Exit codes: 0 all goals solved (for ``dot``: the DOT printed), 1 usage,
input or write error, 2 at least one goal unsolved. Every input error and
warning names its file; an input file may start with a UTF-8 byte-order
mark. A failed tree or DOT write is recorded in its report row (and reads
``error`` in the table) and the run goes on; the exit code is still 1. So
is a failed write to standard output, which still writes the report; a
label stdout cannot encode prints with backslash escapes in the table, and
is a write error for ``dot``.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import warnings
from pathlib import Path

from .core import FoonError, FoonGraph, ObjectNode, build_graph
from .parsing import (
    ERROR,
    FoonWarning,
    RenderMemo,
    apply_motion_rates,
    export_dot,
    parse_foon_text,
    parse_goals,
    parse_kitchen,
    parse_motion_rates,
    serialize_task_tree,
)
from .search import ALGORITHMS, DEFAULT_MAX_DEPTH, SOLVED, run_algorithm


def _write_text(path: Path, text: str) -> None:
    try:
        path.write_text(text, encoding="utf-8")
    except OSError as exc:
        raise FoonError(f"cannot write {path}: {exc.strerror or exc}") from exc


def slugify(label: str) -> str:
    """Filesystem-safe ASCII name for a goal label.

    A slug over 200 characters keeps its first 191 and ends in ``_`` and 8
    hex digits of the label's sha1, so every file name stays within the
    usual 255-byte limit.
    """
    slug = re.sub(r"[^a-z0-9_.-]+", "_", label.replace(" ", "_"))
    if len(slug) > 200:
        import hashlib  # here, so that a run with short labels never loads it
        # A JSON label can hold a lone surrogate, which strict UTF-8 rejects.
        digest = hashlib.sha1(label.encode("utf-8", "surrogatepass")).hexdigest()
        slug = f"{slug[:191]}_{digest[:8]}"
    return slug


def _assign_slugs(goals: list[ObjectNode]) -> list[str]:
    # A repeated slug gets _2, _3, ..., bumped past every slug already given
    # out, so it cannot take the stem of a label that itself ends in "_2".
    # Each base resumes at its last suffix, as all below it are taken: O(n).
    slugs: list[str] = []
    taken: set[str] = set()
    last_count: dict[str, int] = {}
    for goal in goals:
        base = slug = slugify(goal.label)
        count = last_count.get(base, 1)
        while slug in taken:
            count += 1
            slug = f"{base}_{count}"
        last_count[base] = count
        taken.add(slug)
        slugs.append(slug)
    return slugs


def _read_text(path: str, what: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        raise FoonError(f"cannot read {what} file {path}: {exc}") from exc


def _from_file(path: str, call, *call_args):
    """Return ``call(*call_args)`` on input read from ``path``: its warnings
    print as ``<path>: warning: ...`` and its FoonError reads ``<path>: ...``."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", FoonWarning)
        try:
            result = call(*call_args)
        except FoonError as exc:
            raise FoonError(f"{path}: {exc}") from exc
    for caught_warning in caught:
        print(f"{path}: warning: {caught_warning.message}", file=sys.stderr)
    return result


def load_graph(foon: str, motion_rates: str | None = None) -> FoonGraph:
    """Read, parse and build the FOON file ``foon``, with the success rates
    of the ``motion_rates`` file applied if one is given. Diagnostics and
    warnings print to stderr; any problem raises FoonError."""
    units, diagnostics = parse_foon_text(_read_text(foon, "FOON"))
    for diag in diagnostics:
        print(f"{foon}: {diag}", file=sys.stderr)
    if any(d.severity == ERROR for d in diagnostics):
        raise FoonError(f"{foon}: FOON text did not parse")

    if motion_rates:
        text = _read_text(motion_rates, "motion rates")
        rates = _from_file(motion_rates, parse_motion_rates, text)
        units = _from_file(motion_rates, apply_motion_rates, units, rates)

    return _from_file(foon, build_graph, units)


def _run_goals(args, algorithms) -> list[dict]:
    """One report row, a JSON object, per (goal, algorithm) in that order.
    ``reason``, ``missing_key`` and ``final_depth_bound`` come from the
    search outcome and are None where the search gives none; ``error`` is a
    failed tree or DOT write."""
    graph = load_graph(args.foon, args.motion_rates)
    kitchen = _from_file(args.kitchen, parse_kitchen, _read_text(args.kitchen, "kitchen"))
    goals = _from_file(args.goals, parse_goals, _read_text(args.goals, "goals"))
    out_dir = Path(args.out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise FoonError(f"cannot write {out_dir}: {exc.strerror or exc}") from exc
    rows: list[dict] = []
    # One memo for the run: each distinct node and unit renders once.
    memo = RenderMemo()
    for goal, slug in zip(goals, _assign_slugs(goals)):
        for algorithm in algorithms:
            # Searches return only validated trees; they are written as is.
            outcome = run_algorithm(algorithm, graph, kitchen, goal, args.max_depth)
            tree = outcome.tree
            error = None
            if tree is not None:
                # Appended, not Path.with_suffix, which would cut a dotted
                # label such as "1.5 cup" at its first dot.
                stem = f"{slug}_{algorithm}"
                # A failed write is this row's error; the run goes on.
                try:
                    _write_text(out_dir / f"{stem}.txt", serialize_task_tree(tree, memo))
                    if args.emit_dot:
                        _write_text(out_dir / f"{stem}.dot", export_dot(tree, memo))
                except FoonError as exc:
                    error = str(exc)
                    print(f"error: {error}", file=sys.stderr)
            stats = outcome.stats
            rows.append({
                "goal_label": goal.label,
                "algorithm": algorithm,
                "status": outcome.status,
                "functional_unit_count": None if tree is None else len(tree.steps),
                "nodes_expanded": stats.nodes_expanded,
                "elapsed_seconds": stats.elapsed_seconds,
                "error": error,
                "reason": outcome.reason,
                "missing_key": outcome.missing_key,
                "final_depth_bound": stats.final_depth_bound,
            })
    return rows


def _render_columns(headers: tuple[str, ...], cells: list[tuple[str, ...]]) -> str:
    """Left-aligned columns, two spaces apart, no trailing blanks.

    A character stdout cannot encode is written as a backslash escape before
    the widths are taken, so every row keeps its columns aligned.
    """
    enc = getattr(sys.stdout, "encoding", None) or "utf-8"
    lines = [
        tuple(v.encode(enc, "backslashreplace").decode(enc) for v in line)
        for line in (headers, *cells)
    ]
    widths = [max(len(v) for v in column) for column in zip(*lines)]
    return "\n".join(
        "  ".join(v.ljust(w) for v, w in zip(line, widths)).rstrip() for line in lines
    )


def format_table(rows: list[dict]) -> str:
    headers = ("goal", "algorithm", "status", "units", "expanded", "time_ms")
    cells = [
        (
            row["goal_label"],
            row["algorithm"],
            "error" if row["error"] else row["status"],
            "-" if row["functional_unit_count"] is None else str(row["functional_unit_count"]),
            str(row["nodes_expanded"]),
            f"{row['elapsed_seconds'] * 1000:.1f}",
        )
        for row in rows
    ]
    return _render_columns(headers, cells)


def format_pivot(rows: list[dict]) -> str:
    """Goal-by-algorithm table of functional-unit counts, one row per goal
    entry in goal order ('-' when the search or the tree write failed).

    ``bench`` runs every algorithm for each goal entry, in ``ALGORITHMS``
    order, so each run of ``len(ALGORITHMS)`` rows is one goal entry: two
    goals that share a label keep a row each.
    """
    size = len(ALGORITHMS)
    cells = [
        (rows[start]["goal_label"],)
        + tuple(
            "-" if row["functional_unit_count"] is None or row["error"]
            else str(row["functional_unit_count"])
            for row in rows[start : start + size]
        )
        for start in range(0, len(rows), size)
    ]
    return _render_columns(("goal", *ALGORITHMS), cells)


def _write_report(rows: list[dict], path: str) -> None:
    _write_text(Path(path), json.dumps({"rows": rows}, indent=2) + "\n")


def _print_stdout(text: str) -> bool:
    """Write ``text``; on a write error print an error line and return False."""
    try:
        print(text, end="", flush=True)
    except UnicodeEncodeError as exc:
        # Nothing was written. Unlike the table, DOT is not escaped: Graphviz
        # would draw the escaped label as another node.
        print(f"error: cannot write standard output: {exc}", file=sys.stderr)
        return False
    except OSError as exc:
        print(f"error: cannot write standard output: {exc.strerror or exc}", file=sys.stderr)
        # What is still buffered would fail again at interpreter exit, with an
        # "Exception ignored" message: let it go to the null device.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return False
    return True


def _add_common_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--foon", required=True, help="FOON text file")
    parser.add_argument("--kitchen", required=True, help="kitchen JSON file")
    parser.add_argument("--goals", required=True, help="goal-node JSON file")
    parser.add_argument(
        "--motion-rates", help="JSON file mapping motion label to success rate"
    )
    parser.add_argument(
        "--max-depth",
        type=int,
        default=DEFAULT_MAX_DEPTH,
        help="iterative-deepening depth cap; far above any desk-scale recipe "
        "chain (default: %(default)s)",
    )
    parser.add_argument(
        "--out-dir", default="./output", help="directory for task-tree files"
    )
    parser.add_argument(
        "--emit-dot", action="store_true", help="also write Graphviz .dot files"
    )
    parser.add_argument("--report", help="write a JSON report to this path")
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="accepted for compatibility and ignored: goals always run "
        "serially, since threads gained nothing under the GIL",
    )


class _ArgumentParser(argparse.ArgumentParser):
    """argparse, but a usage error exits 1: exit code 2 means a goal is unsolved."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="foon", description="Task-tree retrieval from FOON graphs."
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="retrieve task trees for each goal")
    _add_common_arguments(run)
    run.add_argument(
        "--algorithm",
        choices=(*(name.replace("_", "-") for name in ALGORITHMS), "all"),
        default="all",
        help="search algorithm (default: %(default)s)",
    )

    bench = sub.add_parser(
        "bench", help="run all three algorithms per goal and print a summary"
    )
    _add_common_arguments(bench)

    dot = sub.add_parser("dot", help="print the Graphviz DOT of a whole FOON")
    dot.add_argument("--foon", required=True, help="FOON text file")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "dot":
            return 0 if _print_stdout(export_dot(load_graph(args.foon))) else 1
        if args.max_depth < 1:
            raise FoonError("--max-depth must be at least 1")
        if args.command == "run" and args.algorithm != "all":
            algorithms = (args.algorithm.replace("-", "_"),)
        else:
            algorithms = tuple(ALGORITHMS)
        rows = _run_goals(args, algorithms)
        text = format_table(rows)
        if args.command == "bench":
            text += "\n\n" + format_pivot(rows)
        printed = _print_stdout(text + "\n")
        if args.report:
            _write_report(rows, args.report)
    except FoonError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if not printed or any(row["error"] for row in rows):
        return 1
    return 0 if all(row["status"] == SOLVED for row in rows) else 2


if __name__ == "__main__":
    sys.exit(main())
