"""Run the FOON CLI in this process with spans around each layer's public calls.

    PYTHONPATH=src python3 perfbench/traced_cli.py OUT.json CLI_ARG...

The tracer works from outside: it replaces the names that ``foon.cli`` and
``foon.search`` imported (parsing, graph building, validation, search,
serialization, file writes) with wrappers that record spans, then calls
``foon.cli.main``. Nothing in the package is edited. Spans stay in memory
and are summarized into OUT.json when the run ends; the process exits with
the CLI's own exit code.
"""

from __future__ import annotations

import functools
import itertools
import json
import pathlib
import sys
import threading
import time

_IMPORT_START = time.perf_counter_ns()
import foon.cli as cli  # noqa: E402
import foon.core as core  # noqa: E402
import foon.search as search  # noqa: E402

_IMPORT_NS = time.perf_counter_ns() - _IMPORT_START


class Tracer:
    """Records (id, parent, name, start, end, counts) spans per thread.

    Each thread keeps its own stack of open spans. A span opened on a
    thread with an empty stack (a pool worker of the CLI) takes the first
    span ever opened, ``cli.main``, as its parent.
    """

    def __init__(self):
        self.spans: list[tuple] = []
        self.root: int | None = None
        self._ids = itertools.count(1)
        self._local = threading.local()

    def wrap(self, name: str, fn, count=None):
        """``fn`` wrapped in a span; ``count(args, result)`` adds counters."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            span_id = next(self._ids)
            parent = stack[-1] if stack else self.root
            if self.root is None:
                self.root = span_id
            stack.append(span_id)
            counts = None
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                counts = count(args, result) if count else None
                return result
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                self.spans.append((span_id, parent, name, start, end, counts))

        return traced

    def summary(self) -> dict:
        """Per span name: calls, self time and summed counters.

        Self time is a span's duration minus the part of it that its child
        spans cover; overlapping children (pool threads) count once.
        """
        children: dict[int, list[tuple[int, int]]] = {}
        for _, parent, _, start, end, _ in self.spans:
            if parent is not None:
                children.setdefault(parent, []).append((start, end))
        layers: dict[str, dict] = {}
        for span_id, _, name, start, end, counts in self.spans:
            entry = layers.setdefault(name, {"calls": 0, "self_ms": 0.0})
            entry["calls"] += 1
            entry["self_ms"] += (end - start - _covered(children.get(span_id, ()), start, end)) / 1e6
            for key, value in (counts or {}).items():
                entry[key] = entry.get(key, 0) + value
        return layers


def _covered(intervals, low: int, high: int) -> int:
    total, reach = 0, low
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, high)
        if end > start:
            total += end - start
            reach = end
    return total


def _search_counts(args, outcome):
    units = len(outcome.tree.steps) if outcome.solved else 0
    return {"expanded": outcome.stats.nodes_expanded, "units": units}


def install(tracer: Tracer) -> None:
    """Swap the imported names for traced wrappers.

    A name the package no longer has is skipped, so its metrics read 0
    instead of breaking the traced run.
    """
    targets = [
        (cli, "parse_foon_text", "parsing.parse_foon_text",
         lambda a, r: {"units": len(r[0])}),
        (cli, "parse_motion_rates", "parsing.parse_motion_rates", None),
        (cli, "apply_motion_rates", "parsing.apply_motion_rates", None),
        (cli, "build_graph", "core.build_graph",
         lambda a, r: {"given": len(a[0]), "kept": len(r.units)}),
        (cli, "parse_kitchen", "parsing.parse_kitchen", None),
        (cli, "parse_goals", "parsing.parse_goals", None),
        (cli, "ids_search", "search.ids_search", _search_counts),
        (cli, "gbfs_search", "search.gbfs_search", _search_counts),
        (cli, "validate_tree", "core.validate_tree", None),
        (cli, "serialize_task_tree", "parsing.serialize_task_tree", None),
        (cli, "export_dot", "parsing.export_dot", None),
        (cli, "format_table", "cli.format_table", None),
        (cli, "_write_report", "cli.report", None),
        (search, "depth_limited_search", "search.depth_limited_search", None),
        (search, "finalize_tree", "search.finalize_tree", None),
        (search, "validate_tree", "core.validate_tree", None),
    ]
    for module, attr, name, count in targets:
        if hasattr(module, attr):
            setattr(module, attr, tracer.wrap(name, getattr(module, attr), count))

    base = type(pathlib.Path())

    class TracedPath(base):
        write_text = tracer.wrap(
            "cli.write", base.write_text, lambda a, r: {"bytes": len(a[1].encode("utf-8"))}
        )

    cli.Path = TracedPath


def main(argv: list[str]) -> int:
    out, cli_args = pathlib.Path(argv[0]), argv[1:]
    tracer = Tracer()
    install(tracer)
    try:
        return tracer.wrap("cli.main", cli.main)(cli_args)
    finally:
        cache_info = getattr(core.node_key, "cache_info", None)
        info = cache_info() if cache_info else None
        out.write_text(
            json.dumps(
                {
                    "import_ms": _IMPORT_NS / 1e6,
                    "layers": tracer.summary(),
                    "node_key": {"calls": info.hits + info.misses, "misses": info.misses}
                    if info
                    else None,
                }
            ),
            encoding="utf-8",
        )


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
