#!/usr/bin/env python3
"""Render a FOON text file as Graphviz DOT on standard output.

    python scripts/render_foon_dot.py recipes.txt > recipes.dot
    dot -Tpng recipes.dot -O
"""

import argparse
import sys
from pathlib import Path

from foon import FoonError, build_graph, export_dot, parse_foon_text


def main(argv=None):
    """Exit 0 on success, 1 on an unreadable file or an invalid FOON, with
    one ``error:`` line. A leading UTF-8 byte-order mark is not text."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("foon_file", help="FOON text file to render")
    args = parser.parse_args(argv)

    try:
        text = Path(args.foon_file).read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: cannot read {args.foon_file}: {exc}", file=sys.stderr)
        return 1
    units, diagnostics = parse_foon_text(text)
    for diag in diagnostics:
        print(f"{args.foon_file}: {diag}", file=sys.stderr)
    if any(d.severity == "error" for d in diagnostics):
        print(f"error: {args.foon_file}: FOON text did not parse", file=sys.stderr)
        return 1
    try:
        graph = build_graph(units)
    except FoonError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    sys.stdout.write(export_dot(graph))
    return 0


if __name__ == "__main__":
    sys.exit(main())
