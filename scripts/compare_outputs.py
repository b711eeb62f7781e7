#!/usr/bin/env python3
"""Compare two ``run_scenarios.py`` output directories cell by cell.

Usage: ``python scripts/compare_outputs.py A B [--max-rel X]``

A cell is a CSV field (``*.csv``), a leaf of the JSON document
(``*.json``) or a whitespace-separated token of any other file.  For each
file the table gives changed/total cells and the largest relative
difference ``|a - b| / max(|a|, |b|)`` over the numeric cells that changed;
a changed cell that is not a number on both sides, a file present on one
side only, or a different number of cells counts as ``inf``.  Exits 0 when
no cell changed, or with ``--max-rel X`` when every changed cell is numeric
and within ``X``, and 1 otherwise.
"""

import argparse
import csv
import json
import math
import sys
from pathlib import Path


def _cells(path):
    if path.suffix == ".csv":
        with open(path, newline="", encoding="utf-8") as fh:
            return [cell for row in csv.reader(fh) for cell in row]
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".json":
        leaves = []

        def walk(node):
            if isinstance(node, dict):
                for value in node.values():
                    walk(value)
            elif isinstance(node, list):
                for value in node:
                    walk(value)
            else:
                leaves.append(node)

        walk(json.loads(text))
        return leaves
    return text.split()


def _number(cell):
    if isinstance(cell, bool) or cell is None:
        return None
    try:
        return float(cell)
    except (TypeError, ValueError):
        return None


def _rel_diff(a, b):
    x, y = _number(a), _number(b)
    if x is None or y is None:
        return math.inf
    scale = max(abs(x), abs(y))
    return abs(x - y) / scale if scale else 0.0


def compare(dir_a, dir_b):
    """``(name, changed, total, max_rel)`` for every file name in either
    directory, sorted by name."""
    names = sorted({p.name for d in (dir_a, dir_b) for p in d.iterdir() if p.is_file()})
    rows = []
    for name in names:
        a, b = dir_a / name, dir_b / name
        if not (a.is_file() and b.is_file()):
            rows.append((name, 1, 1, math.inf))
            continue
        cells_a, cells_b = _cells(a), _cells(b)
        changed = [(x, y) for x, y in zip(cells_a, cells_b) if x != y]
        rel = max((_rel_diff(x, y) for x, y in changed), default=0.0)
        if len(cells_a) != len(cells_b):
            rel = math.inf
        rows.append((name, len(changed), max(len(cells_a), len(cells_b)), rel))
    return rows


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", type=Path)
    parser.add_argument("b", type=Path)
    parser.add_argument(
        "--max-rel", type=float, default=None, metavar="X",
        help="also exit 0 when every changed cell is numeric and within X",
    )
    args = parser.parse_args(argv)
    rows = compare(args.a, args.b)
    width = max([len("file")] + [len(name) for name, *_ in rows])
    print(f"{'file':<{width}}  {'changed/total':>15}  {'max_rel_diff':>12}")
    for name, changed, total, rel in rows:
        print(f"{name:<{width}}  {f'{changed}/{total}':>15}  {rel:>12.3g}")
    if args.max_rel is not None:
        return 1 if any(rel > args.max_rel for *_, rel in rows) else 0
    return 1 if any(changed for _, changed, _, _ in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
