"""Collect the benchmark workloads' output documents, or diff two collections.

    python tools/compare_documents.py run OUT.json [--seeds 1 2 3]
        [--workloads NAME ...] [--root CHECKOUT]
    python tools/compare_documents.py diff A.json B.json

``run`` builds each workload's request list from ``icbench/workloads.py``
for every seed, runs each request once in this process through
``icrates.cli.main``, and writes every output file's text and every exit
code into ``OUT.json``.  ``--root`` names the checkout whose ``src`` and
``icbench`` are used (by default the one holding this script), so two
checkouts can be collected with the same script.  ``diff`` lists the
documents and exit codes that differ between two collections and exits 1
if any does.  For each differing document it prints every moved JSON path
(or CSV cell, as ``row:column``) with its old and new value, then the
document's largest numeric ``|delta|``; a last line names the worst
deviation over all documents.
"""

from __future__ import annotations

import argparse
import csv
import io
import itertools
import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))


def collect(root: str, workloads: list[str] | None, seeds: list[int]) -> dict:
    """Every output text and exit code of ``workloads`` (default: all) at ``seeds``."""
    sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "icbench")]
    import workloads as wl

    from icrates import cli

    docs: dict[str, str] = {}
    codes: dict[str, int] = {}
    for name in workloads or wl.WORKLOADS:
        for seed in seeds:
            with tempfile.TemporaryDirectory() as work:
                inp, out = os.path.join(work, "in"), os.path.join(work, "out")
                os.makedirs(inp)
                os.makedirs(out)
                for req in wl.WORKLOADS[name](seed, inp, out).requests:
                    codes[f"{name}/{seed}/{req.name}"] = cli.main(req.argv)
                    for path in filter(None, (req.out, req.csv)):
                        with open(path, encoding="utf-8") as fh:
                            docs[f"{name}/{seed}/{os.path.basename(path)}"] = fh.read()
    return {"documents": docs, "exit_codes": codes}


def _moves(old: object, new: object, path: str = "") -> list[tuple[str, object, object]]:
    """``(path, old, new)`` of every leaf that differs between two JSON values."""
    if isinstance(old, dict) and isinstance(new, dict):
        return [m for k in sorted(old.keys() | new.keys())
                for m in _moves(old.get(k), new.get(k), f"{path}/{k}")]
    if isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        return [m for i, (x, y) in enumerate(zip(old, new)) for m in _moves(x, y, f"{path}/{i}")]
    return [] if old == new else [(path or "/", old, new)]


def _csv_moves(old: str, new: str) -> list[tuple[str, object, object]]:
    """``(row:column, old, new)`` of every differing CSV cell, numbers parsed."""
    rows_a, rows_b = (list(csv.reader(io.StringIO(t))) for t in (old, new))
    if len(rows_a) != len(rows_b) or rows_a[:1] != rows_b[:1]:
        return [("shape", f"{len(rows_a)} rows", f"{len(rows_b)} rows")]
    header = rows_a[0]
    return [(f"{r}:{header[c] if c < len(header) else c}", _number(x), _number(y))
            for r, (ra, rb) in enumerate(zip(rows_a, rows_b)) if ra != rb
            for c, (x, y) in enumerate(itertools.zip_longest(ra, rb)) if x != y]


def _number(cell: str | None) -> object:
    try:
        return float(cell)
    except (TypeError, ValueError):
        return cell


def _delta(old: object, new: object) -> float | None:
    """``|new - old|`` when both are numbers (not booleans), else None."""
    if all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (old, new)):
        return abs(new - old)
    return None


def document_moves(key: str, old: str | None, new: str | None) -> list[tuple[str, object, object]]:
    """The moved fields of one document: JSON paths, CSV cells, or the whole text."""
    if old is None or new is None:
        return [("document", old is not None, new is not None)]
    if key.endswith(".csv"):
        return _csv_moves(old, new)
    try:
        return _moves(json.loads(old), json.loads(new))
    except json.JSONDecodeError:
        return [("text", old, new)]


def diff(a: dict, b: dict) -> list[str]:
    """Report lines for every differing document and exit code, with moved
    fields, their old and new values and the largest numeric change."""
    lines = []
    worst: tuple[float, str] | None = None
    for key in sorted(a["exit_codes"].keys() | b["exit_codes"].keys()):
        if a["exit_codes"].get(key) != b["exit_codes"].get(key):
            lines.append(f"exit_codes: {key}: {a['exit_codes'].get(key)} -> {b['exit_codes'].get(key)}")
    for key in sorted(a["documents"].keys() | b["documents"].keys()):
        old, new = a["documents"].get(key), b["documents"].get(key)
        if old == new:
            continue
        lines.append(f"documents: {key}")
        largest = None
        for path, x, y in document_moves(key, old, new):
            d = _delta(x, y)
            lines.append(f"  {path}: {x!r} -> {y!r}" + ("" if d is None else f" (|delta| {d:.3g})"))
            if d is not None:
                largest = d if largest is None else max(largest, d)
                if worst is None or d > worst[0]:
                    worst = (d, f"{key} {path}")
        lines.append("  largest |delta|: " + ("none numeric" if largest is None else f"{largest:.3g}"))
    if lines:
        lines.append("worst deviation: " + ("none numeric" if worst is None
                                            else f"{worst[0]:.3g} at {worst[1]}"))
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    p = sub.add_parser("run", help="collect the documents of the chosen workloads")
    p.add_argument("out")
    p.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    p.add_argument("--workloads", nargs="+", default=None, help="default: every workload")
    p.add_argument("--root", default=os.path.dirname(HERE), help="checkout to run")
    p = sub.add_parser("diff", help="list the documents that differ between two collections")
    p.add_argument("a")
    p.add_argument("b")
    args = parser.parse_args(argv)

    if args.cmd == "run":
        result = collect(os.path.abspath(args.root), args.workloads, args.seeds)
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(result, fh, indent=1, sort_keys=True)
        print(f"{len(result['documents'])} documents, {len(result['exit_codes'])} requests")
        return 0

    with open(args.a, encoding="utf-8") as fa, open(args.b, encoding="utf-8") as fb:
        a, b = json.load(fa), json.load(fb)
    lines = diff(a, b)
    print("\n".join(lines) if lines else f"all {len(a['documents'])} documents and "
          f"{len(a['exit_codes'])} exit codes are identical")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
