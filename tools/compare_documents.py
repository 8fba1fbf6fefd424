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
if any does.
"""

from __future__ import annotations

import argparse
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


def diff(a: dict, b: dict) -> list[str]:
    lines = []
    for part in ("documents", "exit_codes"):
        for key in sorted(a[part].keys() | b[part].keys()):
            if a[part].get(key) != b[part].get(key):
                lines.append(f"{part}: {key}")
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
