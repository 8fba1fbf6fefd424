"""Run every workload on several seeds, in two sets, plus two traced runs.

Usage, from the root of a source checkout:

    python3 icbench/report.py --seeds 1-10

For each workload this runs ``run.py`` once per seed with tracing off, then
the same again as a second set, then twice with tracing on (seed 1).  It
prints, as Markdown:

- each end-to-end metric's median and quartile spread (Q3 - Q1 over the
  median, as ``statistics.quantiles(values, n=4)`` gives them) in each set,
  how much worse the second set's median is than the first's, and whether
  both stay within the metric's bound in ``BENCHMARK.json`` (the spread of
  ``setup_s`` is not bounded); the same for the calibration kernel;
- requests attempted and failed in each set, whether every output was
  correct, the BLAS thread count, rounds per run, whether all counts of the
  two traced runs agree, and the tracing overhead;
- every per-layer metric of the first traced run.

Raw results go to ``.icbench_out/report.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TRACED_SEED = 1
SETS = ("first", "second")


def seed_list(spec: str) -> list[int]:
    if "-" in spec:
        lo, hi = spec.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in spec.split(",")]


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["diagnostics"] = json.loads(lines[-2])["diagnostics"]
    print(f"  {workload} seed={seed} trace={trace}: "
          + json.dumps({k: v["value"] for k, v in result["metrics"].items()} if not trace else
                       {"correct": result["correct"]}), file=sys.stderr, flush=True)
    return result


def spread(values: list[float]) -> tuple[float, float]:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return median, (q3 - q1) / median


def summarize(raw: dict[str, dict], spec: dict) -> None:
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    print("| workload | metric | median 1 | spread 1 | median 2 | spread 2 | 2 worse than 1 by | bound | within |")
    print("|---|---|---|---|---|---|---|---|---|")
    for name, runs in raw.items():
        sets = [runs[s] for s in SETS]
        metrics = [(m, [[r["metrics"][m]["value"] for r in rs] for rs in sets]) for m in bounds]
        metrics.append(("calibration kernel (ms)",
                        [[statistics.median(r["diagnostics"]["calibration_ms"]) for r in rs] for rs in sets]))
        for metric, (one, two) in metrics:
            (m1, s1), (m2, s2) = spread(one), spread(two)
            b = bounds.get(metric)
            if b is None:
                print(f"| {name} | {metric} | {m1:.4g} | {s1:.3f} | {m2:.4g} | {s2:.3f} | — | — | — |")
                continue
            worse = (m2 - m1) / m1 if b["better"] == "lower" else (m1 - m2) / m1
            ok = worse <= b["bound"] and (metric == "setup_s" or max(s1, s2) <= b["bound"])
            print(f"| {name} | {metric} | {m1:.4g} | {s1:.3f} | {m2:.4g} | {s2:.3f} "
                  f"| {worse:+.3f} | {b['bound']} | {'yes' if ok else 'NO'} |")
    print()
    print("| workload | attempted (1, 2) | failed (1, 2) | all correct | BLAS threads "
          "| rounds per run (set 1) | counts equal in 2 traced runs | tracing overhead (s) |")
    print("|---|---|---|---|---|---|---|---|")
    for name, runs in raw.items():
        traced = runs["traced"]
        first, second = (t["metrics"] for t in traced)
        same = all(first[m]["value"] == second[m]["value"] for m in first if first[m]["unit"] != "s")
        every = [r for s in SETS for r in runs[s]] + traced
        print(f"| {name} | {', '.join(str(sum(r['attempted'] for r in runs[s])) for s in SETS)} "
              f"| {', '.join(str(sum(r['failed'] for r in runs[s])) for s in SETS)} "
              f"| {all(r['correct'] for r in every)} "
              f"| {runs['first'][0]['diagnostics']['blas_threads_reported']} "
              f"| {', '.join(str(r['diagnostics']['rounds']) for r in runs['first'])} | {same} "
              f"| {first['trace.overhead_s']['value']:.3f}, {second['trace.overhead_s']['value']:.3f} |")
    print()
    print(f"Per-layer metrics, first traced run (seed {TRACED_SEED}):\n")
    names = list(raw)
    print("| metric | unit | " + " | ".join(names) + " |\n|---|---|" + "---|" * len(names))
    firsts = [raw[n]["traced"][0]["metrics"] for n in names]
    for metric, v in firsts[0].items():
        print(f"| `{metric}` | {v['unit']} | " + " | ".join(f"{f[metric]['value']:.4g}" for f in firsts) + " |")


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--seconds", type=float, default=None,
                   help="run length (default: run_seconds of BENCHMARK.json)")
    args = p.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]
    raw: dict[str, dict] = {name: {} for name in names}
    for s in SETS:
        for name in names:
            raw[name][s] = [run(name, seed, seconds, 0) for seed in seed_list(args.seeds)]
    for name in names:
        raw[name]["traced"] = [run(name, TRACED_SEED, seconds, 1) for _ in range(2)]

    out_dir = os.path.join(ROOT, ".icbench_out")
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "report.json"), "w", encoding="utf-8") as fh:
        json.dump(raw, fh, indent=1)
    print(f"Runs of {seconds:g} s, seeds {args.seeds} in each of two sets, traced seed {TRACED_SEED}.\n")
    summarize(raw, spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
