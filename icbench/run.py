"""Benchmark of the icrates command line on four workloads.

Usage, from the root of a source checkout:

    python3 icbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One process runs one workload.  It imports the program from ``src/``,
generates the workload's inputs from the seed, warms up, then runs whole
rounds of the workload's fixed request list through ``icrates.cli.main``
until ``S`` seconds of rounds have been measured.  Its set-up time runs from
its own start to the end of the warm-up; the same cold set-up is then
repeated in fresh child processes (``--setup-only``) and the median of all of
them is reported as ``setup_s``.  Afterwards every distinct
output is checked against computations made apart from the program.  The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it holds diagnostics (BLAS
threads, calibration kernel, per-round times).

With ``--trace 0`` the metrics are the end-to-end ones (``wall_s``,
``setup_s``, ``peak_rss_mb``).  With ``--trace 1`` rounds alternate between
untraced and traced, and the metrics are the per-layer ones from the traced
rounds plus the tracing overhead.
"""

from __future__ import annotations

import time

START = time.perf_counter()

import os  # noqa: E402

# One BLAS thread: the default pool of two burned twice the CPU for no
# measurable wall-time gain, and the second thread adds noise on a shared host.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: Cold set-ups whose median is ``setup_s``: this process's own and the rest
#: in fresh child processes.
SETUP_RUNS = 5
CALIBRATION_REPEATS = 7


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="stop after the warm-up and print the set-up time (used for the repeats)")
    return p.parse_args(argv)


def child_setup_s(args: argparse.Namespace) -> float:
    """Cold set-up time of a fresh process on the same workload and seed."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def blas_threads() -> int | None:
    """Thread count reported by numpy's bundled OpenBLAS, if it can be asked."""
    import ctypes
    import glob

    import numpy

    libdir = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def calibration_ms() -> float:
    """Median time of a fixed numpy kernel; tells machine drift from program change."""
    import numpy as np

    rng = np.random.default_rng(12345)
    a = rng.random((384, 384))
    x = rng.random(200_000) + 0.5
    times = []
    for _ in range(CALIBRATION_REPEATS):
        t = time.perf_counter()
        m = a
        for _ in range(8):
            m = (m @ a) / 384.0
        float(m.sum() + np.log2(x).sum())
        times.append((time.perf_counter() - t) * 1e3)
    return statistics.median(times)


def call(cli, argv: list[str]) -> int:
    """Run one request in this process; any escape from ``main`` is a failure."""
    try:
        return int(cli.main(argv))
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else 2
    except Exception:  # a crash of the program is a failed request, not a crashed benchmark
        traceback.print_exc(file=sys.stderr)
        return -1


def read_outputs(plan) -> list[tuple[bytes, str | None]]:
    out = []
    for req in plan.requests:
        try:
            with open(req.out, "rb") as fh:
                doc = fh.read()
            os.remove(req.out)
        except OSError:
            doc = b""
        text = None
        if req.csv:
            try:
                with open(req.csv, encoding="utf-8") as fh:
                    text = fh.read()
                os.remove(req.csv)
            except OSError:
                text = ""
        out.append((doc, text))
    return out


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "icrates")):
        sys.stderr.write(f"program sources not found under {SRC}\n")
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import numpy as np

    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.stderr.write(f"unknown workload {args.workload!r}; "
                         f"choose from {sorted(workloads.WORKLOADS)}\n")
        return 2

    t = time.perf_counter()
    import icrates.cli as cli
    import icrates.gaussian
    import icrates.probtensor
    import icrates.regimes
    import icrates.regions
    import icrates.search
    import icrates.sumcap
    import icrates.verify
    import_s = time.perf_counter() - t
    modules = argparse.Namespace(
        cli=cli, gaussian=icrates.gaussian, probtensor=icrates.probtensor,
        regimes=icrates.regimes, regions=icrates.regions, search=icrates.search,
        sumcap=icrates.sumcap, verify=icrates.verify)

    work = os.path.join(ROOT, ".icbench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    inp, outdir = os.path.join(work, "inputs"), os.path.join(work, "out")
    try:
        # Set-up: input generation and warm-up, timed from this process's start.
        os.makedirs(inp, exist_ok=True)
        os.makedirs(outdir, exist_ok=True)
        plan = workloads.WORKLOADS[args.workload](args.seed, inp, outdir)
        for warm in plan.warmup:
            rc = call(cli, warm)
            if rc != 0:
                sys.stderr.write(f"warm-up request failed with exit code {rc}: {warm}\n")
                return 1
        own_setup_s = time.perf_counter() - START
        if args.setup_only:
            print(json.dumps({"setup_s": own_setup_s}))
            return 0
        calib_before = calibration_ms()

        rounds: list[float] = []
        traced_rounds: list[float] = []
        layer_rounds: list[dict] = []
        rcs: list[list[int]] = []
        outputs: list[list[tuple[bytes, str | None]]] = []
        per_request: list[list[float]] = [[] for _ in plan.requests]
        first_tracer = None

        def run_round(traced: bool) -> None:
            nonlocal first_tracer
            tr = tracing.Tracer()
            patches = tracing.Patches(modules, tr) if traced else contextlib.nullcontext()
            codes = []
            t0 = time.perf_counter()
            with patches:
                for i, req in enumerate(plan.requests):
                    t = time.perf_counter()
                    codes.append(call(cli, req.argv))
                    per_request[i].append(time.perf_counter() - t)
            elapsed = time.perf_counter() - t0
            (traced_rounds if traced else rounds).append(elapsed)
            if traced:
                layer_rounds.append(tr.metrics())
                if first_tracer is None:
                    first_tracer = tr
            rcs.append(codes)
            outputs.append(read_outputs(plan))

        # Whole rounds until the next one would end, on average, past the
        # requested time; a traced run needs at least one round of each kind.
        measured, last = 0.0, 0.0
        while (measured + last / 2 < args.seconds or not rounds
               or (args.trace and not traced_rounds)):
            traced = bool(args.trace) and len(rounds) > len(traced_rounds)
            before = time.perf_counter()
            run_round(traced)
            last = time.perf_counter() - before
            measured += last
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        calib_after = calibration_ms()

        # Checks, once per distinct output of each request.
        rng = np.random.default_rng(np.random.SeedSequence([0xC4EC, args.seed]))
        verdicts: dict[tuple[int, str], list[str]] = {}
        attempted = failed = 0
        correct = True
        for codes, outs in zip(rcs, outputs):
            for i, (req, rc, (doc, text)) in enumerate(zip(plan.requests, codes, outs)):
                attempted += 1
                key = (i, hashlib.sha256(doc + (text or "").encode()).hexdigest())
                if key not in verdicts:
                    try:
                        verdicts[key] = req.check(json.loads(doc), rc, text, rng)
                    except Exception:  # an output the checks cannot read fails them
                        verdicts[key] = ["unreadable output: " + traceback.format_exc(limit=2)]
                problems = verdicts[key]
                if rc != 0 or problems:
                    failed += 1
                if problems:
                    correct = False
                    for p in problems:
                        sys.stderr.write(f"check failed [{req.name}]: {p}\n")
                if rc != 0:
                    sys.stderr.write(f"request failed [{req.name}]: exit code {rc}\n")

        # The other cold set-ups, after the measured rounds so they cannot disturb them.
        setup_times = [own_setup_s]
        if not args.trace:
            setup_times += [child_setup_s(args) for _ in range(SETUP_RUNS - 1)]

        diagnostics = {
            "workload": args.workload, "seed": args.seed, "trace": args.trace,
            "blas_threads_set": BLAS_THREADS, "blas_threads_reported": blas_threads(),
            "calibration_ms": [round(calib_before, 3), round(calib_after, 3)],
            "rounds": len(rounds), "round_s": [round(r, 4) for r in rounds],
            "traced_round_s": [round(r, 4) for r in traced_rounds],
            "setup_runs_s": [round(s, 4) for s in setup_times],
            "import_s": round(import_s, 4),
            "request_median_s": {req.name: round(statistics.median(ts), 4)
                                 for req, ts in zip(plan.requests, per_request)},
            "distinct_outputs": len(verdicts),
        }
        if args.trace:
            layers, varying = tracing.summarize(layer_rounds)
            layers["setup.import_s"] = import_s
            layers["trace.overhead_s"] = statistics.median(traced_rounds) - statistics.median(rounds)
            metrics = {name: {"value": layers[name], "unit": unit}
                       for name, (unit, _) in tracing.LAYER_METRICS.items()}
            diagnostics["counts_varying_between_rounds"] = varying
            out_dir = os.path.join(ROOT, ".icbench_out")
            os.makedirs(out_dir, exist_ok=True)
            spans = os.path.join(out_dir, f"trace-{args.workload}-seed{args.seed}.jsonl")
            first_tracer.write(spans)
            diagnostics["spans_file"] = os.path.relpath(spans, ROOT)
        else:
            metrics = {
                "wall_s": {"value": statistics.median(rounds), "unit": "s"},
                "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
                "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            }
        print(json.dumps({"diagnostics": diagnostics}))
        print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                          "metrics": metrics}))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
