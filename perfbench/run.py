"""Seeded benchmark of partqr: one workload per process.

    python3 perfbench/run.py --workload qtree-grid --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; partqr is imported from its `src/`. The
workload's inputs are made from `--seed` under `.perfbench_work/`, which is
removed on exit. BLAS and OpenMP run on one thread.

With `--trace 0` the workload is set up three times, then its operation
repeats until `--seconds` of operation time have passed, at least twice.
Raw wall times on a shared host do not repeat, so the gated times are taken
relative to a reference kernel timed inside and around each timed part (see
reference.py): wall_ref is the median operation time in kernel runs, and
setup_s is the import time plus the median set-up time, each in kernel runs,
times REFERENCE_KERNEL_S, that is in seconds at a fixed reference speed. The
raw times are printed beside them.

With `--trace 1` the operation runs once untraced and twice traced, set-up
included. The per-layer metrics come from the first traced pass; the call
counts of both passes must agree, match the workload's fixed counts, and be
nonzero where the workload must reach a function.

Outputs are checked in both modes. The last line of stdout is one JSON
object with `correct`, `attempted`, `failed` and `metrics`; the metric names
and units are those of BENCHMARK.json. Lines before it describe the run.
"""

import time

_START = time.perf_counter()  # set-up time includes the imports below

import os

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:  # before numpy loads its BLAS
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import shutil
import statistics
import sys

import numpy
import scipy

from reference import KernelSampler
from tracer import Tracer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 3
# seconds one reference-kernel run counts for in setup_s
REFERENCE_KERNEL_S = 0.05
MIN_REPEATS = 2
TRACED_PASSES = 2


def _import_program():
    """Import partqr from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "partqr", "__init__.py")):
        raise SystemExit(f"perfbench: no partqr sources under {SRC}")
    sys.path.insert(0, SRC)
    import partqr

    if not os.path.abspath(partqr.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"perfbench: partqr imported from {partqr.__file__}, not {SRC}")
    import workloads

    return workloads


def _run_timed(wl, ledger, seconds: float, import_s: float) -> dict:
    sampler = KernelSampler()
    import_ref = import_s / sampler.last
    setups = [sampler.measure(lambda: wl.setup(ledger)) for _ in range(SETUP_REPEATS)]
    samples = []
    while len(samples) < MIN_REPEATS or sum(s["wall_s"] for s in samples) < seconds:
        samples.append(wl.run_once(ledger, sampler))
        wl.check_outputs(ledger)
    wl.verify(ledger)

    median_ae, gap = wl.quality()
    print(f"import: {import_s:.4f} s; set-up runs (s):", " ".join(f"{t:.4f}" for t, _ in setups))
    print("operation runs (s):", " ".join(f"{s['wall_s']:.4f}" for s in samples))
    print("operation runs (ref):", " ".join(f"{s['wall_ref']:.4f}" for s in samples))
    rates = [wl.rows_per_s(s) for s in samples]
    for name in rates[0]:
        print(f"predict_rows_per_s.{name}: {statistics.median(r[name] for r in rates):.1f} rows/s")
    print(f"coverage_gap_pct: {gap:.4f} %")
    return {
        "setup_s": REFERENCE_KERNEL_S * (import_ref + statistics.median(t / k for t, k in setups)),
        "wall_ref": statistics.median(s["wall_ref"] for s in samples),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "output_bytes": wl.output_bytes(),
        "median_ae": median_ae,
    }


def _run_traced(wl, ledger) -> dict:
    wl.setup(ledger)
    reference = wl.run_once(ledger)
    wl.check_outputs(ledger)
    passes = []
    for _ in range(TRACED_PASSES):
        tracer = Tracer()
        with tracer:
            wl.setup(ledger)
            sample = wl.run_once(ledger)
        wl.check_outputs(ledger)
        passes.append((tracer, sample))
    wl.verify(ledger)

    tracer, sample = passes[0]
    metrics = tracer.metrics()
    counts = tracer.counts()
    for other, _ in passes[1:]:
        diff = sorted(k for k, v in other.counts().items() if counts[k] != v)
        ledger.check(not diff, f"traced counts differ between passes: {diff}")
    for name, want in wl.exact_counts().items():
        ledger.check(metrics[name] == want, f"{name} is {metrics[name]}, expected {want}")
    for label in wl.expected_nonzero:
        ledger.check(metrics[f"{label}.calls"] > 0, f"{label}.calls is 0")

    metrics["wall_s"] = reference["wall_s"]
    metrics["trace.overhead_s"] = sample["wall_s"] - reference["wall_s"]
    for name, rate in wl.rows_per_s(reference).items():
        metrics[f"predict_rows_per_s.{name}"] = rate
    metrics["coverage_gap_pct"] = wl.quality()[1]
    print(f"untraced operation: {reference['wall_s']:.4f} s; traced: {sample['wall_s']:.4f} s")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    workloads = _import_program()
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    import_s = time.perf_counter() - _START
    print(
        f"workload {args.workload} seed {args.seed} trace {args.trace}; nproc {os.cpu_count()}, "
        f"python {platform.python_version()}, numpy {numpy.__version__}, scipy {scipy.__version__}"
    )

    workdir = os.path.join(ROOT, ".perfbench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    ledger = workloads.Ledger()
    try:
        wl = workloads.WORKLOADS[args.workload](workdir, args.seed)
        if args.trace:
            values = _run_traced(wl, ledger)
        else:
            values = _run_timed(wl, ledger, args.seconds, import_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass  # another run still uses it

    listed = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
    for name, m in metrics.items():
        print(f"{name}: {m['value']} {m['unit']}")
    for breach in ledger.breaches:
        print(f"CHECK FAILED: {breach}")
    print(f"failed_ratio: {ledger.failed}/{ledger.attempted}")
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
