"""Benchmark kstab: one named workload in one Python process.

    python3 bench/run.py --workload exact_ladder --seed 3 --seconds 30 --trace 0

Run from the root of a kstab checkout; kstab is imported from its src/
directory.  The run repeats whole rounds of the workload's fixed list of
operations for about --seconds (at least MIN_ROUNDS rounds), checks every
output outside the timed region, and prints as its last stdout line

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics when --trace is 0 and the per-layer metrics
when it is 1.  An operation's time is its mean over the run's rounds, so
every figure averages the whole run (see bench/README.md for why).  A
traced run times every operation untraced and then traced; the tracing
overhead is the difference of the two mean rounds.  Each run also writes
a record (machine, metrics, per-operation times, failures and, when
traced, the spans) under bench/out/.
"""

import argparse
import ctypes
import gc
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

# One BLAS thread: runs on a shared 2-core machine stay steadier, and the
# figures are a single-threaded baseline.  Must be set before numpy loads.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")

# Set-up is measured SETUP_REPEATS times and the medians taken: the start
# of a fresh interpreter that imports kstab (what every `kstab` command
# pays), and in this process the input generation plus the warm-up
# operation right after kstab is imported afresh.
SETUP_REPEATS = 5
# Every operation runs in at least this many rounds, so that repeated
# reports can be compared byte for byte.
MIN_ROUNDS = 2
FRESH_IMPORT = "import sys; sys.path.insert(0, sys.argv[1]); import kstab, kstab.cli"

END_TO_END = {"setup_s": "s", "wall_s": "s", "op_p50_s": "s", "peak_rss_mb": "MB"}


class BenchError(Exception):
    """The benchmark cannot run here (no kstab sources, bad arguments)."""


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_kstab():
    """Import kstab (and kstab.cli) afresh from the checkout's src/."""
    for name in [n for n in sys.modules if n == "kstab" or n.startswith("kstab.")]:
        del sys.modules[name]
    src = ROOT / "src"
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    try:
        ks = importlib.import_module("kstab")
        importlib.import_module("kstab.cli")
    except ImportError as exc:
        raise BenchError(f"cannot import kstab from {src}: {exc}") from exc
    if Path(ks.__file__).resolve().parent != src / "kstab":
        raise BenchError(f"kstab was imported from {ks.__file__}, not from {src}")
    return ks


def fresh_import_seconds() -> float:
    """Wall time of a new interpreter that imports kstab and exits."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", FRESH_IMPORT, str(ROOT / "src")], capture_output=True, text=True
    )
    if proc.returncode != 0:
        raise BenchError(f"a fresh interpreter cannot import kstab: {proc.stderr.strip()}")
    return time.perf_counter() - start


def speed_probe() -> float:
    """Median seconds of a fixed Python loop plus a fixed matrix product.

    The run records it at its start and end, so that a change in the
    machine's own speed can be told apart from a change in kstab.
    """
    import numpy as np

    a = np.ones((256, 256))
    times = []
    for _ in range(3):
        start = time.perf_counter()
        total = 0
        for i in range(1_000_000):
            total += i
        for _ in range(20):
            a @ a
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def blas_threads() -> dict:
    """Thread count reported by each loaded OpenBLAS, by library file name."""
    out = {}
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return out
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "openblas_get_num_threads64_"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out[Path(lib).name] = fn()
                break
    return out


def machine_record(speed: list[float]) -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), cpu)
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_set": BLAS_THREADS,
        "blas_threads_seen": blas_threads(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "speed_probe_s": speed,
    }


def run_rounds(ks, workload, seconds: float, trace: bool, tracer, reset_caches) -> dict:
    """Run whole rounds for about `seconds`; check outputs after each round.

    Every round replays the workload's operation list.  Another round starts
    if fewer than MIN_ROUNDS have run, or if one more round of the mean
    length so far ends nearer to `seconds` than stopping now does.  A traced run
    times each operation untraced and then traced, back to back on the same
    inputs.  times[traced][j] lists operation j's time in every round.
    """
    modes = (False, True) if trace else (False,)
    times = {traced: [[] for _ in workload.ops] for traced in modes}
    ops_log = []
    correct = True
    index = 0
    began = time.perf_counter()
    while True:
        for path in workload.out_dir.iterdir():
            shutil.rmtree(path)
        results = []
        for j, op in enumerate(workload.ops):
            for traced in modes:
                reset_caches(ks)
                gc.collect()
                if traced:
                    tracer.op = f"{index}:{j}"
                    tracer.install()
                start = time.perf_counter()
                try:
                    out, raised = op.run(), None
                except Exception as exc:  # an operation that raises counts as failed
                    out, raised = None, f"{type(exc).__name__}: {exc}"
                elapsed = time.perf_counter() - start
                if traced:
                    tracer.uninstall()
                times[traced][j].append(elapsed)
                results.append((op, traced, out, raised, elapsed))
        for op, traced, out, raised, seconds_taken in results:
            try:
                errors = [] if raised else op.check(out)
            except Exception as exc:  # a check that cannot run fails the operation
                errors = [f"check raised {type(exc).__name__}: {exc}"]
            fault = raised or op.fault(out)
            correct = correct and not errors
            ops_log.append({
                "round": index, "op": op.name, "traced": traced, "seconds": seconds_taken,
                "fault": fault, "check_errors": errors,
            })
            if fault or errors:
                print(f"failed: round {index} {op.name}: {fault or ''} {errors or ''}", file=sys.stderr)
        index += 1
        spent = time.perf_counter() - began
        if index >= MIN_ROUNDS and spent + spent / index / 2 > seconds:
            break
    failed = sum(1 for o in ops_log if o["fault"] or o["check_errors"])
    return {
        "times": times, "rounds": index, "ops": ops_log,
        "correct": correct, "attempted": len(ops_log), "failed": failed,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    import tracing
    import workloads  # imports numpy, so after the thread count is fixed

    if args.workload not in workloads.WORKLOADS:
        raise BenchError(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    OUT_DIR.mkdir(exist_ok=True)
    speed = [speed_probe()]
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR))
    try:
        imports, preps = [], []
        for _ in range(SETUP_REPEATS):
            imports.append(fresh_import_seconds())
            ks = import_kstab()
            start = time.perf_counter()
            workload = workloads.WORKLOADS[args.workload](ks, args.seed)
            workload.out_dir = scratch
            workload.warmup()
            preps.append(time.perf_counter() - start)
        tracer = tracing.Tracer(ks)
        result = run_rounds(ks, workload, args.seconds, bool(args.trace), tracer, workloads.reset_caches)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    speed.append(speed_probe())

    # each operation's mean time over the rounds (see bench/README.md)
    mean = {traced: [statistics.fmean(t) for t in per_op] for traced, per_op in result["times"].items()}
    if args.trace:
        overhead = sum(mean[True]) - sum(mean[False])
        values = tracing.layer_metrics(tracer.spans, result["rounds"], overhead)
        units = tracing.PER_LAYER
    else:
        values = {
            "setup_s": statistics.median(imports) + statistics.median(preps),
            "wall_s": sum(mean[False]),
            "op_p50_s": statistics.median(mean[False]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    machine = machine_record(speed)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine, "metrics": metrics,
        "fresh_import_s": imports, "inputs_and_warmup_s": preps, "rounds": result["rounds"],
        "operations": result["ops"],
        "untraced_functions": tracer.missing,
    }
    if args.trace:
        record["spans"] = tracer.records()
    (OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1, default=str) + "\n")
    print(json.dumps({"machine": machine}))
    print(json.dumps({
        "correct": result["correct"], "attempted": result["attempted"],
        "failed": result["failed"], "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        sys.exit(2)
