"""Benchmark of effdeg: four workloads, end-to-end metrics, and a traced run.

One workload, as one closed loop in this process:

    python3 perfbench/run.py --workload estimate-pca --seed 1 --seconds 20 --trace 0

prints the end-to-end metrics (--trace 0) or the per-layer metrics of the
traced run (--trace 1); the last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics.  Without --workload, every
workload runs in its own process and the results are printed as a table
(and written to --out when given).  The library is imported from the src/
directory next to this one, never from an installed copy.
"""

import os
import sys
import time

T0 = time.perf_counter()

# Pin BLAS/OpenMP pools to one thread before numpy is imported.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import traceback  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("estimate-pca", "train-penalty", "pnn-study", "verify-dyadic")
# setup_s is the median of this many set-ups: this process and fresh children
SETUPS = 9


def import_library():
    """Import effdeg from ROOT/src and the workload and tracing modules."""
    if not (SRC / "effdeg" / "__init__.py").is_file():
        sys.exit(f"perfbench: no effdeg sources at {SRC}")
    sys.path.insert(0, str(SRC))
    import effdeg

    if Path(effdeg.__file__).resolve().parent != SRC / "effdeg":
        sys.exit(f"perfbench: effdeg imported from {effdeg.__file__}, not {SRC}")
    import tracing
    import workloads

    return workloads, tracing


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name', '?')} {blas.get('version', '?')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
    }


def child_setups(args, n: int) -> list[float]:
    """Set-up times of n fresh processes, one after another."""
    times = []
    for _ in range(n):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-only"] + (["--toy"] if args.toy else []),
            capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
    return times


def run_workload(args) -> dict:
    workloads, tracing = import_library()
    workload = workloads.WORKLOADS[args.workload](args.seed, toy=args.toy)
    workload.warm_up()
    setup_s = time.perf_counter() - T0
    if args.setup_only:
        return {"setup_s": setup_s}

    tracer = tracing.Tracer() if args.trace else None
    durations, traced = [], []
    work = attempted = failed = 0
    i = 1
    deadline = time.perf_counter() + args.seconds
    while True:
        attempted += 1
        try:
            if tracer is None:
                start = time.perf_counter()
                result = workload.op(i)
                durations.append(time.perf_counter() - start)
            else:
                # the operation twice, traced and untraced, for per-layer times
                # and overhead; the order alternates so neither always runs warm
                times = {}
                for is_traced in (i % 2 == 1, i % 2 == 0):
                    with tracer.op() if is_traced else nullcontext():
                        start = time.perf_counter()
                        out = workload.op(i)
                        times[is_traced] = time.perf_counter() - start
                    if is_traced:
                        result = out
                traced.append((times[False], times[True]))
            done, ok = workload.check(result)
            work += done
            failed += not ok
        except Exception:
            traceback.print_exc()
            failed += 1
        i += 1
        if time.perf_counter() >= deadline:
            break
    final = workload.finish()
    attempted += len(final)
    failed += sum(not ok for ok in final)

    if tracer is not None:
        out_dir = ROOT / ".perfbench"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"spans-{args.workload}-{args.seed}.csv")
        metrics = {
            name: {"value": value, "unit": layer_unit(name)}
            for name, value in tracer.layer_metrics().items()
        }
        plain = sum(p for p, _ in traced)
        overhead = sum(t for _, t in traced) / plain - 1.0 if plain else 0.0
        metrics["trace.overhead_frac"] = {"value": overhead, "unit": "ratio"}
    else:
        setups = [setup_s] + child_setups(args, SETUPS - 1)
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "work_per_s": {"value": work / sum(durations) if durations else 0.0, "unit": "1/s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "unit": "MB",
            },
        }
        print(f"# {args.workload}: {len(durations)} operations, {work} {workload.work_unit}")
        for name, value, unit in named_metrics(args.workload, work, durations):
            if value is not None:
                print(f"# {args.workload} {name} {value} {unit}")
        print(f"# {args.workload} failed_frac {failed / attempted} ratio")
    print(f"# env {json.dumps(environment(), sort_keys=True)}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith(("_share", "_frac")):
        return "ratio"
    return "count"


def named_metrics(workload: str, work: int, durations: list[float]):
    """The workload's numbers under its own names, as (name, value, unit)."""
    if not durations:
        return []
    if workload == "estimate-pca":
        return [("paths_per_s", work / sum(durations), "1/s")]
    if workload == "verify-dyadic":
        return [("pairs_per_s", work / sum(durations), "1/s")]
    p50 = statistics.median(durations)
    if workload == "pnn-study":
        return [("study_s", p50, "s")]
    # the 95th percentile only when at least ten steps lie beyond it
    p95 = statistics.quantiles(durations, n=20)[-1] * 1e3 if len(durations) >= 200 else None
    return [("step_ms_p50", p50 * 1e3, "ms"), ("step_ms_p95", p95, "ms")]


def run_all(args) -> dict:
    """Every workload in its own process; prints one table row per metric."""
    results = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--toy"] if args.toy else [])
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900, check=False)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            sys.exit(f"perfbench: workload {name} exited with code {proc.returncode}")
        results[name] = json.loads(lines[-1])
        for line in lines[:-1]:
            print(line)
        for metric, entry in results[name]["metrics"].items():
            print(f"{name:14s} {metric:28s} {entry['value']:14.6g} {entry['unit']}")
    combined = {
        "correct": all(r["correct"] for r in results.values()),
        "env": environment(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "results": results,
    }
    if args.out:
        Path(args.out).write_text(json.dumps(combined, indent=2, sort_keys=True) + "\n")
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true", help="tiny operations, for smoke tests")
    parser.add_argument("--out", help="with no --workload: also write the results here")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    result = run_workload(args) if args.workload else run_all(args)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
