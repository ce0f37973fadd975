"""Benchmark of eitcool: end-to-end and per-layer timings on seeded workloads.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all      # every workload, both modes

Run from the root of a checkout; the program is imported from its `src`.
With --trace 0 the last line of standard output is a JSON object whose
metrics are the end-to-end metrics of BENCHMARK.json; with --trace 1 they
are the per-layer metrics.  The lines before it say the same for a reader,
with the run environment, the tail percentile and its sample count, and the
share of failed points.  See perfbench/README.md for what each metric
should move.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("dense_panels", "projected_sweep", "cutoff_mix")
BLAS_THREADS = min(2, len(os.sched_getaffinity(0)))
SETUP_REPEATS = 5
#: What the set-up time covers: a fresh interpreter importing the package
#: and making one warm-up call, as every CLI invocation does.
SETUP_CODE = "import eitcool, workloads; workloads.warm_up()"
TIME_LIMIT_S = 170.0


class BenchError(Exception):
    pass


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def _run(label: str, args: list[str], deadline: float, **kwargs) -> subprocess.CompletedProcess:
    """Run the interpreter with `args` in a child process that must end by `deadline`."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError(f"no time left for the {label}")
    try:
        return subprocess.run(
            [sys.executable, *args],
            env=child_env(),
            cwd=ROOT,
            check=True,
            timeout=remaining,
            **kwargs,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"the {label} did not finish in time") from exc
    except subprocess.CalledProcessError as exc:
        raise BenchError(f"the {label} exited with code {exc.returncode}") from exc


def setup_seconds(deadline: float) -> float:
    """Median wall time of SETUP_REPEATS fresh interpreters running SETUP_CODE."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        _run("set-up interpreter", ["-c", SETUP_CODE], deadline, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def run_one(workload: str, seed: int, seconds: float, trace: int, deadline: float) -> dict:
    """One run in a fresh worker process; prints the readable lines and
    returns the result object."""
    setup_s = None if trace else setup_seconds(deadline)
    args = [
        str(ROOT / "perfbench" / "worker.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    out = _run("worker", args, deadline, stdout=subprocess.PIPE, text=True).stdout
    worker = json.loads(out.splitlines()[-1])
    attempted, failed = worker["attempted"], worker["failed"]
    if trace:
        metrics = dict(worker["layers"])
    else:
        metrics = {
            "setup_s": (setup_s, "s"),
            "points_per_s": (worker["points_per_s"], "1/s"),
            "point_s_p50": (worker["point_s_p50"], "s"),
            "point_s_tail": (worker["point_s_tail"], "s"),
            "peak_rss_mb": (worker["peak_rss_mb"], "MB"),
        }

    print(f"env {json.dumps(worker['env'])}")
    print(
        f"{workload} seed={seed} trace={trace}: {attempted} points in "
        f"{worker['measured_s']:.2f} s measured"
    )
    for name, (value, unit) in metrics.items():
        print(f"  {name:30s} {value:>14.6g} {unit}")
    if not trace:
        print(
            f"  point_s_tail is p{worker['tail_percentile']} of "
            f"{worker['point_samples']} samples; setup_s is the "
            f"median of {SETUP_REPEATS} fresh interpreters"
        )
    else:
        print(f"  spans written to {worker['spans_file']}")
    print(f"  {'failed_frac':30s} {failed / attempted:>14.6g} ({failed} of {attempted} points)")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "eitcool" / "__init__.py").is_file():
        print(f"no eitcool sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.workload != "all":
            deadline = time.monotonic() + TIME_LIMIT_S
            result = run_one(args.workload, args.seed, args.seconds, args.trace, deadline)
        else:
            results = {}
            for workload in WORKLOADS:
                for trace in (0, 1):
                    deadline = time.monotonic() + TIME_LIMIT_S
                    results[workload, trace] = run_one(
                        workload, args.seed, args.seconds, trace, deadline
                    )
                plain = results[workload, 0]["metrics"]["points_per_s"]["value"]
                traced = results[workload, 1]["metrics"]["trace.points_per_s"]["value"]
                print(
                    f"{workload}: tracing overhead {100 * (1 - traced / plain):.1f} % "
                    f"({traced:.4g} traced vs {plain:.4g} untraced points/s)"
                )
            result = {
                "correct": all(r["correct"] for r in results.values()),
                "attempted": sum(r["attempted"] for r in results.values()),
                "failed": sum(r["failed"] for r in results.values()),
                "metrics": {
                    f"{workload}.{name}": m
                    for (workload, _), r in results.items()
                    for name, m in r["metrics"].items()
                },
            }
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
