"""Measuring process of the benchmark: runs one workload and prints one
JSON object on standard output.

    python3 perfbench/worker.py --workload W --seed N --seconds S --trace 0|1

`run.py` starts one fresh worker per run, with PYTHONPATH set to `src` and
`perfbench` and the BLAS thread count fixed, so that the peak resident
memory the worker reports is that of one workload alone.

Untraced (--trace 0), the worker runs whole jobs of the closed loop until
the measured time reaches --seconds and enough points are done to leave ten
samples beyond the workload's tail percentile, with spans only around
`sweep.run_sweep` and `sweep.run_point` for the per-point times.  Traced (--trace 1), it wraps the public functions of
`physics`, `liouvillian`, `subspace` and `analytic` and `sweep.write_output`
as well, and runs a fixed number of jobs, so that the exact counts repeat
for a given seed.  Output checks run after the loop, outside the timed
region and after the peak memory is read.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _require_checkout_program() -> None:
    import eitcool

    src = ROOT / "src"
    if Path(eitcool.__file__).resolve().parent.parent != src.resolve():
        raise SystemExit(f"eitcool imported from {eitcool.__file__}, expected it under {src}")


def _count_generator(tracer, args, kwargs, result) -> None:
    import numpy as np

    matrix = getattr(result, "matrix", result)
    if hasattr(matrix, "nnz"):  # scipy.sparse: count the arrays it stores
        parts = ("data", "indices", "indptr", "row", "col", "offsets")
        nbytes = sum(getattr(matrix, a).nbytes for a in parts if hasattr(matrix, a))
        nnz = int(matrix.nnz)
    else:
        nbytes, nnz = matrix.nbytes, int(np.count_nonzero(matrix))
    tracer.count("liouvillian.generator_bytes", nbytes)
    tracer.count("liouvillian.generator_nnz", nnz)


def _count_written(tracer, args, kwargs, result) -> None:
    path = kwargs["path"] if "path" in kwargs else args[2]
    tracer.count("sweep.bytes_written", os.path.getsize(path))


def instrument(tracer, trace: bool) -> None:
    from eitcool import analytic, liouvillian, physics, subspace, sweep

    tracer.wrap(sweep, "run_sweep")
    tracer.wrap(sweep, "run_point")
    if trace:
        tracer.wrap(sweep, "write_output", _count_written)
        for module in (physics, subspace, analytic):
            tracer.wrap_public(module)
        tracer.wrap_public(liouvillian, {"build_liouvillian": _count_generator})


def measure(workload: str, seed: int, seconds: float, trace: bool, out_dir: Path):
    """Run the closed loop; returns (tracer, [(job, rows or exception)],
    measured seconds, peak RSS in MB)."""
    import workloads
    from tracing import Tracer

    tracer = Tracer()
    instrument(tracer, trace)
    try:
        workloads.warm_up()
        n_jobs = max(1, math.ceil(seconds / workloads.NOMINAL_JOB_S[workload]))
        min_points = min_samples(workloads.TAIL_PERCENTILE[workload])
        done, measured, points = [], 0.0, 0
        for job in workloads.jobs(workload, seed, out_dir):
            if trace and len(done) >= n_jobs:
                break
            if not trace and measured >= seconds and points >= min_points:
                break
            tracer.recording = True
            start = time.perf_counter()
            try:
                outcome = job.run()
            except Exception as exc:  # counted as failed points, reported below
                outcome = exc
            measured += time.perf_counter() - start
            tracer.recording = False
            done.append((job, outcome))
            points += len(job.points)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        tracer.restore()
    return tracer, done, measured, peak_rss_mb


def _rank(percentile: int, n: int) -> int:
    """Nearest-rank position (1-based) of a percentile among n samples."""
    return -(-percentile * n // 100)


def min_samples(percentile: int) -> int:
    """The fewest samples that leave ten beyond the percentile."""
    n = 1
    while n - _rank(percentile, n) < 10:
        n += 1
    return n


def tail(samples: list[float], percentile: int) -> float:
    return sorted(samples)[_rank(percentile, len(samples)) - 1]


def layer_metrics(tracer, points: int, measured: float) -> dict[str, tuple[float, str]]:
    spans = tracer.spans
    own = tracer.self_times()

    def total(*names):
        return sum(s.duration for s in spans if s.name in names)

    def entries(layer):
        prefix = layer + "."
        return [
            s
            for s in spans
            if s.name.startswith(prefix)
            and (s.parent < 0 or not spans[s.parent].name.startswith(prefix))
        ]

    analytic = entries("analytic")
    return {
        "physics.hamiltonian_s": (total("physics.hamiltonian_ld", "physics.hamiltonian_full"), "s"),
        "physics.calls": (sum(s.name.startswith("physics.") for s in spans), "count"),
        "liouvillian.build_s": (total("liouvillian.build_liouvillian"), "s"),
        "liouvillian.nullspace_s": (total("liouvillian.nullspace_dimension"), "s"),
        "liouvillian.solve_self_s": (
            sum(t for s, t in zip(spans, own) if s.name == "liouvillian.steady_state"),
            "s",
        ),
        "liouvillian.occupation_s": (total("liouvillian.phonon_occupation"), "s"),
        "liouvillian.generator_bytes": (tracer.counts.get("liouvillian.generator_bytes", 0), "bytes"),
        "liouvillian.generator_nnz": (tracer.counts.get("liouvillian.generator_nnz", 0), "count"),
        "liouvillian.degenerate": (
            sum(
                s.name == "liouvillian.steady_state" and s.error == "DegenerateSteadyStateError"
                for s in spans
            ),
            "count",
        ),
        "subspace.build_s": (total("subspace.build_projected"), "s"),
        "subspace.solve_s": (total("subspace.solve_stationarity"), "s"),
        "analytic.s": (sum(s.duration for s in analytic), "s"),
        "analytic.divergences": (
            sum(s.error == "FormulaDivergenceError" for s in analytic),
            "count",
        ),
        "sweep.self_s": (
            sum(t for s, t in zip(spans, own) if s.name in ("sweep.run_point", "sweep.run_sweep")),
            "s",
        ),
        "sweep.write_s": (total("sweep.write_output"), "s"),
        "sweep.bytes_written": (tracer.counts.get("sweep.bytes_written", 0), "bytes"),
        "trace.point_s": (total("sweep.run_point"), "s"),
        "trace.points_per_s": (points / measured, "1/s"),
    }


def git_sha() -> str | None:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("openblas configuration") or f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
        "seed": seed,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    _require_checkout_program()
    import reference
    import workloads

    trace = bool(args.trace)
    out_dir = ROOT / ".perfbench_tmp" / str(os.getpid())
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        tracer, done, measured, peak_rss_mb = measure(
            args.workload, args.seed, args.seconds, trace, out_dir
        )
        problems = [p for job, outcome in done for p in reference.check_job(job, outcome)]
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    failed = [p for p in problems if p]
    for p in failed[:5]:
        print(f"failed point: {'; '.join(p)}", file=sys.stderr)
    point_s = [s.duration for s in tracer.spans if s.name == "sweep.run_point"]
    result = {
        "env": environment(args.seed),
        "attempted": len(problems),
        "failed": len(failed),
        "measured_s": measured,
        "points_per_s": len(problems) / measured,
        "peak_rss_mb": peak_rss_mb,
    }
    if trace:
        result["layers"] = layer_metrics(tracer, len(problems), measured)
        spans_file = ROOT / ".perfbench_out" / f"spans-{args.workload}-seed{args.seed}.json"
        spans_file.parent.mkdir(exist_ok=True)
        spans_file.write_text(
            json.dumps([[s.name, s.start, s.end, s.parent, s.error] for s in tracer.spans])
        )
        result["spans_file"] = str(spans_file.relative_to(ROOT))
    else:
        result["point_s_p50"] = statistics.median(point_s)
        result["tail_percentile"] = workloads.TAIL_PERCENTILE[args.workload]
        result["point_s_tail"] = tail(point_s, result["tail_percentile"])
        result["point_samples"] = len(point_s)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
