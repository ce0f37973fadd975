"""Fast smoke test of the benchmark harness at tiny cutoffs and few points.

    python -m pytest perfbench/tests
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import types
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import reference  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from run import WORKLOADS  # noqa: E402
from tracing import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_lists_harness_workloads():
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)


@pytest.fixture
def tiny(monkeypatch):
    monkeypatch.setattr(workloads, "DENSE_N_MAX", 4)
    monkeypatch.setattr(workloads, "MIX_CUTOFFS", (3, 4))
    monkeypatch.setattr(workloads, "MIX_DEGENERATE_PER_DECK", 1)


def _traced_job(workload, tmp_path):
    """Measure one traced job; returns the tracer, the checks and the metrics."""
    tracer, done, measured, _ = worker.measure(workload, 3, 0.0, True, tmp_path)
    problems = [p for job, outcome in done for p in reference.check_job(job, outcome)]
    return tracer, problems, worker.layer_metrics(tracer, len(problems), measured)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_job_passes_the_reference(tiny, tmp_path, workload):
    tracer, problems, metrics = _traced_job(workload, tmp_path)
    assert problems and not any(problems)
    assert sorted(metrics) == sorted(m["name"] for m in SPEC["per_layer"])
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert all(units[name] == unit for name, (_, unit) in metrics.items())
    if workload == "projected_sweep":
        assert metrics["subspace.solve_s"][0] > 0
        assert metrics["liouvillian.build_s"][0] == 0
    else:
        assert metrics["liouvillian.nullspace_s"][0] > 0
        parents = {
            tracer.spans[s.parent].name
            for s in tracer.spans
            if s.name == "liouvillian.nullspace_dimension"
        }
        assert parents == {"liouvillian.steady_state"}
    if workload == "cutoff_mix":
        assert metrics["liouvillian.degenerate"][0] == 1


def test_exact_counts_repeat_for_a_seed(tiny, tmp_path):
    counts = [
        {k: v for k, (v, unit) in _traced_job("cutoff_mix", tmp_path / str(i))[2].items()
         if unit in ("count", "bytes")}
        for i in range(2)
    ]
    assert counts[0] == counts[1]
    assert counts[0]["liouvillian.generator_nnz"] > 0


def test_reference_rejects_a_wrong_value(tiny, tmp_path):
    job = next(workloads.jobs("cutoff_mix", 5, tmp_path))
    rows = job.run()
    assert not any(reference.check_job(job, rows))
    i = next(k for k, p in enumerate(job.points) if not p.expected_flags)
    wrong = dict(rows[i].nbar, numeric_full=rows[i].nbar["numeric_full"] * (1 + 1e-6))
    rows[i] = replace(rows[i], nbar=wrong)
    assert reference.check_job(job, rows)[i]
    k = next(k for k, p in enumerate(job.points) if p.expected_flags)
    rows[k] = replace(rows[k], flags=())
    assert reference.check_job(job, rows)[k]


def test_self_time_excludes_children():
    module = types.ModuleType("fake")

    def inner():
        return sum(range(10000))

    def outer():
        return module.inner() + module.inner()

    inner.__module__ = outer.__module__ = "fake"
    module.inner, module.outer = inner, outer
    tracer = Tracer()
    tracer.wrap_public(module)
    tracer.recording = True
    module.outer()
    tracer.restore()
    names = [s.name for s in tracer.spans]
    assert names == ["fake.outer", "fake.inner", "fake.inner"]
    own = tracer.self_times()
    assert math.isclose(
        own[0] + own[1] + own[2], tracer.spans[0].duration, rel_tol=1e-9
    )
    assert module.inner is inner


def test_command_prints_every_end_to_end_metric():
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "projected_sweep",
         "--seed", "2", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=180, check=True,
    )
    result = json.loads(out.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 11
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]
    }
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        SPEC["command"] + ["--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                           "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
