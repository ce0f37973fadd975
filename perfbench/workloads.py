"""Seeded inputs of the three workloads.

Each workload is an endless stream of jobs drawn from random.Random(seed).
A job is one turn of the closed loop: one `sweep.run_sweep` call, or one
deck of single `sweep.run_point` calls.  Every point carries its own
physical inputs, so the reference check can recompute it without going
through the program's parameter handling.

Parameters come from the ranges of the six built-in panels a-f: a grid
value is drawn uniformly between the first and last value of the panel's
own grid, and the panel's lock rule sets the other parameters.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterator

from eitcool import physics, sweep

DENSE_ESTIMATORS = ("numeric_full", "eq1", "eq15")
PROJECTED_ESTIMATORS = ("numeric_projected", "eq1", "eq15", "eq16", "eq17")
MIX_ESTIMATORS = ("numeric_full", "numeric_projected", "eq15")
DEGENERATE_FLAGS = (
    "numeric_full:degenerate-steady-state",
    "numeric_projected:degenerate-steady-state",
)

DENSE_N_MAX = 12
DENSE_GRID_POINTS = 3
PROJECTED_GRID_POINTS = 9
PROJECTED_FORMATS = ("csv", "json")
MIX_CUTOFFS = tuple(range(4, 11))
MIX_HAMILTONIANS = ("ld", "full")
MIX_ETA = (0.05, 0.6)
#: Zero-recoil points per deck of len(MIX_CUTOFFS) * len(MIX_HAMILTONIANS)
#: points: 3 of 14, about one in five.
MIX_DEGENERATE_PER_DECK = 3

#: Percentile reported as point_s_tail.  Each keeps at least ten samples
#: beyond it at the workload's usual sample count in a 40 s run (about 18,
#: 1400 and 126 points).  It is fixed per workload because a percentile that
#: moves with the sample count jumps between cutoff levels on cutoff_mix from
#: one run to the next; p80 falls inside the n_max = 9 points of a deck.
TAIL_PERCENTILE = {"dense_panels": 25, "projected_sweep": 95, "cutoff_mix": 80}

#: Cost of one job at two BLAS threads on a 2-core x86-64 machine.  It only
#: sizes the fixed amount of work a traced run does, so that the exact
#: counts of a traced run repeat for a given seed.
NOMINAL_JOB_S = {"dense_panels": 7.0, "projected_sweep": 0.3, "cutoff_mix": 5.0}


@dataclass(frozen=True)
class Point:
    params: physics.CoolingParams
    n_max: int
    hamiltonian: str
    estimators: tuple[str, ...]
    expected_flags: tuple[str, ...] = ()


@dataclass(frozen=True)
class Job:
    points: tuple[Point, ...]
    spec: sweep.SweepSpec | None = None  # None: one run_point call per point

    def run(self) -> list[sweep.SweepRow]:
        if self.spec is not None:
            return sweep.run_sweep(self.spec)
        return [
            sweep.run_point(p.params, p.estimators, n_max=p.n_max, hamiltonian=p.hamiltonian)
            for p in self.points
        ]


def resonance_delta(omega_g: float, omega_r: float, nu: float = 1.0) -> float:
    return (omega_g**2 + omega_r**2) / (4.0 * nu)


def locked_params(spec: sweep.SweepSpec, value: float) -> physics.CoolingParams:
    """The panel's base parameters moved to `value` under its lock rule."""
    base = spec.base
    if spec.vary == "omega_g":
        params = replace(base, omega_g=value, omega_r=value * base.omega_r / base.omega_g)
    elif spec.vary == "eta_g":
        params = replace(base, eta_g=value, eta_r=value)
    else:
        params = replace(base, gamma_g=value, gamma_r=base.gamma_g + base.gamma_r - value)
    return replace(params, delta=resonance_delta(params.omega_g, params.omega_r, params.nu))


def _draw_grid(rng: random.Random, spec: sweep.SweepSpec, n_points: int) -> tuple[float, ...]:
    lo, hi = spec.grid[0], spec.grid[-1]
    grid: set[float] = set()
    while len(grid) < n_points:
        grid.add(rng.uniform(lo, hi))
    return tuple(sorted(grid))


def _sweep_jobs(
    rng: random.Random,
    estimators: tuple[str, ...],
    n_points: int,
    formats: tuple[str, ...],
    out_dir: Path,
) -> Iterator[Job]:
    for k in itertools.count():
        fmt = formats[k % len(formats)]
        spec = sweep.builtin_figure3(
            rng.choice("abcdef"),
            n_max=DENSE_N_MAX,
            estimators=estimators,
            output=str(out_dir / f"job{k}.{fmt}"),
            fmt=fmt,
        )
        spec = replace(spec, grid=_draw_grid(rng, spec, n_points))
        points = tuple(
            Point(locked_params(spec, v), spec.n_max, spec.hamiltonian, estimators)
            for v in spec.grid
        )
        yield Job(points, spec)


def _mix_jobs(rng: random.Random) -> Iterator[Job]:
    # Every deck holds each (cutoff, Hamiltonian) pair once, and the cheaper
    # zero-recoil points rotate through the cutoffs from deck to deck, so the
    # cost mix of a run barely depends on the seed.
    deck = list(itertools.product(MIX_CUTOFFS, MIX_HAMILTONIANS))
    for k in itertools.count():
        zero_recoil = {
            (MIX_CUTOFFS[(k * MIX_DEGENERATE_PER_DECK + j) % len(MIX_CUTOFFS)],
             rng.choice(MIX_HAMILTONIANS))
            for j in range(MIX_DEGENERATE_PER_DECK)
        }
        rng.shuffle(deck)
        points = []
        for n_max, hamiltonian in deck:
            spec = sweep.builtin_figure3(rng.choice("abcdef"))
            params = locked_params(spec, rng.uniform(spec.grid[0], spec.grid[-1]))
            eta = rng.uniform(*MIX_ETA)
            params = replace(params, eta_g=eta, eta_r=eta)
            flags: tuple[str, ...] = ()
            if (n_max, hamiltonian) in zero_recoil:
                params = replace(params, phi_r=params.phi_g)
                flags = DEGENERATE_FLAGS
            points.append(Point(params, n_max, hamiltonian, MIX_ESTIMATORS, flags))
        yield Job(tuple(points))


def jobs(workload: str, seed: int, out_dir: Path) -> Iterator[Job]:
    """The endless, seed-determined job stream of one workload."""
    rng = random.Random(seed)
    if workload == "dense_panels":
        return _sweep_jobs(rng, DENSE_ESTIMATORS, DENSE_GRID_POINTS, ("csv",), out_dir)
    if workload == "projected_sweep":
        return _sweep_jobs(
            rng, PROJECTED_ESTIMATORS, PROJECTED_GRID_POINTS, PROJECTED_FORMATS, out_dir
        )
    if workload == "cutoff_mix":
        return _mix_jobs(rng)
    raise ValueError(f"unknown workload {workload!r}")


def warm_up() -> None:
    """One run_point call with every estimator at a small cutoff."""
    params = locked_params(sweep.builtin_figure3("a"), 4.0)
    sweep.run_point(params, sweep.ESTIMATORS, n_max=4)

