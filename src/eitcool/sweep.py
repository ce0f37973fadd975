"""Parameter sweeps over the cooling estimators, with CSV/JSON/SVG output.

A sweep varies one of {omega_g, eta_g, gamma_g} over a grid, and each axis
has one rule for the parameter that moves with it: an omega_g sweep keeps
the Rabi ratio, an eta_g sweep keeps eta_r = eta_g, and a gamma_g sweep
keeps the total linewidth.  The detuning is recomputed from the resonance
condition at every grid point unless an explicit override is given; a
single point is evaluated at the detuning its parameters carry.  Every
estimator, with its CSV column, plot label and colour, is one entry of
REGISTRY.  The run options (estimators, cutoff, Hamiltonian) are checked
once, by `lookup`, before anything is evaluated; estimator failures are
recorded per row as typed flags, never raised past the runner.
"""

from __future__ import annotations

import csv
import functools
import json
import math
from dataclasses import asdict, dataclass, field, replace
from typing import Callable

from . import analytic, hilbert, liouvillian, physics, subspace
from .errors import (
    ConfigurationError,
    DegenerateSteadyStateError,
    EitCoolError,
    FormulaDivergenceError,
    NumericalFailureError,
)

VARY_AXES = ("omega_g", "eta_g", "gamma_g")
# Names, not functions: `_numeric_full` looks the `physics` function up at
# call time, so a wrapper installed on the module (a timer) is honoured.
HAMILTONIANS = ("ld", "full")
FORMATS = ("csv", "json", "svg")

DEFAULT_N_MAX = 12

#: Reference configuration shared by the benchmark sweeps: decay branching
#: 1:2, both Lamb-Dicke parameters 0.15, counter-propagating lasers at 45
#: degrees to the trap axis.
BENCH_DEFAULTS = dict(
    gamma_g=20.0 / 3.0,
    gamma_r=40.0 / 3.0,
    eta_g=0.15,
    eta_r=0.15,
    phi_g=math.pi / 4.0,
    phi_r=3.0 * math.pi / 4.0,
)


@dataclass(frozen=True)
class SweepSpec:
    """Everything needed to reproduce one sweep deterministically."""

    vary: str
    grid: tuple[float, ...]
    base: physics.CoolingParams
    estimators: tuple[str, ...]
    n_max: int = DEFAULT_N_MAX
    hamiltonian: str = "ld"
    delta_override: float | None = None
    output: str | None = None
    fmt: str = "csv"

    def __post_init__(self) -> None:
        if self.vary not in VARY_AXES:
            raise ConfigurationError(f"unknown sweep axis {self.vary!r}")
        if not self.grid:
            raise ConfigurationError("sweep grid must be non-empty")
        if not all(math.isfinite(v) for v in self.grid):
            raise ConfigurationError("sweep grid values must be finite")
        if any(b <= a for a, b in zip(self.grid, self.grid[1:])):
            raise ConfigurationError("sweep grid must be strictly increasing")
        lookup(self.estimators, self.n_max, self.hamiltonian)
        if self.fmt not in FORMATS:
            raise ConfigurationError(f"unknown output format {self.fmt!r}")
        if self.vary == "gamma_g":
            total = self.base.gamma_g + self.base.gamma_r
            if self.grid[-1] >= total:
                raise ConfigurationError(
                    f"gamma_g grid reaches the fixed total linewidth {total}"
                )


@dataclass(frozen=True)
class SweepRow:
    """One evaluated grid point: estimator values plus typed failure flags."""

    vary: str
    value: float
    nbar: dict[str, float] = field(default_factory=dict)
    eq15_term1: float | None = None
    eq15_term2: float | None = None
    flags: tuple[str, ...] = ()
    residual: float | None = None
    nullspace_dim: int | None = None
    rcond: float | None = None


def params_at(spec: SweepSpec, value: float) -> physics.CoolingParams:
    """Base parameters moved to one grid point under the axis's rule."""
    base = spec.base
    if spec.vary == "omega_g":
        if base.omega_r <= 0:
            raise ConfigurationError("an omega_g sweep requires omega_r > 0")
        ratio = base.omega_g / base.omega_r
        if ratio <= 0:
            raise ConfigurationError("an omega_g sweep requires omega_g > 0")
        params = replace(base, omega_g=value, omega_r=value / ratio)
    elif spec.vary == "eta_g":
        params = replace(base, eta_g=value, eta_r=value)
    else:
        total = base.gamma_g + base.gamma_r
        params = replace(base, gamma_g=value, gamma_r=total - value)
    if spec.delta_override is None:
        return params.with_resonant_delta()
    return replace(params, delta=spec.delta_override)


@dataclass
class Point:
    """What an estimator sees of one parameter point."""

    params: physics.CoolingParams
    n_max: int
    hamiltonian: str

    @functools.cached_property
    def derived(self) -> physics.DerivedEit:
        return physics.derive_eit(self.params)


def _numeric_full(pt: Point) -> tuple[float, dict]:
    if pt.hamiltonian == "full":
        h = physics.hamiltonian_full(pt.params, pt.n_max)
    else:
        h = physics.hamiltonian_ld(pt.params, pt.n_max, basis="gre")
    lv = liouvillian.build_liouvillian(
        h, physics.jump_operators(pt.params, pt.n_max, basis="gre")
    )
    ss = liouvillian.steady_state(lv)
    nbar = liouvillian.phonon_occupation(ss)
    diagnostics = ("residual", "nullspace_dim", "rcond")
    return nbar, {key: getattr(ss, key) for key in diagnostics}


def _numeric_projected(pt: Point) -> tuple[float, dict]:
    sys7 = subspace.build_projected(pt.derived, pt.params.nu, pt.params.delta)
    return subspace.nbar_projected(subspace.solve_stationarity(sys7)), {}


def _eq1(pt: Point) -> tuple[float, dict]:
    return analytic.nbar_zeroth(pt.params.gamma_total, pt.params.delta), {}


def _eq15(pt: Point) -> tuple[float, dict]:
    term1, term2 = analytic.nbar_second_terms(
        pt.derived, pt.params.gamma_total, pt.params.delta
    )
    return term1 + term2, {"eq15_term1": term1, "eq15_term2": term2}


def _eq16(pt: Point) -> tuple[float, dict]:
    return analytic.nbar_weak_g(pt.params, pt.derived), {}


def _eq17(pt: Point) -> tuple[float, dict]:
    return analytic.nbar_equal(pt.params.gamma_total, pt.params.delta, pt.derived.eta), {}


@dataclass(frozen=True)
class Estimator:
    """One occupation estimator and the names it appears under in output.

    `evaluate` returns the occupation together with any further SweepRow
    fields it fills.  `terms` are SweepRow fields written as CSV columns right
    after `column`; an `optional` column is written only when requested.
    """

    name: str
    evaluate: Callable[[Point], tuple[float, dict]]
    column: str
    label: str
    color: str
    terms: tuple[str, ...] = ()
    optional: bool = False


#: Every estimator, in CSV column order.
REGISTRY = {
    e.name: e
    for e in (
        Estimator("numeric_full", _numeric_full, "nbar_numeric",
                  "exact steady state", "#1f5fa8"),
        Estimator("numeric_projected", _numeric_projected, "nbar_projected",
                  "seven-level model", "#7a3fa8"),
        Estimator("eq1", _eq1, "nbar_eq1", "zeroth-order formula", "#999999"),
        Estimator("eq15", _eq15, "nbar_eq15", "second-order formula", "#c2502a",
                  terms=("eq15_term1", "eq15_term2")),
        Estimator("eq16", _eq16, "nbar_eq16", "weak-drive formula", "#2a8a4a",
                  optional=True),
        Estimator("eq17", _eq17, "nbar_eq17", "equal-drive formula", "#b8860b",
                  optional=True),
    )
}
ESTIMATORS = tuple(REGISTRY)
DEFAULT_ESTIMATORS = ("numeric_full", "eq1", "eq15")


def lookup(names: tuple[str, ...], n_max: int, hamiltonian: str) -> list[Estimator]:
    """Registry entries for the requested estimator names, in request order.

    This is the one check of a run's options: the estimator names, the
    phonon cutoff and the Hamiltonian name.  It runs before anything is
    evaluated, even when no requested estimator uses the cutoff.
    """
    hilbert.validate_cutoff(n_max)
    if hamiltonian not in HAMILTONIANS:
        raise ConfigurationError(
            f"hamiltonian must be one of {', '.join(HAMILTONIANS)}, got {hamiltonian!r}"
        )
    if not names:
        raise ConfigurationError("at least one estimator must be requested")
    for name in names:
        if name not in REGISTRY:
            raise ConfigurationError(
                f"unknown estimator {name!r}; expected some of {', '.join(ESTIMATORS)}"
            )
    return [REGISTRY[name] for name in names]


def _flag(est: str, exc: EitCoolError) -> str:
    reason = {
        DegenerateSteadyStateError: "degenerate-steady-state",
        FormulaDivergenceError: "formula-divergence",
        NumericalFailureError: "numerical-failure",
        ConfigurationError: "invalid-config",
    }.get(type(exc), "error")
    return f"{est}:{reason}"


def run_point(
    params: physics.CoolingParams,
    estimators: tuple[str, ...],
    n_max: int = DEFAULT_N_MAX,
    hamiltonian: str = "ld",
    vary: str = "point",
    value: float = 0.0,
) -> SweepRow:
    """Evaluate the requested estimators at a single parameter point.

    The detuning is params.delta as given; per-estimator failures become row
    flags.
    """
    point = Point(params, n_max, hamiltonian)
    nbar: dict[str, float] = {}
    extra: dict = {}
    flags: list[str] = []
    for est in lookup(estimators, n_max, hamiltonian):
        try:
            nbar[est.name], more = est.evaluate(point)
        except EitCoolError as exc:
            flags.append(_flag(est.name, exc))
        else:
            extra.update(more)
    return SweepRow(vary=vary, value=value, nbar=nbar, flags=tuple(flags), **extra)


def run_sweep(spec: SweepSpec) -> list[SweepRow]:
    """Evaluate every grid point in order and write the output file if asked."""
    rows = [
        run_point(
            params_at(spec, value),
            spec.estimators,
            n_max=spec.n_max,
            hamiltonian=spec.hamiltonian,
            vary=spec.vary,
            value=value,
        )
        for value in spec.grid
    ]
    if spec.output is not None:
        write_output(rows, spec.estimators, spec.output, spec.fmt)
    return rows


# ----------------------------------------------------------------- figure panels

_PANEL_GRIDS = {
    "omega_g_ratio": tuple(2.0 + i for i in range(9)),          # 2 .. 10
    "omega_g_equal": tuple(10.0 + 1.25 * i for i in range(9)),  # 10 .. 20, mid 15
    "eta_g": tuple(0.05 + 0.025 * i for i in range(9)),         # 0.05 .. 0.25
    "gamma_g": (0.5, 1.0, 1.5, 2.0, 3.0, 5.0, 10.0, 15.0, 19.0),
}

PANELS = {
    "a": ("omega_g", "omega_g_ratio", 4.0, 20.0),
    "b": ("omega_g", "omega_g_equal", 15.0, 15.0),
    "c": ("eta_g", "eta_g", 4.0, 20.0),
    "d": ("eta_g", "eta_g", 15.0, 15.0),
    "e": ("gamma_g", "gamma_g", 4.0, 20.0),
    "f": ("gamma_g", "gamma_g", 15.0, 15.0),
}


def builtin_figure3(
    panel: str,
    n_max: int = DEFAULT_N_MAX,
    estimators: tuple[str, ...] = DEFAULT_ESTIMATORS,
    hamiltonian: str = "ld",
    output: str | None = None,
    fmt: str = "csv",
) -> SweepSpec:
    """Benchmark sweep configuration for one of the six standard panels.

    Panels a/c/e run at Rabi ratio 1:5 (weak-drive regime), b/d/f at equal
    Rabi frequencies; e/f vary the branching at fixed total linewidth 20.
    """
    try:
        vary, grid_key, omega_g, omega_r = PANELS[panel]
    except KeyError:
        raise ConfigurationError(
            f"unknown panel {panel!r}; expected one of a..f"
        ) from None
    base = physics.CoolingParams(
        omega_g=omega_g,
        omega_r=omega_r,
        delta=physics.eit_resonance_delta(omega_g, omega_r),
        **BENCH_DEFAULTS,
    )
    return SweepSpec(
        vary=vary,
        grid=_PANEL_GRIDS[grid_key],
        base=base,
        estimators=tuple(estimators),
        n_max=n_max,
        hamiltonian=hamiltonian,
        output=output,
        fmt=fmt,
    )


# ------------------------------------------------------------------- output files

def _fmt(x: float | None) -> str:
    return "" if x is None else format(x, ".17g")


def _csv_estimators(estimators: tuple[str, ...]) -> list[Estimator]:
    """Estimators that get CSV columns for this request, in column order."""
    return [e for e in REGISTRY.values() if not e.optional or e.name in estimators]


def csv_header(estimators: tuple[str, ...]) -> list[str]:
    columns = [c for e in _csv_estimators(estimators) for c in (e.column, *e.terms)]
    return ["vary", "value", *columns, "flags"]


def rows_to_csv(rows: list[SweepRow], estimators: tuple[str, ...]) -> list[list[str]]:
    shown = _csv_estimators(estimators)
    out = [csv_header(estimators)]
    for row in rows:
        cells = [row.vary, _fmt(row.value)]
        for est in shown:
            cells.append(_fmt(row.nbar.get(est.name)))
            cells += [_fmt(getattr(row, term)) for term in est.terms]
        cells.append(";".join(row.flags))
        out.append(cells)
    return out


def write_csv(rows: list[SweepRow], estimators: tuple[str, ...], path: str) -> None:
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows_to_csv(rows, estimators))


def read_csv(path: str) -> list[SweepRow]:
    """Parse a sweep CSV back into rows (numeric columns only)."""
    with open(path, newline="") as fh:
        header, *body = csv.reader(fh)
    rows = []
    for cells in body:
        cell = dict(zip(header, cells))
        terms = {
            term: float(cell[term]) if cell[term] else None
            for est in REGISTRY.values()
            for term in est.terms
        }
        rows.append(
            SweepRow(
                vary=cell["vary"],
                value=float(cell["value"]),
                nbar={
                    est.name: float(cell[est.column])
                    for est in REGISTRY.values()
                    if cell.get(est.column)
                },
                flags=tuple(f for f in cell["flags"].split(";") if f),
                **terms,
            )
        )
    return rows


def rows_to_json(rows: list[SweepRow], estimators: tuple[str, ...]) -> str:
    payload = {"estimators": list(estimators), "rows": [asdict(r) for r in rows]}
    return json.dumps(payload, indent=2)


def write_output(
    rows: list[SweepRow], estimators: tuple[str, ...], path: str, fmt: str
) -> None:
    try:
        if fmt == "csv":
            write_csv(rows, estimators, path)
        elif fmt == "json":
            with open(path, "w") as fh:
                fh.write(rows_to_json(rows, estimators) + "\n")
        elif fmt == "svg":
            from .svgplot import write_svg

            write_svg(rows, estimators, path)
        else:
            raise ConfigurationError(f"unknown output format {fmt!r}")
    except OSError as exc:
        raise ConfigurationError(f"cannot write output {path!r}: {exc}") from exc
