"""Command-line interface: single points, sweeps, benchmark panels, selftest.

Configuration comes from an optional key=value text file plus flags, with
flags winning.  Exit codes: 0 success, 1 configuration error, 2 numerical
failure.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from . import analytic, liouvillian, physics, subspace, sweep
from .errors import (
    ConfigurationError,
    DegenerateSteadyStateError,
    EitCoolError,
    NumericalFailureError,
)

_PARAM_KEYS = (
    "omega_g",
    "omega_r",
    "gamma_g",
    "gamma_r",
    "eta_g",
    "eta_r",
    "phi_g",
    "phi_r",
    "nu",
)

_DEFAULTS = dict(
    omega_g=15.0,
    omega_r=15.0,
    nu=1.0,
    **sweep.BENCH_DEFAULTS,
)


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # keep argparse from exiting with its own code
        raise ConfigurationError(message)


def read_config(path: str) -> dict[str, str]:
    """Parse a `key = value` text file; '#' starts a comment."""
    values: dict[str, str] = {}
    try:
        with open(path) as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigurationError(
                        f"{path}:{lineno}: expected 'key = value', got {raw.rstrip()!r}"
                    )
                key, value = (part.strip() for part in line.split("=", 1))
                values[key] = value
    except OSError as exc:
        raise ConfigurationError(f"cannot read config file {path!r}: {exc}") from exc
    return values


def _merge(args: argparse.Namespace) -> dict[str, str]:
    merged: dict[str, str] = {}
    if args.config:
        merged.update(read_config(args.config))
    for key in (*_PARAM_KEYS, "delta_override", "n_max", "estimators", "hamiltonian",
                "vary", "grid", "lock", "out", "format"):
        flag = getattr(args, key, None)
        if flag is not None:
            merged[key] = str(flag)
    return merged


def _float(merged: dict[str, str], key: str, default: float | None) -> float | None:
    if key not in merged:
        return default
    try:
        return float(merged[key])
    except ValueError:
        raise ConfigurationError(f"{key} must be a number, got {merged[key]!r}") from None


def build_params(merged: dict[str, str]) -> physics.CoolingParams:
    """Parameters at the override detuning if one is given, else at resonance."""
    kwargs = {key: _float(merged, key, _DEFAULTS[key]) for key in _PARAM_KEYS}
    delta = _delta_override(merged)
    if delta is None:
        delta = physics.eit_resonance_delta(
            kwargs["omega_g"], kwargs["omega_r"], kwargs["nu"]
        )
    return physics.CoolingParams(delta=delta, **kwargs)


def _estimators(merged: dict[str, str]) -> tuple[str, ...]:
    """Requested names; they are checked against the registry before use."""
    if "estimators" not in merged:
        return sweep.DEFAULT_ESTIMATORS
    return tuple(e.strip() for e in merged["estimators"].split(",") if e.strip())


def _delta_override(merged: dict[str, str]) -> float | None:
    return _float(merged, "delta_override", None)


def _n_max(merged: dict[str, str]) -> int:
    raw = merged.get("n_max", str(sweep.DEFAULT_N_MAX))
    try:
        return int(raw)
    except ValueError:
        raise ConfigurationError(f"n_max must be an integer, got {raw!r}") from None


def cmd_point(args: argparse.Namespace) -> int:
    merged = _merge(args)
    params = build_params(merged)
    estimators = _estimators(merged)
    row = sweep.run_point(
        params,
        estimators,
        n_max=_n_max(merged),
        hamiltonian=merged.get("hamiltonian", "ld"),
    )
    out = merged.get("out")
    if out:
        sweep.write_output([row], estimators, out, merged.get("format", "csv"))
        print(f"wrote {out}")
    else:
        print(f"delta = {params.delta:.6g} (resonance condition"
              f"{' overridden' if _delta_override(merged) is not None else ''})")
        for est in estimators:
            if est in row.nbar:
                print(f"{est:18s} {row.nbar[est]:.10e}")
        if row.eq15_term2 is not None:
            print(f"{'eq15_term1':18s} {row.eq15_term1:.10e}")
            print(f"{'eq15_term2':18s} {row.eq15_term2:.10e}")
        for flag in row.flags:
            print(f"FAILED {flag}")
    if row.nbar:
        return 0
    raise NumericalFailureError("every requested estimator failed: " + ";".join(row.flags))


def _parse_grid(raw: str) -> tuple[float, ...]:
    try:
        return tuple(float(v) for v in raw.split(",") if v.strip())
    except ValueError:
        raise ConfigurationError(f"grid must be comma-separated numbers, got {raw!r}") from None


def cmd_sweep(args: argparse.Namespace) -> int:
    merged = _merge(args)
    for key in ("vary", "grid"):
        if key not in merged:
            raise ConfigurationError(f"sweep requires --{key}")
    vary = merged["vary"]
    spec = sweep.SweepSpec(
        vary=vary,
        grid=_parse_grid(merged["grid"]),
        lock=merged.get("lock", sweep.LOCK_FOR_AXIS.get(vary, "")),
        base=build_params(merged),
        estimators=_estimators(merged),
        n_max=_n_max(merged),
        hamiltonian=merged.get("hamiltonian", "ld"),
        delta_override=_delta_override(merged),
        output=merged.get("out"),
        fmt=merged.get("format", "csv"),
    )
    rows = sweep.run_sweep(spec)
    if spec.output is None:
        for line in sweep.rows_to_csv(rows, spec.estimators):
            print(",".join(line))
    else:
        print(f"wrote {spec.output}")
    if all(not row.nbar for row in rows):
        raise NumericalFailureError("every grid point failed")
    return 0


def cmd_fig3(args: argparse.Namespace) -> int:
    merged = _merge(args)
    fmt = merged.get("format", "csv")
    out = merged.get("out") or f"fig3_{args.panel}.{fmt}"
    spec = sweep.builtin_figure3(
        args.panel,
        n_max=_n_max(merged),
        estimators=_estimators(merged),
        hamiltonian=merged.get("hamiltonian", "ld"),
        output=out,
        fmt=fmt,
    )
    sweep.run_sweep(spec)
    print(f"wrote {out}")
    return 0


def cmd_selftest(args: argparse.Namespace) -> int:
    failures = 0

    def check(name: str, ok: bool) -> None:
        nonlocal failures
        print(f"{'PASS' if ok else 'FAIL'}  {name}")
        failures += 0 if ok else 1

    params = physics.CoolingParams(
        omega_g=15.0, omega_r=15.0,
        delta=physics.eit_resonance_delta(15.0, 15.0), **sweep.BENCH_DEFAULTS,
    )
    d = physics.derive_eit(params)
    gamma = params.gamma_total

    equal = analytic.nbar_equal(gamma, params.delta, d.eta)
    second = analytic.nbar_second(d, gamma, params.delta)
    check("equal-drive formula matches the general second-order one",
          abs(second - equal) <= 1e-14 * equal)

    diag = analytic.subspace_diagonals(d, params.nu)
    recon = diag.weighted_sum()
    check("population reconstruction matches the second-order formula",
          abs(recon - second) <= 1e-10 * second)

    h = physics.hamiltonian_ld(params, 6)
    lv = liouvillian.build_liouvillian(h, physics.jump_operators(params, 6))
    ss = liouvillian.steady_state(lv)
    nbar = liouvillian.phonon_occupation(ss)
    check("dense steady state within 30% of the closed form",
          abs(nbar - equal) <= 0.3 * equal)
    check("steady-state diagnostics within contract",
          ss.trace_defect < 1e-10 and ss.herm_defect < 1e-10
          and ss.min_eigenvalue > -1e-8 and ss.residual < 1e-9)

    rho7 = subspace.solve_stationarity(
        subspace.build_projected(d, params.nu, params.delta)
    )
    check("seven-level model within 20% of the dense solve",
          abs(subspace.nbar_projected(rho7) - nbar) <= 0.2 * nbar)

    try:
        degenerate = physics.CoolingParams(
            omega_g=15.0, omega_r=15.0, delta=params.delta,
            gamma_g=20 / 3, gamma_r=40 / 3, eta_g=0.0, eta_r=0.0,
            phi_g=math.pi / 4, phi_r=3 * math.pi / 4,
        )
        h0 = physics.hamiltonian_ld(degenerate, 4)
        liouvillian.steady_state(
            liouvillian.build_liouvillian(h0, physics.jump_operators(degenerate, 4))
        )
        check("zero recoil is reported as degenerate", False)
    except DegenerateSteadyStateError:
        check("zero recoil is reported as degenerate", True)

    two_level = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)
    jump = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    lv2 = liouvillian.build_liouvillian(np.zeros((2, 2), complex), [(1.0, jump)])
    rho_t = liouvillian.time_evolve(lv2, two_level, 5.0, 0.01)
    check("two-level decay follows the exponential law",
          abs(rho_t[1, 1].real - math.exp(-5.0)) < 1e-6)

    if failures:
        raise NumericalFailureError(f"{failures} selftest check(s) failed")
    print("selftest passed")
    return 0


def make_parser() -> _Parser:
    parser = _Parser(prog="eitcool", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_shared(p: _Parser) -> None:
        p.add_argument("--config", help="key=value config file; flags override it")
        for key in _PARAM_KEYS:
            p.add_argument(f"--{key.replace('_', '-')}", dest=key, type=float)
        p.add_argument("--delta-override", dest="delta_override", type=float,
                       help="fix the detuning instead of the resonance condition")
        p.add_argument("--n-max", dest="n_max", type=int,
                       help="phonon cutoff for the dense solver")
        p.add_argument("--estimators", dest="estimators",
                       help="comma-separated subset of " + ",".join(sweep.ESTIMATORS))
        p.add_argument("--hamiltonian", dest="hamiltonian", choices=("ld", "full"),
                       help="first-order Lamb-Dicke (default) or exponential-kick")
        p.add_argument("--out", dest="out", help="output file path")
        p.add_argument("--format", dest="format", choices=("csv", "json", "svg"))

    p_point = sub.add_parser("point", help="evaluate the estimators at one parameter point")
    add_shared(p_point)
    p_point.set_defaults(func=cmd_point)

    p_sweep = sub.add_parser("sweep", help="run a parameter sweep")
    add_shared(p_sweep)
    p_sweep.add_argument("--vary", dest="vary", choices=sweep.VARY_AXES)
    p_sweep.add_argument("--grid", dest="grid",
                         help="comma-separated, strictly increasing values")
    p_sweep.add_argument("--lock", dest="lock", choices=sweep.LOCKS)
    p_sweep.set_defaults(func=cmd_sweep)

    p_fig3 = sub.add_parser("fig3", help="run one of the six benchmark panels")
    add_shared(p_fig3)
    p_fig3.add_argument("--panel", required=True, choices=sorted(sweep.PANELS))
    p_fig3.set_defaults(func=cmd_fig3)

    p_self = sub.add_parser("selftest", help="quick built-in verification")
    p_self.set_defaults(func=cmd_selftest)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except (NumericalFailureError, DegenerateSteadyStateError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except EitCoolError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
