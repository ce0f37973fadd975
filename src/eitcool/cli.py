"""Command-line interface: single points, sweeps, benchmark panels, selftest.

Every run option is one argparse argument, which declares its type, default
and allowed values.  A `--config FILE` of `key = value` lines is read through
the same parser: each key names one of the subcommand's long flags
(`n_max` or `n-max` for `--n-max`), so a key the subcommand has no flag for
is rejected, and flags on the command line win over the file.  The library
checks the estimator names, the cutoff and the Hamiltonian before
evaluating anything.  Without `--out`, `point` prints text, `sweep` CSV, and
both JSON for `--format json`; `--format svg` needs `--out`.  Exit codes, for
every format: 0 success, 1 configuration error, 2 numerical failure, and
141 (128 + SIGPIPE) when the reader of stdout goes away early.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys

import numpy as np

from . import analytic, liouvillian, physics, subspace, sweep
from .errors import (
    ConfigurationError,
    DegenerateSteadyStateError,
    EitCoolError,
    NumericalFailureError,
)

_PARAM_KEYS = tuple(
    f.name for f in dataclasses.fields(physics.CoolingParams) if f.name != "delta"
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


def read_config(path: str) -> list[str]:
    """Flag tokens `--key=value` for the `key = value` lines of a text file.

    '#' starts a comment.  The `=` form keeps a value such as `-5` from being
    read as a flag.
    """
    tokens: list[str] = []
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
                if key == "config":
                    raise ConfigurationError(
                        f"{path}:{lineno}: a config file cannot name another one"
                    )
                tokens.append(f"--{key.replace('_', '-')}={value}")
    except OSError as exc:
        raise ConfigurationError(f"cannot read config file {path!r}: {exc}") from exc
    return tokens


def _comma_list(item: type):
    """argparse type for a comma-separated list of `item` values."""

    def parse(raw: str) -> tuple:
        try:
            return tuple(item(v.strip()) for v in raw.split(",") if v.strip())
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected comma-separated {item.__name__} values, got {raw!r}"
            ) from None

    return parse


def build_params(args: argparse.Namespace) -> physics.CoolingParams:
    """Parameters at the override detuning if one is given, else at resonance."""
    kwargs = {key: getattr(args, key) for key in _PARAM_KEYS}
    delta = args.delta_override
    if delta is None:
        delta = physics.eit_resonance_delta(
            kwargs["omega_g"], kwargs["omega_r"], kwargs["nu"]
        )
    return physics.CoolingParams(delta=delta, **kwargs)


def cmd_point(args: argparse.Namespace) -> int:
    if args.format == "svg" and not args.out:
        raise ConfigurationError("--format svg needs --out")
    params = build_params(args)
    row = sweep.run_point(
        params, args.estimators, n_max=args.n_max, hamiltonian=args.hamiltonian
    )
    if args.out:
        sweep.write_output([row], args.estimators, args.out, args.format)
        print(f"wrote {args.out}")
    elif args.format == "json":
        print(sweep.rows_to_json([row], args.estimators))
    else:
        print(f"delta = {params.delta:.6g} (resonance condition"
              f"{' overridden' if args.delta_override is not None else ''})")
        for est in args.estimators:
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


def cmd_sweep(args: argparse.Namespace) -> int:
    if args.format == "svg" and not args.out:
        raise ConfigurationError("--format svg needs --out")
    spec = sweep.SweepSpec(
        vary=args.vary,
        grid=args.grid,
        base=build_params(args),
        estimators=args.estimators,
        n_max=args.n_max,
        hamiltonian=args.hamiltonian,
        delta_override=args.delta_override,
        output=args.out,
        fmt=args.format,
    )
    rows = sweep.run_sweep(spec)
    if spec.output is not None:
        print(f"wrote {spec.output}")
    elif spec.fmt == "json":
        print(sweep.rows_to_json(rows, spec.estimators))
    else:
        for line in sweep.rows_to_csv(rows, spec.estimators):
            print(",".join(line))
    if all(not row.nbar for row in rows):
        raise NumericalFailureError("every grid point failed")
    return 0


def cmd_fig3(args: argparse.Namespace) -> int:
    out = args.out or f"fig3_{args.panel}.{args.format}"
    spec = sweep.builtin_figure3(
        args.panel,
        n_max=args.n_max,
        estimators=args.estimators,
        hamiltonian=args.hamiltonian,
        output=out,
        fmt=args.format,
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

    def add_run_parser(name: str, summary: str) -> _Parser:
        # Flags are matched by full name only, so a config key such as
        # `delta` cannot pass as an abbreviation of `--delta-override`.
        p = sub.add_parser(name, help=summary, allow_abbrev=False)
        p.add_argument("--config", help="key=value config file; flags override it")
        for key in _PARAM_KEYS:
            p.add_argument(f"--{key.replace('_', '-')}", type=float,
                           default=_DEFAULTS[key])
        p.add_argument("--delta-override", type=float,
                       help="fix the detuning instead of the resonance condition")
        p.add_argument("--n-max", type=int, default=sweep.DEFAULT_N_MAX,
                       help="phonon cutoff for the dense solver")
        p.add_argument("--estimators", type=_comma_list(str),
                       default=sweep.DEFAULT_ESTIMATORS,
                       help="comma-separated subset of " + ",".join(sweep.ESTIMATORS))
        p.add_argument("--hamiltonian", choices=sweep.HAMILTONIANS, default="ld",
                       help="first-order Lamb-Dicke (default) or exponential-kick")
        p.add_argument("--out", help="output file path")
        p.add_argument("--format", choices=sweep.FORMATS, default="csv",
                       help="output format; svg needs --out")
        return p

    p_point = add_run_parser("point", "evaluate the estimators at one parameter point")
    p_point.set_defaults(func=cmd_point)

    p_sweep = add_run_parser("sweep", "run a parameter sweep")
    p_sweep.add_argument("--vary", required=True, choices=sweep.VARY_AXES)
    p_sweep.add_argument("--grid", required=True, type=_comma_list(float),
                         help="comma-separated, strictly increasing values")
    p_sweep.set_defaults(func=cmd_sweep)

    p_fig3 = add_run_parser("fig3", "run one of the six benchmark panels")
    p_fig3.add_argument("--panel", required=True, choices=sorted(sweep.PANELS))
    p_fig3.set_defaults(func=cmd_fig3)

    p_self = sub.add_parser("selftest", help="quick built-in verification")
    p_self.set_defaults(func=cmd_selftest)
    return parser


def _config_tokens(argv: list[str]) -> list[str]:
    """Flag tokens of the `--config` file named after the subcommand, if any.

    Read before the full parse, so that a required flag given only in the
    file is present when the parser checks for it.
    """
    pre = _Parser(add_help=False, allow_abbrev=False)
    pre.add_argument("--config")
    known, _ = pre.parse_known_args(argv[1:])
    return read_config(known.config) if known.config else []


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        # File tokens go right after the subcommand, so later flags win.
        argv[1:1] = _config_tokens(argv)
        args = make_parser().parse_args(argv)
        try:
            return args.func(args)
        finally:
            sys.stdout.flush()  # a closed pipe raises here, not at exit
    except BrokenPipeError:
        # The reader left (`eitcool sweep ... | head`): stdout to devnull, so
        # the last flush at exit cannot fail again; exit as SIGPIPE would.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
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
