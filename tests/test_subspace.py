from dataclasses import replace

import numpy as np
import pytest

from eitcool import (
    DegenerateSteadyStateError,
    build_projected,
    derive_eit,
    nbar_projected,
    solve_stationarity,
    subspace_diagonals,
)
from eitcool import subspace as sub
from eitcool import sweep

from conftest import bench_params, solve_full


def projected_at(omega_g, omega_r, **overrides):
    p = bench_params(omega_g, omega_r, **overrides)
    d = derive_eit(p)
    return p, d, build_projected(d, p.nu, p.delta)


# Reference formulation of the projected model, independent of the package's
# solver: stationarity is imposed as tr(O G(rho)) = 0 for all 49 Hermitian
# observables {|j><j|, |j><k| + |k><j|, i|j><k| - i|k><j|} of the seven
# levels, and rho is expanded in the same 49 operators, so the unknowns are
# real and the system has exactly one redundant row at generic parameters.

def _op(i, j):
    out = np.zeros((7, 7), dtype=complex)
    out[i, j] = 1.0
    return out


def observables():
    """Projectors first, then the symmetric and antisymmetric pair
    operators in lexicographic pair order."""
    obs = [_op(j, j) for j in range(7)]
    for j in range(7):
        for k in range(j + 1, 7):
            obs.append(_op(j, k) + _op(k, j))
    for j in range(7):
        for k in range(j + 1, 7):
            obs.append(1j * _op(j, k) - 1j * _op(k, j))
    return obs


def generator_action(sys7, rho):
    """-i[H, rho] plus the four decay channels."""
    out = -1j * (sys7.hs @ rho - rho @ sys7.hs)
    for rate, op in sys7.jumps:
        opd = op.conj().T
        opdop = opd @ op
        out += 0.5 * rate * (2.0 * op @ rho @ opd - opdop @ rho - rho @ opdop)
    return out


def stationarity_system(sys7):
    """The 49 x 49 real matrix of tr(O_i G(B_m)) over the observable basis."""
    basis = observables()
    mat = np.empty((49, 49), dtype=float)
    for m, b in enumerate(basis):
        image = generator_action(sys7, b)
        for i, ob in enumerate(basis):
            mat[i, m] = np.trace(ob @ image).real
    return mat


def oracle_solve(sys7, degeneracy_tol=1e-10):
    """Trace-one solution of the 49 real equations; the first seven
    coefficients are the populations."""
    mat = stationarity_system(sys7)
    svals = np.linalg.svd(mat, compute_uv=False)
    if np.count_nonzero(svals < degeneracy_tol * svals[0]) > 1:
        raise DegenerateSteadyStateError("oracle stationary subspace is degenerate")
    mat[0, :] = 0.0
    mat[0, :7] = 1.0
    rhs = np.zeros(49)
    rhs[0] = 1.0
    coeff = np.linalg.solve(mat, rhs)
    return sum(c * b for c, b in zip(coeff, observables()))


# observable/basis column layout used by the stationarity system
_PAIRS = [(j, k) for j in range(7) for k in range(j + 1, 7)]
_SYM0 = 7
_ASYM0 = 7 + len(_PAIRS)


def _pair_col(j, k, kind):
    idx = _PAIRS.index((min(j, k), max(j, k)))
    return (_SYM0 if kind == "x" else _ASYM0) + idx


D0, B0, E0, D1, B1, E1, D2 = range(7)


class TestBuildProjected:
    def test_diagonal_energies(self):
        p, d, sys7 = projected_at(15.0, 15.0)
        diag = np.diag(sys7.hs).real
        np.testing.assert_allclose(
            diag,
            [0.0, 0.0, -p.delta, p.nu, p.nu, -(p.delta - p.nu), 2.0 * p.nu],
            atol=1e-14,
        )

    def test_carrier_couplings(self):
        _, d, sys7 = projected_at(4.0, 20.0)
        assert sys7.hs[B0, E0] == pytest.approx(d.omega_b / 2, rel=1e-14)
        assert sys7.hs[B1, E1] == pytest.approx(d.omega_b / 2, rel=1e-14)

    def test_sideband_couplings(self):
        _, d, sys7 = projected_at(4.0, 20.0)
        half = 0.5 * d.eta * d.omega_d
        for upper, lower in ((E1, D0), (E0, D1), (E1, D2)):
            assert sys7.hs[upper, lower] == pytest.approx(1j * half, rel=1e-14)
            assert sys7.hs[lower, upper] == pytest.approx(-1j * half, rel=1e-14)

    def test_hamiltonian_hermitian(self):
        _, _, sys7 = projected_at(4.0, 20.0)
        assert np.abs(sys7.hs - sys7.hs.conj().T).max() == 0.0

    def test_dark_levels_decouple_at_zero_recoil(self):
        _, _, sys7 = projected_at(15.0, 15.0, eta_g=0.0, eta_r=0.0)
        for dark in (D0, D1, D2):
            row = sys7.hs[dark].copy()
            row[dark] = 0.0
            assert np.abs(row).max() == 0.0

    def test_four_decay_channels(self):
        _, d, sys7 = projected_at(4.0, 20.0)
        rates = sorted(rate for rate, _ in sys7.jumps)
        assert rates == pytest.approx(sorted([d.gamma_d, d.gamma_d, d.gamma_b, d.gamma_b]))
        for _, op in sys7.jumps:
            src = np.nonzero(op)[1]
            assert set(src) <= {E0, E1}  # decay only out of the excited levels
            dst = np.nonzero(op)[0]
            assert set(dst) <= {D0, D1, B0, B1}


class TestStationaritySystemFixture:
    """The hand-derived balance equations, re-transcribed as sparse row
    patterns, must match the machine-assembled system row for row."""

    def expected_rows(self, d, delta, nu=1.0):
        g = d.gamma_d + d.gamma_b
        hw = 0.5 * d.eta * d.omega_d  # sideband half-coupling
        hb = 0.5 * d.omega_b          # carrier half-coupling

        def row(terms):
            out = np.zeros(49)
            for (kind, *which), coeff in terms.items():
                if kind == "rho":
                    out[which[0]] = coeff
                else:
                    # sigma expectations are twice the basis coefficients
                    out[_pair_col(which[0], which[1], kind)] = 2.0 * coeff
            return out

        return {
            D0: row({("rho", E0): d.gamma_d, ("x", D0, E1): -hw}),
            B0: row({("rho", E0): d.gamma_b, ("y", B0, E0): -hb}),
            E0: row({("rho", E0): -g, ("y", B0, E0): hb, ("x", E0, D1): hw}),
            D1: row({("rho", E1): d.gamma_d, ("x", E0, D1): -hw}),
            B1: row({("rho", E1): d.gamma_b, ("y", B1, E1): -hb}),
            E1: row({("rho", E1): -g, ("x", D0, E1): hw, ("y", B1, E1): hb,
                     ("x", E1, D2): hw}),
            D2: row({("x", E1, D2): -hw}),
            ("x", B0, E0): row({("x", B0, E0): -g / 2, ("y", B0, E0): delta,
                                ("x", B0, D1): hw}),
            ("y", B0, E0): row({("rho", E0): -d.omega_b, ("rho", B0): d.omega_b,
                                ("x", B0, E0): -delta, ("y", B0, E0): -g / 2,
                                ("y", B0, D1): hw}),
            ("x", B0, D1): row({("x", B0, E0): -hw, ("y", B0, D1): -nu,
                                ("y", E0, D1): hb}),
            ("y", B0, D1): row({("y", B0, E0): -hw, ("x", B0, D1): nu,
                                ("x", E0, D1): -hb}),
            ("x", E0, D1): row({("rho", E0): -d.eta * d.omega_d,
                                ("rho", D1): d.eta * d.omega_d,
                                ("y", B0, D1): hb, ("x", E0, D1): -g / 2,
                                ("y", E0, D1): -(nu + delta)}),
            ("y", E0, D1): row({("x", B0, D1): -hb, ("x", E0, D1): nu + delta,
                                ("y", E0, D1): -g / 2}),
        }

    def _row_index(self, key):
        if isinstance(key, int):
            return key
        kind, j, k = key
        return _pair_col(j, k, kind)

    def test_machine_rows_match_hand_equations(self):
        p, d, sys7 = projected_at(4.0, 20.0)
        mat = stationarity_system(sys7)
        for key, expected in self.expected_rows(d, p.delta, p.nu).items():
            np.testing.assert_allclose(
                mat[self._row_index(key)], expected, atol=1e-12,
                err_msg=f"stationarity row mismatch for observable {key}",
            )


class TestSolveStationarity:
    def test_trace_hermiticity_positivity(self):
        _, _, sys7 = projected_at(4.0, 20.0)
        rho = solve_stationarity(sys7)
        assert abs(rho.trace() - 1.0) < 1e-12
        assert np.abs(rho - rho.conj().T).max() < 1e-14
        assert np.linalg.eigvalsh(rho).min() > -1e-8

    def test_exact_balance_relations(self):
        # these follow from the population equations alone, so the numerical
        # solution obeys them to solver precision
        _, _, sys7 = projected_at(15.0, 15.0, gamma_g=2 / 3, gamma_r=4 / 3)
        rho = solve_stationarity(sys7)
        diag = sub.diagonals(rho)
        assert abs(diag["e0"] - diag["e1"]) < 1e-10
        sx_a = sub.coherence_x(rho, ("d", 0), ("e", 1))
        sx_b = sub.coherence_x(rho, ("e", 0), ("d", 1))
        sy_a = sub.coherence_y(rho, ("b", 0), ("e", 0))
        sy_b = sub.coherence_y(rho, ("b", 1), ("e", 1))
        assert abs(sx_a - sx_b) < 1e-10
        assert abs(sy_a - sy_b) < 1e-10

    def test_rank_is_48_at_generic_parameters(self):
        _, _, sys7 = projected_at(4.0, 20.0)
        svals = np.linalg.svd(stationarity_system(sys7), compute_uv=False)
        assert np.count_nonzero(svals < 1e-10 * svals[0]) == 1

    def test_matches_observable_oracle_over_panels(self):
        # per panel: the smallest recoil, one zero-recoil geometry, and
        # log-uniform recoils up to 0.6 at random points of the panel's range
        rng = np.random.default_rng(20240817)
        solved = degenerate = 0
        for panel in "abcdef":
            spec = sweep.builtin_figure3(panel)
            etas = [5e-4, 0.15, *10.0 ** rng.uniform(np.log10(5e-4), np.log10(0.6), 6)]
            for k, eta in enumerate(etas):
                p = sweep.params_at(spec, rng.uniform(spec.grid[0], spec.grid[-1]))
                p = replace(p, eta_g=eta, eta_r=eta)
                if k == 1:
                    p = replace(p, phi_r=p.phi_g)
                sys7 = build_projected(derive_eit(p), p.nu, p.delta)
                try:
                    want = oracle_solve(sys7)
                except DegenerateSteadyStateError:
                    with pytest.raises(DegenerateSteadyStateError):
                        solve_stationarity(sys7)
                    degenerate += 1
                    continue
                got = solve_stationarity(sys7)
                assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()
                assert nbar_projected(got) == pytest.approx(nbar_projected(want), rel=1e-10)
                solved += 1
        assert degenerate == 6 and solved == 42

    def test_degenerate_at_zero_recoil(self):
        # also at parallel beams, where eta_g = eta_r != 0 cancel
        for overrides in (dict(eta_g=0.0, eta_r=0.0), dict(phi_r=np.pi / 4)):
            _, _, sys7 = projected_at(15.0, 15.0, **overrides)
            with pytest.raises(DegenerateSteadyStateError, match="rcond"):
                solve_stationarity(sys7)

    def test_matches_closed_forms_deep_in_validity(self):
        # strict relative agreement needs both a heavy carrier and a small
        # recoil term; the closed forms then hold to better than 1e-3
        p, d, sys7 = projected_at(240.0, 240.0, gamma_g=2 / 3, gamma_r=4 / 3,
                                  eta_g=0.0375, eta_r=0.0375)
        rho = solve_stationarity(sys7)
        diag = sub.diagonals(rho)
        closed = subspace_diagonals(d, p.nu)
        d0 = diag["d0"]
        for key, want in (("b0", closed.rho_b0b0), ("d1", closed.rho_d1d1),
                          ("b1", closed.rho_b1b1), ("d2", closed.rho_d2d2)):
            assert diag[key] / d0 == pytest.approx(want, rel=1e-3)


class TestNbarProjected:
    def test_pure_dark_ground_state(self):
        rho = np.zeros((7, 7), dtype=complex)
        rho[0, 0] = 1.0
        assert nbar_projected(rho) == 0.0

    def test_two_phonon_dark_state(self):
        rho = np.zeros((7, 7), dtype=complex)
        rho[6, 6] = 1.0
        assert nbar_projected(rho) == 2.0

    def test_against_full_solver_at_benchmark_point(self):
        p, d, sys7 = projected_at(15.0, 15.0)
        nbar7 = nbar_projected(solve_stationarity(sys7))
        _, nbar_full = solve_full(p, 12)
        assert nbar7 == pytest.approx(nbar_full, rel=0.15)

    def test_gap_to_full_shrinks_with_linewidth(self):
        gaps = []
        for scale in (1.0, 0.5, 0.25):
            p = bench_params(15.0, 15.0, gamma_g=scale * 20 / 3, gamma_r=scale * 40 / 3)
            d = derive_eit(p)
            nbar7 = nbar_projected(
                solve_stationarity(build_projected(d, p.nu, p.delta))
            )
            _, nbar_full = solve_full(p, 10)
            gaps.append(abs(nbar7 - nbar_full))
        assert gaps[0] > gaps[1] > gaps[2]
