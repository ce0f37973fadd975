import math
import tracemalloc
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.linalg import lapack

from eitcool import (
    ConfigurationError,
    DegenerateSteadyStateError,
    NumericalFailureError,
    build_liouvillian,
    derive_eit,
    devectorize,
    hamiltonian_full,
    hamiltonian_ld,
    jump_operators,
    phonon_occupation,
    steady_state,
    time_evolve,
    vectorize,
)
from eitcool import hilbert, liouvillian, sweep
from eitcool.physics import dark_bright_unitary

from conftest import bench_params, solve_full

PROPERTY_SETTINGS = settings(max_examples=20, deadline=None, derandomize=True)


@st.composite
def panel_points(draw):
    """Parameters in the ranges of the six panels (total linewidth 20, Rabi
    frequencies 2..50), with free laser angles.  Points whose effective recoil
    nearly cancels are skipped: their steady state is nearly degenerate."""
    gamma_g = draw(st.floats(0.5, 19.0))
    p = bench_params(
        draw(st.floats(2.0, 20.0)),
        draw(st.floats(10.0, 50.0)),
        gamma_g=gamma_g,
        gamma_r=20.0 - gamma_g,
        eta_g=draw(st.floats(0.0, 0.25)),
        eta_r=draw(st.floats(0.0, 0.25)),
        phi_g=draw(st.floats(0.0, math.pi)),
        phi_r=draw(st.floats(0.0, math.pi)),
    )
    assume(abs(derive_eit(p).eta) >= 0.01)
    return p


def both_hamiltonians(p, n_max):
    return (hamiltonian_ld(p, n_max), hamiltonian_full(p, n_max))


def assert_degenerate(p):
    """Both Hamiltonians are degenerate at every cutoff, and the error names
    the condition estimate and its bound."""
    for n_max in (4, 8, 12):
        for h in both_hamiltonians(p, n_max):
            lv = build_liouvillian(h, jump_operators(p, n_max))
            assert liouvillian.nullspace_dimension(lv) == 2
            with pytest.raises(DegenerateSteadyStateError, match=r"rcond .* below 1e-13"):
                steady_state(lv)


def small_recoil(eta_eff):
    """Panel-a base point at a given effective Lamb-Dicke parameter; the beams
    at +-45 degrees give eta_eff = sqrt(2) eta."""
    eta = eta_eff / math.sqrt(2.0)
    return replace(sweep.builtin_figure3("a").base, eta_g=eta, eta_r=eta)


def two_level_decay(gamma=1.0):
    h = np.zeros((2, 2), dtype=complex)
    jump = np.zeros((2, 2), dtype=complex)
    jump[0, 1] = 1.0  # |g><e|
    return build_liouvillian(h, [(gamma, jump)])


class TestVectorization:
    def test_identity_vector(self):
        np.testing.assert_allclose(vectorize(np.eye(2)), [1, 0, 0, 1], atol=0)

    def test_column_stacking_order(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_allclose(vectorize(a), [1, 3, 2, 4], atol=0)

    def test_round_trip(self, rng):
        a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        np.testing.assert_allclose(devectorize(vectorize(a)), a, atol=0)

    def test_sandwich_identity(self, rng):
        # vec(A X B) = kron(B^T, A) vec(X)
        a, x, b = (
            rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            for _ in range(3)
        )
        lhs = vectorize(a @ x @ b)
        rhs = np.kron(b.T, a) @ vectorize(x)
        np.testing.assert_allclose(lhs, rhs, atol=1e-13)

    def test_rejects_non_square(self):
        with pytest.raises(ConfigurationError):
            vectorize(np.ones((2, 3)))
        with pytest.raises(ConfigurationError):
            devectorize(np.ones(5))


class TestBuildLiouvillian:
    def test_two_level_population_decay_rate(self):
        gamma = 0.7
        lv = two_level_decay(gamma)
        rho = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)
        drho = devectorize(lv.matrix @ vectorize(rho))
        assert drho[1, 1].real == pytest.approx(-gamma, rel=1e-14)
        assert drho[0, 0].real == pytest.approx(gamma, rel=1e-14)

    @PROPERTY_SETTINGS
    @given(panel_points())
    def test_all_columns_traceless(self, p):
        for h in both_hamiltonians(p, 3):
            lv = build_liouvillian(h, jump_operators(p, 3))
            for k in range(lv.dim):
                unit = np.zeros(lv.dim, dtype=complex)
                unit[k] = 1.0
                assert abs(devectorize(lv.matrix @ unit).trace()) < 1e-12

    @PROPERTY_SETTINGS
    @given(panel_points())
    def test_hermiticity_preserved_on_random_inputs(self, p):
        rng = np.random.default_rng(20240817)
        for h in both_hamiltonians(p, 3):
            lv = build_liouvillian(h, jump_operators(p, 3))
            d = lv.hilbert_dim
            for _ in range(5):
                m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
                herm = m + m.conj().T
                image = devectorize(lv.matrix @ vectorize(herm))
                assert np.abs(image - image.conj().T).max() < 1e-10
                assert abs(image.trace()) < 1e-10

    def test_spectrum_in_left_half_plane(self):
        p = bench_params(15.0, 15.0)
        lv = build_liouvillian(hamiltonian_ld(p, 6), jump_operators(p, 6))
        eigs = np.linalg.eigvals(lv.matrix)
        assert eigs.real.max() <= 1e-10

    def test_rejects_negative_rate(self):
        jump = np.zeros((2, 2), dtype=complex)
        jump[0, 1] = 1.0
        with pytest.raises(ConfigurationError):
            build_liouvillian(np.zeros((2, 2)), [(-1.0, jump)])

    def test_rejects_non_hermitian_hamiltonian(self):
        h = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        with pytest.raises(ConfigurationError):
            build_liouvillian(h, [])


class TestSteadyState:
    def test_two_level_decay_reaches_ground(self):
        ss = steady_state(two_level_decay())
        np.testing.assert_allclose(ss.rho, [[1.0, 0.0], [0.0, 0.0]], atol=1e-12)
        assert ss.nullspace_dim == 1

    def test_zero_recoil_is_degenerate(self):
        assert_degenerate(bench_params(15.0, 15.0, eta_g=0.0, eta_r=0.0))

    def test_non_finite_generator_is_a_numerical_failure(self):
        lv = liouvillian.Superoperator(np.full((4, 4), np.nan, dtype=complex), 2)
        with pytest.raises(NumericalFailureError):
            liouvillian.nullspace_dimension(lv)

    def test_parallel_laser_geometry_is_degenerate(self):
        # equal angles cancel the effective recoil even with eta_g = eta_r != 0
        assert_degenerate(bench_params(15.0, 15.0, phi_g=math.pi / 4, phi_r=math.pi / 4))

    @pytest.mark.parametrize("n_max", [6, 12])
    def test_small_recoil_has_a_unique_steady_state(self, n_max):
        # rcond ~ 6e-4 eta_eff**2 is small but far above the bound; at
        # eta_eff = 1e-3 the occupation has already reached its eta -> 0 limit
        ss, nbar = solve_full(small_recoil(1e-4), n_max)
        _, nbar_ref = solve_full(small_recoil(1e-3), n_max)
        assert ss.nullspace_dim == 1
        assert liouvillian.DEGENERACY_TOL < ss.rcond < 1e-10
        assert nbar == pytest.approx(nbar_ref, rel=1e-4)

    @pytest.mark.parametrize("n_max", [6, 12])
    def test_smaller_recoil_is_degenerate(self, n_max):
        for hamiltonian in ("ld", "full"):
            row = sweep.run_point(small_recoil(1e-5), ("numeric_full",),
                                  n_max=n_max, hamiltonian=hamiltonian)
            assert row.nbar == {} and row.rcond is None
            assert row.flags == ("numeric_full:degenerate-steady-state",)

    @PROPERTY_SETTINGS
    @given(panel_points())
    def test_condition_estimate_agrees_with_singular_values(self, p):
        # oracle: exactly one singular value of the generator below 1e-10 ||L||_2
        for h in both_hamiltonians(p, 3):
            lv = build_liouvillian(h, jump_operators(p, 3))
            svals = np.linalg.svd(lv.matrix, compute_uv=False)
            assert np.count_nonzero(svals < 1e-10 * svals[0]) == 1
            assert liouvillian.nullspace_dimension(lv) == 1
            assert steady_state(lv).rcond >= 1e3 * liouvillian.DEGENERACY_TOL

    def test_one_factorization_and_no_svd_per_point(self, monkeypatch):
        calls = Counter()
        for module, name, kind in ((lapack, "zgetrf", "lu"), (np.linalg, "solve", "lu"),
                                   (np.linalg, "svd", "svd"), (scipy.linalg, "svd", "svd"),
                                   (scipy.linalg, "svdvals", "svd")):
            def counting(*args, _fn=getattr(module, name), _kind=kind, **kwargs):
                calls[_kind] += 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(module, name, counting)
        row = sweep.run_point(bench_params(4.0, 20.0), ("numeric_full",), n_max=4)
        assert "numeric_full" in row.nbar
        assert calls == {"lu": 1}

    def test_solve_peak_memory_is_one_generator_copy(self):
        # LAPACK factors a Fortran-ordered copy in place; a C-ordered copy
        # (which f2py copies again) or an |L| temporary for the norm would
        # double the peak
        p = bench_params(4.0, 20.0)
        lv = build_liouvillian(hamiltonian_ld(p, 8), jump_operators(p, 8))
        tracemalloc.start()
        try:
            steady_state(lv)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * lv.matrix.nbytes

    def test_benchmark_point_against_closed_form(self):
        # equal-Rabi benchmark point; closed form gives 1.885e-2
        ss, nbar = solve_full(bench_params(15.0, 15.0), 12)
        assert nbar == pytest.approx(1.885030864197531e-2, rel=0.30)
        assert ss.trace_defect < 1e-10
        assert ss.herm_defect < 1e-10
        assert ss.min_eigenvalue > -1e-8
        assert ss.residual < 1e-9

    def test_basis_invariance_at_symmetric_branching(self):
        # with equal decay rates the rotated-basis dissipator is exact, so the
        # two representations must agree to solver precision
        p = bench_params(5.0, 20.0, gamma_g=10.0, gamma_r=10.0)
        _, n_gre = solve_full(p, 8, basis="gre")
        _, n_dbe = solve_full(p, 8, basis="dbe", include_bright_sideband=True)
        assert abs(n_gre - n_dbe) < 1e-8

    def test_basis_invariance_with_conjugated_jumps(self):
        # at unequal branching the rotated dissipator needs the exactly
        # transformed jump operators; this exercises the solver's covariance
        p = bench_params(4.0, 20.0)
        n_max = 6
        h_gre = hamiltonian_ld(p, n_max, basis="gre")
        jumps_gre = jump_operators(p, n_max, basis="gre")
        _, n_gre = solve_full(p, n_max, basis="gre")
        u = hilbert.embed(dark_bright_unitary(derive_eit(p).theta),
                          hilbert.identity_phonon(n_max))
        h_rot = u @ h_gre @ u.conj().T
        jumps_rot = [(rate, u @ op @ u.conj().T) for rate, op in jumps_gre]
        ss_rot = steady_state(build_liouvillian(h_rot, jumps_rot))
        assert abs(phonon_occupation(ss_rot) - n_gre) < 1e-10

    @PROPERTY_SETTINGS
    @given(panel_points())
    def test_ground_state_relabeling_symmetry(self, p):
        for hamiltonian in ("ld", "full"):
            _, n_fwd = solve_full(p, 3, hamiltonian=hamiltonian)
            _, n_swp = solve_full(p.swapped(), 3, hamiltonian=hamiltonian)
            assert n_swp == pytest.approx(n_fwd, rel=1e-10, abs=0)


class TestPhononOccupation:
    def test_dark_ground_state(self):
        n_max = 3
        rho = np.zeros((hilbert.dim(n_max),) * 2, dtype=complex)
        rho[0, 0] = 1.0  # |d,0> in the rotated ordering
        assert phonon_occupation(rho) == pytest.approx(0.0, abs=1e-15)

    def test_two_phonon_dark_state(self):
        n_max = 3
        rho = np.zeros((hilbert.dim(n_max),) * 2, dtype=complex)
        idx = hilbert.flat_index(0, 2)
        rho[idx, idx] = 1.0
        assert phonon_occupation(rho) == pytest.approx(2.0, abs=1e-14)

    def test_thermal_state_geometric_series(self):
        # beta = ln 2 gives nbar = 1/(2 - 1) = 1 up to the truncation tail
        n_max = 20
        weights = 0.5 ** np.arange(n_max + 1)
        weights /= weights.sum()
        phonon = np.diag(weights).astype(complex)
        rho = hilbert.embed(np.diag([1.0, 0, 0]).astype(complex), phonon)
        assert phonon_occupation(rho) == pytest.approx(1.0, abs=1e-4)


class TestTimeEvolve:
    def test_zero_generator_is_identity(self, rng):
        lv = build_liouvillian(np.zeros((3, 3), dtype=complex), [])
        m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        rho0 = m @ m.conj().T
        rho0 /= rho0.trace()
        np.testing.assert_allclose(time_evolve(lv, rho0, 3.0, 0.1), rho0, atol=1e-14)

    def test_two_level_decay_closed_form(self):
        gamma = 1.0
        lv = two_level_decay(gamma)
        rho0 = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)
        rho_t = time_evolve(lv, rho0, 5.0, 0.01)
        assert rho_t[1, 1].real == pytest.approx(math.exp(-5.0), abs=1e-6)

    def test_rejects_unstable_step(self):
        lv = two_level_decay(10.0)
        rho0 = np.diag([0.0, 1.0]).astype(complex)
        with pytest.raises(ConfigurationError):
            time_evolve(lv, rho0, 1.0, 1.0)

    def test_trace_preserved_on_cooling_run(self):
        p = bench_params(15.0, 15.0)
        lv = build_liouvillian(hamiltonian_ld(p, 3), jump_operators(p, 3))
        rho0 = np.zeros((lv.hilbert_dim,) * 2, dtype=complex)
        rho0[0, 0] = 1.0
        dt = 0.9 / liouvillian.norm_bound(lv)
        rho_t = time_evolve(lv, rho0, 5.0, dt)
        assert abs(rho_t.trace() - 1.0) < 1e-8


class TestTruncationConvergence:
    def test_benchmark_point_cutoff_insensitive(self):
        p = bench_params(15.0, 15.0)
        _, n10 = solve_full(p, 10)
        _, n14 = solve_full(p, 14)
        assert abs(n14 - n10) / n14 < 1e-2
