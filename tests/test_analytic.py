import pytest

from eitcool import (
    FormulaDivergenceError,
    derive_eit,
    nbar_equal,
    nbar_second,
    nbar_second_terms,
    nbar_sideband,
    nbar_standing_wave,
    nbar_weak_g,
    nbar_zeroth,
    subspace_diagonals,
)
from eitcool.physics import DerivedEit

from conftest import bench_params


class TestBaselines:
    def test_dipole_sideband_value(self):
        assert nbar_sideband(1.0, 1.0, 0.4) == pytest.approx(0.1625)

    def test_standing_wave_value(self):
        assert nbar_standing_wave(1.0, 1.0) == pytest.approx(0.0625)

    def test_standing_wave_is_zero_geometry_limit(self):
        for gamma in (0.5, 2.0, 7.0):
            assert nbar_standing_wave(gamma, 1.0) == nbar_sideband(gamma, 1.0, 0.0)


class TestZeroth:
    def test_benchmark_values(self):
        assert nbar_zeroth(20.0, 112.5) == pytest.approx(1.9753086419753087e-3, rel=1e-14)
        assert nbar_zeroth(20.0, 104.0) == pytest.approx(2.311390532544379e-3, rel=1e-14)

    def test_quadruples_with_doubled_linewidth(self):
        assert nbar_zeroth(40.0, 104.0) == pytest.approx(4 * nbar_zeroth(20.0, 104.0))

    def test_zero_detuning_rejected(self):
        with pytest.raises(FormulaDivergenceError):
            nbar_zeroth(20.0, 0.0)


class TestSubspaceDiagonals:
    def test_symmetric_branching_simplification(self):
        # gamma_b = gamma_d collapses the bright population to eta^2 Od^2 / (2 Ob^2)
        d = derive_eit(bench_params(15.0, 15.0, gamma_g=10.0, gamma_r=10.0))
        diag = subspace_diagonals(d, 1.0)
        expected = d.eta**2 * d.omega_d**2 / (2.0 * d.omega_b**2)
        assert diag.rho_b0b0 == pytest.approx(expected, rel=1e-14)

    def test_benchmark_point_values(self):
        # hand evaluation at the equal-Rabi benchmark point (eta^2 = 9/200)
        d = derive_eit(bench_params(15.0, 15.0))
        diag = subspace_diagonals(d, 1.0)
        assert diag.rho_b0b0 == pytest.approx(5.625e-3, rel=1e-12)
        assert diag.rho_b1b1 == pytest.approx(5.625e-3, rel=1e-12)
        assert diag.rho_d2d2 == pytest.approx(2.8125e-3, rel=1e-12)
        assert diag.rho_d1d1 == pytest.approx(7.600308641975309e-3, rel=1e-12)
        assert diag.rho_e0e0 == 0.0
        assert diag.rho_e1e1 == 0.0

    def test_one_phonon_dark_exceeds_bright(self):
        for og, orr in [(15.0, 15.0), (4.0, 20.0), (2.0, 30.0)]:
            diag = subspace_diagonals(derive_eit(bench_params(og, orr)), 1.0)
            assert diag.rho_d1d1 > diag.rho_b1b1

    def test_divergent_limits_raise(self):
        d = derive_eit(bench_params(15.0, 15.0))
        dead = DerivedEit(theta=d.theta, omega_d=d.omega_d, omega_b=d.omega_b,
                          gamma_d=0.0, gamma_b=d.gamma_b, eta=d.eta)
        with pytest.raises(FormulaDivergenceError):
            subspace_diagonals(dead, 1.0)
        frozen = DerivedEit(theta=d.theta, omega_d=d.omega_d, omega_b=d.omega_b,
                            gamma_d=d.gamma_d, gamma_b=d.gamma_b, eta=0.0)
        with pytest.raises(FormulaDivergenceError):
            subspace_diagonals(frozen, 1.0)


class TestSecondOrder:
    def test_weak_drive_benchmark_point(self):
        # hand-derived fractions: 400/173056 and 12384/3115008
        p = bench_params(4.0, 20.0)
        d = derive_eit(p)
        term1, term2 = nbar_second_terms(d, p.gamma_total, p.delta)
        assert term1 == pytest.approx(2.311390532544379e-3, rel=1e-12)
        assert term2 == pytest.approx(3.975591715976332e-3, rel=1e-12)
        assert nbar_second(d, p.gamma_total, p.delta) == pytest.approx(
            6.28698224852071e-3, rel=1e-12
        )

    def test_recoil_term_vanishes_with_eta(self):
        p = bench_params(4.0, 20.0, eta_g=0.0, eta_r=0.0)
        d = derive_eit(p)
        assert nbar_second(d, p.gamma_total, p.delta) == nbar_zeroth(
            p.gamma_total, p.delta
        )

    def test_equal_rabi_reduces_to_equal_drive_formula(self):
        for omega in (5.0, 15.0, 40.0):
            p = bench_params(omega, omega)
            d = derive_eit(p)
            general = nbar_second(d, p.gamma_total, p.delta)
            special = nbar_equal(p.gamma_total, p.delta, d.eta)
            assert abs(general - special) <= 1e-14 * special

    def test_equal_drive_benchmark_value(self):
        d = derive_eit(bench_params(15.0, 15.0))
        assert nbar_equal(20.0, 112.5, d.eta) == pytest.approx(
            1.885030864197531e-2, rel=1e-12
        )

    def test_weak_g_matches_general_formula_at_small_ratio(self):
        for omega_r in (20.0, 50.0):
            p = bench_params(omega_r / 20.0, omega_r)
            d = derive_eit(p)
            general = nbar_second(d, p.gamma_total, p.delta)
            special = nbar_weak_g(p, d)
            assert special == pytest.approx(general, rel=0.01)

    def test_weak_g_diverges_without_g_decay(self):
        p = bench_params(1.0, 20.0, gamma_g=0.0, gamma_r=20.0)
        with pytest.raises(FormulaDivergenceError):
            nbar_weak_g(p, derive_eit(p))

    def test_outputs_nonnegative(self):
        for og, orr, gg, gr in [(4.0, 20.0, 20 / 3, 40 / 3), (15.0, 15.0, 1.0, 19.0),
                                (2.0, 30.0, 10.0, 10.0)]:
            p = bench_params(og, orr, gamma_g=gg, gamma_r=gr)
            d = derive_eit(p)
            assert nbar_second(d, p.gamma_total, p.delta) >= 0.0


class TestReconstructionIdentity:
    def test_population_sum_reproduces_second_order_formula(self):
        # with the resonance substitution 4 delta nu = Ob^2 the weighted diagonal
        # sum reproduces the two-term formula
        for og, orr in [(15.0, 15.0), (4.0, 20.0), (7.0, 21.0)]:
            p = bench_params(og, orr)
            d = derive_eit(p)
            diag = subspace_diagonals(d, p.nu)
            recon = diag.weighted_sum()
            direct = nbar_second(d, p.gamma_total, p.delta)
            assert recon == pytest.approx(direct, rel=1e-10)

    def test_recoil_parts_agree_tightly(self):
        # the eta^2 parts agree independently of the detuning substitution
        p = bench_params(4.0, 20.0)
        d = derive_eit(p)
        diag = subspace_diagonals(d, p.nu)
        recoil_recon = 2.0 * diag.rho_b0b0 + 2.0 * diag.rho_d2d2
        _, recoil = nbar_second_terms(d, p.gamma_total, p.delta)
        assert recoil_recon == pytest.approx(recoil, rel=1e-13)

    def test_zeroth_term_emerges_from_bracket(self):
        # the bracket term of the one-phonon dark population times the bright
        # population is exactly gamma^2/(16 delta^2) under the resonance condition
        p = bench_params(15.0, 15.0)
        d = derive_eit(p)
        diag = subspace_diagonals(d, p.nu)
        bracket_part = diag.rho_d1d1 - diag.rho_b0b0
        assert bracket_part == pytest.approx(
            nbar_zeroth(p.gamma_total, p.delta), rel=1e-12
        )
