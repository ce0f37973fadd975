import math
from dataclasses import replace

import numpy as np
import pytest

from eitcool import (
    ConfigurationError,
    CoolingParams,
    derive_eit,
    eit_resonance_delta,
    hamiltonian_full,
    hamiltonian_ld,
    jump_operators,
)
from eitcool import hilbert
from eitcool.physics import bright_sideband_coupling, dark_bright_unitary

from conftest import bench_params


class TestResonanceDelta:
    def test_equal_rabi(self):
        assert eit_resonance_delta(15.0, 15.0) == pytest.approx(112.5)

    def test_unequal_rabi(self):
        assert eit_resonance_delta(4.0, 20.0) == pytest.approx(104.0)

    def test_single_laser(self):
        assert eit_resonance_delta(0.0, 2.0) == pytest.approx(1.0)

    def test_rejects_dark_lasers(self):
        with pytest.raises(ConfigurationError):
            eit_resonance_delta(0.0, 0.0)


class TestDeriveEit:
    def test_equal_rabi_point(self):
        p = bench_params(15.0, 15.0)
        d = derive_eit(p)
        assert d.theta == pytest.approx(math.pi / 4)
        assert d.gamma_d == pytest.approx(p.gamma_total / 2)
        assert d.gamma_b == pytest.approx(p.gamma_total / 2)
        assert d.omega_d == pytest.approx(d.omega_b / 2)

    def test_three_four_five(self):
        p = bench_params(3.0, 4.0)
        d = derive_eit(p)
        assert d.omega_d == pytest.approx(2.4)
        assert d.omega_b == pytest.approx(5.0)

    def test_effective_lamb_dicke_with_angles(self):
        p = bench_params(15.0, 15.0)
        d = derive_eit(p)
        assert d.eta == pytest.approx(0.15 * math.sqrt(2), rel=1e-12)

    def test_linewidth_conserved_exactly(self):
        for og, orr in [(4.0, 20.0), (1.0, 30.0), (17.0, 3.0)]:
            p = bench_params(og, orr)
            d = derive_eit(p)
            assert d.gamma_d + d.gamma_b == pytest.approx(p.gamma_total, rel=1e-15)

    def test_coupling_product_identity(self):
        for og, orr in [(4.0, 20.0), (2.0, 11.0)]:
            d = derive_eit(bench_params(og, orr))
            assert d.omega_d * d.omega_b == pytest.approx(og * orr, rel=1e-14)

    def test_dark_coupling_bounded_by_half_carrier(self):
        for og, orr in [(1.0, 20.0), (10.0, 10.0), (19.0, 2.0)]:
            d = derive_eit(bench_params(og, orr))
            assert d.omega_d <= d.omega_b / 2 + 1e-15
        equal = derive_eit(bench_params(7.0, 7.0))
        assert equal.omega_d == pytest.approx(equal.omega_b / 2, rel=1e-14)

    def test_rejects_dark_lasers(self):
        p = bench_params(1.0, 1.0)
        bad = CoolingParams(
            omega_g=0.0, omega_r=0.0, delta=1.0,
            gamma_g=p.gamma_g, gamma_r=p.gamma_r,
            eta_g=p.eta_g, eta_r=p.eta_r, phi_g=p.phi_g, phi_r=p.phi_r,
        )
        with pytest.raises(ConfigurationError):
            derive_eit(bad)


class TestParamValidation:
    def test_negative_rabi(self):
        with pytest.raises(ConfigurationError):
            bench_params(-1.0, 5.0)

    def test_zero_total_linewidth(self):
        with pytest.raises(ConfigurationError):
            bench_params(5.0, 5.0, gamma_g=0.0, gamma_r=0.0)

    def test_negative_eta(self):
        with pytest.raises(ConfigurationError):
            bench_params(5.0, 5.0, eta_g=-0.1)

    @pytest.mark.parametrize("field", ["omega_g", "gamma_r", "eta_g", "phi_r", "delta", "nu"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_input(self, field, bad):
        with pytest.raises(ConfigurationError):
            replace(bench_params(5.0, 5.0), **{field: bad})

    def test_resonance_constructor(self):
        p = bench_params(4.0, 20.0)
        assert p.delta == pytest.approx(104.0)
        assert p.with_resonant_delta().delta == p.delta


class TestHamiltonianLD:
    def test_hermitian_both_bases(self):
        p = bench_params(4.0, 20.0)
        for basis in ("gre", "dbe"):
            h = hamiltonian_ld(p, 6, basis=basis)
            assert np.abs(h - h.conj().T).max() < 1e-12

    def test_dark_rows_decouple_at_zero_recoil(self):
        p = bench_params(15.0, 15.0, eta_g=0.0, eta_r=0.0)
        h = hamiltonian_ld(p, 4, basis="dbe")
        d = hilbert.D
        for n in range(5):
            row = h[hilbert.flat_index(d, n), :].copy()
            row[hilbert.flat_index(d, n)] = 0.0  # remove the diagonal energy
            assert np.abs(row).max() == 0.0

    def test_red_sideband_matrix_element(self):
        p = bench_params(15.0, 15.0)
        d = derive_eit(p)
        h = hamiltonian_ld(p, 4, basis="dbe")
        e0 = hilbert.flat_index(hilbert.E, 0)
        d1 = hilbert.flat_index(hilbert.D, 1)
        assert h[e0, d1] == pytest.approx(0.5j * d.eta * d.omega_d, rel=1e-12)

    def test_bases_unitarily_equivalent_with_bright_sideband(self):
        p = bench_params(4.0, 20.0)
        n_max = 4
        h_gre = hamiltonian_ld(p, n_max, basis="gre")
        h_dbe = hamiltonian_ld(p, n_max, basis="dbe", include_bright_sideband=True)
        u = hilbert.embed(dark_bright_unitary(derive_eit(p).theta),
                          hilbert.identity_phonon(n_max))
        np.testing.assert_allclose(u @ h_gre @ u.conj().T, h_dbe, atol=1e-12)

    def test_dropped_term_is_the_bright_sideband(self):
        p = bench_params(4.0, 20.0)
        n_max = 4
        diff = hamiltonian_ld(p, n_max, basis="dbe", include_bright_sideband=True) \
            - hamiltonian_ld(p, n_max, basis="dbe")
        x = hilbert.annihilation(n_max) + hilbert.creation(n_max)
        term = 1j * bright_sideband_coupling(p) * hilbert.embed(
            hilbert.ketbra(hilbert.E, hilbert.B), x
        )
        np.testing.assert_allclose(diff, term + term.conj().T, atol=1e-13)

    def test_unknown_basis(self):
        with pytest.raises(ConfigurationError):
            hamiltonian_ld(bench_params(5.0, 5.0), 4, basis="abc")


class TestHamiltonianFull:
    def test_reduces_to_ld_at_zero_recoil(self):
        p = bench_params(15.0, 15.0, eta_g=0.0, eta_r=0.0)
        np.testing.assert_allclose(
            hamiltonian_full(p, 6), hamiltonian_ld(p, 6, basis="gre"), atol=1e-13
        )

    def test_hermitian(self):
        h = hamiltonian_full(bench_params(4.0, 20.0), 10)
        assert np.abs(h - h.conj().T).max() < 1e-12

    def test_difference_to_ld_scales_quadratically(self):
        # halving both Lamb-Dicke parameters shrinks ||H_full - H_LD|| ~4x
        n_max = 8
        norms = []
        for eta in (0.15, 0.075):
            p = bench_params(4.0, 20.0, eta_g=eta, eta_r=eta)
            diff = hamiltonian_full(p, n_max) - hamiltonian_ld(p, n_max, basis="gre")
            norms.append(np.linalg.norm(diff))
        ratio = norms[0] / norms[1]
        assert ratio == pytest.approx(4.0, rel=0.2)


class TestJumpOperators:
    def test_rates_sum_to_total_linewidth(self):
        p = bench_params(4.0, 20.0)
        for basis in ("gre", "dbe"):
            rates = [rate for rate, _ in jump_operators(p, 4, basis=basis)]
            assert sum(rates) == pytest.approx(p.gamma_total, rel=1e-14)

    def test_bare_basis_rates(self):
        p = bench_params(4.0, 20.0)
        rates = sorted(rate for rate, _ in jump_operators(p, 4, basis="gre"))
        assert rates == pytest.approx([20.0 / 3.0, 40.0 / 3.0])

    def test_rotated_basis_rates(self):
        # hand evaluation at tan(theta) = 1/5: gamma_d = 90/13, gamma_b = 170/13
        p = bench_params(4.0, 20.0)
        rates = sorted(rate for rate, _ in jump_operators(p, 4, basis="dbe"))
        assert rates[0] == pytest.approx(90.0 / 13.0, rel=1e-12)
        assert rates[1] == pytest.approx(170.0 / 13.0, rel=1e-12)

    def test_operator_shape_and_action(self):
        p = bench_params(4.0, 20.0)
        n_max = 3
        (rate_g, op_g), _ = jump_operators(p, n_max, basis="gre")
        out = op_g @ hilbert.basis_vector(hilbert.E, 2, n_max)
        np.testing.assert_allclose(
            out, hilbert.basis_vector(hilbert.G, 2, n_max), atol=0
        )
