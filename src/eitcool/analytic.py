"""Closed-form steady-state phonon occupations and their building blocks.

Everything here takes the rotated-basis quantities (DerivedEit) as input so
the dark/bright transformation has a single source of truth.  Divergent
limits raise FormulaDivergenceError instead of returning infinities, letting
sweeps distinguish "formula invalid here" from "large number".
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ConfigurationError, FormulaDivergenceError
from .physics import CoolingParams, DerivedEit


def nbar_sideband(gamma: float, nu: float, alpha: float) -> float:
    """Leading sideband-cooling limit (alpha + 1/4)(gamma / 2 nu)^2.

    alpha is the emission geometry factor, 2/5 for a dipole transition.
    """
    if nu <= 0:
        raise ConfigurationError(f"trap frequency must be positive, got {nu}")
    return (alpha + 0.25) * (gamma / (2.0 * nu)) ** 2


def nbar_standing_wave(gamma: float, nu: float) -> float:
    """Standing-wave sideband-cooling limit, the alpha = 0 case."""
    return nbar_sideband(gamma, nu, 0.0)


def nbar_zeroth(gamma: float, delta: float) -> float:
    """Recoil-free dark-state cooling limit gamma^2 / (16 delta^2)."""
    if delta == 0:
        raise FormulaDivergenceError("zeroth-order occupation diverges at zero detuning")
    return gamma**2 / (16.0 * delta**2)


def _require_cooling(d: DerivedEit) -> None:
    if d.gamma_d <= 0:
        raise FormulaDivergenceError(
            "no decay into the dark state (gamma_d = 0): cooling is impossible "
            "and the closed forms diverge"
        )
    if d.omega_b <= 0:
        raise ConfigurationError("carrier coupling must be positive")


@dataclass(frozen=True)
class SubspaceDiagonals:
    """Steady-state populations of the seven-level model, relative to the
    dark ground state population (taken as 1)."""

    rho_b0b0: float
    rho_e0e0: float
    rho_d1d1: float
    rho_b1b1: float
    rho_e1e1: float
    rho_d2d2: float

    def weighted_sum(self) -> float:
        """Phonon expectation of the diagonal: d1 + b1 + e1 + 2 * d2."""
        return self.rho_d1d1 + self.rho_b1b1 + self.rho_e1e1 + 2.0 * self.rho_d2d2


def subspace_diagonals(d: DerivedEit, nu: float = 1.0) -> SubspaceDiagonals:
    """Leading-order closed forms for the seven-level populations."""
    _require_cooling(d)
    if d.eta == 0:
        raise FormulaDivergenceError(
            "populations diverge at zero effective Lamb-Dicke parameter"
        )
    gamma_sum = d.gamma_d + d.gamma_b
    a = d.eta**2 * d.omega_d**2 * gamma_sum / (4.0 * d.omega_b**2 * d.gamma_d)
    bracket = 1.0 + 4.0 * d.gamma_d * nu**2 * gamma_sum / (
        d.eta**2 * d.omega_d**2 * d.omega_b**2
    )
    d2 = d.eta**2 * d.omega_d**2 * d.gamma_b / (4.0 * d.omega_b**2 * d.gamma_d)
    return SubspaceDiagonals(
        rho_b0b0=a,
        rho_e0e0=0.0,
        rho_d1d1=a * bracket,
        rho_b1b1=a,
        rho_e1e1=0.0,
        rho_d2d2=d2,
    )


def nbar_second_terms(d: DerivedEit, gamma: float, delta: float) -> tuple[float, float]:
    """The two addends of the second-order occupation: the recoil-free term
    and the recoil correction (eta^2 Od^2 / Ob^2)(1/2 + gamma_b / gamma_d)."""
    _require_cooling(d)
    zeroth = nbar_zeroth(gamma, delta)
    recoil = (d.eta**2 * d.omega_d**2 / d.omega_b**2) * (0.5 + d.gamma_b / d.gamma_d)
    return zeroth, recoil


def nbar_second(d: DerivedEit, gamma: float, delta: float) -> float:
    """Steady-state occupation to second order in the Lamb-Dicke parameter."""
    zeroth, recoil = nbar_second_terms(d, gamma, delta)
    return zeroth + recoil


def nbar_weak_g(params: CoolingParams, d: DerivedEit) -> float:
    """Weak-g-laser special case, written with the raw laser parameters.

    Diverges as gamma_g -> 0: with no decay back into the (nearly dark)
    g state, ground-state cooling cannot be achieved.
    """
    if params.gamma_g <= 0:
        raise FormulaDivergenceError("weak-drive occupation diverges when gamma_g = 0")
    if params.omega_r <= 0:
        raise ConfigurationError("the strong-laser Rabi frequency must be positive")
    zeroth = nbar_zeroth(params.gamma_total, params.delta)
    recoil = (d.eta**2 * params.omega_g**2 / params.omega_r**2) * (
        0.5 + params.gamma_r / params.gamma_g
    )
    return zeroth + recoil


def nbar_equal(gamma: float, delta: float, eta: float) -> float:
    """Equal-Rabi special case gamma^2/(16 delta^2) + 3 eta^2 / 8."""
    return nbar_zeroth(gamma, delta) + 0.375 * eta**2
