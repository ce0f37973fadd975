"""Cooling model: parameters, dark/bright rotation, Hamiltonians, jump operators.

All frequencies and rates are expressed in units of the trap frequency, which
is therefore fixed to 1 unless a caller deliberately rescales it.  Two internal
representations are supported: the laser-coupled levels ("gre") and the
rotated dark/bright pair plus the shared excited state ("dbe").  Every
Hamiltonian is assembled by one builder from a list of laser couplings: the
lower level (a fixed index of `hilbert`) and the phonon operator the laser
applies with it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

import numpy as np
from scipy.linalg import expm

from . import hilbert
from .errors import ConfigurationError


@dataclass(frozen=True)
class CoolingParams:
    """Physical inputs for a single cooling configuration.

    omega_g, omega_r   Rabi frequencies of the two drive lasers [trap units]
    gamma_g, gamma_r   decay rates of the excited state into each ground state
    eta_g, eta_r       Lamb-Dicke parameters of the two lasers (dimensionless)
    phi_g, phi_r       laser angles against the motional axis [rad]
    delta              common laser detuning [trap units]
    nu                 trap frequency, the unit of everything else
    """

    omega_g: float
    omega_r: float
    gamma_g: float
    gamma_r: float
    eta_g: float
    eta_r: float
    phi_g: float
    phi_r: float
    delta: float
    nu: float = 1.0

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if not math.isfinite(value):
                raise ConfigurationError(f"{f.name} must be finite, got {value}")
        if self.nu <= 0:
            raise ConfigurationError(f"trap frequency must be positive, got {self.nu}")
        if self.omega_g < 0 or self.omega_r < 0:
            raise ConfigurationError("Rabi frequencies must be non-negative")
        if self.gamma_g < 0 or self.gamma_r < 0:
            raise ConfigurationError("decay rates must be non-negative")
        if self.gamma_g + self.gamma_r <= 0:
            raise ConfigurationError("total linewidth must be positive")
        if self.eta_g < 0 or self.eta_r < 0:
            raise ConfigurationError("Lamb-Dicke parameters must be non-negative")

    @property
    def gamma_total(self) -> float:
        return self.gamma_g + self.gamma_r

    def with_resonant_delta(self) -> "CoolingParams":
        return replace(
            self, delta=eit_resonance_delta(self.omega_g, self.omega_r, self.nu)
        )

    def swapped(self) -> "CoolingParams":
        """Relabel the two ground states (g <-> r with all their laser data)."""
        return replace(
            self,
            omega_g=self.omega_r,
            omega_r=self.omega_g,
            gamma_g=self.gamma_r,
            gamma_r=self.gamma_g,
            eta_g=self.eta_r,
            eta_r=self.eta_g,
            phi_g=self.phi_r,
            phi_r=self.phi_g,
        )


def eit_resonance_delta(omega_g: float, omega_r: float, nu: float = 1.0) -> float:
    """Detuning that puts the dressed red sideband on resonance.

    Returns (omega_g^2 + omega_r^2) / (4 nu).
    """
    if omega_g == 0 and omega_r == 0:
        raise ConfigurationError("at least one Rabi frequency must be positive")
    return (omega_g**2 + omega_r**2) / (4.0 * nu)


@dataclass(frozen=True)
class DerivedEit:
    """Dark/bright-basis quantities derived from the raw laser parameters.

    theta              ground-state mixing angle, in [0, pi/2]
    omega_d, omega_b   sideband and carrier coupling strengths in the rotated basis
    gamma_d, gamma_b   decay rates into the dark and bright states
    eta                effective Lamb-Dicke parameter (may be negative)
    """

    theta: float
    omega_d: float
    omega_b: float
    gamma_d: float
    gamma_b: float
    eta: float


def derive_eit(params: CoolingParams) -> DerivedEit:
    """Rotate the ground-state pair into the dark/bright superpositions."""
    og, orr = params.omega_g, params.omega_r
    if og == 0 and orr == 0:
        raise ConfigurationError("at least one Rabi frequency must be positive")
    theta = math.atan2(og, orr)  # both non-negative, so theta in [0, pi/2]
    omega_b = math.hypot(og, orr)
    omega_d = og * orr / omega_b
    c2, s2 = math.cos(theta) ** 2, math.sin(theta) ** 2
    gamma_d = params.gamma_g * c2 + params.gamma_r * s2
    gamma_b = params.gamma_r * c2 + params.gamma_g * s2
    eta = params.eta_g * math.cos(params.phi_g) - params.eta_r * math.cos(params.phi_r)
    return DerivedEit(
        theta=theta,
        omega_d=omega_d,
        omega_b=omega_b,
        gamma_d=gamma_d,
        gamma_b=gamma_b,
        eta=eta,
    )


def bright_sideband_coupling(params: CoolingParams) -> float:
    """Coefficient of the bright-state sideband term i*g*(|e><b| (a + a^dag)) + h.c.

    This is the first-order term the rotated-basis model drops; it is kept
    behind a flag so the two representations can be made exactly unitarily
    equivalent for cross-checks.
    """
    og, orr = params.omega_g, params.omega_r
    omega_b = math.hypot(og, orr)
    if omega_b == 0:
        raise ConfigurationError("at least one Rabi frequency must be positive")
    return (
        params.eta_g * math.cos(params.phi_g) * og**2
        + params.eta_r * math.cos(params.phi_r) * orr**2
    ) / (2.0 * omega_b)


def dark_bright_unitary(theta: float) -> np.ndarray:
    """Internal rotation mapping (g, r, e) components to (d, b, e) components."""
    c, s = math.cos(theta), math.sin(theta)
    return np.array(
        [
            [c, -s, 0.0],
            [s, c, 0.0],
            [0.0, 0.0, 1.0],
        ],
        dtype=complex,
    )


def _laser_hamiltonian(
    params: CoolingParams, n_max: int, couplings: list[tuple[int, np.ndarray]]
) -> np.ndarray:
    """nu a^dag a - delta |e><e| + sum of 1/2 |e><l| (x) C + h.c. over (l, C).

    Each coupling pairs a lower level l with the phonon operator C of the
    laser driving l <-> e; every Hamiltonian here is this sum.
    """
    i_ph = hilbert.identity_phonon(n_max)
    h = params.nu * hilbert.embed(
        hilbert.identity_internal(), hilbert.number_operator(n_max)
    )
    h -= params.delta * hilbert.embed(hilbert.ketbra(hilbert.E, hilbert.E), i_ph)
    for lower, op in couplings:
        term = 0.5 * hilbert.embed(hilbert.ketbra(hilbert.E, lower), op)
        h += term + term.conj().T
    return h


def hamiltonian_ld(
    params: CoolingParams,
    n_max: int,
    basis: str = "gre",
    include_bright_sideband: bool = False,
) -> np.ndarray:
    """First-order Lamb-Dicke Hamiltonian in the requested internal basis.

    Each laser couples its level with Omega (1 + i eta cos(phi) (a + a^dag)).
    In the "dbe" basis the bright-state sideband term is dropped by default
    (its effect on the steady state enters only at fourth order in the
    Lamb-Dicke parameters); pass include_bright_sideband=True to retain it,
    which makes the result exactly unitarily equivalent to the "gre" one.
    """
    n_max = hilbert.validate_cutoff(n_max)
    hilbert.validate_basis(basis)
    i_ph = hilbert.identity_phonon(n_max)
    x = hilbert.annihilation(n_max) + hilbert.creation(n_max)
    if basis == "gre":
        couplings = [
            (lower, omega * i_ph + 1j * lam * omega * x)
            for lower, omega, lam in (
                (hilbert.G, params.omega_g, params.eta_g * math.cos(params.phi_g)),
                (hilbert.R, params.omega_r, params.eta_r * math.cos(params.phi_r)),
            )
        ]
    else:
        d = derive_eit(params)
        bright = d.omega_b * i_ph
        if include_bright_sideband:
            bright = bright + 2j * bright_sideband_coupling(params) * x
        couplings = [(hilbert.D, 1j * d.eta * d.omega_d * x), (hilbert.B, bright)]
    return _laser_hamiltonian(params, n_max, couplings)


def hamiltonian_full(params: CoolingParams, n_max: int) -> np.ndarray:
    """Laser Hamiltonian with the exponential kick operators kept exactly.

    The kicks exp(i eta cos(phi) (a + a^dag)) are evaluated by a dense matrix
    exponential on the truncated phonon space.
    """
    n_max = hilbert.validate_cutoff(n_max)
    i_ph = hilbert.identity_phonon(n_max)
    x = hilbert.annihilation(n_max) + hilbert.creation(n_max)
    couplings = [
        (lower, omega * i_ph if lam == 0 else omega * expm(1j * lam * x))
        for lower, omega, lam in (
            (hilbert.G, params.omega_g, params.eta_g * math.cos(params.phi_g)),
            (hilbert.R, params.omega_r, params.eta_r * math.cos(params.phi_r)),
        )
    ]
    return _laser_hamiltonian(params, n_max, couplings)


def jump_operators(
    params: CoolingParams, n_max: int, basis: str = "gre"
) -> list[tuple[float, np.ndarray]]:
    """Spontaneous-emission jump operators at zeroth order in the recoil.

    Returns [(rate, operator), ...] with the operators |g><e| and |r><e|
    (|d><e| and |b><e| in the rotated basis, the same matrices) tensored
    with the phonon identity.  Only the rates depend on the basis; they sum
    to the total linewidth in either.
    """
    n_max = hilbert.validate_cutoff(n_max)
    hilbert.validate_basis(basis)
    if basis == "gre":
        rates = (params.gamma_g, params.gamma_r)
    else:
        d = derive_eit(params)
        rates = (d.gamma_d, d.gamma_b)
    i_ph = hilbert.identity_phonon(n_max)
    return [
        (rate, hilbert.embed(hilbert.ketbra(lower, hilbert.E), i_ph))
        for rate, lower in zip(rates, (hilbert.G, hilbert.R))
    ]
