"""Projected seven-level model of the cooling cycle, solved without
further approximation.

The model keeps the dark/bright/excited levels with zero or one phonon plus
the two-phonon dark state, i.e. every state reachable from the cold dark
state by at most one blue-sideband transition.  Its Lindblad generator is
solved with the same kernels as the dense phonon-ladder model, so the two
numeric estimators differ only in the model they solve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import liouvillian
from .physics import DerivedEit

#: Basis order of the projected space: (level, phonon) pairs.
BASIS_7 = (
    ("d", 0),
    ("b", 0),
    ("e", 0),
    ("d", 1),
    ("b", 1),
    ("e", 1),
    ("d", 2),
)

_IDX = {state: k for k, state in enumerate(BASIS_7)}
_D0, _B0, _E0, _D1, _B1, _E1, _D2 = range(7)


def _op(i: int, j: int) -> np.ndarray:
    out = np.zeros((7, 7), dtype=complex)
    out[i, j] = 1.0
    return out


@dataclass(frozen=True)
class ProjectedSystem:
    """Hamiltonian and dissipation channels restricted to the seven levels."""

    hs: np.ndarray
    jumps: tuple[tuple[float, np.ndarray], ...]


def build_projected(d: DerivedEit, nu: float, delta: float) -> ProjectedSystem:
    """Assemble the seven-level Hamiltonian and its four decay channels.

    The excited levels decay only within their own phonon sector; the
    phonon-changing decay channels enter the populations at fourth order in
    the Lamb-Dicke parameter and are excluded from this model.
    """
    hs = np.zeros((7, 7), dtype=complex)
    hs[_E0, _E0] = -delta
    hs[_D1, _D1] = nu
    hs[_B1, _B1] = nu
    hs[_E1, _E1] = -(delta - nu)
    hs[_D2, _D2] = 2.0 * nu

    half_b = 0.5 * d.omega_b
    hs += half_b * (_op(_B0, _E0) + _op(_E0, _B0))
    hs += half_b * (_op(_B1, _E1) + _op(_E1, _B1))

    half_sb = 0.5 * d.eta * d.omega_d
    for upper, lower in ((_E1, _D0), (_E0, _D1), (_E1, _D2)):
        hs += 1j * half_sb * (_op(upper, lower) - _op(lower, upper))

    jumps = (
        (d.gamma_d, _op(_D0, _E0)),
        (d.gamma_d, _op(_D1, _E1)),
        (d.gamma_b, _op(_B0, _E0)),
        (d.gamma_b, _op(_B1, _E1)),
    )
    return ProjectedSystem(hs=hs, jumps=jumps)


def solve_stationarity(sys: ProjectedSystem) -> np.ndarray:
    """Unique trace-one stationary state of the seven-level model.

    Uses the dense solver's generator, factorization and degeneracy rule.
    Returns the 7 x 7 density matrix.  Raises DegenerateSteadyStateError when
    more than one stationary state exists (e.g. at zero effective Lamb-Dicke
    parameter, where the dark ladder decouples).
    """
    mat = liouvillian._generator(sys.hs, sys.jumps)
    vec = liouvillian._stationary_vector(
        liouvillian._factor(mat, 7), "the seven-level model"
    )
    return vec.reshape((7, 7), order="F")


def nbar_projected(rho7: np.ndarray) -> float:
    """Phonon expectation of the projected state: d1 + b1 + e1 + 2 * d2."""
    rho7 = np.asarray(rho7)
    return float(
        (rho7[_D1, _D1] + rho7[_B1, _B1] + rho7[_E1, _E1] + 2.0 * rho7[_D2, _D2]).real
    )


def diagonals(rho7: np.ndarray) -> dict[str, float]:
    """Populations keyed by level-phonon label, e.g. 'd1'."""
    return {
        f"{level}{phonon}": float(rho7[k, k].real)
        for k, (level, phonon) in enumerate(BASIS_7)
    }


def coherence_x(rho7: np.ndarray, a: tuple[str, int], b: tuple[str, int]) -> float:
    """Symmetric pair expectation tr((|a><b| + |b><a|) rho)."""
    i, j = _IDX[a], _IDX[b]
    return float((rho7[j, i] + rho7[i, j]).real)


def coherence_y(rho7: np.ndarray, a: tuple[str, int], b: tuple[str, int]) -> float:
    """Antisymmetric pair expectation tr((i|a><b| - i|b><a|) rho)."""
    i, j = _IDX[a], _IDX[b]
    return float((1j * (rho7[j, i] - rho7[i, j])).real)
