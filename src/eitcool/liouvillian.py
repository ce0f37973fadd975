"""Dense Lindblad superoperator, exact steady states, and an RK4 oracle.

The vectorization convention is column-stacking throughout: vec(A X B) =
kron(B^T, A) vec(X).  The generator is written with the effective
Hamiltonian H_eff = H - (i/2) sum_k gamma_k L_k^dag L_k as
-i kron(1, H_eff) + i kron(H_eff^*, 1) + sum_k gamma_k kron(L_k^*, L_k), one
Kronecker product per jump.  Steady states are found by replacing one
redundant row of the generator with the vectorized trace functional and
solving the resulting linear system.  That trace-bordered matrix is
LU-factored once; uniqueness is decided from the factorization's estimate of
its reciprocal 1-norm condition number, and the same factors give the solve.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack

from . import hilbert
from .errors import (
    ConfigurationError,
    DegenerateSteadyStateError,
    NumericalFailureError,
)

# Bound on the reciprocal 1-norm condition number (rcond) of the
# trace-bordered generator, below which a steady state counts as degenerate.
# Here rcond ~ 6e-4 * eta_eff**2, so the bound sits at eta_eff ~ 1.3e-5, where
# eps / rcond ~ 2e-3 still bounds the solve's relative error; zero recoil and
# parallel beams give rcond below 1e-20.
DEGENERACY_TOL = 1e-13


def vectorize(rho: np.ndarray) -> np.ndarray:
    """Column-stacking vectorization of a square matrix."""
    rho = np.asarray(rho)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ConfigurationError(f"expected a square matrix, got shape {rho.shape}")
    return rho.reshape(-1, order="F")


def devectorize(vec: np.ndarray) -> np.ndarray:
    vec = np.asarray(vec)
    d = int(round(vec.size**0.5))
    if d * d != vec.size:
        raise ConfigurationError(
            f"vector of length {vec.size} is not a vectorized square matrix"
        )
    return vec.reshape((d, d), order="F")


@dataclass(frozen=True)
class Superoperator:
    """Generator of the dissipative dynamics in column-stacked form."""

    matrix: np.ndarray
    hilbert_dim: int

    @property
    def dim(self) -> int:
        return self.hilbert_dim**2

    @functools.cached_property
    def _lu(self) -> tuple[np.ndarray, np.ndarray, float]:
        return _factor(self.matrix, self.hilbert_dim)


def build_liouvillian(
    hamiltonian: np.ndarray, jumps: list[tuple[float, np.ndarray]]
) -> Superoperator:
    """Assemble -i[H, .] plus the jump dissipators as one dense matrix.

    Each (rate, L) entry contributes rate/2 * (2 L . L^dag - {., L^dag L}).
    """
    return Superoperator(
        matrix=_generator(hamiltonian, jumps), hilbert_dim=len(hamiltonian)
    )


# The three kernels below are shared with the seven-level model in `subspace`.
# It calls them directly, not through the public functions, so that per-layer
# timings of this module cover the dense solver alone.


def _generator(
    hamiltonian: np.ndarray, jumps: list[tuple[float, np.ndarray]]
) -> np.ndarray:
    """Column-stacked Lindblad generator, built from the effective Hamiltonian."""
    h = np.asarray(hamiltonian, dtype=complex)
    d = h.shape[0]
    if h.shape != (d, d):
        raise ConfigurationError(f"Hamiltonian must be square, got {h.shape}")
    herm_defect = np.abs(h - h.conj().T).max()
    scale = max(np.abs(h).max(), 1.0)
    if herm_defect > 1e-10 * scale:
        raise ConfigurationError(
            f"Hamiltonian is not Hermitian (defect {herm_defect:.3e})"
        )
    jumps = [(rate, np.asarray(op, dtype=complex)) for rate, op in jumps]
    heff = h.copy()
    for rate, op in jumps:
        if rate < 0:
            raise ConfigurationError(f"jump rate must be non-negative, got {rate}")
        if op.shape != (d, d):
            raise ConfigurationError(
                f"jump operator shape {op.shape} does not match dimension {d}"
            )
        heff -= 0.5j * rate * (op.conj().T @ op)
    eye = np.eye(d, dtype=complex)
    lmat = -1j * np.kron(eye, heff) + 1j * np.kron(heff.conj(), eye)
    for rate, op in jumps:
        lmat += rate * np.kron(op.conj(), op)
    return lmat


def _factor(matrix: np.ndarray, d: int) -> tuple[np.ndarray, np.ndarray, float]:
    """LU factors and rcond of the generator with row 0 replaced by the trace.

    Row 0 is the equation for d/dt rho[0, 0]; the diagonal rows are linearly
    dependent through trace preservation, so it is safe to overwrite.  LAPACK
    factors the Fortran-ordered copy in place and zlange needs no |L| array,
    so no second matrix is made.
    """
    mat = np.array(matrix, dtype=complex, order="F")
    mat[0, :] = 0.0
    mat[0, (d + 1) * np.arange(d)] = 1.0
    anorm = lapack.zlange("1", mat)
    # the norm covers every entry but those of the overwritten row
    if not (np.isfinite(anorm) and np.isfinite(matrix[0]).all()):
        raise NumericalFailureError("the generator has non-finite entries")
    lu, piv, info = lapack.zgetrf(mat, overwrite_a=True)
    # info > 0 flags an exactly zero pivot, where zgecon would divide by it
    rcond = lapack.zgecon(lu, anorm, norm="1")[0] if info == 0 else 0.0
    return lu, piv, float(rcond)


def _stationary_vector(factors: tuple, model: str) -> np.ndarray:
    """Vectorized trace-one solution of generator @ vec = 0, if it is unique."""
    lu, piv, rcond = factors
    if rcond < DEGENERACY_TOL:
        raise DegenerateSteadyStateError(
            f"{model} has no unique steady state: rcond {rcond:.2e} of the "
            f"trace-bordered generator is below {DEGENERACY_TOL:.0e}"
        )
    rhs = np.zeros(len(lu), dtype=complex)
    rhs[0] = 1.0
    return lapack.zgetrs(lu, piv, rhs)[0]


@dataclass(frozen=True)
class SteadyState:
    """Steady density matrix together with its solve diagnostics."""

    rho: np.ndarray
    trace_defect: float
    herm_defect: float
    min_eigenvalue: float
    nullspace_dim: int
    residual: float
    rcond: float


def nullspace_dimension(lv: Superoperator) -> int:
    """1 if the steady state is unique, else 2 ("at least two"): the rcond of
    the trace-bordered generator is below DEGENERACY_TOL."""
    return 1 if lv._lu[2] >= DEGENERACY_TOL else 2


def steady_state(lv: Superoperator) -> SteadyState:
    """Unique trace-one stationary state of the generator.

    Raises DegenerateSteadyStateError when the nullspace dimension exceeds
    one (for example when the dark state decouples and every phonon sector
    is separately stationary), and NumericalFailureError when the generator
    is not finite.
    """
    ndim = nullspace_dimension(lv)
    vec = _stationary_vector(lv._lu, "the generator")
    rho = devectorize(vec)
    trace_defect = abs(rho.trace() - 1.0)
    herm_defect = float(np.abs(rho - rho.conj().T).max())
    rho_h = 0.5 * (rho + rho.conj().T)
    min_eig = float(np.linalg.eigvalsh(rho_h).min())
    residual = float(np.linalg.norm(lv.matrix @ vec))
    return SteadyState(
        rho=rho,
        trace_defect=float(trace_defect),
        herm_defect=herm_defect,
        min_eigenvalue=min_eig,
        nullspace_dim=ndim,
        residual=residual,
        rcond=lv._lu[2],
    )


def phonon_occupation(state: SteadyState | np.ndarray) -> float:
    """Mean phonon number tr(rho (1 x a^dag a)) of a composite-space state."""
    rho = state.rho if isinstance(state, SteadyState) else np.asarray(state)
    d = rho.shape[0]
    if d % hilbert.N_INTERNAL != 0:
        raise ConfigurationError(
            f"state of dimension {d} does not live on the composite space"
        )
    val = (np.diagonal(rho) * (np.arange(d) // hilbert.N_INTERNAL)).sum()
    if abs(val.imag) > 1e-10:
        raise NumericalFailureError(
            f"phonon occupation has imaginary part {val.imag:.3e}"
        )
    return float(val.real)


def norm_bound(lv: Superoperator) -> float:
    """Cheap upper bound on the spectral norm, sqrt(||L||_1 ||L||_inf)."""
    absmat = np.abs(lv.matrix)
    return float(np.sqrt(absmat.sum(axis=0).max() * absmat.sum(axis=1).max()))


def time_evolve(
    lv: Superoperator, rho0: np.ndarray, t_final: float, dt: float
) -> np.ndarray:
    """Propagate a density matrix with fixed-step classical RK4.

    Enforces dt * ||L|| < 1 as a stability precondition and checks that the
    trace is preserved to 1e-8 over the run.
    """
    if dt <= 0 or t_final < 0:
        raise ConfigurationError("time step and final time must be positive")
    bound = norm_bound(lv)
    if dt * bound >= 1.0:
        raise ConfigurationError(
            f"dt * ||L|| = {dt * bound:.3f} >= 1 violates the RK4 stability margin"
        )
    lmat = lv.matrix
    vec = vectorize(np.asarray(rho0, dtype=complex)).copy()
    trace_idx = (lv.hilbert_dim + 1) * np.arange(lv.hilbert_dim)
    trace0 = vec[trace_idx].sum()
    steps, remainder = divmod(t_final, dt)
    for step_dt in [dt] * int(steps) + ([remainder] if remainder > 1e-15 else []):
        k1 = lmat @ vec
        k2 = lmat @ (vec + 0.5 * step_dt * k1)
        k3 = lmat @ (vec + 0.5 * step_dt * k2)
        k4 = lmat @ (vec + step_dt * k3)
        vec = vec + (step_dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    drift = abs(vec[trace_idx].sum() - trace0)
    if drift > 1e-8:
        raise NumericalFailureError(f"trace drifted by {drift:.3e} during propagation")
    return devectorize(vec)
