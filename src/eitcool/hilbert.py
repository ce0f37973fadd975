"""Composite Hilbert space of a three-level ion and a truncated phonon ladder.

The internal levels have fixed indices, G, R, E = 0, 1, 2 in the laser basis
("gre") and D, B, E in the rotated dark/bright basis ("dbe").  The composite
basis is ordered internal-fastest: the state (level i, phonon n) sits at flat
index 3*n + i.  This keeps the low phonon sectors in the top-left corner of
every matrix, which makes small-cutoff debugging and the seven-level
projected model straightforward.

Truncation of the ladder is hard: operators are built directly on the
(n_max + 1)-dimensional phonon space with no reflective or absorbing
correction, so the canonical commutator picks up the usual -n_max defect in
its bottom-right entry.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigurationError

N_INTERNAL = 3

G, R, E = 0, 1, 2
D, B = G, R  # the rotated basis puts d and b where g and r were


def validate_basis(basis: str) -> str:
    if basis not in ("gre", "dbe"):
        raise ConfigurationError(
            f"unknown basis tag {basis!r}; expected 'gre' or 'dbe'"
        )
    return basis


def validate_cutoff(n_max: int) -> int:
    """Cutoffs below 2 cannot represent the two-phonon dark state."""
    if isinstance(n_max, bool) or not isinstance(n_max, (int, np.integer)):
        raise ConfigurationError(f"phonon cutoff must be an integer, got {n_max!r}")
    if n_max < 2:
        raise ConfigurationError(f"phonon cutoff must be >= 2, got {n_max}")
    return int(n_max)


def dim(n_max: int) -> int:
    """Dimension of the composite space, 3 * (n_max + 1)."""
    return N_INTERNAL * (n_max + 1)


def flat_index(internal: int, phonon: int) -> int:
    return N_INTERNAL * phonon + internal


def ketbra(i: int, j: int) -> np.ndarray:
    """Elementary internal operator |i><j| on the three-level space."""
    op = np.zeros((N_INTERNAL, N_INTERNAL), dtype=complex)
    op[i, j] = 1.0
    return op


def identity_internal() -> np.ndarray:
    return np.eye(N_INTERNAL, dtype=complex)


def identity_phonon(n_max: int) -> np.ndarray:
    return np.eye(n_max + 1, dtype=complex)


def annihilation(n_max: int) -> np.ndarray:
    """Phonon annihilation operator with <n-1|a|n> = sqrt(n)."""
    n_max = validate_cutoff(n_max)
    a = np.zeros((n_max + 1, n_max + 1), dtype=complex)
    for n in range(1, n_max + 1):
        a[n - 1, n] = np.sqrt(n)
    return a


def creation(n_max: int) -> np.ndarray:
    return annihilation(n_max).conj().T


def number_operator(n_max: int) -> np.ndarray:
    return np.diag(np.arange(n_max + 1)).astype(complex)


def embed(internal_op: np.ndarray, phonon_op: np.ndarray) -> np.ndarray:
    """Tensor product of an internal and a phonon operator on the composite space.

    With the internal-fastest index convention the composite matrix element is
    embed(A, B)[3p + i, 3q + j] = B[p, q] * A[i, j].
    """
    internal_op = np.asarray(internal_op, dtype=complex)
    phonon_op = np.asarray(phonon_op, dtype=complex)
    if internal_op.shape != (N_INTERNAL, N_INTERNAL):
        raise ConfigurationError(
            f"internal operator must be 3x3, got {internal_op.shape}"
        )
    if phonon_op.ndim != 2 or phonon_op.shape[0] != phonon_op.shape[1]:
        raise ConfigurationError(
            f"phonon operator must be square, got {phonon_op.shape}"
        )
    return np.kron(phonon_op, internal_op)


def basis_vector(internal: int, phonon: int, n_max: int) -> np.ndarray:
    vec = np.zeros(dim(n_max), dtype=complex)
    vec[flat_index(internal, phonon)] = 1.0
    return vec
