import numpy as np
import pytest

from eitcool import ConfigurationError
from eitcool import hilbert


def test_annihilation_entries_small_cutoff():
    a = hilbert.annihilation(2)
    expected = np.zeros((3, 3), complex)
    expected[0, 1] = 1.0
    expected[1, 2] = np.sqrt(2)
    np.testing.assert_allclose(a, expected, atol=0)


def test_number_operator_from_ladder():
    a = hilbert.annihilation(2)
    np.testing.assert_allclose(a.conj().T @ a, np.diag([0.0, 1.0, 2.0]), atol=1e-15)


def test_truncated_commutator_defect():
    n_max = 5
    a = hilbert.annihilation(n_max)
    comm = a @ a.conj().T - a.conj().T @ a
    expected = np.eye(n_max + 1, dtype=complex)
    expected[n_max, n_max] = -n_max
    np.testing.assert_allclose(comm, expected, atol=1e-14)


def test_number_operator_diagonal_range():
    num = hilbert.number_operator(7)
    np.testing.assert_allclose(np.diag(num).real, np.arange(8), atol=0)


def test_cutoff_validation():
    with pytest.raises(ConfigurationError):
        hilbert.annihilation(1)
    with pytest.raises(ConfigurationError):
        hilbert.validate_cutoff(-3)
    with pytest.raises(ConfigurationError):
        hilbert.validate_cutoff(2.5)


def test_embed_identity():
    out = hilbert.embed(hilbert.identity_internal(), hilbert.identity_phonon(3))
    np.testing.assert_allclose(out, np.eye(12), atol=0)


def test_embed_projector_trace():
    n_max = 5
    e = hilbert.E
    out = hilbert.embed(hilbert.ketbra(e, e), hilbert.identity_phonon(n_max))
    assert out.trace() == pytest.approx(n_max + 1)


def test_embed_ladder_action_on_basis_state():
    # (|e><d| x a) applied to |d,1> lands on |e,0> with unit amplitude
    n_max = 3
    d, e = hilbert.D, hilbert.E
    op = hilbert.embed(hilbert.ketbra(e, d), hilbert.annihilation(n_max))
    out = op @ hilbert.basis_vector(d, 1, n_max)
    expected = hilbert.basis_vector(e, 0, n_max)
    np.testing.assert_allclose(out, expected, atol=1e-15)


def test_embed_dimension_mismatch():
    with pytest.raises(ConfigurationError):
        hilbert.embed(np.eye(2), hilbert.identity_phonon(2))
    with pytest.raises(ConfigurationError):
        hilbert.embed(hilbert.identity_internal(), np.ones((3, 4)))


def test_flat_index_round_trip():
    n_max = 6
    seen = set()
    for phonon in range(n_max + 1):
        for internal in range(3):
            flat = hilbert.flat_index(internal, phonon)
            assert divmod(flat, hilbert.N_INTERNAL) == (phonon, internal)
            seen.add(flat)
    assert seen == set(range(hilbert.dim(n_max)))


def test_embed_mixed_product_property(rng):
    n_max = 3
    shape_i = (3, 3)
    shape_p = (n_max + 1, n_max + 1)
    a = rng.standard_normal(shape_i) + 1j * rng.standard_normal(shape_i)
    c = rng.standard_normal(shape_i) + 1j * rng.standard_normal(shape_i)
    b = rng.standard_normal(shape_p) + 1j * rng.standard_normal(shape_p)
    d = rng.standard_normal(shape_p) + 1j * rng.standard_normal(shape_p)
    lhs = hilbert.embed(a, b) @ hilbert.embed(c, d)
    rhs = hilbert.embed(a @ c, b @ d)
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_unknown_basis_rejected():
    with pytest.raises(ConfigurationError):
        hilbert.validate_basis("xyz")
