import numpy as np
import pytest

from dqdcavity import (
    G,
    X,
    BasisMismatchError,
    CompositeBasis,
    OperatorMatrix,
    annihilation,
    identity,
    qubit_lowering,
)

import oracles


def test_dimension_and_index_round_trip():
    basis = CompositeBasis(3)
    assert basis.dim == 16
    for flat in range(basis.dim):
        n, s1, s2 = basis.state_at(flat)
        assert basis.index_of(n, s1, s2) == flat


def test_index_layout_is_photon_major():
    basis = CompositeBasis(2)
    assert basis.index_of(0, G, G) == 0
    assert basis.index_of(0, G, X) == 1
    assert basis.index_of(0, X, G) == 2
    assert basis.index_of(1, G, G) == 4
    assert basis.state_label(4) == "|1,G,G>"


def test_invalid_construction_rejected():
    with pytest.raises(ValueError):
        CompositeBasis(0)
    with pytest.raises(ValueError):
        CompositeBasis(-2)
    basis = CompositeBasis(1)
    with pytest.raises(ValueError):
        basis.index_of(2, G, G)
    with pytest.raises(ValueError):
        basis.index_of(0, 3, G)
    with pytest.raises(ValueError):
        basis.state_at(8)


@pytest.mark.parametrize("n_max", [1, 2, 4])
def test_operators_match_index_built_reference(n_max):
    basis = CompositeBasis(n_max)
    a_ref, s1_ref, s2_ref = oracles.index_built_operators(n_max)
    assert np.array_equal(annihilation(basis).entries, a_ref)
    assert np.array_equal(qubit_lowering(basis, 1).entries, s1_ref)
    assert np.array_equal(qubit_lowering(basis, 2).entries, s2_ref)


def test_commutation_and_nilpotency():
    basis = CompositeBasis(4)
    a = annihilation(basis)
    s1 = qubit_lowering(basis, 1)
    s2 = qubit_lowering(basis, 2)
    # [a, a+] = 1 except the top Fock block lost to truncation
    comm = (a @ a.dag()).entries - (a.dag() @ a).entries
    expected = np.eye(basis.dim)
    for s1v in (G, X):
        for s2v in (G, X):
            k = basis.index_of(basis.n_max, s1v, s2v)
            expected[k, k] = -basis.n_max
    assert np.allclose(comm, expected, atol=1e-12)
    assert np.allclose((s1 @ s1).entries, 0.0)
    assert np.allclose((s2 @ s2).entries, 0.0)
    # different subsystems commute
    for lhs, rhs in [(a, s1), (a, s2), (s1, s2)]:
        delta = (lhs @ rhs).entries - (rhs @ lhs).entries
        assert np.abs(delta).max() == 0.0


def test_number_operators_diagonal():
    basis = CompositeBasis(3)
    n_op = (annihilation(basis).dag() @ annihilation(basis)).entries
    diag = np.array([basis.state_at(k)[0] for k in range(basis.dim)], dtype=float)
    assert np.allclose(n_op, np.diag(diag))
    n1 = (qubit_lowering(basis, 1).dag() @ qubit_lowering(basis, 1)).entries
    diag1 = np.array([basis.state_at(k)[1] for k in range(basis.dim)], dtype=float)
    assert np.allclose(n1, np.diag(diag1))


def test_operator_matrix_is_frozen_and_basis_checked():
    basis = CompositeBasis(1)
    other = CompositeBasis(2)
    op = annihilation(basis)
    with pytest.raises(ValueError):
        op.entries[0, 0] = 5.0
    with pytest.raises(BasisMismatchError):
        op @ annihilation(other)
    with pytest.raises(ValueError):
        OperatorMatrix(basis, np.zeros((3, 3)))


def test_hermiticity_helpers():
    basis = CompositeBasis(1)
    num = annihilation(basis).dag() @ annihilation(basis)
    assert num.is_hermitian()
    assert identity(basis).is_hermitian()
    assert not annihilation(basis).is_hermitian()
    with pytest.raises(ValueError):
        annihilation(basis).assert_hermitian()


def test_qubit_lowering_requires_valid_dot():
    with pytest.raises(ValueError):
        qubit_lowering(CompositeBasis(1), 3)
