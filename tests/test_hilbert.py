import numpy as np
import pytest

from dqdcavity import (
    G,
    X,
    BasisMismatchError,
    CompositeBasis,
    CorrelationResult,
    ExceptionalPointScan,
    OperatorMatrix,
    SpectraPanel,
    SpectrumResult,
    annihilation,
    qubit_lowering,
)
from dqdcavity.hilbert import level_counts

import oracles


def test_dimension_and_index_round_trip():
    basis = CompositeBasis(3)
    assert basis.dim == 16
    for flat in range(basis.dim):
        n, rest = divmod(flat, 4)
        s1, s2 = divmod(rest, 2)
        assert basis.index_of(n, s1, s2) == flat


def test_index_layout_is_photon_major():
    basis = CompositeBasis(2)
    assert basis.index_of(0, G, G) == 0
    assert basis.index_of(0, G, X) == 1
    assert basis.index_of(0, X, G) == 2
    assert basis.index_of(1, G, G) == 4


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
    diag = np.arange(basis.dim) // 4  # photon number of each flat index
    assert np.allclose(n_op, np.diag(diag))
    n1 = (qubit_lowering(basis, 1).dag() @ qubit_lowering(basis, 1)).entries
    diag1 = (np.arange(basis.dim) % 4) // 2  # dot-1 level of each flat index
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


# record type -> (build it from keyword arrays, {array field: writable input})
_ARRAY_RECORDS = {
    "CorrelationResult": (CorrelationResult, {
        "taus": np.array([0.0, 1.0]), "values": np.array([1.0 + 0.5j, 0.25j]),
    }),
    "SpectrumResult": (lambda **a: SpectrumResult(**a, kappa=0.1, omega0=1.0), {
        "frequencies": np.array([0.9, 1.1]), "offsets": np.array([-0.1, 0.1]),
        "intensities": np.array([0.5, 0.7]), "amplitudes": np.array([1.0 + 1.0j]),
        "poles": np.array([-0.1 + 0.2j]),
    }),
    "SpectraPanel": (lambda **a: SpectraPanel(0.01, **a, statuses=("ok", "ok"),
                                              spectra=(None, None), lines=(None, None)), {
        "zetas": np.array([0.1, 1.0]),
    }),
    "ExceptionalPointScan": (lambda **a: ExceptionalPointScan(
        **a, zeta_star=0.1, min_gap=0.2, width_gap_at_star=0.3), {
        "zetas": np.array([0.1, 1.0]), "min_gaps": np.array([0.2, 0.4]),
        "width_gaps": np.array([0.3, 0.5]),
    }),
}


@pytest.mark.parametrize("kind", list(_ARRAY_RECORDS))
def test_record_arrays_are_frozen_copies(kind):
    build, arrays = _ARRAY_RECORDS[kind]
    record = build(**arrays)
    for name, source in arrays.items():
        stored = getattr(record, name)
        kept = stored.copy()
        with pytest.raises(ValueError):
            stored[0] = 7.0
        source[0] = 9.0
        assert np.array_equal(getattr(record, name), kept)


@pytest.mark.parametrize("kind, name", [("CorrelationResult", "values"),
                                        ("SpectrumResult", "amplitudes")])
def test_record_arrays_that_do_not_pair_up_are_refused(kind, name):
    build, arrays = _ARRAY_RECORDS[kind]
    with pytest.raises(ValueError, match="identical shapes"):
        build(**{**arrays, name: np.append(arrays[name], arrays[name][0])})


def test_qubit_lowering_requires_valid_dot():
    with pytest.raises(ValueError):
        qubit_lowering(CompositeBasis(1), 3)


def test_level_counts_are_the_number_operator_diagonals():
    a, s1, s2 = oracles.index_built_operators(3)
    counts = level_counts(3)
    assert not counts.flags.writeable
    for row, op in zip(counts, (a, s1, s2)):
        assert np.array_equal(row, np.rint(np.diag(op.conj().T @ op).real))
