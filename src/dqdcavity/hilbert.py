"""Composite Hilbert space of a truncated cavity mode and two two-level quantum dots.

The flat basis ordering is fixed once and for all: a state |n, s1, s2> with
photon number n and dot levels s in {G, X} sits at flat index
``n*4 + s1*2 + s2`` with G encoded as 0 and X as 1. Index 0 is |0, G, G>.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import BasisMismatchError

G = 0
X = 1


def frozen_array(value, dtype) -> np.ndarray:
    """A read-only C-ordered copy of value as an array of dtype."""
    arr = np.array(value, dtype=dtype, order="C")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class CompositeBasis:
    """Truncated Fock space (0..n_max photons) tensored with two dot qubits.

    Parameters
    ----------
    n_max : int
        Largest retained photon number, at least 1.
    """

    n_max: int
    dim: int = field(init=False)

    def __post_init__(self):
        if not isinstance(self.n_max, (int, np.integer)) or self.n_max < 1:
            raise ValueError(f"n_max must be an integer >= 1, got {self.n_max!r}")
        object.__setattr__(self, "dim", (self.n_max + 1) * 4)

    def index_of(self, n: int, s1: int, s2: int) -> int:
        """Flat index of |n, s1, s2>."""
        if not 0 <= n <= self.n_max:
            raise ValueError(f"photon number {n} outside 0..{self.n_max}")
        if s1 not in (G, X) or s2 not in (G, X):
            raise ValueError(f"dot levels must be G={G} or X={X}, got ({s1}, {s2})")
        return n * 4 + s1 * 2 + s2


@dataclass(frozen=True)
class OperatorMatrix:
    """Dense operator on a CompositeBasis.

    The entries array is frozen (read-only) after construction; dag and the
    matrix product return new instances, and the product enforces matching bases.
    """

    basis: CompositeBasis
    entries: np.ndarray

    def __post_init__(self):
        arr = frozen_array(self.entries, complex)
        if arr.shape != (self.basis.dim, self.basis.dim):
            raise ValueError(
                f"entries shape {arr.shape} does not match basis dim {self.basis.dim}"
            )
        object.__setattr__(self, "entries", arr)

    def dag(self) -> "OperatorMatrix":
        return OperatorMatrix(self.basis, self.entries.conj().T)

    def __matmul__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        if self.basis != other.basis:
            raise BasisMismatchError(
                f"operators live on different bases (n_max {self.basis.n_max} vs {other.basis.n_max})"
            )
        return OperatorMatrix(self.basis, self.entries @ other.entries)


def annihilation(basis: CompositeBasis) -> OperatorMatrix:
    """Photon annihilation operator a, acting trivially on the dots."""
    a_fock = np.diag(np.sqrt(np.arange(1, basis.n_max + 1)), 1)
    return OperatorMatrix(basis, np.kron(a_fock, np.eye(4)))


def qubit_lowering(basis: CompositeBasis, which: int) -> OperatorMatrix:
    """Exciton lowering operator sigma_j = |G><X| for dot ``which`` in {1, 2}."""
    if which not in (1, 2):
        raise ValueError(f"dot index must be 1 or 2, got {which}")
    sig = np.zeros((2, 2))
    sig[G, X] = 1.0
    eye_f = np.eye(basis.n_max + 1)
    if which == 1:
        mat = np.kron(eye_f, np.kron(sig, np.eye(2)))
    else:
        mat = np.kron(eye_f, np.kron(np.eye(2), sig))
    return OperatorMatrix(basis, mat)
