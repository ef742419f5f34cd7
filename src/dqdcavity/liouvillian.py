"""Vectorized Liouvillian superoperator in the column-stacking convention.

A density matrix rho maps to a vector with rho[i, j] at index j*d + i
(numpy order='F'). Under that stacking, vec(A X B) = kron(B^T, A) vec(X),
so left multiplication is kron(I, A) and right multiplication kron(B^T, I).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BasisMismatchError
from .hilbert import CompositeBasis
from .model import ModelParams, hamiltonian, jump_operators


def vec(mat: np.ndarray) -> np.ndarray:
    """Column-stack a d x d matrix into a d^2 vector."""
    return np.asarray(mat).reshape(-1, order="F")


def unvec(v: np.ndarray, dim: int) -> np.ndarray:
    """Inverse of vec."""
    return np.asarray(v).reshape((dim, dim), order="F")


def trace_functional(dim: int) -> np.ndarray:
    """Row vector t with t @ vec(rho) = Tr(rho)."""
    return np.eye(dim).reshape(-1, order="F")


@dataclass(frozen=True)
class SuperoperatorMatrix:
    """Dense d^2 x d^2 superoperator acting on column-stacked density matrices."""

    basis: CompositeBasis
    entries: np.ndarray

    def __post_init__(self):
        d2 = self.basis.dim ** 2
        arr = np.asarray(self.entries, dtype=complex)
        if arr.shape != (d2, d2):
            raise ValueError(f"entries shape {arr.shape} does not match dim^2 = {d2}")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)

    def apply(self, rho: np.ndarray) -> np.ndarray:
        """Action L[rho] returned as a matrix."""
        d = self.basis.dim
        return unvec(self.entries @ vec(rho), d)

    def norm_inf(self) -> float:
        return float(np.abs(self.entries).sum(axis=1).max())


def build_liouvillian(params: ModelParams, basis: CompositeBasis) -> SuperoperatorMatrix:
    """Full generator -i[H, .] + sum_k rate_k D[O_k] over all active jump channels.

    D[O] rho = O rho O^dag - {O^dag O, rho}/2 is the Lindblad dissipator.
    """
    h = hamiltonian(params, basis)
    eye = np.eye(basis.dim)
    # accumulate in place; each kron of dim^2 x dim^2 is the dominant allocation
    total = np.kron(eye, h.entries)
    total -= np.kron(h.entries.T, eye)
    total *= -1j
    for rate, op in jump_operators(params, basis):
        if op.basis != basis:
            raise BasisMismatchError("jump operator basis does not match")
        o = op.entries
        odo = o.conj().T @ o
        sup = np.kron(o.conj(), o)
        sup -= 0.5 * np.kron(eye, odo)
        sup -= 0.5 * np.kron(odo.T, eye)
        sup *= rate
        total += sup
    return SuperoperatorMatrix(basis, total)
