"""Vectorized Liouvillian superoperator in the column-stacking convention.

A density matrix rho maps to a vector with rho[i, j] at index j*d + i
(numpy order='F'). Under that stacking, vec(A X B) = kron(B^T, A) vec(X), so
with the effective non-Hermitian Hamiltonian K = -iH - sum_k r_k O_k^dag O_k / 2
the Lindblad generator K rho + rho K^dag + sum_k r_k O_k rho O_k^dag is
kron(I, K) + kron(conj(K), I) + sum_k kron(r_k conj(O_k), O_k). K keeps
N = photons + excitons and each O_k shifts N equally on both sides of rho, so
the generator is block-diagonal in k = N_ket - N_bra.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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
    """Dense d^2 x d^2 superoperator acting on column-stacked density matrices.

    The entries array is taken over, not copied, and frozen (read-only) in
    place, so the caller hands over a fresh array and keeps no reference to it.
    """

    basis: CompositeBasis
    entries: np.ndarray

    def __post_init__(self):
        d2 = self.basis.dim ** 2
        arr = np.asarray(self.entries, dtype=complex)
        if arr.shape != (d2, d2):
            raise ValueError(f"entries shape {arr.shape} does not match dim^2 = {d2}")
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)

    def apply(self, rho: np.ndarray) -> np.ndarray:
        """Action L[rho] returned as a matrix."""
        d = self.basis.dim
        return unvec(self.entries @ vec(rho), d)

    def norm_inf(self) -> float:
        return float(np.abs(self.entries).sum(axis=1).max())


def effective_hamiltonian(
    params: ModelParams, basis: CompositeBasis
) -> tuple[np.ndarray, list[tuple[np.ndarray, np.ndarray]]]:
    """K = -iH - sum_k r_k O_k^dag O_k / 2 and the (r_k conj(O_k), O_k) jump pairs."""
    k = -1j * hamiltonian(params, basis).entries
    channels = []
    for rate, op in jump_operators(params, basis):
        o = op.entries
        k -= 0.5 * rate * (o.conj().T @ o)
        channels.append((rate * o.conj(), o))
    return k, channels


def build_liouvillian(params: ModelParams, basis: CompositeBasis) -> SuperoperatorMatrix:
    """Generator kron(I, K) + kron(conj(K), I) + sum_k kron(r_k conj(O_k), O_k).

    This is -i[H, .] + sum_k r_k D[O_k] with K from effective_hamiltonian,
    where D[O] rho = O rho O^dag - {O^dag O, rho}/2 is the Lindblad dissipator.
    """
    k, channels = effective_hamiltonian(params, basis)
    eye = np.eye(basis.dim)
    total = np.kron(eye, k)
    total += np.kron(k.conj(), eye)
    for left, o in channels:
        total += np.kron(left, o)
    return SuperoperatorMatrix(basis, total)
