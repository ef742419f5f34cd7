"""Vectorized Liouvillian superoperator in the column-stacking convention.

A density matrix rho maps to a vector with rho[i, j] at index j*d + i
(numpy order='F'). The generator -i[H, .] + sum_k r_k D[O_k] keeps
N = photons + excitons on both sides of rho, so it is block-diagonal in
k = N_ket - N_bra; a result needs one sector (k = 0 for the steady state,
k = +1 for the emission spectrum). It is also linear in the coefficients of
model.model_terms: sector_block is the diagonal -i(E[ket] - E[bra]) of the
bare energies E plus each other term's coefficient times a block fixed per
(n_max, k) and cached; sector_blocks sums it for a stack of points at once,
each block as if alone. build_liouvillian scatters every sector into a
d^2 x d^2 array of zeros, so its slices are the sector blocks exactly.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError
from .hilbert import CompositeBasis, frozen_array, level_counts
from .model import ModelParams, coefficients, model_terms, phat_rates
# bound here only because perfbench/tracing.py patches them under these names
from .model import hamiltonian, jump_operators  # noqa: F401


def vec(mat: np.ndarray) -> np.ndarray:
    """Column-stack a d x d matrix into a d^2 vector."""
    return np.asarray(mat).reshape(-1, order="F")


def unvec(v: np.ndarray, dim: int) -> np.ndarray:
    """Inverse of vec."""
    return np.asarray(v).reshape((dim, dim), order="F")


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


def build_liouvillian(params: ModelParams, basis: CompositeBasis) -> SuperoperatorMatrix:
    """Generator -i[H, .] + sum_k r_k D[O_k], every sector_block scattered into zeros.

    D[O] rho = O rho O^dag - {O^dag O, rho}/2 is the Lindblad dissipator.
    """
    d2 = basis.dim ** 2
    total = np.zeros((d2, d2), dtype=complex)
    top = int(level_counts(basis.n_max).sum(axis=0).max())
    for k in range(-top, top + 1):
        _, _, pos = sector_indices(basis.n_max, k)
        total[np.ix_(pos, pos)] = sector_block(params, basis, k)
    return SuperoperatorMatrix(basis, total)


@functools.lru_cache(maxsize=None)
def sector_indices(n_max: int, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Entries rho[i, j] with N_i - N_j = k: ket indices I, bra indices J and vec positions.

    N is photons plus excitons. Vec position p holds rho[p % d, p // d]. For
    k != 0 the positions come out ascending. For k = 0 they list the diagonal
    (rho_00 first), then each I < J, then each partner (J, I) in the same
    order, the layout of steadystate's real solve. The arrays are read-only.
    """
    excitations = level_counts(n_max).sum(axis=0)
    d = excitations.size
    bra, ket = np.divmod(np.arange(d * d), d)
    pos = np.flatnonzero(excitations[ket] - excitations[bra] == k)
    if k == 0:
        upper = pos[ket[pos] < bra[pos]]
        pos = np.concatenate([pos[ket[pos] == bra[pos]], upper, ket[upper] * d + bra[upper]])
    return frozen_array(ket[pos], np.intp), frozen_array(bra[pos], np.intp), frozen_array(pos, np.intp)


@functools.lru_cache(maxsize=None)
def _sector_terms(n_max: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only flat positions of the union pattern and values[term] there, for sector k.

    Term O adds delta_JJ' Q[I, I'] + delta_II' conj(Q)[J, J'] at (I, J), (I', J'):
    Q = -iO for a coupling, Q = -O^dag O / 2 plus conj(O)[J, J'] O[I, I'] for a channel.
    """
    ket, bra, _ = sector_indices(n_max, k)
    _, couplings, channels = model_terms(n_max)
    kets, bras = np.ix_(ket, ket), np.ix_(bra, bra)
    same_bra, same_ket = bra[:, None] == bra[None, :], ket[:, None] == ket[None, :]
    terms = [(-1j * o, None) for o in couplings.values()]
    terms += [(-0.5 * (o.conj().T @ o), o) for o in channels.values()]

    def block(q, o):
        b = np.where(same_bra, q[kets], 0.0) + np.where(same_ket, q.conj()[bras], 0.0)
        return (b if o is None else b + o.conj()[bras] * o[kets]).reshape(-1)

    # one block at a time: the first call may run on every sweep thread at once
    flat = np.flatnonzero(functools.reduce(np.logical_or, (block(*t) != 0.0 for t in terms)))
    return frozen_array(flat, np.intp), frozen_array([block(*t)[flat] for t in terms], complex)


def term_coefficients(params: ModelParams, n_max: int) -> np.ndarray:
    """Every model_terms coefficient of params, energies, couplings and channels in table order.

    Raises NumericalError naming gamma_T and p_T when the phonon occupation
    overflowed to inf and made them infinite. A finite rate near DBL_MAX whose
    PhAT product overflows is left to the solve, which refuses it as singular.
    """
    rates = phat_rates(params)
    if math.isinf(rates.n_th) and rates.gamma_T != 0.0:
        raise NumericalError(f"model coefficients are not finite: gamma_T = {rates.gamma_T}, "
                             f"p_T = {rates.p_T} (phonon occupation n_th = inf)")
    energies, couplings, channels = model_terms(n_max)
    return np.array(coefficients(params, [*energies, *couplings, *channels]), dtype=float)


def sector_blocks(coefs: np.ndarray, n_max: int, k: int) -> np.ndarray:
    """Sector k of the generator for each row of term_coefficients in coefs, as a fresh (P, m, m) stack.

    Each block's terms are summed elementwise in a fixed order, so a block
    does not depend on the other rows of its stack.
    """
    coefs = np.asarray(coefs, dtype=float)
    ket, bra, _ = sector_indices(n_max, k)
    flat, values = _sector_terms(n_max, k)
    energies = model_terms(n_max)[0]
    n_energies = len(energies)
    # summed as in hamiltonian, whose couplings add exact zeros on the diagonal
    e = sum(c[:, None] * op.diagonal().real for c, op in zip(coefs.T, energies.values()))
    m = ket.size
    blocks = np.zeros((len(coefs), m, m), dtype=complex)
    blocks[:, np.arange(m), np.arange(m)] = -1j * (e[:, ket] - e[:, bra])
    # real coefficients on the (re, im) pairs of the values, summed term after term
    terms = np.einsum("pc,cn->pn", coefs[:, n_energies:], values.view(float), optimize=False)
    blocks.reshape(len(coefs), -1)[:, flat] += terms.view(complex)
    return blocks


def sector_block(params: ModelParams, basis: CompositeBasis, k: int) -> np.ndarray:
    """Sector k of params' generator as a fresh array: the one-point stack of sector_blocks."""
    return sector_blocks(term_coefficients(params, basis.n_max)[None], basis.n_max, k)[0]
