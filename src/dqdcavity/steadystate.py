"""Steady state on the k = 0 sector of the generator, and the observables read off it.

The stationary state keeps the excitation number N = photons + excitons on
both sides (k = N_ket - N_bra = 0), so it is solved on the k = 0 block alone:
m = 52 unknowns instead of d^2 = 256 at n_max 3. steady_state slices that
block out of a dense generator; sector_steady_state builds it straight from
K. Both hand the same block to the same trace-row LU; steady_state, which
may be handed any generator, also checks the residual on all of it.
"""

from __future__ import annotations

import functools

import numpy as np
from scipy.linalg import lapack

from .errors import (
    BasisMismatchError,
    DegenerateSteadyStateError,
    SteadyStateConvergenceError,
)
from .hilbert import CompositeBasis, OperatorMatrix, frozen_array, level_counts
from .liouvillian import SuperoperatorMatrix, sector_block, sector_indices
# bound here only because perfbench/tracing.py patches them under these names
from .hilbert import annihilation, qubit_lowering  # noqa: F401
from .liouvillian import build_liouvillian  # noqa: F401
from .model import ModelParams

# reciprocal condition of the trace-row system below this means the kernel
# itself is degenerate, not merely a slow relaxation mode
_RCOND_FLOOR = 1e-13
# the returned state satisfies ||B x||_inf <= _RTOL * ||B||_inf on the k = 0
# block B, whose norm never exceeds the full generator's; steady_state also
# holds the full generator L to ||L x||_inf <= _RTOL * ||L||_inf, which fails
# when L moves weight out of the k = 0 sector
_RTOL = 1e-10


class DensityMatrix(OperatorMatrix):
    """Hermitian, unit-trace density matrix on a CompositeBasis."""

    def trace(self) -> complex:
        return complex(np.trace(self.entries))

    def min_eigenvalue(self) -> float:
        return float(np.linalg.eigvalsh(self.entries)[0])


def steady_state(liouvillian: SuperoperatorMatrix) -> DensityMatrix:
    """Unique stationary density matrix of the generator.

    The k = 0 block is sliced out of the dense entries, its first (redundant)
    row is replaced with the trace functional, and B' x = e_0 is solved by LU.
    The residual is then taken on the whole generator, so one that does not
    keep N is refused rather than solved on the wrong sector.

    Raises
    ------
    DegenerateSteadyStateError
        If the kernel of the k = 0 block is more than one-dimensional.
    SteadyStateConvergenceError
        If the result misses ||B x||_inf <= 1e-10 * ||B||_inf on the block B
        or ||L x||_inf <= 1e-10 * ||L||_inf on the generator L.
    """
    basis = liouvillian.basis
    ket, bra, pos = sector_indices(basis.n_max, 0)
    entries = liouvillian.entries
    rho = _state_from_block(basis, entries[np.ix_(pos, pos)])
    _check_residual(entries[:, pos] @ rho.entries[ket, bra], liouvillian.norm_inf(), "L")
    return rho


def sector_steady_state(params: ModelParams, basis: CompositeBasis) -> DensityMatrix:
    """steady_state of params' generator, solved on the k = 0 block built from K.

    Never assembles the d^2 x d^2 generator; the result is bit-identical to
    steady_state(build_liouvillian(params, basis)).
    """
    return _state_from_block(basis, sector_block(params, basis, 0))


def _state_from_block(basis: CompositeBasis, block: np.ndarray) -> DensityMatrix:
    dim = basis.dim
    ket, bra, _ = sector_indices(basis.n_max, 0)
    x = _solve_trace_row(block, (ket == bra).astype(complex))
    rho = np.zeros((dim, dim), dtype=complex)
    rho[ket, bra] = x
    rho = 0.5 * (rho + rho.conj().T)
    tr = np.trace(rho).real
    if abs(tr) < 1e-300:
        raise SteadyStateConvergenceError("steady-state candidate has vanishing trace")
    rho = rho / tr

    _check_residual(block @ rho[ket, bra], float(np.abs(block).sum(axis=1).max()), "B")
    return DensityMatrix(basis, rho)


def _check_residual(residual: np.ndarray, norm: float, name: str) -> None:
    worst = float(np.abs(residual).max())
    if norm > 0 and worst > _RTOL * norm:
        raise SteadyStateConvergenceError(
            f"steady-state residual {worst:.3e} exceeds {_RTOL:.1e} * ||{name}||_inf = {_RTOL * norm:.3e}"
        )


def _solve_trace_row(block: np.ndarray, trace_row: np.ndarray) -> np.ndarray:
    # Fortran order lets zgetrf factor this one copy in place
    m = np.array(block, order="F")
    m[0, :] = trace_row
    anorm = float(np.abs(m).sum(axis=0).max())
    lu, piv, info = lapack.zgetrf(m, overwrite_a=True)
    if info != 0:
        raise DegenerateSteadyStateError(
            "trace-row system is singular: the stationary state is not unique"
        )
    rcond, info = lapack.zgecon(lu, anorm, norm="1")
    if info != 0 or not np.isfinite(rcond) or rcond < _RCOND_FLOOR:
        raise DegenerateSteadyStateError(
            f"trace-row system is numerically singular (rcond = {rcond:.2e}): "
            "the stationary state is not unique"
        )
    b = np.zeros(block.shape[0], dtype=complex)
    b[0] = 1.0
    x, info = lapack.zgetrs(lu, piv, b)
    if info != 0:
        raise SteadyStateConvergenceError("LU back substitution failed")
    return x


def expectation(rho: DensityMatrix, op: OperatorMatrix) -> complex:
    """Tr(rho O). Imaginary parts are the caller's to discard for Hermitian O."""
    if rho.basis != op.basis:
        raise BasisMismatchError(
            f"density matrix and operator bases differ (n_max {rho.basis.n_max} vs {op.basis.n_max})"
        )
    return complex(np.trace(rho.entries @ op.entries))


@functools.lru_cache(maxsize=None)
def _number_rows(n_max: int) -> np.ndarray:
    # diagonals of a^dag a, sigma1^dag sigma1, sigma2^dag sigma2 and a^dag a^dag a a
    n, x1, x2 = level_counts(n_max)
    return frozen_array([n, x1, x2, n * (n - 1)], float)


def number_moments(rho: DensityMatrix) -> np.ndarray:
    """<a^dag a>, <sigma1^dag sigma1>, <sigma2^dag sigma2> and <a^dag a^dag a a> in rho.

    All four operators are diagonal in the flat basis, so each moment is a
    fixed row dotted with the populations of rho.
    """
    return _number_rows(rho.basis.n_max) @ rho.entries.diagonal().real


def occupations(rho: DensityMatrix) -> dict[str, float]:
    """Photon number and the two exciton populations in rho."""
    n_cavity, n_qd1, n_qd2, _ = number_moments(rho)
    return {"n_cavity": float(n_cavity), "n_qd1": float(n_qd1), "n_qd2": float(n_qd2)}


def steady_observables(params: ModelParams, n_max: int = 3) -> dict[str, float]:
    """Stationary occupations: photons and the two exciton populations."""
    return occupations(sector_steady_state(params, CompositeBasis(n_max)))
