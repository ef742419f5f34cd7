"""Steady-state extraction from the vectorized Liouvillian and related observables."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack

from .errors import (
    BasisMismatchError,
    DegenerateSteadyStateError,
    SteadyStateConvergenceError,
)
from .hilbert import CompositeBasis, OperatorMatrix, annihilation, qubit_lowering
from .liouvillian import SuperoperatorMatrix, build_liouvillian, trace_functional, unvec, vec
from .model import ModelParams

# reciprocal condition of the trace-row system below this means the kernel
# itself is degenerate, not merely a slow relaxation mode
_RCOND_FLOOR = 1e-13
# the returned state satisfies ||L vec(rho)||_inf <= _RTOL * ||L||_inf
_RTOL = 1e-10


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, unit-trace density matrix on a CompositeBasis."""

    basis: CompositeBasis
    entries: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.entries, dtype=complex)
        if arr.shape != (self.basis.dim, self.basis.dim):
            raise ValueError(
                f"entries shape {arr.shape} does not match basis dim {self.basis.dim}"
            )
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)

    def trace(self) -> complex:
        return complex(np.trace(self.entries))

    def min_eigenvalue(self) -> float:
        return float(np.linalg.eigvalsh(self.entries)[0])


def steady_state(liouvillian: SuperoperatorMatrix) -> DensityMatrix:
    """Unique stationary density matrix of the generator.

    The first (redundant) row of L is replaced with the trace functional and
    the dense linear system L' vec(rho) = e_0 is solved by LU.

    Raises
    ------
    DegenerateSteadyStateError
        If the kernel of the generator is more than one-dimensional.
    SteadyStateConvergenceError
        If the result misses ||L vec(rho)||_inf <= 1e-10 * ||L||_inf.
    """
    dim = liouvillian.basis.dim
    l_mat = liouvillian.entries
    rho = unvec(_solve_trace_row(l_mat, dim), dim)
    rho = 0.5 * (rho + rho.conj().T)
    tr = np.trace(rho).real
    if abs(tr) < 1e-300:
        raise SteadyStateConvergenceError("steady-state candidate has vanishing trace")
    rho = rho / tr

    norm_l = liouvillian.norm_inf()
    residual = float(np.abs(l_mat @ vec(rho)).max())
    if norm_l > 0 and residual > _RTOL * norm_l:
        raise SteadyStateConvergenceError(
            f"steady-state residual {residual:.3e} exceeds {_RTOL:.1e} * ||L||_inf = {_RTOL * norm_l:.3e}"
        )
    return DensityMatrix(liouvillian.basis, rho)


def _solve_trace_row(l_mat: np.ndarray, dim: int) -> np.ndarray:
    # Fortran order lets zgetrf factor this one copy in place
    m = np.array(l_mat, order="F")
    m[0, :] = trace_functional(dim)
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
    b = np.zeros(dim * dim, dtype=complex)
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


def steady_observables(params: ModelParams, n_max: int = 3) -> dict[str, float]:
    """Stationary occupations: photons and the two exciton populations."""
    basis = CompositeBasis(n_max)
    rho = steady_state(build_liouvillian(params, basis))
    a = annihilation(basis)
    s1 = qubit_lowering(basis, 1)
    s2 = qubit_lowering(basis, 2)
    return {
        "n_cavity": expectation(rho, a.dag() @ a).real,
        "n_qd1": expectation(rho, s1.dag() @ s1).real,
        "n_qd2": expectation(rho, s2.dag() @ s2).real,
    }
