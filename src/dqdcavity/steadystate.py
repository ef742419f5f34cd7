"""Steady state on the k = 0 sector of the generator, and the observables read off it.

The stationary state keeps the excitation number N = photons + excitons on
both sides (k = N_ket - N_bra = 0), so it is solved on the k = 0 block alone:
m = 52 unknowns instead of d^2 = 256 at n_max 3. steady_state slices that
block out of a dense generator; sector_steady_state builds it straight from
the term table, and sector_steady_states builds and solves many points, as
many at a time as _STACK_BYTES of complex blocks hold and never fewer than 4
(16 at n_max 3, 4 from n_max 6 up). This module alone sets that stack bound.
Every route hands its complex blocks to one stacked solver. A generator
that keeps Hermiticity makes each trace-row system real in the coordinates
(rho_II, Re rho_IJ, Im rho_IJ); the solver writes those real systems in
place, inverts them with numpy half a stack at a time and takes the exact
1-norm condition number from the inverse. The solved stack is read out in
one pass: its solutions are divided by their traces, and ||B||_inf and the
residual B x of every block are taken at once. Only then does each point
get, as a value, its own error (rcond floor, or a residual on the complex
block that is not within bound, NaN included) or its density matrix,
Hermitian by construction. steady_state, which may be handed any
generator, also checks the residual on all of it.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np

from .errors import DegenerateSteadyStateError, SteadyStateConvergenceError
from .hilbert import CompositeBasis, OperatorMatrix, frozen_array, level_counts
from .liouvillian import SuperoperatorMatrix, sector_blocks, sector_indices, term_coefficients
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
# bytes of complex k = 0 blocks per stacked solve: bounds the scratch memory of
# sector_steady_states from n_max 6 down and never changes a state, since each
# point's block and solve ignore the rest. glibc's malloc keeps freed memory for
# reuse while it is under twice the largest array it has unmapped (its trim
# threshold), here one stack's blocks. The blocks, half a stack's real systems
# and inverses, and the inverse's workspace (one block's bytes) stay under that
# from 4 points a stack up, so _stack_points never stacks fewer: a sweep at any
# cutoff then reuses its scratch instead of faulting it in every stack
_STACK_BYTES = 680 * 1024


class DensityMatrix(OperatorMatrix):
    """Hermitian, unit-trace density matrix on a CompositeBasis."""

    def trace(self) -> complex:
        return complex(np.trace(self.entries))

    def min_eigenvalue(self) -> float:
        return float(np.linalg.eigvalsh(self.entries)[0])


def steady_state(liouvillian: SuperoperatorMatrix) -> DensityMatrix:
    """Unique stationary density matrix of the generator.

    The k = 0 block is sliced out of the dense entries, its first (redundant)
    row is replaced with the trace functional, and B' x = e_0 is solved.
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
    rho = _raised(_block_states(basis, entries[np.ix_(pos, pos)][None])[0])
    residual = np.abs(entries[:, pos] @ rho.entries[ket, bra]).max()
    error = _residual_error(residual, liouvillian.norm_inf(), "L")
    return _raised(error or rho)


def sector_steady_state(params: ModelParams, basis: CompositeBasis) -> DensityMatrix:
    """steady_state of params' generator, solved on the k = 0 block built from K.

    Never assembles the d^2 x d^2 generator; the result is bit-identical to
    steady_state(build_liouvillian(params, basis)).
    """
    return _raised(next(sector_steady_states(term_coefficients(params, basis.n_max)[None], basis)))


def sector_steady_states(coefs, basis: CompositeBasis):
    """sector_steady_state for each row of liouvillian.term_coefficients in coefs, an iterable.

    Yields, in row order, each point's DensityMatrix or its own
    DegenerateSteadyStateError or SteadyStateConvergenceError, as a value.
    Rows are built and solved _stack_points(basis.n_max) at a time, and
    lazily, so at most one stack of blocks and states is held. Each state is
    bit-identical to the point's own sector_steady_state.
    """
    rows, size = iter(coefs), _stack_points(basis.n_max)
    while stack := list(itertools.islice(rows, size)):
        yield from _block_states(basis, sector_blocks(np.array(stack), basis.n_max, 0))


def _stack_points(n_max: int) -> int:
    """Points per stacked solve at cutoff n_max: the k = 0 blocks _STACK_BYTES holds, at least 4."""
    m = sector_indices(n_max, 0)[0].size
    return max(4, _STACK_BYTES // (np.dtype(complex).itemsize * m * m))


def _raised(state):
    if isinstance(state, Exception):
        raise state
    return state


def _block_states(basis: CompositeBasis, blocks: np.ndarray) -> list:
    ket, bra, _ = sector_indices(basis.n_max, 0)
    try:
        # half a stack at a time: the stack's blocks and one half's systems and
        # inverses then stay under the allocator's trim threshold (_STACK_BYTES)
        halves = [_solve_trace_rows(half, basis.dim)
                  for half in np.array_split(blocks, min(len(blocks), 2))]
    except np.linalg.LinAlgError:
        # one exactly singular system fails its whole stack; find it point by point
        if len(blocks) > 1:
            return [state for block in blocks for state in _block_states(basis, block[None])]
        return [DegenerateSteadyStateError(
            "trace-row system is singular: the stationary state is not unique")]
    xs, rconds = map(np.concatenate, zip(*halves))
    # x lists the populations rho_II first, so their sum is the trace; a point
    # that fails the rcond floor may divide by 0 here, and is refused below
    with np.errstate(all="ignore"):
        xs /= xs[:, :basis.dim].sum(axis=1).real[:, None]
        norms = np.abs(blocks).sum(axis=2).max(axis=1)
        residuals = np.abs(blocks @ xs[..., None]).max(axis=(1, 2))
    rhos = np.zeros((len(blocks), basis.dim, basis.dim), dtype=complex)
    rhos[:, ket, bra] = xs
    states = []
    for rho, rcond, norm, residual in zip(rhos, rconds, norms, residuals):
        if not rcond >= _RCOND_FLOOR:  # NaN fails too
            states.append(DegenerateSteadyStateError(
                f"trace-row system is numerically singular (rcond = {rcond:.2e}): "
                "the stationary state is not unique"))
        else:
            states.append(_residual_error(residual, norm, "B") or DensityMatrix(basis, rho))
    return states


def _solve_trace_rows(blocks: np.ndarray, d: int) -> tuple[np.ndarray, np.ndarray]:
    """x with B'x = e_0 and the exact 1-norm rcond of its real form R', for each k = 0 block B of a stack.

    B' is B with its first (redundant) row replaced by the trace functional.
    x lists the d entries rho_II, then rho_IJ for each I < J, then each
    partner rho_JI. With x = Ty and y = (rho_II, Re rho_IJ, Im rho_IJ), R' =
    T^-1 B' T is real for a generator that keeps Hermiticity, and is read off
    the rows of rho_II and rho_IJ alone; one that does not fails the residual
    on B. y is column 0 of R'^-1, and rcond = 1 / (||R'||_1 ||R'^-1||_1).
    Raises LinAlgError when any R' is exactly singular.
    """
    h = (blocks.shape[-1] + d) // 2
    top, low = blocks[:, :h], blocks[:, d:h]
    # a rate near DBL_MAX overflows here; its rcond, NaN or 0, refuses the point quietly
    with np.errstate(all="ignore"):
        systems = np.empty(blocks.shape)
        systems[:, :h, :d], systems[:, h:, :d] = top[..., :d].real, low[..., :d].imag
        # parts of the sums and differences of the rho_IJ and rho_JI columns, written
        # in place; a difference is negated, not swapped, so its zeros keep their sign
        np.add(top[..., d:h].real, top[..., h:].real, out=systems[:, :h, d:h])
        np.add(low[..., d:h].imag, low[..., h:].imag, out=systems[:, h:, d:h])
        np.subtract(top[..., d:h].imag, top[..., h:].imag, out=systems[:, :h, h:])
        np.negative(systems[:, :h, h:], out=systems[:, :h, h:])
        np.subtract(low[..., d:h].real, low[..., h:].real, out=systems[:, h:, h:])
        # T leaves row 0, rho_00's, as it is, so the trace row is set after it
        systems[:, 0] = 0.0
        systems[:, 0, :d] = 1.0
        inverses = np.linalg.inv(systems)
        xs = inverses[:, :, 0].astype(complex)
        # neither array is read again, so each holds its own magnitudes
        norms = np.abs(systems, out=systems).sum(axis=1).max(axis=1)
        norms *= np.abs(inverses, out=inverses).sum(axis=1).max(axis=1)
    xs[:, d:h].imag = xs[:, h:].real
    xs[:, h:] = xs[:, d:h].conj()
    return xs, 1.0 / norms


def _residual_error(worst: float, norm: float, name: str) -> SteadyStateConvergenceError | None:
    """The error for a residual whose largest magnitude is worst, if it misses _RTOL * norm."""
    if not worst <= _RTOL * norm:  # NaN fails too
        return SteadyStateConvergenceError(
            f"steady-state residual {worst:.3e} exceeds {_RTOL:.1e} * ||{name}||_inf = {_RTOL * norm:.3e}"
        )
    return None


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


def steady_observables(params: ModelParams, n_max: int = 3) -> dict[str, float]:
    """Stationary occupations: photons and the two exciton populations."""
    n_cavity, n_qd1, n_qd2, _ = number_moments(sector_steady_state(params, CompositeBasis(n_max)))
    return {"n_cavity": float(n_cavity), "n_qd1": float(n_qd1), "n_qd2": float(n_qd2)}
