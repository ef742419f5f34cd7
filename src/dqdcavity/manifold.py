"""Transition block between the zero- and one-excitation manifolds.

With gain channels switched off, coherences between one-excitation kets and the
vacuum bra evolve under a closed 3x3 non-Hermitian block of the generator. Its
eigenvalues encode the emission lines: |imaginary part| is the transition
frequency, |real part| the half width at half maximum. Eigenvalue collisions of
this block are the exceptional points where lines coalesce.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hilbert import G, X, CompositeBasis, frozen_array
from .liouvillian import build_liouvillian, effective_hamiltonian
from .model import ModelParams, phat_rates


@dataclass(frozen=True)
class TransitionLine:
    """One emission line: absolute frequency, offset from the cavity, half width."""

    frequency: float
    offset: float
    hwhm: float
    eigenvalue: complex


def transition_matrix_explicit(params: ModelParams) -> np.ndarray:
    """Closed-form 3x3 block in the ket order (|1GG>, |0XG>, |0GX>).

    Diagonal entries carry the state energy minus i/2 times its total outflow
    rate (cavity loss, exciton decay, and the PhAT channel that empties the
    state); off-diagonals are the coherent couplings g1, g2 and the tunneling
    amplitude. The whole matrix is divided by i so eigenvalue imaginary parts
    are frequencies.
    """
    rates = phat_rates(params)
    m = np.array(
        [
            [params.omega0 - 0.5j * params.kappa, params.g1, params.g2],
            [
                params.g1,
                params.omega1 - 0.5j * params.gamma1 - 0.5j * rates.p_T,
                params.tunneling_T,
            ],
            [
                params.g2,
                params.tunneling_T,
                params.omega2 - 0.5j * params.gamma2 - 0.5j * rates.gamma_T,
            ],
        ],
        dtype=complex,
    )
    return m / 1j


def _manifold_indices(basis: CompositeBasis) -> tuple[list[int], list[int]]:
    zero = [basis.index_of(0, G, G)]
    one = [basis.index_of(1, G, G), basis.index_of(0, X, G), basis.index_of(0, G, X)]
    return zero, one


def _gains_off(params: ModelParams) -> ModelParams:
    return params.replace(pump1=0.0, pump2=0.0, cavity_pump=0.0)


def transition_matrix_generic(params: ModelParams, basis: CompositeBasis) -> np.ndarray:
    """Same block read off the generator's K, without closed-form input.

    With the gains zeroed every jump operator empties the vacuum, so
    K = -iH - sum_k r_k O_k^dag O_k / 2 annihilates |0GG> and the generator
    acts on (one-excitation ket, vacuum bra) coherences as K on the ket alone:
    the block is K on the one-excitation kets. Must agree with
    transition_matrix_explicit to machine precision.
    """
    k = effective_hamiltonian(_gains_off(params), basis)
    _, one = _manifold_indices(basis)
    return k[np.ix_(one, one)]


def transition_lines(params: ModelParams) -> tuple[TransitionLine, TransitionLine, TransitionLine]:
    """The three emission lines, sorted by frequency then width (both ascending)."""
    eigvals = np.linalg.eigvals(transition_matrix_explicit(params))
    lines = [
        TransitionLine(
            frequency=abs(float(lam.imag)),
            offset=abs(float(lam.imag)) - params.omega0,
            hwhm=abs(float(lam.real)),
            eigenvalue=complex(lam),
        )
        for lam in eigvals
    ]
    lines.sort(key=lambda ln: (ln.frequency, ln.hwhm))
    return tuple(lines)


def liouvillian_block_crosscheck(params: ModelParams, basis: CompositeBasis) -> float:
    """Max entrywise gap between the K-slice block and the full generator's, gains off.

    Both dot pumps and the cavity feed are zeroed first. The generator
    rows/columns belonging to (one-excitation ket, vacuum bra) coherences are
    then extracted from the assembled superoperator and compared with
    transition_matrix_generic; the two agree to machine precision. With the
    gains on, K no longer annihilates |0GG> and the generator's block moves
    off transition_matrix_generic, so agreement here is not automatic.
    """
    params = _gains_off(params)
    lio = build_liouvillian(params, basis)
    zero, one = _manifold_indices(basis)
    d = basis.dim
    # rho[r, c] sits at vectorized index c*d + r; the vacuum bra has c = 0
    vec_idx = [zero[0] * d + r for r in one]
    sub = lio.entries[np.ix_(vec_idx, vec_idx)]
    target = transition_matrix_generic(params, basis)
    return float(np.abs(sub - target).max())


@dataclass(frozen=True)
class ExceptionalPointScan:
    """Line-coalescence scan along the PhAT coupling axis at fixed tunneling.

    min_gaps[i] is the smallest adjacent frequency spacing among the three
    lines at zetas[i]; width_gaps[i] is the width spacing of that same pair.
    zeta_star marks the global minimum: past an exceptional point frequencies
    merge while widths split, so a deep minimum with a sizable width gap is
    the coalescence signature.
    """

    zetas: np.ndarray
    min_gaps: np.ndarray
    width_gaps: np.ndarray
    zeta_star: float
    min_gap: float
    width_gap_at_star: float

    def __post_init__(self):
        for name in ("zetas", "min_gaps", "width_gaps"):
            object.__setattr__(self, name, frozen_array(getattr(self, name), float))


def exceptional_point_scan(params: ModelParams) -> ExceptionalPointScan:
    """Scan zeta for the closest approach of two transition-line frequencies.

    The scan runs over 200 log-spaced zeta values from 1e-3 to 10 meV.
    """
    zetas = np.geomspace(1e-3, 10.0, 200)
    min_gaps = np.empty(zetas.size)
    width_gaps = np.empty(zetas.size)
    for i, z in enumerate(zetas):
        lines = transition_lines(params.replace(zeta=float(z)))
        freq_gaps = [lines[1].frequency - lines[0].frequency, lines[2].frequency - lines[1].frequency]
        pair = int(np.argmin(freq_gaps))
        min_gaps[i] = freq_gaps[pair]
        width_gaps[i] = abs(lines[pair + 1].hwhm - lines[pair].hwhm)
    best = int(np.argmin(min_gaps))
    return ExceptionalPointScan(
        zetas=zetas,
        min_gaps=min_gaps,
        width_gaps=width_gaps,
        zeta_star=float(zetas[best]),
        min_gap=float(min_gaps[best]),
        width_gap_at_star=float(width_gaps[best]),
    )
