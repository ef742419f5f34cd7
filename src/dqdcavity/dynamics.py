"""Two-time correlations, emission spectrum, and photon statistics.

Everything here rides on the regression property of the master equation: a
correlation Tr[A e^{L tau}(C rho B)] is obtained by propagating the seeded
matrix C rho B with the same generator as the state. The spectrum is the
half-Fourier transform of <a^dag(0) a(tau)> in the steady state, evaluated
exactly as a sum of complex Lorentzians over generator eigenvalues. Its seed
rho a^dag lies in the k = N_ket - N_bra = +1 sector, so pl_spectrum
eigendecomposes that block alone (m = 46 of d^2 = 256 at n_max 3). rho_ss is
the k = 0 sector solve; g2(tau) still propagates on the dense generator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BasisMismatchError, DiagonalizationError, UndefinedObservableError
from .hilbert import CompositeBasis, OperatorMatrix, frozen_array
from .liouvillian import SuperoperatorMatrix, build_liouvillian, sector_block, sector_indices, vec
from .model import ModelParams, model_terms
from .steadystate import DensityMatrix, number_moments, sector_steady_state
# bound here only because perfbench/tracing.py patches them under these names
from .hilbert import annihilation  # noqa: F401
from .steadystate import steady_state  # noqa: F401

# relative residue cutoff; modes this far below the strongest carry no weight
_AMPLITUDE_CUTOFF = 1e-14
# peaks need at least this fraction of the maximum intensity as prominence
_PEAK_REL_PROMINENCE = 0.05
# default spectrum window: this far either side of the cavity energy (meV)
_OMEGA_HALF_SPAN = 3.0
# bytes of one (modes x block) complex temporary of a mode sum, the last block's
# extra point included, up to 2,560 modes (the 2-point floor goes past it
# above): under glibc's default 128 KiB mmap threshold, so the temporaries come
# from the heap whatever an earlier free did to that threshold
_KERNEL_BYTES = 120 * 1024


def lorentzian_sum(omegas: np.ndarray, amplitudes: np.ndarray, poles: np.ndarray) -> np.ndarray:
    """Sum of complex Lorentzians Re[c_k / (-lambda_k - i w)] on a frequency grid.

    Parameters
    ----------
    omegas : real array, shape (n_w,)
        Finite frequencies; anything else raises ValueError.
    amplitudes : complex array, shape (n_k,)
        Residues c_k.
    poles : complex array, shape (n_k,)
        Generator eigenvalues lambda_k (Re <= 0 for a relaxing system).
    """
    omegas = _grid(omegas, "frequencies", nonnegative=False)
    amplitudes = np.asarray(amplitudes, dtype=complex)
    poles = np.asarray(poles, dtype=complex)
    if amplitudes.shape != poles.shape:
        raise ValueError("amplitudes and poles must have identical shapes")
    return _mode_sum(
        omegas, lambda w: (amplitudes[:, None] / (-poles[:, None] - 1j * w[None, :])).real,
        poles.size,
    )


def exp_decay_sum(taus: np.ndarray, weights: np.ndarray, rates: np.ndarray) -> np.ndarray:
    """Complex mode sum sum_k w_k exp(lambda_k tau) on a 1-D grid of finite delays."""
    taus = _grid(taus, "delay times", nonnegative=False)
    weights = np.asarray(weights, dtype=complex)
    rates = np.asarray(rates, dtype=complex)
    if weights.shape != rates.shape:
        raise ValueError("weights and rates must have identical shapes")
    return _mode_sum(
        taus, lambda t: weights[:, None] * np.exp(rates[:, None] * t[None, :]), rates.size
    )


def _block_points(modes: int) -> int:
    """Grid points per block of a mode sum over modes terms, at least 2.

    One point fewer than _KERNEL_BYTES of complex holds, so the last block,
    which may take one extra point, fits the budget too.
    """
    return max(2, _KERNEL_BYTES // (16 * max(1, modes)) - 1)


def _mode_sum(grid: np.ndarray, terms, modes: int) -> np.ndarray:
    """np.sum(terms(grid), axis=0) for terms of shape (modes, points), a block at a time.

    Each block holds _block_points(modes) grid points, and the last one up to
    one more, so no block of a grid of two or more points has a single point:
    numpy sums one column pairwise instead of mode by mode, which would move
    the last bits of that point.
    """
    step = _block_points(modes)
    blocks = np.split(grid, range(step, grid.size - 1, step))
    return np.concatenate([np.sum(terms(block), axis=0) for block in blocks])


@dataclass(frozen=True)
class CorrelationResult:
    """Samples of G(tau) = <op_left(0) op_obs(tau) op_right(0)> in the steady state."""

    taus: np.ndarray
    values: np.ndarray
    # always False: there is no fallback, but perfbench/tracing.py reads the field
    used_expm_fallback: bool = False

    def __post_init__(self):
        object.__setattr__(self, "taus", frozen_array(self.taus, float))
        object.__setattr__(self, "values", frozen_array(self.values, complex))
        if self.taus.shape != self.values.shape:
            raise ValueError("taus and values must have identical shapes")


@dataclass(frozen=True)
class SpectrumResult:
    """Emission intensity on a frequency grid plus its Lorentzian mode content.

    frequencies are absolute (meV); offsets are frequencies - omega0. Each
    retained residue amplitudes[k] = c_k pairs with the generator eigenvalue
    poles[k] = lambda_k; summing Re[c_k / (-lambda_k - i w)] times kappa/pi
    over k reproduces intensities exactly.
    """

    frequencies: np.ndarray
    offsets: np.ndarray
    intensities: np.ndarray
    amplitudes: np.ndarray
    poles: np.ndarray
    kappa: float
    omega0: float

    def __post_init__(self):
        for name in ("frequencies", "offsets", "intensities"):
            object.__setattr__(self, name, frozen_array(getattr(self, name), float))
        for name in ("amplitudes", "poles"):
            object.__setattr__(self, name, frozen_array(getattr(self, name), complex))
        if self.amplitudes.shape != self.poles.shape:
            raise ValueError("amplitudes and poles must have identical shapes")


@dataclass(frozen=True)
class SpectrumPeak:
    """One detected spectral peak: position, height, and half width from the grid."""

    frequency: float
    offset: float
    height: float
    hwhm: float
    prominence: float


def _mode_weights(
    l_entries: np.ndarray, seed: np.ndarray, obs_row: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Decompose obs_row @ e^{Lt} @ seed into sum_k w_k exp(lambda_k t).

    Raises DiagonalizationError when the eigenbasis fails to reproduce the
    t = 0 value, which is the practical symptom of a defective or severely
    ill-conditioned eigenvector matrix. The error is judged against the scale
    max|obs_row| * sum|seed|, which does not depend on the eigenbasis under
    test and is 0 only when the seed or the read-out is.
    """
    try:
        lams, vmat = np.linalg.eig(l_entries)
        coeff = np.linalg.solve(vmat, seed)
    except np.linalg.LinAlgError as exc:
        raise DiagonalizationError(f"generator eigendecomposition failed: {exc}") from exc
    weights = (obs_row @ vmat) * coeff
    direct = complex(obs_row @ seed)
    recon = complex(weights.sum())
    scale = float(np.abs(obs_row).max(initial=0.0) * np.abs(seed).sum())
    if not abs(recon - direct) <= 1e-8 * scale:  # NaN fails too
        raise DiagonalizationError(
            f"eigenbasis reconstruction off by {abs(recon - direct):.3e} "
            f"(scale {scale:.3e}) at tau = 0"
        )
    return weights, lams


def _grid(values, name: str, *, nonnegative: bool) -> np.ndarray:
    """values as a 1-D float array, each checked to be finite, and >= 0 if nonnegative."""
    values = np.atleast_1d(np.asarray(values, dtype=float))
    if values.ndim != 1:
        raise ValueError(f"{name} must be a 1-D array, got shape {values.shape}")
    if not np.isfinite(values).all() or (nonnegative and (values < 0.0).any()):
        raise ValueError(f"{name} must be finite" + (" and >= 0" if nonnegative else ""))
    return values


def two_time_correlation(
    liouvillian: SuperoperatorMatrix,
    rho_ss: DensityMatrix,
    op_left: OperatorMatrix,
    op_right: OperatorMatrix,
    op_obs: OperatorMatrix,
    taus,
) -> CorrelationResult:
    """G(tau) = Tr[op_obs unvec(e^{L tau} vec(op_right rho_ss op_left))], finite tau >= 0.

    The seed op_right rho op_left places op_left at time zero on the left of
    the time-tau observable and op_right on its right, so
    G(0) = <op_left op_obs op_right> in the steady state.

    The seed is expanded over generator eigenvectors. Raises
    DiagonalizationError when the eigenbasis is unusable, as pl_spectrum does.
    """
    basis = liouvillian.basis
    for op in (op_left, op_right, op_obs):
        if op.basis != basis:
            raise BasisMismatchError("correlation operators must share the generator's basis")
    if rho_ss.basis != basis:
        raise BasisMismatchError("density matrix basis does not match the generator")
    taus = _grid(taus, "delay times", nonnegative=True)

    seed = vec(op_right.entries @ rho_ss.entries @ op_left.entries)
    obs_row = vec(op_obs.entries.T)  # Tr[A X] = vec(A^T) . vec(X)

    weights, lams = _mode_weights(liouvillian.entries, seed, obs_row)
    return CorrelationResult(taus, exp_decay_sum(taus, weights, lams))


def default_omega_grid(params: ModelParams, points: int = 2001) -> np.ndarray:
    """Uniform frequency grid over omega0 +- 3 meV."""
    if points < 2:
        raise ValueError(f"need at least 2 grid points, got {points}")
    return np.linspace(params.omega0 - _OMEGA_HALF_SPAN, params.omega0 + _OMEGA_HALF_SPAN, points)


def pl_spectrum(
    params: ModelParams,
    omega_grid=None,
    *,
    n_max: int = 3,
) -> SpectrumResult:
    """Cavity emission spectrum I(w) = (kappa/pi) Re sum_k c_k / (-lambda_k - i w).

    The residues c_k come from expanding rho_ss a^dag over the eigenvectors
    of the generator's k = +1 block and reading out with a, i.e. the
    half-Fourier transform of <a^dag(0) a(tau)>. The seed and the read-out
    vanish outside that sector, so the other sectors' modes carry no weight.
    No overall normalization beyond the kappa/pi prefactor, so integrating I
    over a wide grid recovers kappa <a^dag a>. Modes whose residue is below
    1e-14 of the largest are dropped.
    """
    if omega_grid is None:
        omega_grid = default_omega_grid(params)
    omega_grid = _grid(omega_grid, "frequencies", nonnegative=False)
    basis = CompositeBasis(n_max)
    rho = sector_steady_state(params, basis)
    ket, bra, _ = sector_indices(n_max, 1)
    a = model_terms(n_max)[2]["kappa"]  # the cavity-loss operator
    seed = (rho.entries @ a.conj().T)[ket, bra]
    obs_row = a.T[ket, bra]  # Tr[a X] reads X[i, j] with a[j, i]
    weights, lams = _mode_weights(sector_block(params, basis, 1), seed, obs_row)
    top = float(np.abs(weights).max(initial=0.0))
    keep = np.abs(weights) > _AMPLITUDE_CUTOFF * top
    weights, lams = weights[keep], lams[keep]
    intensities = (params.kappa / np.pi) * lorentzian_sum(omega_grid, weights, lams)
    return SpectrumResult(
        frequencies=omega_grid,
        offsets=omega_grid - params.omega0,
        intensities=intensities,
        amplitudes=weights,
        poles=lams,
        kappa=params.kappa,
        omega0=params.omega0,
    )


def find_spectrum_peaks(spectrum: SpectrumResult) -> list[SpectrumPeak]:
    """Peaks of the intensity curve with prominence >= 0.05 * max.

    Requires a uniform frequency grid. Peaks, prominences and widths follow
    three rules:

    - A local maximum is an interior run of equal samples that rises before
      and falls after; its peak index is (left + right) // 2. The first and
      last samples are never peaks.
    - Its bases are the lowest samples met walking out from the peak on each
      side, until the first sample strictly higher than the peak or the
      grid's end; on ties, the one nearest the peak. The prominence is the
      height minus the higher base.
    - The width is taken at height - prominence / 2, walking out from the
      peak no further than each base while the curve stays above it, and
      interpolating linearly at the crossing. The half width is half of it,
      which for an isolated line on a flat background is the usual
      Lorentzian HWHM.
    """
    freqs = spectrum.frequencies
    y = spectrum.intensities
    if freqs.size < 3:
        return []
    steps = np.diff(freqs)
    dw = steps[0]
    if dw <= 0 or not np.allclose(steps, dw, rtol=1e-9, atol=0.0):
        raise ValueError("peak detection requires a uniformly spaced frequency grid")
    top = float(y.max(initial=0.0))
    if top <= 0.0:
        return []
    return [
        SpectrumPeak(
            frequency=float(freqs[i]),
            offset=float(freqs[i] - spectrum.omega0),
            height=float(y[i]),
            hwhm=float(0.5 * w * dw),
            prominence=float(p),
        )
        for i, p, w in zip(*_peaks(y, _PEAK_REL_PROMINENCE * top))
    ]


def _peaks(y: np.ndarray, min_prominence: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Indices, prominences and widths (in samples) of y's peaks with prominence >= min_prominence."""
    found = []
    # inf and NaN samples pass through the arithmetic below without a warning
    with np.errstate(all="ignore"):
        for peak in _local_maxima(y):
            height = y[peak]
            higher = np.flatnonzero(~(y <= height))  # a NaN ends the walk too
            at = np.searchsorted(higher, peak)
            lo = higher[at - 1] + 1 if at else 0
            hi = higher[at] if at < higher.size else y.size
            left = peak - np.argmin(y[lo:peak + 1][::-1])
            right = peak + np.argmin(y[peak:hi])
            prominence = height - max(y[left], y[right])
            if prominence >= min_prominence:
                width = _width(y, peak, left, right, height - prominence * 0.5)
                found.append((peak, prominence, width))
    idx, prominences, widths = zip(*found) if found else ((), (), ())
    return np.array(idx, dtype=np.intp), np.array(prominences, float), np.array(widths, float)


def _local_maxima(y: np.ndarray) -> np.ndarray:
    """Midpoints of the interior runs of equal samples that rise before and fall after."""
    ends = np.flatnonzero(y[1:] != y[:-1])  # k where a run ends: y[k + 1] differs from y[k]
    lefts = np.flatnonzero(y[:-2] < y[1:-1]) + 1
    at = np.searchsorted(ends, lefts)
    ended = at < ends.size  # a run that reaches the last sample is no peak
    lefts, rights = lefts[ended], ends[at[ended]]
    falls = y[rights + 1] < y[rights]
    return (lefts[falls] + rights[falls]) // 2


def _width(y: np.ndarray, peak: int, left: int, right: int, height: float) -> float:
    """Width of the peak where y crosses height, searched no further than its bases."""
    stop = np.flatnonzero(~(y[left + 1:peak + 1] > height))
    i = left + 1 + stop[-1] if stop.size else left
    left_ip = float(i)
    if y[i] < height:
        left_ip += (height - y[i]) / (y[i + 1] - y[i])
    stop = np.flatnonzero(~(y[peak:right] > height))
    i = peak + stop[0] if stop.size else right
    right_ip = float(i)
    if y[i] < height:
        right_ip -= (height - y[i]) / (y[i - 1] - y[i])
    return right_ip - left_ip


def _photon_number(n_avg: float) -> float:
    """<a^dag a> as a float; raises when it is too small to normalize g2 by."""
    n_avg = float(n_avg)
    if n_avg <= 1e-12:
        raise UndefinedObservableError(
            f"photon number {n_avg:.3e} too small for a normalized g2"
        )
    return n_avg


def g2_zero(params: ModelParams, *, n_max: int = 3) -> float:
    """g2(0) = <a^dag a^dag a a> / <a^dag a>^2 from the steady state alone."""
    return g2_zero_from_state(sector_steady_state(params, CompositeBasis(n_max)))


def g2_zero_from_state(rho: DensityMatrix) -> float:
    """Equal-time g2 evaluated on an already-computed steady state."""
    return g2_zero_from_moments(number_moments(rho))


def g2_zero_from_moments(moments: np.ndarray) -> float:
    """Equal-time g2 from a state's steadystate.number_moments."""
    n_avg, _, _, pairs = moments
    return float(pairs) / _photon_number(n_avg) ** 2


def g2(params: ModelParams, taus, *, n_max: int = 3) -> list[tuple[float, float]]:
    """Normalized second-order coherence g2(tau) on a delay grid (units hbar/meV).

    g2(tau) = Tr[a^dag a e^{L tau}(a rho_ss a^dag)] / <a^dag a>^2. Raises
    UndefinedObservableError when the steady photon number is negligible or
    g2 is not finite at some delay.
    """
    taus = _grid(taus, "delay times", nonnegative=True)
    basis = CompositeBasis(n_max)
    rho = sector_steady_state(params, basis)
    n_avg = _photon_number(number_moments(rho)[0])
    energies, _, channels = model_terms(n_max)
    seed = vec(channels["kappa"] @ rho.entries @ channels["cavity_pump"])  # a rho a^dag
    obs_row = vec(energies["omega0"].T)  # Tr[a^dag a X] = vec((a^dag a)^T) . vec(X)
    # a mode sum that overflows is refused below, by delay, rather than warned about
    with np.errstate(over="ignore", invalid="ignore"):
        weights, lams = _mode_weights(build_liouvillian(params, basis).entries, seed, obs_row)
        normalized = exp_decay_sum(taus, weights, lams).real / n_avg**2
    bad = ~np.isfinite(normalized)
    if bad.any():
        raise UndefinedObservableError(f"g2 is not finite at delay {float(taus[bad][0])}")
    return [(float(t), float(v)) for t, v in zip(taus, normalized)]
