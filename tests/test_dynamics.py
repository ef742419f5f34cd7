import warnings

import numpy as np
import pytest

from dqdcavity import (
    BasisMismatchError,
    CompositeBasis,
    DiagonalizationError,
    OperatorMatrix,
    SpectrumResult,
    UndefinedObservableError,
    annihilation,
    build_liouvillian,
    default_omega_grid,
    dynamics,
    find_spectrum_peaks,
    g2,
    g2_zero,
    pl_spectrum,
    steady_state,
    two_time_correlation,
)

import oracles
from test_steadystate import _oracle_generator


def _decoupled_cavity(laucht):
    return laucht.replace(g1=0.0, g2=0.0, tunneling_T=0.0, zeta=0.0, pump1=0.0, pump2=0.0)


def test_correlation_starts_at_equal_time_moment(laucht):
    basis = CompositeBasis(2)
    lop = build_liouvillian(laucht, basis)
    rho = steady_state(lop)
    a = annihilation(basis)
    one = OperatorMatrix(basis, np.eye(basis.dim))
    corr = two_time_correlation(lop, rho, a.dag(), one, a, np.array([0.0, 1.0]))
    want = oracles.expectation(rho.entries, (a.dag() @ a).entries)
    assert corr.values[0] == pytest.approx(want, rel=1e-10)
    assert not corr.used_expm_fallback


def _oracle_first_order(p, basis, taus):
    """<a^dag(0) a(tau)> from the oracle generator, null vector and expm."""
    gen = _oracle_generator(p, basis)
    a = annihilation(basis).entries
    rho = oracles.null_vector_state(gen)
    return oracles.expm_correlation(gen, rho, a.conj().T, np.eye(basis.dim), a, taus)


def test_eigen_and_expm_propagation_agree(laucht):
    basis = CompositeBasis(1)
    lop = build_liouvillian(laucht, basis)
    rho = steady_state(lop)
    a = annihilation(basis)
    one = OperatorMatrix(basis, np.eye(basis.dim))
    taus = np.linspace(0.0, 40.0, 9)
    ev = two_time_correlation(lop, rho, a.dag(), one, a, taus)
    assert not ev.used_expm_fallback
    ex = _oracle_first_order(laucht, basis, taus)
    scale = np.abs(ev.values[0])
    assert np.abs(ev.values - ex).max() < 1e-8 * scale


def test_expm_fallback_runs_when_eigenbasis_fails(laucht, monkeypatch):
    def broken(*args):
        raise DiagonalizationError("eigenbasis rejected on purpose")

    monkeypatch.setattr(dynamics, "_mode_weights", broken)
    basis = CompositeBasis(1)
    lop = build_liouvillian(laucht, basis)
    rho = steady_state(lop)
    a = annihilation(basis)
    one = OperatorMatrix(basis, np.eye(basis.dim))
    taus = np.linspace(0.0, 40.0, 9)
    corr = two_time_correlation(lop, rho, a.dag(), one, a, taus)
    assert corr.used_expm_fallback
    want = _oracle_first_order(laucht, basis, taus)
    assert np.abs(corr.values - want).max() < 1e-8 * np.abs(want[0])


def test_empty_cavity_coherence_decay_closed_form(laucht):
    # gain/loss-only mode: G(tau) = n exp[(-i w0 - (kappa-P)/2) tau]
    dec = _decoupled_cavity(laucht)
    basis = CompositeBasis(4)
    lop = build_liouvillian(dec, basis)
    rho = steady_state(lop)
    a = annihilation(basis)
    one = OperatorMatrix(basis, np.eye(basis.dim))
    n = oracles.expectation(rho.entries, (a.dag() @ a).entries).real
    taus = np.linspace(0.0, 60.0, 31)
    corr = two_time_correlation(lop, rho, a.dag(), one, a, taus)
    rate = (dec.kappa - dec.cavity_pump) / 2.0
    want = n * np.exp((-1j * dec.omega0 - rate) * taus)
    # residual deviation is the truncated-ladder correction, O(thermal tail)
    assert np.abs(corr.values - want).max() < 1e-4 * n
    # long-delay falloff: 50/kappa is ~24 coherence lifetimes here
    far = two_time_correlation(lop, rho, a.dag(), one, a, np.array([0.0, 50.0 / dec.kappa]))
    assert abs(far.values[1]) < 1e-6 * abs(far.values[0])


def test_correlation_input_validation(laucht):
    basis = CompositeBasis(1)
    lop = build_liouvillian(laucht, basis)
    rho = steady_state(lop)
    a = annihilation(basis)
    one = OperatorMatrix(basis, np.eye(basis.dim))
    with pytest.raises(ValueError):
        two_time_correlation(lop, rho, a.dag(), one, a, np.array([-1.0, 0.0]))
    with pytest.raises(BasisMismatchError):
        two_time_correlation(lop, rho, a.dag(), one, annihilation(CompositeBasis(2)),
                             np.array([0.0]))
    other_rho = steady_state(build_liouvillian(laucht, CompositeBasis(2)))
    with pytest.raises(BasisMismatchError, match="density matrix"):
        two_time_correlation(lop, other_rho, a.dag(), one, a, np.array([0.0]))


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_non_finite_delays_are_refused(laucht, bad, monkeypatch):
    # g2(inf) would otherwise read 0 rather than its limit 1, and g2(nan) nan
    basis = CompositeBasis(1)
    lop = build_liouvillian(laucht, basis)
    rho = steady_state(lop)
    a = annihilation(basis)
    with pytest.raises(ValueError, match="finite"):
        two_time_correlation(lop, rho, a.dag(), a, a.dag() @ a, np.array([0.0, bad]))
    with pytest.raises(ValueError, match="finite"):
        g2(laucht, [bad], n_max=1)

    def build(*args):
        raise AssertionError("g2 built the generator before checking its delays")

    monkeypatch.setattr(dynamics, "build_liouvillian", build)
    with pytest.raises(ValueError, match="finite"):
        g2(laucht, [1.0, bad], n_max=7)


def test_g2_refuses_values_that_are_not_finite(laucht):
    # at tau ~ 1e297 the mode sum overflows to inf and nan
    slow = laucht.replace(kappa=1e-300)
    with pytest.raises(UndefinedObservableError, match=r"delay 1e\+297$"):
        g2(slow, [1e-3, 1e297, 1e299], n_max=2)


def test_g2_overflow_is_reported_as_the_error_alone(laucht):
    # numpy's overflow and invalid-value warnings stay inside g2, whose error
    # already names the delay
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(UndefinedObservableError, match=r"delay 1e\+297$"):
            g2(laucht.replace(kappa=1e-300), [1e-3, 1e297], n_max=2)


def test_spectrum_of_empty_cavity_is_single_line(laucht):
    dec = _decoupled_cavity(laucht)
    grid = np.linspace(dec.omega0 - 1.5, dec.omega0 + 1.5, 3001)
    spec = pl_spectrum(dec, grid, n_max=6)
    peaks = find_spectrum_peaks(spec)
    assert len(peaks) == 1
    step = grid[1] - grid[0]
    hwhm_want = (dec.kappa - dec.cavity_pump) / 2.0
    assert abs(peaks[0].frequency - dec.omega0) <= step
    assert peaks[0].hwhm == pytest.approx(hwhm_want, rel=0.02)
    # emission sits at positive detuning from zero, near the cavity energy
    assert spec.frequencies[np.argmax(spec.intensities)] > 0


def test_spectrum_sum_rule(laucht):
    # integrated intensity equals the photon escape flux kappa <a^dag a>;
    # the finite window leaves a Lorentzian-tail deficit that shrinks as
    # the grid widens
    basis = CompositeBasis(3)
    rho = steady_state(build_liouvillian(laucht, basis))
    a = annihilation(basis)
    flux = laucht.kappa * oracles.expectation(rho.entries, (a.dag() @ a).entries).real
    narrow = pl_spectrum(laucht, default_omega_grid(laucht), n_max=3)
    total_narrow = np.trapezoid(narrow.intensities, narrow.frequencies)
    assert total_narrow == pytest.approx(flux, rel=0.02)
    wide_grid = np.linspace(laucht.omega0 - 12.0, laucht.omega0 + 12.0, 8001)
    wide = pl_spectrum(laucht, wide_grid, n_max=3)
    total_wide = np.trapezoid(wide.intensities, wide_grid)
    assert total_wide == pytest.approx(flux, rel=0.005)
    assert abs(total_wide - flux) < abs(total_narrow - flux)


def test_spectrum_matches_half_fourier_of_correlation(laucht):
    taus = np.arange(0.0, 600.0 + 1e-9, 0.05)
    corr = _oracle_first_order(laucht, CompositeBasis(2), taus)
    grid = default_omega_grid(laucht, points=401)
    spec = pl_spectrum(laucht, grid, n_max=2)
    # demodulate so the trapezoid only sees the slow envelope
    envelope = corr * np.exp(1j * laucht.omega0 * taus)
    brute = laucht.kappa * oracles.half_fourier(taus, envelope, grid - laucht.omega0)
    assert np.abs(brute - spec.intensities).max() < 1e-4 * spec.intensities.max()


def test_spectrum_metadata_and_component_filter(laucht):
    grid = default_omega_grid(laucht, points=201)
    spec = pl_spectrum(laucht, grid, n_max=2)
    assert spec.kappa == laucht.kappa
    assert spec.omega0 == laucht.omega0
    assert np.allclose(spec.offsets, spec.frequencies - laucht.omega0)
    dim = CompositeBasis(2).dim
    assert 0 < spec.poles.size < dim * dim  # negligible modes dropped
    for pole in spec.poles:
        assert pole.real <= 1e-12  # stable modes only


def test_dark_cavity_spectrum_has_no_modes(laucht):
    dark = laucht.replace(pump1=0.0, pump2=0.0, cavity_pump=0.0)
    spec = pl_spectrum(dark, default_omega_grid(dark, points=21), n_max=1)
    assert spec.poles.size == 0
    assert spec.amplitudes.size == 0
    assert np.array_equal(spec.intensities, np.zeros(21))
    assert find_spectrum_peaks(spec) == []


def test_peak_detector_on_synthetic_lines():
    grid = np.linspace(-2.0, 2.0, 4001)
    truth = [(-0.7, 0.05, 1.0), (0.1, 0.02, 0.4), (0.9, 0.08, 0.7)]
    y = sum(oracles.lorentzian(grid, c, w, s) for c, w, s in truth)
    spec = SpectrumResult(
        frequencies=grid, offsets=grid, intensities=y,
        amplitudes=np.array([1.0 + 0j]), poles=np.array([-1.0 + 0j]),
        kappa=1.0, omega0=0.0,
    )
    peaks = find_spectrum_peaks(spec)
    assert len(peaks) == 3
    for pk, (center, hwhm, _) in zip(peaks, truth):
        assert abs(pk.frequency - center) <= grid[1] - grid[0]
        assert pk.hwhm == pytest.approx(hwhm, rel=0.1)


def test_peak_detector_finds_nothing_without_an_interior_peak(laucht):
    two_points = pl_spectrum(laucht, default_omega_grid(laucht, points=2), n_max=1)
    # far above every line the intensity only falls
    tail = pl_spectrum(laucht, np.linspace(1230.0, 1232.0, 201), n_max=1)
    assert np.all(np.diff(tail.intensities) < 0.0)
    assert find_spectrum_peaks(two_points) == []
    assert find_spectrum_peaks(tail) == []


def test_peak_detector_needs_uniform_grid():
    grid = np.geomspace(0.1, 1.0, 64)
    spec = SpectrumResult(
        frequencies=grid, offsets=grid, intensities=np.ones_like(grid),
        amplitudes=np.array([1.0 + 0j]), poles=np.array([-1.0 + 0j]),
        kappa=1.0, omega0=0.0,
    )
    with pytest.raises(ValueError, match="uniform"):
        find_spectrum_peaks(spec)


def test_thermal_photons_bunch(laucht):
    dec = _decoupled_cavity(laucht)
    _, g2_want = oracles.thermal_cavity_moments(dec.cavity_pump, dec.kappa)
    assert g2_zero(dec, n_max=8) == pytest.approx(g2_want, abs=1e-6)


def test_g2_normalization_variants(fig3):
    # frozen regression: strongly pumped preset antibunches at zero delay
    assert g2_zero(fig3, n_max=3) == pytest.approx(0.847522765751644, rel=1e-9)
    assert g2_zero(fig3, n_max=3) < 1.0


def test_g2_curve_shape_and_long_delay_limit(laucht):
    taus = np.array([0.0, 1.0 / laucht.kappa, 100.0 / laucht.kappa])
    curve = g2(laucht, taus, n_max=2)
    assert isinstance(curve, list) and len(curve) == 3
    for tau, val in curve:
        assert isinstance(tau, float) and isinstance(val, float)
    assert curve[0][1] == pytest.approx(g2_zero(laucht, n_max=2), rel=1e-8)
    assert curve[-1][1] == pytest.approx(1.0, abs=1e-3)


def test_spectrum_raises_when_eigendecomposition_fails(laucht, monkeypatch):
    def eig(*args):
        raise np.linalg.LinAlgError("eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eig", eig)
    with pytest.raises(DiagonalizationError, match="did not converge"):
        pl_spectrum(laucht, n_max=1)


def test_g2_undefined_for_dark_cavity(laucht):
    dark = laucht.replace(pump1=0.0, pump2=0.0, cavity_pump=0.0, zeta=0.0)
    with pytest.raises(UndefinedObservableError):
        g2_zero(dark, n_max=2)


def test_default_grids(laucht):
    grid = default_omega_grid(laucht)
    assert len(grid) == 2001
    assert grid[0] == pytest.approx(laucht.omega0 - 3.0)
    assert grid[-1] == pytest.approx(laucht.omega0 + 3.0)


@pytest.mark.parametrize("n_max", [3, 5])
def test_sector_spectrum_matches_dense_resolvent(laucht, n_max):
    # I(w) = (kappa/pi) Re Tr[a (-L - i w)^{-1} (rho a^dag)] on the full generator,
    # one linear solve per frequency and no eigendecomposition
    basis = CompositeBasis(n_max)
    lop = build_liouvillian(laucht, basis)
    rho = steady_state(lop).entries
    a = annihilation(basis).entries
    seed = (rho @ a.conj().T).reshape(-1, order="F")
    row = a.ravel(order="C")
    omegas = np.linspace(laucht.omega0 - 3.0, laucht.omega0 + 3.0, 41)
    eye = np.eye(basis.dim**2)
    want = np.array([
        laucht.kappa / np.pi * (row @ np.linalg.solve(-lop.entries - 1j * w * eye, seed)).real
        for w in omegas
    ])
    got = pl_spectrum(laucht, omegas, n_max=n_max).intensities
    assert np.abs(got - want).max() < 1e-9 * np.abs(want).max()


def test_sector_spectrum_poles_are_generator_eigenvalues(laucht):
    basis = CompositeBasis(3)
    eigs = np.linalg.eigvals(build_liouvillian(laucht, basis).entries)
    poles = pl_spectrum(laucht, n_max=3).poles
    assert poles.size > 0
    assert max(np.abs(eigs - pole).min() for pole in poles) < 1e-9
