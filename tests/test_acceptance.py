"""End-to-end acceptance checklist.

Each check prints exactly one PASS/FAIL line on the live console so a
full run reads as a report. Two checks are currently expected to fail;
they assert qualitative targets that the model, evaluated faithfully at
the pinned strong-coupling operating point, does not reproduce (details
in the printed lines and in the repository README).
"""

import numpy as np
import pytest

import dqdcavity as dq
from dqdcavity import (
    CompositeBasis,
    build_liouvillian,
    default_omega_grid,
    exceptional_point_scan,
    find_spectrum_peaks,
    g2_zero,
    liouvillian_block_crosscheck,
    pl_spectrum,
    run_sweep,
    steady_observables,
    steady_state,
    thermal_occupation,
    transition_lines,
    transition_matrix_explicit,
    transition_matrix_generic,
    vec,
)
from dqdcavity.sweep import SweepAxis, SweepSpec

import oracles
from test_manifold import _random_params

GRID_LO, GRID_HI = 1e-3, 10.0


def _report(capfd, num: int, ok: bool, detail: str):
    with capfd.disabled():
        print(f"ACCEPTANCE CRITERION {num:02d}: {'PASS' if ok else 'FAIL'} - {detail}")
    if not ok:
        pytest.fail(detail)


@pytest.fixture(scope="module")
def laucht():
    return dq.preset("laucht-strong")


@pytest.fixture(scope="module")
def fig3():
    return dq.preset("fig3-right")


@pytest.fixture(scope="module")
def population_sweep_spec(laucht):
    # the population-map trend is tied to the source experiment's measured
    # couplings; the strong-coupling preset raises g tenfold, which flattens
    # and reverses it (see README), so the map is evaluated at the measured
    # values with every other rate identical
    figure_params = laucht.replace(g1=0.044, g2=0.051)
    return SweepSpec(
        params=figure_params,
        axis1=SweepAxis("tunneling_T", GRID_LO, GRID_HI, 20),
        axis2=SweepAxis("zeta", GRID_LO, GRID_HI, 20),
        observables=("n_cavity", "n_qd1", "n_qd2"),
        n_max=3,
    )


@pytest.fixture(scope="module")
def population_sweep(population_sweep_spec):
    return run_sweep(population_sweep_spec, parallelism=1)


def test_criterion_01_thermal_occupation(capfd):
    value = thermal_occupation(0.1, 4.0)
    ok = abs(value - 2.97) <= 0.01
    _report(capfd, 1, ok, f"n_th(0.1 meV, 4 K) = {value:.4f} (target 2.97 +- 0.01)")


def test_criterion_02_single_dot_rate_balance(capfd):
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(20):
        pump, decay = 10.0 ** rng.uniform(-4, 0, size=2)
        params = dq.ModelParams(
            omega0=1.0, omega1=1.3, omega2=2.0, tunneling_T=0.0, g1=0.0, g2=0.0,
            gamma1=decay, gamma2=0.1, pump1=pump, pump2=0.0, cavity_pump=0.0,
            kappa=0.5, zeta=0.0, temperature=4.0,
        )
        got = steady_observables(params, n_max=1)["n_qd1"]
        want = oracles.two_level_steady_population(pump, decay)
        worst = max(worst, abs(got - want) / want)
    ok = worst < 1e-9
    _report(capfd, 2, ok, f"20 random pump/decay pairs, worst relative error {worst:.2e} (bound 1e-9)")


def test_criterion_03_empty_cavity_moments(capfd, laucht):
    dec = laucht.replace(g1=0.0, g2=0.0, tunneling_T=0.0, zeta=0.0, pump1=0.0, pump2=0.0)
    n_want = dec.cavity_pump / (dec.kappa - dec.cavity_pump)
    n_got = steady_observables(dec, n_max=8)["n_cavity"]
    rel = abs(n_got - n_want) / n_want
    g2_got = g2_zero(dec, n_max=12)
    ok = rel < 1e-6 and abs(g2_got - 2.0) <= 1e-3
    _report(
        capfd, 3, ok,
        f"<n> = {n_got:.6f} vs P/(kappa-P) = {n_want:.6f} (rel {rel:.1e}, bound 1e-6); "
        f"g2(0) = {g2_got:.6f} (target 2 +- 1e-3)",
    )


def test_criterion_04_steady_state_quality_on_grid(capfd, laucht):
    basis = CompositeBasis(3)
    worst_res, worst_tr, worst_eig = 0.0, 0.0, 0.0
    for t in np.geomspace(GRID_LO, GRID_HI, 10):
        for z in np.geomspace(GRID_LO, GRID_HI, 10):
            lop = build_liouvillian(laucht.replace(tunneling_T=float(t), zeta=float(z)), basis)
            rho = steady_state(lop)
            worst_res = max(worst_res, np.abs(lop.apply(vec(rho.entries))).max() / lop.norm_inf())
            worst_tr = max(worst_tr, abs(rho.trace() - 1.0))
            worst_eig = min(worst_eig, rho.min_eigenvalue())
    ok = worst_res < 1e-10 and worst_tr <= 1e-12 and worst_eig >= -1e-8
    _report(
        capfd, 4, ok,
        f"10x10 grid: residual {worst_res:.1e} (<1e-10), trace error {worst_tr:.1e} (<=1e-12), "
        f"min eigenvalue {worst_eig:.1e} (>=-1e-8)",
    )


def test_criterion_05_manifold_consistency(capfd):
    rng = np.random.default_rng(55)
    basis = CompositeBasis(1)
    worst_pair = 0.0
    worst_block = 0.0
    for _ in range(100):
        p = _random_params(rng)
        gap = np.abs(transition_matrix_generic(p, basis) - transition_matrix_explicit(p)).max()
        worst_pair = max(worst_pair, gap)
        worst_block = max(worst_block, liouvillian_block_crosscheck(p, basis))
    ok = worst_pair < 1e-12 and worst_block < 1e-12
    _report(
        capfd, 5, ok,
        f"100 random parameter sets: generic-vs-explicit {worst_pair:.1e}, "
        f"gain-zeroed block {worst_block:.1e} (both < 1e-12)",
    )


def test_criterion_06_every_peak_sits_on_a_line(capfd, laucht):
    violations = []
    for t in (0.01, 0.55, 5.0):
        point = laucht.replace(tunneling_T=t, zeta=0.0)
        freqs = np.array([ln.frequency for ln in transition_lines(point)])
        spec = pl_spectrum(point, default_omega_grid(point), n_max=3)
        for pk in find_spectrum_peaks(spec):
            dist = np.abs(freqs - pk.frequency).min()
            if dist > 0.5 * pk.hwhm:
                violations.append(
                    f"T={t}: peak at offset {pk.offset:+.3f} meV sits {dist:.3f} meV from the "
                    f"nearest line (allowed {0.5 * pk.hwhm:.3f})"
                )
    ok = not violations
    detail = (
        "all detected peaks match a transition line"
        if ok
        else f"{len(violations)} peak(s) off the lines; next-manifold emission at the preset's "
        f"pump rates [{'; '.join(violations)}]"
    )
    _report(capfd, 6, ok, detail)


def test_criterion_07_coalescence_and_single_peak(capfd, laucht):
    scan = exceptional_point_scan(laucht.replace(tunneling_T=0.01))
    merged = scan.min_gap < 1e-2
    split = scan.width_gap_at_star > 1.0
    point = laucht.replace(tunneling_T=5.0, zeta=1e-3)
    spec = pl_spectrum(point, default_omega_grid(point), n_max=3)
    peaks = find_spectrum_peaks(spec)
    top = spec.intensities.max()
    strong = [pk for pk in peaks if pk.height > 0.10 * top]
    ok = merged and split and len(strong) == 1
    _report(
        capfd, 7, ok,
        f"line coalescence: min frequency gap {scan.min_gap:.1e} meV at zeta* = {scan.zeta_star:.3g} "
        f"with width splitting {scan.width_gap_at_star:.2f} meV; "
        f"high-tunneling spectrum has {len(strong)} peak(s) above 10% of max",
    )


def test_criterion_08_population_map_corners(capfd, population_sweep):
    rows = population_sweep.rows
    low = rows[0]
    high = rows[-1]
    assert (low["tunneling_T"], low["zeta"]) == (pytest.approx(GRID_LO), pytest.approx(GRID_LO))
    assert (high["tunneling_T"], high["zeta"]) == (pytest.approx(GRID_HI), pytest.approx(GRID_HI))
    cav_ok = low["n_cavity"] > high["n_cavity"]
    qd_ok = low["n_qd1"] < high["n_qd1"] and low["n_qd2"] < high["n_qd2"]
    ok = cav_ok and qd_ok
    _report(
        capfd, 8, ok,
        f"20x20 map at measured couplings g=(0.044, 0.051): cavity {low['n_cavity']:.4f} -> "
        f"{high['n_cavity']:.4f} (must drop), dot 1 {low['n_qd1']:.4f} -> {high['n_qd1']:.4f}, "
        f"dot 2 {low['n_qd2']:.4f} -> {high['n_qd2']:.4f} (must rise)",
    )


def test_criterion_09_antibunching_region(capfd, fig3):
    values = np.empty((20, 20))
    t_grid = np.geomspace(GRID_LO, GRID_HI, 20)
    z_grid = np.geomspace(GRID_LO, GRID_HI, 20)
    for i, t in enumerate(t_grid):
        for j, z in enumerate(z_grid):
            values[i, j] = g2_zero(fig3.replace(tunneling_T=float(t), zeta=float(z)), n_max=3)
    low_region = values[:10, :10]
    has_antibunching = bool((low_region < 1.0).any())
    t_spread = float(np.ptp(values, axis=0).max())
    ok = has_antibunching and t_spread > 1e-6
    _report(
        capfd, 9, ok,
        f"low-rate quadrant min g2(0) = {low_region.min():.4f} (< 1 required); "
        f"largest spread along the tunneling axis {t_spread:.3f} (non-constant)",
    )


def test_criterion_10_parallel_serial_equivalence(capfd, population_sweep, population_sweep_spec):
    serial_csv = population_sweep.to_csv()
    threaded_csv = run_sweep(population_sweep_spec, parallelism=8).to_csv()
    ok = serial_csv == threaded_csv
    _report(
        capfd, 10, ok,
        f"serial and 8-way sweeps produce byte-identical CSV ({len(serial_csv)} bytes)"
        if ok
        else "serial and 8-way CSV outputs differ",
    )


def test_criterion_11_truncation_convergence(capfd, laucht, fig3):
    corners = [(GRID_LO, GRID_LO), (GRID_LO, GRID_HI), (GRID_HI, GRID_LO), (GRID_HI, GRID_HI)]

    def max_rel_change(base, n_a, n_b):
        worst_n, worst_g = 0.0, 0.0
        for t, z in corners:
            point = base.replace(tunneling_T=t, zeta=z)
            na = steady_observables(point, n_max=n_a)["n_cavity"]
            nb = steady_observables(point, n_max=n_b)["n_cavity"]
            ga = g2_zero(point, n_max=n_a)
            gb = g2_zero(point, n_max=n_b)
            worst_n = max(worst_n, abs(nb - na) / abs(nb))
            worst_g = max(worst_g, abs(gb - ga) / abs(gb))
        return worst_n, worst_g

    ln, lg = max_rel_change(laucht, 3, 4)
    fn, fg = max_rel_change(fig3, 5, 6)
    ok = max(ln, lg) < 1e-6 and max(fn, fg) < 1e-4
    _report(
        capfd, 11, ok,
        f"strong-coupling preset 3->4: <n> {ln:.1e}, g2 {lg:.1e} (bound 1e-6); "
        f"fast-cavity preset 5->6: <n> {fn:.1e}, g2 {fg:.1e} (bound 1e-4)",
    )
