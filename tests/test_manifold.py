import numpy as np
import pytest

from dqdcavity import (
    G,
    X,
    CompositeBasis,
    ModelParams,
    build_liouvillian,
    exceptional_point_scan,
    liouvillian_block_crosscheck,
    phat_rates,
    preset,
    transition_lines,
    transition_matrix_explicit,
    transition_matrix_generic,
)

import oracles


def _random_params(rng):
    return ModelParams(
        omega0=rng.uniform(1.0, 3.0),
        omega1=rng.uniform(1.0, 3.0),
        omega2=rng.uniform(3.1, 4.0),
        tunneling_T=rng.uniform(0.0, 1.0),
        g1=rng.uniform(0.0, 1.0),
        g2=rng.uniform(0.0, 1.0),
        gamma1=rng.uniform(0.0, 0.5),
        gamma2=rng.uniform(0.0, 0.5),
        pump1=rng.uniform(0.0, 0.5),
        pump2=rng.uniform(0.0, 0.5),
        cavity_pump=rng.uniform(0.0, 0.5),
        kappa=rng.uniform(0.01, 1.0),
        zeta=rng.uniform(0.0, 2.0),
        temperature=rng.uniform(1.0, 50.0),
    )


def test_explicit_matrix_entries(laucht):
    p = laucht
    r = phat_rates(p)
    want = np.array(
        [
            [p.omega0 - 0.5j * p.kappa, p.g1, p.g2],
            [p.g1, p.omega1 - 0.5j * p.gamma1 - 0.5j * r.p_T, p.tunneling_T],
            [p.g2, p.tunneling_T, p.omega2 - 0.5j * p.gamma2 - 0.5j * r.gamma_T],
        ],
        dtype=complex,
    ) / 1j
    assert np.abs(transition_matrix_explicit(p) - want).max() < 1e-15


def test_generic_construction_matches_explicit():
    rng = np.random.default_rng(77)
    basis = CompositeBasis(1)
    for _ in range(100):
        p = _random_params(rng)
        gap = np.abs(
            transition_matrix_generic(p, basis) - transition_matrix_explicit(p)
        ).max()
        assert gap < 1e-12


def test_block_of_full_generator_matches(laucht):
    basis = CompositeBasis(1)
    assert liouvillian_block_crosscheck(laucht, basis) < 1e-12
    rng = np.random.default_rng(13)
    for _ in range(10):
        assert liouvillian_block_crosscheck(_random_params(rng), basis) < 1e-12


@pytest.mark.parametrize("name", ["laucht-strong", "fig3-right"])
def test_block_differs_with_gains_on(name):
    # negative control for liouvillian_block_crosscheck: the gains are what it zeroes
    p = preset(name)
    basis = CompositeBasis(2)
    d = basis.dim
    one = [basis.index_of(1, G, G), basis.index_of(0, X, G), basis.index_of(0, G, X)]
    vec_idx = [basis.index_of(0, G, G) * d + r for r in one]
    sub = build_liouvillian(p, basis).entries[np.ix_(vec_idx, vec_idx)]
    assert np.abs(sub - transition_matrix_generic(p, basis)).max() > 1e-3


def test_line_frequencies_and_widths_from_cubic_roots():
    rng = np.random.default_rng(41)
    for _ in range(25):
        p = _random_params(rng)
        roots = oracles.matrix_eigenvalues_3x3(transition_matrix_explicit(p))
        want = sorted((abs(r.imag), abs(r.real)) for r in roots)
        got = [(ln.frequency, ln.hwhm) for ln in transition_lines(p)]
        for (fw, ww), (fg, wg) in zip(want, got):
            assert fg == pytest.approx(fw, rel=1e-9, abs=1e-9)
            assert wg == pytest.approx(ww, rel=1e-9, abs=1e-9)


def test_decoupled_lines_read_off_the_diagonal(laucht):
    bare = laucht.replace(tunneling_T=0.0, zeta=0.0, g1=0.0, g2=0.0)
    lines = transition_lines(bare)
    got = [(ln.frequency, ln.hwhm) for ln in lines]
    want = [
        (bare.omega1, bare.gamma1 / 2.0),   # 1218.0, 0.00005
        (bare.omega0, bare.kappa / 2.0),    # 1218.0, 0.0735
        (bare.omega2, bare.gamma2 / 2.0),   # 1218.1, 0.0004
    ]
    for (fg, wg), (fw, ww) in zip(got, want):
        assert fg == pytest.approx(fw, abs=1e-12)
        assert wg == pytest.approx(ww, abs=1e-12)
    # sorted by frequency, width breaking the tie
    freqs = [ln.frequency for ln in lines]
    assert freqs == sorted(freqs)
    assert lines[0].hwhm <= lines[1].hwhm


def test_preset_lines_frozen_regression(laucht):
    lines = transition_lines(laucht)
    want = [
        (-0.64182733528969, 0.0468015492046447),
        (0.0325824558126442, 0.0174522372641402),
        (0.709244879477183, 0.0444069678790129),
    ]
    for ln, (off, hwhm) in zip(lines, want):
        assert ln.offset == pytest.approx(off, rel=1e-9)
        assert ln.hwhm == pytest.approx(hwhm, rel=1e-9)
        assert ln.frequency == pytest.approx(laucht.omega0 + off, rel=1e-12)


def test_dressed_splitting_tracks_collective_coupling(laucht):
    quiet = laucht.replace(zeta=0.0, tunneling_T=0.01)
    lines = transition_lines(quiet)
    split = lines[2].frequency - lines[0].frequency
    assert split == pytest.approx(2.0 * np.hypot(laucht.g1, laucht.g2), abs=0.02)


def test_exceptional_point_scan_finds_coalescence(laucht):
    scan = exceptional_point_scan(laucht.replace(tunneling_T=0.01))
    assert scan.zetas[0] == pytest.approx(1e-3)
    assert scan.zetas[-1] == pytest.approx(10.0)
    assert scan.min_gap < 1e-2
    assert scan.width_gap_at_star > 1.0  # widths split where frequencies merge
    assert scan.min_gap == scan.min_gaps.min()
    idx = int(np.argmin(scan.min_gaps))
    assert scan.zeta_star == pytest.approx(scan.zetas[idx])
    # low-zeta side keeps the lines resolved
    assert scan.min_gaps[0] > 0.1


def test_exceptional_point_scan_grid(laucht):
    scan = exceptional_point_scan(laucht)
    assert scan.zetas.size == 200
    assert scan.zetas[0] == pytest.approx(1e-3)
    assert scan.zetas[-1] == pytest.approx(10.0)
    assert np.allclose(scan.zetas[1:] / scan.zetas[:-1], (10.0 / 1e-3) ** (1 / 199))


def test_preset_factories_round_trip():
    # replace() on a preset keeps every other field identical
    p = preset("laucht-strong")
    q = p.replace(zeta=0.123)
    assert q.zeta == 0.123
    assert q.kappa == p.kappa and q.g1 == p.g1
