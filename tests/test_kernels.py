import numpy as np
import pytest

from dqdcavity import exp_decay_sum, lorentzian_sum
from dqdcavity.dynamics import _block_points


def test_lorentzian_sum_single_pole_closed_form():
    omegas = np.linspace(-5.0, 5.0, 401)
    amp = np.array([0.3 - 0.1j])
    pole = np.array([-0.2 + 1.5j])
    got = lorentzian_sum(omegas, amp, pole)
    want = (amp[0] / (-pole[0] - 1j * omegas)).real
    assert np.abs(got - want).max() < 1e-14


def test_exp_decay_sum_single_mode_closed_form():
    taus = np.linspace(0.0, 30.0, 301)
    w = np.array([1.2 + 0.4j])
    lam = np.array([-0.1 + 0.9j])
    got = exp_decay_sum(taus, w, lam)
    want = w[0] * np.exp(lam[0] * taus)
    assert np.abs(got - want).max() < 1e-13


def test_shape_validation():
    omegas = np.linspace(0.0, 1.0, 11)
    with pytest.raises(ValueError):
        lorentzian_sum(omegas, np.ones(3, dtype=complex), np.ones(2, dtype=complex))
    with pytest.raises(ValueError):
        exp_decay_sum(omegas, np.ones(2, dtype=complex), np.ones(3, dtype=complex))


def _modes(count):
    rng = np.random.default_rng(count)
    amplitudes = rng.normal(size=count) + 1j * rng.normal(size=count)
    poles = -rng.uniform(0.01, 1.0, count) + 1j * rng.normal(size=count)
    return amplitudes, poles


@pytest.mark.parametrize("points", [
    lambda block: 0, lambda block: 1, lambda block: block, lambda block: block + 1,
    lambda block: 3 * block + 7,
], ids=["empty", "one", "one_block", "past_a_block", "blocks"])
@pytest.mark.parametrize("count", [0, 46, 1024])
def test_kernels_match_the_one_shot_sum_bit_for_bit(points, count):
    # the one-shot sums over a whole (modes x grid) array; a block of one point
    # would be summed pairwise by numpy, so a grid just past a block boundary
    # must not leave its last point alone. 1024 modes is g2's dense mode count
    # at n_max 7, a few points per block
    points = points(_block_points(count))
    amplitudes, poles = _modes(count)
    omegas = np.linspace(-3.0, 3.0, points)
    taus = np.linspace(0.0, 40.0, points)
    want = np.sum((amplitudes[:, None] / (-poles[:, None] - 1j * omegas[None, :])).real, axis=0)
    got = lorentzian_sum(omegas, amplitudes, poles)
    assert got.dtype == want.dtype and np.array_equal(got, want)
    want = np.sum(amplitudes[:, None] * np.exp(poles[:, None] * taus[None, :]), axis=0)
    got = exp_decay_sum(taus, amplitudes, poles)
    assert got.dtype == want.dtype and np.array_equal(got, want)


@pytest.mark.parametrize("kernel", [lorentzian_sum, exp_decay_sum])
@pytest.mark.parametrize("grid", [[[0.0, 1.0]], [np.nan], [0.0, np.inf]], ids=["2d", "nan", "inf"])
def test_kernels_refuse_grids_that_are_not_1d_or_not_finite(kernel, grid):
    amplitudes, poles = _modes(3)
    with pytest.raises(ValueError, match="must be a 1-D array|must be finite"):
        kernel(grid, amplitudes, poles)
