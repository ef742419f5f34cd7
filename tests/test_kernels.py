import numpy as np
import pytest

from dqdcavity import exp_decay_sum, lorentzian_sum


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
