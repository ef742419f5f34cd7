import warnings

import numpy as np
import pytest

from dqdcavity import (
    BOLTZMANN_MEV_PER_K,
    CompositeBasis,
    ModelParams,
    hamiltonian,
    jump_operators,
    phat_rates,
    preset,
    preset_names,
    thermal_occupation,
)

import oracles


def test_thermal_occupation_against_closed_form():
    rng = np.random.default_rng(7)
    for _ in range(20):
        delta = rng.uniform(0.01, 5.0)
        temp = rng.uniform(1.0, 70.0)
        got = thermal_occupation(delta, temp)
        want = oracles.bose_occupation(delta, BOLTZMANN_MEV_PER_K * temp)
        assert got == pytest.approx(want, rel=1e-12)


def test_thermal_occupation_reference_point():
    # 0.1 meV detuning at 4 K sits near three phonons
    assert thermal_occupation(0.1, 4.0) == pytest.approx(2.97, abs=0.01)


def test_thermal_occupation_is_quiet_past_expm1_overflow():
    # delta / (kB T) = 2321, far past where expm1 overflows
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value = thermal_occupation(200.0, 1.0)
    assert np.isfinite(value) and value >= 0.0


def test_thermal_occupation_is_a_python_float_on_every_branch():
    # 1/expm1 below the overflow, exp(-x) past it, and inf where delta / (kB T)
    # underflows to 0; none of them warns
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = [thermal_occupation(0.1, 4.0), thermal_occupation(200.0, 1.0),
                  thermal_occupation(1e-300, 1e300)]
    assert [type(v) for v in values] == [float, float, float]
    assert values[0] == 1.0 / np.expm1(0.1 / (BOLTZMANN_MEV_PER_K * 4.0))
    assert values[2] == np.inf


def test_phat_rates_overflow_to_inf_without_a_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rates = phat_rates(preset("laucht-strong", zeta=1e308))
    assert (rates.gamma_T, rates.p_T) == (np.inf, np.inf)


def test_thermal_occupation_rejects_bad_input():
    with pytest.raises(ValueError):
        thermal_occupation(0.0, 4.0)
    with pytest.raises(ValueError):
        thermal_occupation(0.1, 0.0)


def test_presets_exposed_and_frozen():
    assert set(preset_names()) == {"laucht-strong", "fig3-right"}
    p = preset("laucht-strong")
    assert (p.omega0, p.omega1, p.omega2) == (1218.0, 1218.0, 1218.1)
    assert (p.g1, p.g2) == (0.44, 0.51)
    assert (p.gamma1, p.gamma2) == (0.0001, 0.0008)
    assert (p.pump1, p.pump2, p.cavity_pump) == (0.0015, 0.0019, 0.0057)
    assert (p.kappa, p.temperature) == (0.147, 4.0)
    f = preset("fig3-right")
    assert (f.g1, f.g2) == (1.218, 1.218)
    assert (f.pump1, f.pump2) == (1.752, 1.752)
    assert f.cavity_pump == 0.0
    assert f.kappa == 12.18
    with pytest.raises(ValueError, match="unknown preset"):
        preset("nope")


def test_preset_overrides_and_replace():
    p = preset("laucht-strong", zeta=0.5)
    assert p.zeta == 0.5
    q = p.replace(tunneling_T=2.0)
    assert q.tunneling_T == 2.0
    assert p.tunneling_T == 0.01  # original untouched


def test_params_validation():
    p = preset("laucht-strong")
    with pytest.raises(ValueError, match="kappa"):
        p.replace(kappa=-1.0)
    with pytest.raises(ValueError, match="gamma1"):
        p.replace(gamma1=float("nan"))
    with pytest.raises(ValueError, match="temperature"):
        p.replace(temperature=0.0)
    with pytest.raises(ValueError, match="omega0"):
        p.replace(omega0=0.0)
    # degenerate dots with phonon transfer on: thermal factor undefined
    with pytest.raises(ValueError, match="omega1 != omega2"):
        p.replace(omega2=p.omega1)
    # but fine with the channel off
    q = p.replace(omega2=p.omega1, zeta=0.0)
    assert q.zeta == 0.0


def test_phat_rates_orientation_and_mirror():
    p = preset("laucht-strong")
    r = phat_rates(p)
    n_th = thermal_occupation(0.1, 4.0)
    assert r.delta == pytest.approx(0.1)
    assert r.gamma_T == pytest.approx((n_th + 1.0) * p.zeta, rel=1e-12)
    assert r.p_T == pytest.approx(n_th * p.zeta, rel=1e-12)
    # swap the detuning sign: channels swap roles
    m = phat_rates(p.replace(omega1=p.omega2, omega2=p.omega1))
    assert m.gamma_T == pytest.approx(r.p_T, rel=1e-12)
    assert m.p_T == pytest.approx(r.gamma_T, rel=1e-12)
    off = phat_rates(p.replace(zeta=0.0))
    assert off.gamma_T == 0.0 and off.p_T == 0.0


def test_hamiltonian_elements_and_hermiticity():
    p = preset("laucht-strong", zeta=0.0)
    basis = CompositeBasis(2)
    h = hamiltonian(p, basis)
    e = h.entries
    assert np.array_equal(e, e.conj().T)  # symmetric pairs: exactly Hermitian
    i_1gg = basis.index_of(1, 0, 0)
    i_0xg = basis.index_of(0, 1, 0)
    i_0gx = basis.index_of(0, 0, 1)
    # diagonal: bare energies
    assert e[i_1gg, i_1gg] == pytest.approx(p.omega0)
    assert e[i_0xg, i_0xg] == pytest.approx(p.omega1)
    assert e[i_0gx, i_0gx] == pytest.approx(p.omega2)
    # photon exchange and inter-dot transfer amplitudes
    assert e[i_0xg, i_1gg] == pytest.approx(p.g1)
    assert e[i_0gx, i_1gg] == pytest.approx(p.g2)
    assert e[i_0xg, i_0gx] == pytest.approx(p.tunneling_T)
    # two-photon matrix element carries the bosonic sqrt(2)
    assert e[basis.index_of(1, 1, 0), basis.index_of(2, 0, 0)] == pytest.approx(
        p.g1 * np.sqrt(2.0)
    )
    # no direct dot-dot-photon mixing beyond single exchange
    assert e[basis.index_of(0, 1, 1), i_1gg] == 0.0


def test_hamiltonian_matches_operator_assembly():
    p = ModelParams(
        omega0=1.0, omega1=1.2, omega2=0.8, tunneling_T=0.3, g1=0.15, g2=0.25,
        gamma1=0.0, gamma2=0.0, pump1=0.0, pump2=0.0, cavity_pump=0.0,
        kappa=0.0, zeta=0.0, temperature=4.0,
    )
    basis = CompositeBasis(2)
    a, s1, s2 = oracles.index_built_operators(2)
    want = (
        p.omega0 * a.conj().T @ a
        + p.omega1 * s1.conj().T @ s1
        + p.omega2 * s2.conj().T @ s2
        + p.tunneling_T * (s1.conj().T @ s2 + s2.conj().T @ s1)
        + p.g1 * (s1.conj().T @ a + a.conj().T @ s1)
        + p.g2 * (s2.conj().T @ a + a.conj().T @ s2)
    )
    assert np.allclose(hamiltonian(p, basis).entries, want, atol=1e-13)


def test_jump_operators_order_rates_and_omission():
    p = preset("laucht-strong")
    basis = CompositeBasis(1)
    chans = jump_operators(p, basis)
    rates = [r for r, _ in chans]
    pr = phat_rates(p)
    assert rates == [
        p.gamma1, p.gamma2, p.pump1, p.pump2, p.cavity_pump, p.kappa,
        pr.gamma_T, pr.p_T,
    ]
    a_ref, s1_ref, s2_ref = oracles.index_built_operators(1)
    assert np.array_equal(chans[0][1].entries, s1_ref)
    assert np.array_equal(chans[4][1].entries, a_ref.conj().T)
    assert np.array_equal(chans[6][1].entries, s1_ref.conj().T @ s2_ref)
    assert np.array_equal(chans[7][1].entries, s2_ref.conj().T @ s1_ref)
    # zero-rate channels drop out
    lean = jump_operators(p.replace(zeta=0.0, cavity_pump=0.0), basis)
    assert [r for r, _ in lean] == [p.gamma1, p.gamma2, p.pump1, p.pump2, p.kappa]
