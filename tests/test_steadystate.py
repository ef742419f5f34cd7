import numpy as np
import pytest

from dqdcavity import (
    BasisMismatchError,
    CompositeBasis,
    DegenerateSteadyStateError,
    ModelParams,
    SteadyStateConvergenceError,
    SuperoperatorMatrix,
    annihilation,
    build_liouvillian,
    expectation,
    hamiltonian,
    jump_operators,
    preset,
    qubit_lowering,
    steady_observables,
    steady_state,
    vec,
)
from dqdcavity.steadystate import number_moments, sector_steady_state

import oracles


def _single_dot_params(pump, decay):
    """Dot 1 pumped and damped, everything else idle but non-degenerate."""
    return ModelParams(
        omega0=1.0, omega1=1.3, omega2=2.0, tunneling_T=0.0, g1=0.0, g2=0.0,
        gamma1=decay, gamma2=0.1, pump1=pump, pump2=0.0, cavity_pump=0.0,
        kappa=0.5, zeta=0.0, temperature=4.0,
    )


def test_single_dot_population_matches_rate_balance():
    rng = np.random.default_rng(20)
    for _ in range(20):
        pump, decay = 10.0 ** rng.uniform(-4, 0, size=2)
        got = steady_observables(_single_dot_params(pump, decay), n_max=1)
        want = oracles.two_level_steady_population(pump, decay)
        assert got["n_qd1"] == pytest.approx(want, rel=1e-9)
        assert got["n_qd2"] == pytest.approx(0.0, abs=1e-12)
        assert got["n_cavity"] == pytest.approx(0.0, abs=1e-12)


def test_decoupled_cavity_reaches_thermal_occupation(laucht):
    dec = laucht.replace(g1=0.0, g2=0.0, tunneling_T=0.0, zeta=0.0, pump1=0.0, pump2=0.0)
    n_want, _ = oracles.thermal_cavity_moments(dec.cavity_pump, dec.kappa)
    got = steady_observables(dec, n_max=8)
    assert got["n_cavity"] == pytest.approx(n_want, rel=1e-6)


def test_residual_trace_and_positivity(laucht):
    basis = CompositeBasis(3)
    lop = build_liouvillian(laucht, basis)
    rho = steady_state(lop)
    assert abs(rho.trace() - 1.0) < 1e-12
    assert rho.min_eigenvalue() >= -1e-10
    residual = np.abs(lop.apply(vec(rho.entries))).max()
    assert residual <= 1e-10 * lop.norm_inf()
    herm = np.abs(rho.entries - rho.entries.conj().T).max()
    assert herm < 1e-14


def _oracle_generator(p, basis):
    """Generator of p built matrix unit by matrix unit, not by the package."""
    channels = [(rate, op.entries) for rate, op in jump_operators(p, basis)]
    return oracles.generator_by_columns(hamiltonian(p, basis).entries, channels)


@pytest.mark.parametrize("name, n_max", [("laucht-strong", 2), ("fig3-right", 3)],
                         ids=["laucht-strong", "fig3-right"])
def test_lu_and_eigen_solvers_agree(name, n_max):
    p = preset(name)
    basis = CompositeBasis(n_max)
    r_lu = steady_state(build_liouvillian(p, basis))
    want = oracles.null_vector_state(_oracle_generator(p, basis))
    assert np.abs(r_lu.entries - want).max() < 1e-8


def test_preset_occupations_frozen_regression(laucht):
    # frozen from a validated run; guards against silent numerical drift
    got = steady_observables(laucht, n_max=3)
    assert got["n_cavity"] == pytest.approx(0.061775456250414, rel=1e-9)
    assert got["n_qd1"] == pytest.approx(0.0916891603414434, rel=1e-9)
    assert got["n_qd2"] == pytest.approx(0.0818190432919982, rel=1e-9)


def test_dot_relabeling_symmetry(laucht):
    swapped = laucht.replace(
        omega1=laucht.omega2, omega2=laucht.omega1,
        g1=laucht.g2, g2=laucht.g1,
        gamma1=laucht.gamma2, gamma2=laucht.gamma1,
        pump1=laucht.pump2, pump2=laucht.pump1,
    )
    a = steady_observables(laucht, n_max=2)
    b = steady_observables(swapped, n_max=2)
    assert abs(a["n_cavity"] - b["n_cavity"]) < 1e-10
    assert abs(a["n_qd1"] - b["n_qd2"]) < 1e-10
    assert abs(a["n_qd2"] - b["n_qd1"]) < 1e-10


def test_truncation_increments_shrink(laucht):
    n3, n4, n5 = (steady_observables(laucht, n_max=n)["n_cavity"] for n in (3, 4, 5))
    assert abs(n4 - n3) < 1e-3
    assert abs(n5 - n4) < abs(n4 - n3)


def test_disconnected_subsystem_raises(laucht):
    # dot 2 loses every channel: the stationary state is no longer unique
    degen = laucht.replace(gamma2=0.0, pump2=0.0, g2=0.0, tunneling_T=0.0, zeta=0.0)
    lop = build_liouvillian(degen, CompositeBasis(1))
    with pytest.raises(DegenerateSteadyStateError):
        steady_state(lop)


def test_density_matrix_frozen_and_expectation_checked(laucht):
    basis = CompositeBasis(1)
    rho = steady_state(build_liouvillian(laucht, basis))
    with pytest.raises(ValueError):
        rho.entries[0, 0] = 0.0
    n_op = annihilation(basis).dag() @ annihilation(basis)
    val = expectation(rho, n_op)
    assert val.imag == pytest.approx(0.0, abs=1e-12)
    assert val.real > 0.0
    with pytest.raises(BasisMismatchError):
        expectation(rho, annihilation(CompositeBasis(2)))
    s1 = qubit_lowering(basis, 1)
    assert expectation(rho, s1.dag() @ s1).real == pytest.approx(
        steady_observables(laucht, n_max=1)["n_qd1"], rel=1e-12
    )


@pytest.mark.parametrize(
    "name, n_max", [("laucht-strong", 1), ("laucht-strong", 2), ("fig3-right", 3)],
    ids=["laucht-strong-1", "laucht-strong-2", "fig3-right-3"],
)
def test_sector_routes_agree_bit_for_bit_and_match_null_vector(name, n_max):
    # slicing k = 0 out of the dense generator and building it from K feed the
    # same block to the same LU; the SVD null vector of the oracle generator
    # shares neither the block nor the solver
    p = preset(name)
    basis = CompositeBasis(n_max)
    sliced = steady_state(build_liouvillian(p, basis))
    from_k = sector_steady_state(p, basis)
    assert np.array_equal(sliced.entries, from_k.entries)
    want = oracles.null_vector_state(_oracle_generator(p, basis))
    assert np.abs(from_k.entries - want).max() < 1e-12


def test_number_moments_match_operator_expectations(laucht):
    basis = CompositeBasis(3)
    rho = sector_steady_state(laucht, basis)
    a = annihilation(basis)
    s1, s2 = qubit_lowering(basis, 1), qubit_lowering(basis, 2)
    ops = (a.dag() @ a, s1.dag() @ s1, s2.dag() @ s2, a.dag() @ a.dag() @ a @ a)
    want = [expectation(rho, op).real for op in ops]
    assert np.allclose(number_moments(rho), want, rtol=1e-13, atol=0.0)


def test_generator_that_breaks_n_is_refused(laucht):
    # a coherent cavity drive -i[a + a^dag, .] couples k = 0 to k = +-1, which
    # the k = 0 solve never sees; only the residual on the whole generator does
    basis = CompositeBasis(2)
    a = annihilation(basis).entries
    h = 0.1 * (a + a.conj().T)
    eye = np.eye(basis.dim)
    drive = np.kron(eye, -1j * h) + np.kron(1j * h.T, eye)
    lop = build_liouvillian(laucht, basis)
    steady_state(lop)  # the undriven generator passes
    with pytest.raises(SteadyStateConvergenceError, match=r"\|\|L\|\|"):
        steady_state(SuperoperatorMatrix(basis, lop.entries + drive))
