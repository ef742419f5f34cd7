import tracemalloc
import warnings

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
    hamiltonian,
    jump_operators,
    preset,
    qubit_lowering,
    steady_observables,
    steady_state,
    steadystate,
    vec,
)
from dqdcavity.liouvillian import sector_blocks, sector_indices, term_coefficients
from dqdcavity.steadystate import (
    _STACK_BYTES,
    _block_states,
    _solve_trace_rows,
    _stack_points,
    number_moments,
    sector_steady_state,
    sector_steady_states,
)

import oracles
from test_liouvillian import _random_params


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
    val = oracles.expectation(rho.entries, n_op.entries)
    assert val.imag == pytest.approx(0.0, abs=1e-12)
    assert val.real > 0.0
    with pytest.raises(BasisMismatchError):
        rho @ annihilation(CompositeBasis(2))
    s1 = qubit_lowering(basis, 1)
    assert oracles.expectation(rho.entries, (s1.dag() @ s1).entries).real == pytest.approx(
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
    want = [oracles.expectation(rho.entries, op.entries).real for op in ops]
    assert np.allclose(number_moments(rho), want, rtol=1e-13, atol=0.0)


def _cavity_drive(basis):
    # a coherent cavity drive -i[a + a^dag, .] couples k = 0 to k = +-1
    a = annihilation(basis).entries
    h = 0.1 * (a + a.conj().T)
    eye = np.eye(basis.dim)
    return np.kron(eye, -1j * h) + np.kron(1j * h.T, eye)


def _nan_out_of_sector(basis):
    # one nan entry moving weight from rho_00 to a position outside k = 0
    pos = sector_indices(basis.n_max, 0)[2]
    extra = np.zeros((basis.dim**2, basis.dim**2), dtype=complex)
    extra[np.setdiff1d(np.arange(basis.dim**2), pos)[0], pos[0]] = np.nan
    return extra


@pytest.mark.parametrize("extra", [_cavity_drive, _nan_out_of_sector], ids=["drive", "nan_entry"])
def test_generator_that_breaks_n_is_refused(laucht, extra):
    # the k = 0 solve never sees entries that leave the sector; only the
    # residual on the whole generator does, and a nan residual fails it too
    basis = CompositeBasis(2)
    lop = build_liouvillian(laucht, basis)
    steady_state(lop)  # the undriven generator passes
    with pytest.raises(SteadyStateConvergenceError, match=r"\|\|L\|\|"):
        steady_state(SuperoperatorMatrix(basis, lop.entries + extra(basis)))


def _anti_hermitian_drift(basis):
    # -i[h, .] with h = 0.1i sigma1^dag sigma1 keeps N, so it stays on the k = 0
    # block, but takes Hermitian rho to anti-Hermitian; the real solve drops
    # that part, and only the residual on the complex block sees it
    s1 = qubit_lowering(basis, 1).entries
    h = 0.1j * (s1.conj().T @ s1)
    eye = np.eye(basis.dim)
    return np.kron(eye, -1j * h) + np.kron(1j * h.T, eye)


def test_generator_that_breaks_hermiticity_is_refused(laucht):
    basis = CompositeBasis(2)
    lop = build_liouvillian(laucht, basis)
    with pytest.raises(SteadyStateConvergenceError, match=r"\|\|B\|\|_inf"):
        steady_state(SuperoperatorMatrix(basis, lop.entries + _anti_hermitian_drift(basis)))


def _real_transform(n_max):
    # T with x = Ty for y = (rho_II, Re rho_IJ, Im rho_IJ) on the k = 0 layout, and T^-1
    d, m = CompositeBasis(n_max).dim, sector_indices(n_max, 0)[0].size
    eye = np.eye((m - d) // 2)
    t, t_inv = np.eye(m, dtype=complex), np.eye(m, dtype=complex)
    t[d:, d:] = np.block([[eye, 1j * eye], [eye, -1j * eye]])
    t_inv[d:, d:] = np.block([[0.5 * eye, 0.5 * eye], [-0.5j * eye, 0.5j * eye]])
    return t, t_inv


@pytest.mark.parametrize("n_max", [1, 2, 3, 4])
def test_real_solve_matches_the_null_vector_and_drops_only_zeros(n_max):
    # every state agrees with the oracle's null vector and is Hermitian bit for
    # bit; the imaginary part of T^-1 B T that the real solve drops is 0.0
    rng = np.random.default_rng(70 + n_max)
    basis = CompositeBasis(n_max)
    points = [_random_params(rng) for _ in range(3)]
    coefs = _coefficient_rows(points, n_max)
    for p, state in zip(points, sector_steady_states(coefs, basis)):
        want = oracles.null_vector_state(_oracle_generator(p, basis))
        assert np.abs(state.entries - want).max() < 1e-12
        assert np.array_equal(state.entries, state.entries.conj().T)
    t, t_inv = _real_transform(n_max)
    assert np.all((t_inv @ sector_blocks(coefs, n_max, 0) @ t).imag == 0.0)


def _coefficient_rows(points, n_max):
    return np.array([term_coefficients(p, n_max) for p in points])


def test_stack_isolates_the_disconnected_point(laucht):
    # the point of test_disconnected_subsystem_raises between two good points:
    # it fails alone, with its solo message, and the others keep their solo bits
    basis = CompositeBasis(3)
    degen = laucht.replace(gamma2=0.0, pump2=0.0, g2=0.0, tunneling_T=0.0, zeta=0.0)
    good = (laucht, laucht.replace(tunneling_T=0.3, zeta=0.2))
    first, bad, last = sector_steady_states(_coefficient_rows([good[0], degen, good[1]], 3), basis)
    with pytest.raises(DegenerateSteadyStateError) as solo:
        sector_steady_state(degen, basis)
    assert isinstance(bad, DegenerateSteadyStateError)
    assert str(bad) == str(solo.value)
    for state, p in zip((first, last), good):
        assert np.array_equal(state.entries, sector_steady_state(p, basis).entries)


def test_stacks_hold_at_most_the_stack_bound(laucht, monkeypatch):
    # 2 * stack + 1 rows: two full stacks and one of a single row, built only
    # as the states are taken; the stack is 16 points at n_max 3 and 4 at 7
    rng = np.random.default_rng(16)
    for n_max in (3, 7):
        stack = _stack_points(n_max)
        points = [laucht.replace(tunneling_T=t, zeta=z)
                  for t, z in 10.0 ** rng.uniform(-3, 1, (2 * stack + 1, 2))]
        sizes = []

        def recorded(coefs, n_max, k):
            sizes.append(len(coefs))
            return sector_blocks(coefs, n_max, k)

        monkeypatch.setattr(steadystate, "sector_blocks", recorded)
        basis = CompositeBasis(n_max)
        states = sector_steady_states(_coefficient_rows(points, n_max), basis)
        assert sizes == []
        next(states)
        assert sizes == [stack]
        states = list(states)
        assert max(sizes) <= stack and sum(sizes) == len(points)
        monkeypatch.undo()
        assert len(states) == len(points) - 1
        for state, p in zip(states, points[1:]):
            assert np.array_equal(state.entries, sector_steady_state(p, basis).entries)


def test_stack_scratch_stays_within_a_few_stack_budgets(laucht):
    # 64 points at n_max 7 (116 x 116 blocks, 215 KB each) solve in stacks of
    # 4: the blocks, real systems and inverses of one stack, the 64 states
    # (16 KiB each) and the coefficient rows stay under 4 byte budgets
    rng = np.random.default_rng(30)
    points = [laucht.replace(tunneling_T=t, zeta=z) for t, z in 10.0 ** rng.uniform(-3, 1, (64, 2))]
    rows, basis = _coefficient_rows(points, 7), CompositeBasis(7)
    sector_steady_state(laucht, basis)  # fills the per-cutoff caches first
    tracemalloc.start()
    try:
        states = list(sector_steady_states(rows, basis))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(isinstance(state, steadystate.DensityMatrix) for state in states)
    assert peak <= 4 * _STACK_BYTES


def test_exactly_singular_block_fails_alone(laucht):
    # numpy's inv raises for a whole stack when one member has an exact zero
    # pivot; the stack is then solved point by point
    basis = CompositeBasis(3)
    good = (laucht, laucht.replace(tunneling_T=0.3, zeta=0.2))
    blocks = sector_blocks(_coefficient_rows([good[0], laucht, good[1]], 3), 3, 0)
    blocks[1] = 0.0
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.inv(blocks)
    first, bad, last = _block_states(basis, blocks)
    assert isinstance(bad, DegenerateSteadyStateError)
    assert "trace-row system is singular" in str(bad)
    for state, p in zip((first, last), good):
        assert np.array_equal(state.entries, sector_steady_state(p, basis).entries)


def test_block_residual_failure_stays_with_its_point(laucht, monkeypatch):
    # with no residual tolerance every solved point misses ||B x|| <= 0: each
    # failure is its own point's value, in row order, and the single-point
    # route raises it
    monkeypatch.setattr(steadystate, "_RTOL", 0.0)
    basis = CompositeBasis(3)
    points = [laucht, laucht.replace(tunneling_T=0.3, zeta=1.0), laucht.replace(kappa=0.5)]
    errors = list(sector_steady_states(_coefficient_rows(points, 3), basis))
    assert len(errors) == len(points)
    for error, p in zip(errors, points):
        assert isinstance(error, SteadyStateConvergenceError)
        assert "||B||_inf" in str(error)
        with pytest.raises(SteadyStateConvergenceError, match=r"\|\|B\|\|_inf") as raised:
            sector_steady_state(p, basis)
        assert str(raised.value) == str(error)
    assert len({str(error) for error in errors}) == len(points)


def test_stacked_read_out_matches_the_single_point_route(laucht, monkeypatch):
    # 2 * stack + 6 rows solve as stacks of 16, 16 and 6 at n_max 3 and of 4,
    # 4, 4 and 2 at 7. Rows stack - 1 and stack, a cut-off dot on either side
    # of the first seam, fail the rcond floor; row 2 * stack, the first after
    # two full stacks, gets the anti-Hermitian drift and fails the residual on
    # B. Each row holds what the single-point route returns or raises, and
    # nothing warns
    rng = np.random.default_rng(25)
    cut = laucht.replace(gamma2=0.0, g2=0.0, tunneling_T=0.0, zeta=0.0, pump2=1e-30)
    for n_max in (3, 7):
        stack, basis = _stack_points(n_max), CompositeBasis(n_max)
        points = [laucht.replace(tunneling_T=t, zeta=z)
                  for t, z in 10.0 ** rng.uniform(-3, 1, (2 * stack + 6, 2))]
        points[stack - 1], points[stack] = cut, cut.replace(kappa=0.5)
        pos = sector_indices(n_max, 0)[2]
        drift = _anti_hermitian_drift(basis)[np.ix_(pos, pos)]
        marked = term_coefficients(points[2 * stack], n_max)

        def drifted(coefs, n_max, k):
            blocks = sector_blocks(coefs, n_max, k)
            blocks[(coefs == marked).all(axis=1)] += drift
            return blocks

        monkeypatch.setattr(steadystate, "sector_blocks", drifted)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            states = list(sector_steady_states(_coefficient_rows(points, n_max), basis))
        assert len(states) == len(points)
        refused = {stack - 1: DegenerateSteadyStateError, stack: DegenerateSteadyStateError,
                   2 * stack: SteadyStateConvergenceError}
        for k, (state, p) in enumerate(zip(states, points)):
            if k in refused:
                assert type(state) is refused[k]
                with pytest.raises(refused[k]) as solo:
                    sector_steady_state(p, basis)
                assert str(state) == str(solo.value)
            else:
                assert np.array_equal(state.entries, sector_steady_state(p, basis).entries)
        monkeypatch.undo()


@pytest.mark.parametrize("change", [{"kappa": 1e308}, {"tunneling_T": 1.7e308}], ids=["kappa", "T"])
def test_read_out_of_a_refused_point_warns_no_more_than_its_solve(laucht, change):
    # a rate near DBL_MAX overflows the solve and fails the rcond floor, with
    # no warning; normalizing and checking the stack must add none of its own
    basis = CompositeBasis(2)
    blocks = sector_blocks(_coefficient_rows([laucht, laucht.replace(**change)], 2), 2, 0)
    with warnings.catch_warnings(record=True) as solve:
        warnings.simplefilter("always")
        _solve_trace_rows(blocks, basis.dim)
    with warnings.catch_warnings(record=True) as read:
        warnings.simplefilter("always")
        good, bad = _block_states(basis, blocks)
    assert isinstance(good, steadystate.DensityMatrix)
    assert isinstance(bad, DegenerateSteadyStateError)
    assert [str(w.message) for w in read] == [str(w.message) for w in solve]


@pytest.mark.parametrize("change", [{"kappa": 1e308}, {"pump1": 1e308}, {"tunneling_T": 1.7e308},
                                    {"zeta": 1e308}], ids=["kappa", "pump1", "T", "zeta"])
def test_rate_near_dbl_max_is_refused_without_a_warning(laucht, change):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DegenerateSteadyStateError, match="numerically singular"):
            steady_observables(laucht.replace(**change), n_max=2)


def test_exact_rcond_is_within_the_lapack_estimate(laucht):
    # the system solved is the real R' = T^-1 B' T; LAPACK's dgecon estimates
    # ||R'^-1||_1 from below, so its rcond is an upper bound on the exact one
    # (to rounding); the floor is at least as strict
    lapack = pytest.importorskip("scipy.linalg").lapack
    rng = np.random.default_rng(15)
    points = [laucht.replace(tunneling_T=t, zeta=z) for t, z in 10.0 ** rng.uniform(-3, 1, (12, 2))]
    blocks = sector_blocks(_coefficient_rows(points, 3), 3, 0)
    ket, bra, _ = sector_indices(3, 0)
    _, rconds = _solve_trace_rows(blocks, CompositeBasis(3).dim)
    t, t_inv = _real_transform(3)
    for block, rcond in zip(blocks, rconds):
        block[0, :] = ket == bra
        system = np.array((t_inv @ block @ t).real, order="F")
        lu, _, info = lapack.dgetrf(system)
        assert info == 0
        estimate, info = lapack.dgecon(lu, np.abs(system).sum(axis=0).max(), norm="1")
        assert info == 0
        assert estimate / 1.5 <= rcond <= estimate * (1.0 + 1e-12)
