import sys

import numpy as np
import pytest

from dqdcavity import (
    CompositeBasis,
    ModelParams,
    SuperoperatorMatrix,
    SweepAxis,
    SweepSpec,
    annihilation,
    build_liouvillian,
    evaluate_point,
    hamiltonian,
    jump_operators,
    phat_rates,
    pl_spectrum,
    preset,
    qubit_lowering,
    unvec,
    vec,
)
from dqdcavity.liouvillian import _sector_terms, sector_block, sector_indices
from dqdcavity.model import model_terms
from dqdcavity.steadystate import sector_steady_state

import oracles


def test_vec_is_column_stacking():
    m = np.arange(9, dtype=complex).reshape(3, 3)
    v = vec(m)
    # column j occupies the slab j*dim .. j*dim+dim-1
    assert np.array_equal(v[:3], m[:, 0])
    assert np.array_equal(v[3:6], m[:, 1])
    assert np.array_equal(unvec(v, 3), m)


_ALL_CHANNELS = ModelParams(
    omega0=1.5, omega1=1.4, omega2=1.7, tunneling_T=0.3, g1=0.2, g2=0.25,
    gamma1=0.01, gamma2=0.02, pump1=0.03, pump2=0.04, cavity_pump=0.05,
    kappa=0.5, zeta=0.02, temperature=4.0,
)


def test_dissipator_matches_direct_action():
    # switching one rate on adds rate * D[O] to the generator; compare its action
    # on a random density matrix with O rho O+ - {O+O, rho}/2 evaluated directly
    rng = np.random.default_rng(11)
    basis = CompositeBasis(2)
    p = _ALL_CHANNELS.replace(kappa=0.0, pump1=0.0, zeta=0.0)
    base = build_liouvillian(p, basis).entries
    rho = oracles.random_density_matrix(rng, basis.dim)
    s1d_s2 = qubit_lowering(basis, 1).dag() @ qubit_lowering(basis, 2)
    on = _ALL_CHANNELS.replace(kappa=0.0, pump1=0.0)
    rates = phat_rates(on)
    cases = [
        (p.replace(kappa=0.5), [(0.5, annihilation(basis))]),
        (p.replace(pump1=0.03), [(0.03, qubit_lowering(basis, 1).dag())]),
        (on, [(rates.gamma_T, s1d_s2), (rates.p_T, s1d_s2.dag())]),
    ]
    for params, channels in cases:
        delta = build_liouvillian(params, basis).entries - base
        got = unvec(delta @ vec(rho), basis.dim)
        want = sum(rate * oracles.dissipator_action(op.entries, rho) for rate, op in channels)
        assert np.abs(got - want).max() < 1e-13


def test_commutator_matches_direct_action():
    # coherent only: every rate zero, so the generator is -i[H, .]
    basis = CompositeBasis(1)
    p = ModelParams(
        omega0=1.0, omega1=1.1, omega2=0.9, tunneling_T=0.2, g1=0.1, g2=0.3,
        gamma1=0.0, gamma2=0.0, pump1=0.0, pump2=0.0, cavity_pump=0.0,
        kappa=0.0, zeta=0.0, temperature=4.0,
    )
    assert jump_operators(p, basis) == []
    want = oracles.generator_by_columns(hamiltonian(p, basis).entries, [])
    assert np.abs(build_liouvillian(p, basis).entries - want).max() < 1e-13


@pytest.mark.parametrize(
    "p, n_max, n_channels",
    [
        (_ALL_CHANNELS, 2, 8),
        # paper-scale energies near 1218 meV beside rates of 1e-4 .. 12 meV
        (preset("laucht-strong"), 3, 8),
        (preset("fig3-right"), 3, 7),  # no cavity feeding
    ],
    ids=["all-channels", "laucht-strong", "fig3-right"],
)
def test_liouvillian_is_sum_of_parts(p, n_max, n_channels):
    # every active channel, the phonon-assisted pair included
    basis = CompositeBasis(n_max)
    channels = [(rate, op.entries) for rate, op in jump_operators(p, basis)]
    assert len(channels) == n_channels
    want = oracles.generator_by_columns(hamiltonian(p, basis).entries, channels)
    assert np.abs(build_liouvillian(p, basis).entries - want).max() < 1e-13


def test_generator_is_block_diagonal_in_excitation_difference():
    # N = photons + excitons; every channel keeps k = N_ket - N_bra, so no
    # generator entry may couple vec indices in different k sectors
    a, s1, s2 = oracles.index_built_operators(3)
    n = np.rint(np.diag(a.conj().T @ a + s1.conj().T @ s1 + s2.conj().T @ s2).real)
    # vec index j*d + i holds rho[i, j]: ket i, bra j
    k = (n[:, None] - n[None, :]).reshape(-1, order="F")
    entries = build_liouvillian(_ALL_CHANNELS, CompositeBasis(3)).entries
    cross = k[:, None] != k[None, :]
    assert cross.any() and np.abs(entries[~cross]).max() > 0.0
    assert np.all(entries[cross] == 0.0)


def test_liouvillian_linear_in_each_rate():
    # doubling one channel rate adds exactly rate * D(channel)
    p = _ALL_CHANNELS
    basis = CompositeBasis(2)
    zero = np.zeros((basis.dim, basis.dim))
    base = build_liouvillian(p, basis).entries
    bumped = build_liouvillian(p.replace(kappa=2 * p.kappa), basis).entries
    dk = oracles.generator_by_columns(zero, [(p.kappa, annihilation(basis).entries)])
    assert np.abs((bumped - base) - dk).max() < 1e-12
    bumped = build_liouvillian(p.replace(pump1=2 * p.pump1), basis).entries
    dp = oracles.generator_by_columns(zero, [(p.pump1, qubit_lowering(basis, 1).dag().entries)])
    assert np.abs((bumped - base) - dp).max() < 1e-12


def test_generator_preserves_trace_and_hermiticity(laucht):
    basis = CompositeBasis(2)
    lop = build_liouvillian(laucht, basis)
    rng = np.random.default_rng(12)
    rho = oracles.random_density_matrix(rng, basis.dim)
    drho = unvec(lop.apply(vec(rho)), basis.dim)
    assert abs(np.trace(drho)) < 1e-12 * lop.norm_inf()
    assert np.abs(drho - drho.conj().T).max() < 1e-12 * lop.norm_inf()
    # the trace row (vec of the identity) annihilates the generator: Tr(L rho) = 0 for all rho
    row = np.eye(basis.dim).reshape(-1) @ lop.entries
    assert np.abs(row).max() < 1e-12 * lop.norm_inf()


def test_single_dot_relaxation_spectrum():
    # pumped/damped two-level dot: eigenvalues 0, -(P+g), -(P+g)/2 +- i w
    pump, decay, omega = 0.25, 0.1, 1.3
    p = ModelParams(
        omega0=1.0, omega1=omega, omega2=2.0, tunneling_T=0.0, g1=0.0, g2=0.0,
        gamma1=decay, gamma2=0.1, pump1=pump, pump2=0.0, cavity_pump=0.0,
        kappa=0.0, zeta=0.0, temperature=4.0,
    )
    lop = build_liouvillian(p, CompositeBasis(1))
    eigs = np.linalg.eigvals(lop.entries)
    scale = lop.norm_inf()
    total = pump + decay
    for target in (0.0, -total, -total / 2 + 1j * omega, -total / 2 - 1j * omega):
        assert np.abs(eigs - target).min() < 1e-10 * scale


def test_apply_rejects_wrong_length(laucht):
    basis = CompositeBasis(1)
    lop = build_liouvillian(laucht, basis)
    with pytest.raises(ValueError):
        lop.apply(np.zeros(7, dtype=complex))


def test_generator_entries_are_read_only_and_shape_checked(laucht):
    basis = CompositeBasis(1)
    lop = build_liouvillian(laucht, basis)
    with pytest.raises(ValueError):
        lop.entries[0, 0] = 1.0
    with pytest.raises(ValueError):
        SuperoperatorMatrix(basis, np.zeros((3, 3), dtype=complex))


def _random_params(rng, *, gains=True, zeta=True):
    u = lambda lo, hi: float(rng.uniform(lo, hi))
    return ModelParams(
        omega0=u(1.0, 2.0), omega1=u(1.0, 1.5), omega2=u(1.5, 2.0), tunneling_T=u(0.0, 0.5),
        g1=u(0.0, 0.5), g2=u(0.0, 0.5), gamma1=u(0.01, 0.3), gamma2=u(0.01, 0.3),
        pump1=u(0.01, 0.3) if gains else 0.0, pump2=u(0.01, 0.3) if gains else 0.0,
        cavity_pump=u(0.01, 0.1) if gains else 0.0, kappa=u(0.3, 1.0),
        zeta=u(0.01, 0.3) if zeta else 0.0, temperature=u(1.0, 10.0),
    )


def test_sector_indices_partition_the_vec_positions():
    # every rho[i, j] belongs to exactly one sector k = N_i - N_j, listed in vec
    # order for k != 0; k = 0 lists the diagonal, each I < J, then each partner
    a, s1, s2 = oracles.index_built_operators(2)
    n = np.rint(np.diag(a.conj().T @ a + s1.conj().T @ s1 + s2.conj().T @ s2).real)
    d = n.size
    seen = []
    for k in range(-4, 5):
        ket, bra, pos = sector_indices(2, k)
        assert not (ket.flags.writeable or bra.flags.writeable or pos.flags.writeable)
        assert np.all(n[ket] - n[bra] == k)
        labels = np.arange(d * d).reshape(d, d)
        assert np.array_equal(vec(labels)[pos], labels[ket, bra])
        if k == 0:
            h = (pos.size + d) // 2
            assert np.array_equal(ket[:d], np.arange(d)) and np.array_equal(bra[:d], np.arange(d))
            assert np.all(ket[d:h] < bra[d:h]) and np.all(np.diff(pos[d:h]) > 0)
            assert np.array_equal(ket[h:], bra[d:h]) and np.array_equal(bra[h:], ket[d:h])
        else:
            assert np.all(np.diff(pos) > 0)
        seen.extend(pos)
    assert sorted(seen) == list(range(d * d))


@pytest.mark.parametrize("n_max", [1, 2, 3])
@pytest.mark.parametrize("gains", [False, True], ids=["gains-off-zeta-0", "all-channels"])
def test_sector_block_equals_dense_slice_exactly(n_max, gains):
    rng = np.random.default_rng(40 + n_max)
    basis = CompositeBasis(n_max)
    for _ in range(3):
        p = _random_params(rng, gains=gains, zeta=gains)
        dense = build_liouvillian(p, basis).entries
        for k in range(-2, 3):
            _, _, pos = sector_indices(n_max, k)
            assert np.array_equal(sector_block(p, basis, k), dense[np.ix_(pos, pos)])


def test_term_cache_is_read_only_small_and_never_handed_out():
    # every cached array is frozen; sector_block hands out a fresh, writeable copy
    n_max = 7
    basis = CompositeBasis(n_max)
    p = _random_params(np.random.default_rng(50))
    for group in model_terms(n_max):
        assert all(not op.flags.writeable for op in group.values())
        with pytest.raises(TypeError):
            group["kappa"] = None
    cached = 0
    for k in range(-(n_max + 2), n_max + 3):
        arrays = _sector_terms(n_max, k)
        assert not any(arr.flags.writeable for arr in arrays)
        cached += sum(arr.nbytes for arr in arrays)
        first, second = sector_block(p, basis, k), sector_block(p, basis, k)
        assert first.flags.writeable and np.array_equal(first, second)
        assert not np.shares_memory(first, second)
        assert not any(np.shares_memory(first, arr) for arr in arrays)
    assert cached < 4 * 2**20


def test_warm_caches_build_no_operators(monkeypatch):
    # after one warm-up call no result path may rebuild a, sigma1 or sigma2
    spec = SweepSpec(_ALL_CHANNELS, SweepAxis("tunneling_T", 0.1, 1.0, 2),
                     SweepAxis("zeta", 0.01, 0.1, 2), observables=("n_cavity", "g2_zero"), n_max=2)
    basis = CompositeBasis(2)
    sector_steady_state(_ALL_CHANNELS, basis)
    pl_spectrum(_ALL_CHANNELS, n_max=2)
    evaluate_point(spec, 0.1, 0.01)

    def refuse(*args, **kwargs):
        raise AssertionError("operator rebuilt on a warm cache")

    bound = [m for name, m in list(sys.modules.items()) if name.split(".")[0] == "dqdcavity"]
    for module in bound:
        for name in ("annihilation", "qubit_lowering"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    point = _ALL_CHANNELS.replace(tunneling_T=0.45, zeta=0.07)
    sector_steady_state(point, basis)
    pl_spectrum(point, n_max=2)
    assert evaluate_point(spec, 0.45, 0.07)["status"] == "ok"
