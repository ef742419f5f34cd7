"""Physical model: parameters, phonon-assisted tunneling rates, Hamiltonian, jump channels.

All energies and rates are in meV (hbar = 1), temperatures in kelvin. With these
units one time unit equals hbar/meV ~ 0.6582 ps.
The model is written once, as model_terms: every Hamiltonian and Lindblad
term is a coefficient name paired with an operator built once per cutoff.
hamiltonian, jump_operators and the generator are read off that table.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from .hilbert import CompositeBasis, OperatorMatrix, annihilation, frozen_array, qubit_lowering

BOLTZMANN_MEV_PER_K = 0.08617333
_LOG_DBL_MAX = math.log(np.finfo(float).max)

_RATE_FIELDS = ("g1", "g2", "gamma1", "gamma2", "pump1", "pump2", "cavity_pump", "kappa", "zeta")


@dataclass(frozen=True)
class ModelParams:
    """Parameters of the two-dot + cavity model.

    Attributes
    ----------
    omega0, omega1, omega2 : float
        Cavity and exciton transition energies (meV), strictly positive.
    tunneling_T : float
        Coherent inter-dot tunneling amplitude (meV), non-negative.
    g1, g2 : float
        Dot-cavity coupling constants (meV).
    gamma1, gamma2 : float
        Exciton spontaneous emission rates (meV).
    pump1, pump2 : float
        Incoherent exciton pumping rates (meV).
    cavity_pump : float
        Incoherent cavity feeding rate (meV).
    kappa : float
        Cavity photon escape rate (meV).
    zeta : float
        Bare phonon-assisted tunneling (PhAT) rate (meV).
    temperature : float
        Phonon bath temperature (K), strictly positive.
    """

    omega0: float
    omega1: float
    omega2: float
    tunneling_T: float
    g1: float
    g2: float
    gamma1: float
    gamma2: float
    pump1: float
    pump2: float
    cavity_pump: float
    kappa: float
    zeta: float
    temperature: float

    def __post_init__(self):
        for name in ("omega0", "omega1", "omega2", "temperature"):
            v = getattr(self, name)
            if not math.isfinite(v) or v <= 0.0:
                raise ValueError(f"{name} must be finite and > 0, got {v!r}")
        for name in _RATE_FIELDS + ("tunneling_T",):
            v = getattr(self, name)
            if not math.isfinite(v) or v < 0.0:
                raise ValueError(f"{name} must be finite and >= 0, got {v!r}")
        if self.zeta > 0.0 and self.omega1 == self.omega2:
            raise ValueError("zeta > 0 requires omega1 != omega2 (thermal factor undefined)")

    def replace(self, **changes) -> "ModelParams":
        """Copy with fields replaced; validation reruns on the copy."""
        return dataclasses.replace(self, **changes)

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)


def preset(name: str, **overrides) -> ModelParams:
    """Named parameter set, optionally with field overrides.

    ``laucht-strong``: strong-coupling operating point; dot-cavity couplings of
    a few hundred ueV against a 147 ueV photon escape rate, weak incoherent
    pumping, 4 K. ``fig3-right``: same energies, but meV-scale dot pumping, no
    direct cavity feeding, and a fast cavity; used for photon-statistics maps.
    """
    try:
        base = dict(_PRESETS[name])
    except KeyError:
        raise ValueError(f"unknown preset {name!r}; available: {', '.join(sorted(_PRESETS))}")
    base.update(overrides)
    return ModelParams(**base)


def preset_names() -> tuple[str, ...]:
    return tuple(sorted(_PRESETS))


_PRESETS = {
    "laucht-strong": dict(
        omega0=1218.0,
        omega1=1218.0,
        omega2=1218.1,
        tunneling_T=0.01,
        g1=0.44,
        g2=0.51,
        gamma1=0.0001,
        gamma2=0.0008,
        pump1=0.0015,
        pump2=0.0019,
        cavity_pump=0.0057,
        kappa=0.147,
        zeta=0.01,
        temperature=4.0,
    ),
    "fig3-right": dict(
        omega0=1218.0,
        omega1=1218.0,
        omega2=1218.1,
        tunneling_T=0.01,
        g1=1.218,
        g2=1.218,
        gamma1=0.01752,
        gamma2=0.01752,
        pump1=1.752,
        pump2=1.752,
        cavity_pump=0.0,
        kappa=12.18,
        zeta=0.01,
        temperature=4.0,
    ),
}


def thermal_occupation(delta: float, temperature: float) -> float:
    """Bose-Einstein occupation 1/(exp(delta/(kB*T)) - 1) at energy delta (meV)."""
    if not delta > 0.0:  # written so that NaN fails too
        raise ValueError(f"delta must be > 0 for a thermal factor, got {delta!r}")
    if not temperature > 0.0:
        raise ValueError(f"temperature must be > 0, got {temperature!r}")
    x = delta / (BOLTZMANN_MEV_PER_K * temperature)
    # expm1 overflows past log(DBL_MAX), where 1/expm1(x) is exp(-x) to double
    # precision. Below 1/DBL_MAX the quotient overflows, which a Python float
    # division rounds to inf without a warning; x underflows to 0 only there.
    if x > _LOG_DBL_MAX:
        return math.exp(-x)
    return 1.0 / float(np.expm1(x)) if x != 0.0 else math.inf


@dataclass(frozen=True)
class PhatRates:
    """Thermal phonon-assisted tunneling rates.

    gamma_T multiplies the sigma1^dag sigma2 channel (transfer toward dot 1),
    p_T multiplies sigma2^dag sigma1 (transfer toward dot 2). n_th is the
    phonon occupation at the inter-dot detuning; it is 0 by convention when
    zeta = 0 and the detuning vanishes.
    """

    gamma_T: float
    p_T: float
    n_th: float
    delta: float


def phat_rates(params: ModelParams) -> PhatRates:
    """PhAT rates for the given parameters.

    The phonon-emission-assisted (downhill) transfer gets (n_th + 1)*zeta and
    the absorption-assisted (uphill) one n_th*zeta, oriented by the sign of
    delta = omega2 - omega1. zeta = 0 switches both channels off.
    """
    delta = params.omega2 - params.omega1
    n_th = thermal_occupation(abs(delta), params.temperature) if delta != 0.0 else 0.0
    if params.zeta == 0.0:  # off even where n_th is inf, whose product with 0 is NaN
        return PhatRates(0.0, 0.0, n_th, delta)
    downhill, uphill = (n_th + 1.0) * params.zeta, n_th * params.zeta
    gamma_t, p_t = (downhill, uphill) if delta > 0 else (uphill, downhill)
    return PhatRates(gamma_t, p_t, n_th, delta)


@functools.lru_cache(maxsize=None)
def model_terms(n_max: int) -> tuple[MappingProxyType, ...]:
    """The model, written once: (energies, couplings, channels), built once per cutoff.

    Each maps a coefficient name (a ModelParams field, or a PhatRates field for
    gamma_T and p_T) to a read-only operator: the bare energies' number operators,
    the Hermitian couplings, and the collapse operators in jump_operators' order.
    """
    basis = CompositeBasis(n_max)
    a = annihilation(basis).entries
    s1 = qubit_lowering(basis, 1).entries
    s2 = qubit_lowering(basis, 2).entries
    ad, s1d, s2d = a.conj().T, s1.conj().T, s2.conj().T
    terms = (
        {"omega1": s1d @ s1, "omega2": s2d @ s2, "omega0": ad @ a},
        {"tunneling_T": s1d @ s2 + s2d @ s1, "g1": s1d @ a + ad @ s1, "g2": s2d @ a + ad @ s2},
        {"gamma1": s1, "gamma2": s2, "pump1": s1d, "pump2": s2d, "cavity_pump": ad, "kappa": a,
         "gamma_T": s1d @ s2, "p_T": s2d @ s1},
    )
    return tuple(MappingProxyType({name: frozen_array(op, complex) for name, op in group.items()})
                 for group in terms)


def coefficients(params: ModelParams, names) -> list[float]:
    """The coefficients that model_terms names, read off params and its PhAT rates."""
    rates = phat_rates(params)
    return [getattr(rates if name in ("gamma_T", "p_T") else params, name) for name in names]


def hamiltonian(params: ModelParams, basis: CompositeBasis) -> OperatorMatrix:
    """System Hamiltonian (meV): bare energies, coherent tunneling, dot-cavity exchange.

    Summed term by term from model_terms; every term is exactly symmetric, so
    H is exactly Hermitian, and its diagonal is the bare energies alone.
    """
    energies, couplings, _ = model_terms(basis.n_max)
    terms = {**energies, **couplings}
    h = sum(c * op for c, op in zip(coefficients(params, terms), terms.values()))
    return OperatorMatrix(basis, h)


def jump_operators(params: ModelParams, basis: CompositeBasis) -> list[tuple[float, OperatorMatrix]]:
    """Lindblad channels as (rate, collapse operator) pairs in a fixed order.

    Order: dot decays (gamma1, gamma2), dot pumps (P1, P2), cavity pump, cavity
    decay, then the two PhAT transfer channels. Channels with zero rate are
    omitted.
    """
    channels = model_terms(basis.n_max)[2]
    rates = coefficients(params, channels)
    return [(r, OperatorMatrix(basis, o)) for r, o in zip(rates, channels.values()) if r != 0.0]
