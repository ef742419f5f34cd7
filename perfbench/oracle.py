"""Independent reference physics for the benchmark's output checks.

Nothing here imports dqdcavity. The generator is assembled by applying the
master-equation right-hand side to every matrix unit E_ij (not by Kronecker
products), vectorised in row-major order (not column stacking), and the
steady state is the null vector of the excitation-conserving block from an
SVD (not an LU solve with a trace row). Only the physics is shared with the
program: the basis order |n, s1, s2> -> n*4 + s1*2 + s2 and the channel list.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

KB_MEV_PER_K = 0.08617333


def phat_rates(p: dict) -> tuple[float, float]:
    """(gamma_T, p_T): downhill (n+1)*zeta and uphill n*zeta with the Bose factor n."""
    delta = p["omega2"] - p["omega1"]
    if p["zeta"] == 0.0:
        return 0.0, 0.0
    n_th = 1.0 / np.expm1(abs(delta) / (KB_MEV_PER_K * p["temperature"]))
    if delta > 0:
        return (n_th + 1.0) * p["zeta"], n_th * p["zeta"]
    return n_th * p["zeta"], (n_th + 1.0) * p["zeta"]


def operators(n_max: int):
    """(a, sigma1, sigma2, N) filled element by element from the index law."""
    dim = 4 * (n_max + 1)
    a = np.zeros((dim, dim), dtype=complex)
    s1 = np.zeros((dim, dim), dtype=complex)
    s2 = np.zeros((dim, dim), dtype=complex)
    excitations = np.zeros(dim, dtype=int)
    for n in range(n_max + 1):
        for x1 in (0, 1):
            for x2 in (0, 1):
                i = 4 * n + 2 * x1 + x2
                excitations[i] = n + x1 + x2
                if n >= 1:
                    a[i - 4, i] = np.sqrt(n)
                if x1:
                    s1[i - 2, i] = 1.0
                if x2:
                    s2[i - 1, i] = 1.0
    return a, s1, s2, excitations


@dataclass
class Reference:
    """Dense generator and its steady state at one parameter point."""

    n_max: int
    a: np.ndarray
    s1: np.ndarray
    s2: np.ndarray
    generator: np.ndarray  # row-major vectorisation: x[i*d + j] = X[i, j]
    sector: np.ndarray  # N_ket - N_bra of every vectorised entry
    rho: np.ndarray

    def expect(self, op: np.ndarray) -> float:
        return float(np.trace(self.rho @ op).real)

    def occupations(self) -> dict:
        a, s1, s2 = self.a, self.s1, self.s2
        return {
            "n_cavity": self.expect(a.conj().T @ a),
            "n_qd1": self.expect(s1.conj().T @ s1),
            "n_qd2": self.expect(s2.conj().T @ s2),
        }

    def top_rung_population(self) -> float:
        d = self.rho.shape[0]
        return float(np.trace(self.rho[d - 4:, d - 4:]).real)

    def g2_zero(self) -> float:
        ad = self.a.conj().T
        n = self.expect(ad @ self.a)
        return self.expect(ad @ ad @ self.a @ self.a) / n**2

    def g2_tau(self, taus) -> np.ndarray:
        """Tr[a+a e^{L tau}(a rho a+)] / <n>^2 by matrix exponentials on the k = 0 block."""
        a, ad = self.a, self.a.conj().T
        idx = np.flatnonzero(self.sector == 0)
        block = self.generator[np.ix_(idx, idx)]
        x = (a @ self.rho @ ad).reshape(-1)[idx]
        readout = (ad @ a).T.reshape(-1)[idx]  # Tr[A X] = sum_ij A_ji X_ij
        n = self.expect(ad @ a)
        return np.array(
            [complex(readout @ (scipy.linalg.expm(block * t) @ x)).real for t in taus]
        ) / n**2

    def spectrum(self, omegas, kappa: float) -> np.ndarray:
        """(kappa/pi) Re Tr[a (-L - i w)^-1 (rho a+)] on the k = +1 block."""
        a = self.a
        idx = np.flatnonzero(self.sector == 1)
        block = self.generator[np.ix_(idx, idx)]
        x = (self.rho @ a.conj().T).reshape(-1)[idx]
        readout = a.T.reshape(-1)[idx]
        eye = np.eye(idx.size)
        return np.array(
            [(kappa / np.pi) * complex(readout @ np.linalg.solve(-block - 1j * w * eye, x)).real
             for w in omegas]
        )


def reference(p: dict, n_max: int) -> Reference:
    """Build the generator column by column and solve for its unique steady state."""
    a, s1, s2, excitations = operators(n_max)
    d = a.shape[0]
    ad, s1d, s2d = a.conj().T, s1.conj().T, s2.conj().T
    h = (p["omega0"] * ad @ a + p["omega1"] * s1d @ s1 + p["omega2"] * s2d @ s2
         + p["tunneling_T"] * (s1d @ s2 + s2d @ s1)
         + p["g1"] * (s1d @ a + ad @ s1) + p["g2"] * (s2d @ a + ad @ s2))
    gamma_t, p_t = phat_rates(p)
    channels = [
        (p["gamma1"], s1), (p["gamma2"], s2), (p["pump1"], s1d), (p["pump2"], s2d),
        (p["cavity_pump"], ad), (p["kappa"], a), (gamma_t, s1d @ s2), (p_t, s2d @ s1),
    ]
    # units[k] = E_ij with k = i*d + j; the image of each unit is one column
    units = np.eye(d * d, dtype=complex).reshape(d * d, d, d)
    image = -1j * (h @ units - units @ h)
    for rate, c in channels:
        if rate == 0.0:
            continue
        cdc = c.conj().T @ c
        image += rate * (c @ units @ c.conj().T - 0.5 * (cdc @ units + units @ cdc))
    generator = image.reshape(d * d, d * d).T.copy()
    sector = (excitations[:, None] - excitations[None, :]).reshape(-1)

    zero = sector == 0
    leak = np.abs(generator[np.ix_(~zero, zero)]).max()
    if leak > 1e-12 * np.abs(generator).max():
        raise AssertionError(f"generator couples k = 0 to other sectors ({leak:.2e})")
    idx = np.flatnonzero(zero)
    _, sing, vh = np.linalg.svd(generator[np.ix_(idx, idx)])
    if sing[-2] < 1e-9 * sing[0]:
        raise AssertionError("reference steady state is not unique")
    x = np.zeros(d * d, dtype=complex)
    x[idx] = vh[-1].conj()
    rho = x.reshape(d, d)
    rho = 0.5 * (rho + rho.conj().T)
    rho /= np.trace(rho).real
    return Reference(n_max, a, s1, s2, generator, sector, rho)


def flux_residual(p: dict, n_c: float, n1: float, n2: float) -> tuple[float, float]:
    """(out - in, out) of the excitation balance kappa n_c + gamma n = P_c (n_c+1) + P (1-n).

    The balance is exact without a photon cutoff; at cutoff n_max the cavity
    feed misses (n_max+1) * P_c * p_top, so callers size the tolerance to that.
    """
    out = p["kappa"] * n_c + p["gamma1"] * n1 + p["gamma2"] * n2
    inflow = p["cavity_pump"] * (n_c + 1.0) + p["pump1"] * (1.0 - n1) + p["pump2"] * (1.0 - n2)
    return out - inflow, out


def line_sums(p: dict) -> tuple[float, float]:
    """Sum of the three line frequencies and of their half widths (trace of the 3x3 block)."""
    gamma_t, p_t = phat_rates(p)
    freq = p["omega0"] + p["omega1"] + p["omega2"]
    hwhm = 0.5 * (p["kappa"] + p["gamma1"] + p["gamma2"] + gamma_t + p_t)
    return freq, hwhm
