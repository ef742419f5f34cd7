"""Independent reference routes used to check library results.

Everything here is deliberately written without calling into dqdcavity,
so a bug in the package cannot hide behind itself: closed-form algebra,
explicit Kronecker constructions, the generator's null vector by SVD,
stepwise matrix exponentials, and a brute-force half-Fourier transform.
"""

import numpy as np
import scipy.linalg


def two_level_steady_population(pump: float, decay: float) -> float:
    """Occupation of a two-level system with incoherent gain and loss."""
    return pump / (pump + decay)


def thermal_cavity_moments(gain: float, loss: float) -> tuple[float, float]:
    """(mean occupation, g2(0)) for a linear cavity with gain < loss."""
    if gain >= loss:
        raise ValueError("gain must stay below loss for a steady state")
    n = gain / (loss - gain)
    return n, 2.0


def bose_occupation(energy: float, kb_t: float) -> float:
    return 1.0 / np.expm1(energy / kb_t)


def cubic_roots(b: complex, c: complex, d: complex) -> np.ndarray:
    """Roots of x^3 + b x^2 + c x + d with complex coefficients (Cardano).

    Avoids any eigenvalue routine on purpose; used to cross-check the
    3x3 transition matrix spectra through an unrelated algorithm.
    """
    b, c, d = complex(b), complex(c), complex(d)
    p = c - b * b / 3.0
    q = 2.0 * b**3 / 27.0 - b * c / 3.0 + d
    if abs(p) < 1e-300 and abs(q) < 1e-300:
        return np.full(3, -b / 3.0, dtype=complex)
    disc = np.sqrt(complex(q * q / 4.0 + p**3 / 27.0))
    # pick the branch that keeps |u^3| large: dodges cancellation
    u3 = -q / 2.0 + disc
    if abs(u3) < abs(-q / 2.0 - disc):
        u3 = -q / 2.0 - disc
    u = u3 ** (1.0 / 3.0)
    omega = np.exp(2j * np.pi / 3.0)
    roots = []
    for k in range(3):
        uk = u * omega**k
        roots.append(uk - p / (3.0 * uk) - b / 3.0)
    return np.asarray(roots, dtype=complex)


def characteristic_cubic(m: np.ndarray) -> tuple[complex, complex, complex]:
    """Coefficients (b, c, d) of det(xI - m) = x^3 + b x^2 + c x + d."""
    m = np.asarray(m, dtype=complex)
    assert m.shape == (3, 3)
    tr = np.trace(m)
    tr2 = np.trace(m @ m)
    det = (
        m[0, 0] * (m[1, 1] * m[2, 2] - m[1, 2] * m[2, 1])
        - m[0, 1] * (m[1, 0] * m[2, 2] - m[1, 2] * m[2, 0])
        + m[0, 2] * (m[1, 0] * m[2, 1] - m[1, 1] * m[2, 0])
    )
    b = -tr
    c = (tr * tr - tr2) / 2.0
    d = -det
    return b, c, d


def matrix_eigenvalues_3x3(m: np.ndarray) -> np.ndarray:
    return cubic_roots(*characteristic_cubic(m))


def index_built_operators(n_max: int):
    """(a, sigma1, sigma2) filled element by element from the flat index law.

    flat = n*4 + s1*2 + s2, ground level first. Loop construction on
    purpose: the package assembles these by Kronecker products, so the
    two routes share nothing but the convention.
    """
    dim = (n_max + 1) * 4
    flat = lambda n, s1, s2: n * 4 + s1 * 2 + s2
    a = np.zeros((dim, dim), dtype=complex)
    s1_op = np.zeros((dim, dim), dtype=complex)
    s2_op = np.zeros((dim, dim), dtype=complex)
    for n in range(n_max + 1):
        for s1 in (0, 1):
            for s2 in (0, 1):
                if n >= 1:
                    a[flat(n - 1, s1, s2), flat(n, s1, s2)] = np.sqrt(n)
                if s1 == 1:
                    s1_op[flat(n, 0, s2), flat(n, 1, s2)] = 1.0
                if s2 == 1:
                    s2_op[flat(n, s1, 0), flat(n, s1, 1)] = 1.0
    return a, s1_op, s2_op


def dissipator_action(op: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """O rho O+ - {O+O, rho}/2 evaluated directly on a density matrix."""
    odo = op.conj().T @ op
    return op @ rho @ op.conj().T - 0.5 * (odo @ rho + rho @ odo)


def generator_by_columns(h: np.ndarray, channels) -> np.ndarray:
    """Lindblad generator built one matrix unit at a time.

    Column j*d + i holds the column-stacked -i[H, E_ij] + sum rate * D[O](E_ij),
    where E_ij is the d x d matrix with a single 1 at (i, j) and channels is
    an iterable of (rate, O). No Kronecker products, unlike the package.
    """
    d = h.shape[0]
    out = np.empty((d * d, d * d), dtype=complex)
    for j in range(d):
        for i in range(d):
            e = np.zeros((d, d), dtype=complex)
            e[i, j] = 1.0
            col = -1j * (h @ e - e @ h)
            for rate, op in channels:
                col += rate * dissipator_action(op, e)
            out[:, j * d + i] = col.reshape(-1, order="F")
    return out


def expectation(rho: np.ndarray, op: np.ndarray) -> complex:
    """Tr(rho O) of two d x d arrays."""
    return complex(np.trace(rho @ op))


def null_vector_state(generator: np.ndarray) -> np.ndarray:
    """Unit-trace density matrix spanning the kernel of a column-stacked generator.

    Takes the right singular vector of the smallest singular value, so no
    row is replaced and no linear system is factored, unlike the package.
    """
    d = int(round(np.sqrt(generator.shape[0])))
    _, _, vh = np.linalg.svd(generator)
    rho = vh[-1].conj().reshape((d, d), order="F")
    rho = 0.5 * (rho + rho.conj().T)
    return rho / np.trace(rho).real


def expm_correlation(generator, rho, op_left, op_right, op_obs, taus) -> np.ndarray:
    """Tr[op_obs e^{L tau}(op_right rho op_left)] by stepwise scipy.linalg.expm.

    Delays are visited in increasing order and the state is carried from one
    to the next with expm(L * step); no eigendecomposition is involved.
    """
    d = rho.shape[0]
    taus = np.asarray(taus, dtype=float)
    x = (op_right @ rho @ op_left).reshape(-1, order="F")
    out = np.empty(taus.shape, dtype=complex)
    reached = 0.0
    steps = {}
    for i in np.argsort(taus, kind="stable"):
        dt = float(taus[i]) - reached
        if dt > 0.0:
            if dt not in steps:
                steps[dt] = scipy.linalg.expm(generator * dt)
            x = steps[dt] @ x
            reached = float(taus[i])
        out[i] = np.trace(op_obs @ x.reshape((d, d), order="F"))
    return out


def half_fourier(taus: np.ndarray, values: np.ndarray, omegas: np.ndarray) -> np.ndarray:
    """(1/pi) Re Int_0^T G(tau) e^{i w tau} dtau by trapezoid rule."""
    taus = np.asarray(taus, dtype=float)
    values = np.asarray(values, dtype=complex)
    phases = np.exp(1j * np.outer(np.asarray(omegas, dtype=float), taus))
    return np.trapezoid(phases * values[None, :], taus, axis=1).real / np.pi


def lorentzian(omegas: np.ndarray, center: float, hwhm: float, weight: float) -> np.ndarray:
    """weight * (hwhm/pi) / ((w-center)^2 + hwhm^2); unit area at weight=1."""
    return weight * (hwhm / np.pi) / ((omegas - center) ** 2 + hwhm**2)


def random_density_matrix(rng: np.random.Generator, dim: int) -> np.ndarray:
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = m @ m.conj().T
    return rho / np.trace(rho)
