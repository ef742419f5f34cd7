"""Output checks against oracle.py, run outside the timed region.

Every row is checked for its status, its grid coordinates and a
conservation law; a few seeded rows per request are checked against a full
independent solve. ``check_request`` raises CheckError on any mismatch and
returns the number of points whose status was not ok.
"""

from __future__ import annotations

import csv
import glob
import json
import os
import random
import shutil

import numpy as np

import oracle
from workloads import HIGH_N_MAX, ZETA_POINTS

# excitation balance out - in, relative to the outflow. At a photon cutoff the
# cavity feed misses (n_max+1) * P_c * p_top: about 4e-4 at n_max 3 with
# laucht-strong feeding and 3e-9 at n_max 7
FLUX_TOL = {3: 2e-3, HIGH_N_MAX: 1e-7}
# program against the independent solve, relative
REF_TOL = 1e-8
# g2 at the shortest delay 1e-3/kappa against g2(0): the delay is not zero,
# and the first-order drift is about 3e-4 relative
G2_SHORT_TOL = 2e-3
G2_LONG_TOL = 1e-4
SPECTRUM_TOL = 1e-8  # relative to the spectrum's maximum
SAMPLES = 2  # reference solves per request


class CheckError(Exception):
    pass


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


def _close(value: float, ref: float, rtol: float, what: str, atol: float = 0.0) -> None:
    _require(abs(value - ref) <= rtol * abs(ref) + atol,
             f"{what}: {float(value)!r} against reference {float(ref)!r}")


def _read_csv(path: str) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    _require(bool(rows), f"{path} is empty")
    return rows[0], rows[1:]


def _write_csv(path: str, header: list[str], rows: list[list[str]]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _samples(key: str, count: int) -> list[int]:
    return random.Random(key).sample(range(count), min(SAMPLES, count))


def _check_flux(p: dict, n_max: int, n_c: float, n1: float, n2: float, where: str,
                ref: oracle.Reference | None = None) -> None:
    residual, out = oracle.flux_residual(p, n_c, n1, n2)
    _require(abs(residual) <= FLUX_TOL[n_max] * out,
             f"{where}: excitation balance off by {residual / out:.2e} of the outflow")
    if ref is not None:
        missing = (n_max + 1) * p["cavity_pump"] * ref.top_rung_population()
        _require(abs(residual + missing) <= 1e-9 * out,
                 f"{where}: balance with the cutoff term off by {(residual + missing) / out:.2e}")


# --- population-map ---------------------------------------------------------

MAP_HEADER = ["tunneling_T", "zeta", "n_cavity", "n_qd1", "n_qd2", "g2_zero", "status", "error"]


def _map_grid(item: dict):
    (_, lo1, hi1, n1), (_, lo2, hi2, n2) = item["axis1"], item["axis2"]
    return np.geomspace(lo1, hi1, n1), np.geomspace(lo2, hi2, n2)


def check_population_map(item: dict, reqdir: str, stdout: str, key: str) -> int:
    header, rows = _read_csv(os.path.join(reqdir, "map.csv"))
    _require(header == MAP_HEADER, f"sweep header {header}")
    ax1, ax2 = _map_grid(item)
    _require(len(rows) == ax1.size * ax2.size, f"sweep has {len(rows)} rows")
    failed = 0
    samples = set(_samples(key, len(rows)))
    for k, row in enumerate(rows):
        i, j = divmod(k, ax2.size)
        _close(float(row[0]), ax1[i], 1e-12, f"row {k} tunneling_T")
        _close(float(row[1]), ax2[j], 1e-12, f"row {k} zeta")
        if row[6] != "ok":
            failed += 1
            continue
        p = dict(item["params"], tunneling_T=float(ax1[i]), zeta=float(ax2[j]))
        n_c, n1, n2, g2 = map(float, row[2:6])
        _require(n_c > 0 and 0 < n1 < 1 and 0 < n2 < 1 and g2 > 0, f"row {k} out of range: {row}")
        ref = None
        if k in samples:
            ref = oracle.reference(p, 3)
            occupations = ref.occupations()
            for name, value in zip(("n_cavity", "n_qd1", "n_qd2"), (n_c, n1, n2)):
                _close(value, occupations[name], REF_TOL, f"row {k} {name}")
            _close(g2, ref.g2_zero(), REF_TOL, f"row {k} g2_zero")
        _check_flux(p, 3, n_c, n1, n2, f"row {k}", ref)
    return failed


def perturb_population_map(reqdir: str, stdout: str, key: str) -> None:
    path = os.path.join(reqdir, "map.csv")
    header, rows = _read_csv(path)
    k = _samples(key, len(rows))[0]
    rows[k][2] = format(float(rows[k][2]) * (1 + 1e-6), ".17g")
    _write_csv(path, header, rows)


# --- spectra-panel ----------------------------------------------------------

SPECTRA_HEADER = ["tunneling_T", "zeta", "omega_mev", "offset_mev", "intensity"]
LINES_HEADER = ["tunneling_T", "zeta", "line_index", "frequency_mev", "offset_mev", "hwhm_mev"]
FREQ_SAMPLES = 4


def _groups(rows: list[list[str]]) -> dict:
    """Rows grouped by their (tunneling_T, zeta) cells, in file order."""
    out: dict = {}
    for row in rows:
        out.setdefault((row[0], row[1]), []).append(row)
    return out


def _panel_files(reqdir: str, stdout: str):
    envelope = json.loads(stdout)
    _require(envelope.get("kind") == "figures", "figures envelope kind")
    files = envelope["data"]["files"]
    spectra = sorted(glob.glob(os.path.join(reqdir, "fig2_spectra_T*.csv")))
    lines = sorted(glob.glob(os.path.join(reqdir, "fig2_lines_T*.csv")))
    _require(len(spectra) == 3 and len(lines) == 3, f"panel files {files}")
    _require(sorted(files) == sorted(os.path.basename(f) for f in spectra + lines),
             f"envelope lists {files}")
    return spectra, lines


def check_spectra_panel(item: dict, reqdir: str, stdout: str, key: str) -> int:
    spectra_files, lines_files = _panel_files(reqdir, stdout)
    zetas = np.geomspace(1e-3, 10.0, ZETA_POINTS)
    params = item["params"]
    failed = 0
    spectra = []
    for path in lines_files:
        header, rows = _read_csv(path)
        _require(header == LINES_HEADER, f"{path} header {header}")
        groups = _groups(rows)
        for (tun, z), group in groups.items():
            _require([r[2] for r in group] == ["1", "2", "3"], f"{path} zeta {z} line indices")
            p = dict(params, tunneling_T=float(tun), zeta=float(z))
            freq, hwhm = oracle.line_sums(p)
            _close(sum(float(r[3]) for r in group), freq, 1e-13, f"{path} zeta {z} frequency sum")
            _close(sum(float(r[5]) for r in group), hwhm, 1e-9, f"{path} zeta {z} hwhm sum")
    for path in spectra_files:
        header, rows = _read_csv(path)
        _require(header == SPECTRA_HEADER, f"{path} header {header}")
        groups = _groups(rows)
        found = [float(z) for _, z in groups]
        missing = [z for z in zetas if not any(abs(z - f) <= 1e-12 * z for f in found)]
        _require(len(found) + len(missing) == zetas.size, f"{path} has unexpected zeta values {found}")
        failed += len(missing)  # a failed panel point is left out of the table
        for (tun, z), group in groups.items():
            values = np.array([[float(r[2]), float(r[4])] for r in group])
            _require(values.shape[0] >= 2 and np.all(np.diff(values[:, 0]) > 0),
                     f"{path} zeta {z} frequency grid")
            top = values[:, 1].max()
            _require(top > 0 and values[:, 1].min() >= -SPECTRUM_TOL * top,
                     f"{path} zeta {z} negative intensity")
            spectra.append((path, tun, z, values))
    for s in _samples(key, len(spectra)):
        path, tun, z, values = spectra[s]
        p = dict(params, tunneling_T=float(tun), zeta=float(z))
        picks = random.Random(f"{key}:{s}").sample(range(values.shape[0]), FREQ_SAMPLES)
        ref = oracle.reference(p, 3).spectrum(values[picks, 0], p["kappa"])
        top = values[:, 1].max()
        for pick, r in zip(picks, ref):
            _close(values[pick, 1], r, 0.0, f"{path} zeta {z} intensity at {values[pick, 0]}",
                   atol=SPECTRUM_TOL * top)
    return failed


def perturb_spectra_panel(reqdir: str, stdout: str, key: str) -> None:
    spectra_files, _ = _panel_files(reqdir, stdout)
    where = []
    for path in spectra_files:
        header, rows = _read_csv(path)
        start = 0
        for group in _groups(rows).values():
            where.append((path, start, len(group)))
            start += len(group)
    s = _samples(key, len(where))[0]
    path, start, size = where[s]
    pick = random.Random(f"{key}:{s}").sample(range(size), FREQ_SAMPLES)[0]
    header, rows = _read_csv(path)
    top = max(float(r[4]) for r in rows[start:start + size])
    row = rows[start + pick]
    row[4] = format(float(row[4]) + 1e-6 * top, ".17g")
    _write_csv(path, header, rows)


# --- high-cutoff ------------------------------------------------------------

G2_HEADER = ["tau_hbar_per_mev", "tau_kappa", "g2"]
TAU_POINTS = 200


def check_high_cutoff(item: dict, reqdir: str, stdout: str, key: str) -> int:
    p = item["params"]
    with open(os.path.join(reqdir, "steady.json"), encoding="utf-8") as fh:
        envelope = json.load(fh)
    _require(envelope.get("kind") == "steady", "steady envelope kind")
    data = envelope["data"]
    ref = oracle.reference(p, HIGH_N_MAX)
    occupations = ref.occupations()
    for name in ("n_cavity", "n_qd1", "n_qd2"):
        _close(float(data[name]), occupations[name], REF_TOL, f"steady {name}")
    _check_flux(p, HIGH_N_MAX, data["n_cavity"], data["n_qd1"], data["n_qd2"], "steady", ref)

    header, rows = _read_csv(os.path.join(reqdir, "g2.csv"))
    _require(header == G2_HEADER, f"g2 header {header}")
    values = np.array([[float(c) for c in r] for r in rows])
    taus = np.geomspace(1e-3 / p["kappa"], 1e2 / p["kappa"], TAU_POINTS)
    _require(values.shape == (TAU_POINTS, 3), f"g2 table shape {values.shape}")
    _require(np.allclose(values[:, 0], taus, rtol=1e-12, atol=0.0), "g2 delay grid")
    g2 = values[:, 2]
    _close(g2[-1], 1.0, 0.0, "g2 at the longest delay", atol=G2_LONG_TOL)
    _close(g2[0], ref.g2_zero(), G2_SHORT_TOL, "g2 at the shortest delay against g2(0)")
    picks = [0, TAU_POINTS - 1] + _samples(key, TAU_POINTS)
    for pick, r in zip(picks, ref.g2_tau(taus[picks])):
        _close(g2[pick], r, REF_TOL, f"g2 at tau {taus[pick]!r}")
    return 0


def perturb_high_cutoff(reqdir: str, stdout: str, key: str) -> None:
    path = os.path.join(reqdir, "steady.json")
    with open(path, encoding="utf-8") as fh:
        envelope = json.load(fh)
    envelope["data"]["n_qd1"] *= 1 + 1e-6
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(envelope, fh)


CHECKS = {
    "population-map": (check_population_map, perturb_population_map),
    "spectra-panel": (check_spectra_panel, perturb_spectra_panel),
    "high-cutoff": (check_high_cutoff, perturb_high_cutoff),
}


def check_request(workload: str, item: dict, request: dict, key: str) -> int:
    """Failed points of one request; raises CheckError when an output is wrong."""
    if any(code != 0 for code in request["codes"]):
        return request["points"]
    check, _ = CHECKS[workload]
    return check(item, request["dir"], request["stdout"], key)


def checker_rejects_perturbation(workload: str, item: dict, request: dict, key: str,
                                 scratch: str) -> bool:
    """Copy one good request, move one checked value by 1e-6 of its scale, and re-check."""
    check, perturb = CHECKS[workload]
    shutil.copytree(request["dir"], scratch)
    perturb(scratch, request["stdout"], key)
    try:
        check(item, scratch, request["stdout"], key)
    except CheckError:
        return True
    finally:
        shutil.rmtree(scratch)
    return False
