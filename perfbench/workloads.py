"""Seeded inputs and the CLI invocations that make up one request of each workload.

A request is one whole round of the same operations, so every run attempts
whole rounds whatever its length:

- population-map: one ``dqdcavity sweep`` over a GRID x GRID log
  tunneling_T x zeta grid, n_cavity/n_qd1/n_qd2/g2_zero, n_max 3, one worker
  thread per core, CSV to a file. A point is one grid point.
- spectra-panel: one ``dqdcavity figures --which 2`` with ZETA_POINTS zeta
  values per panel, serial, n_max 3. A point is one spectrum plus its lines.
- high-cutoff: ``dqdcavity steady`` then ``dqdcavity g2`` at one n_max 7
  parameter point. A point is that pair.

Only the parameters drawn here reach the program; every ModelParams field is
passed as an explicit flag, so the checks never depend on the program's
preset table. This module imports nothing from dqdcavity.
"""

from __future__ import annotations

import os
import random

# strong-coupling operating point (meV, K); every field is passed to the CLI
# explicitly, so the program's own preset table is never trusted
LAUCHT_STRONG = dict(
    omega0=1218.0, omega1=1218.0, omega2=1218.1, tunneling_T=0.01,
    g1=0.44, g2=0.51, gamma1=0.0001, gamma2=0.0008, pump1=0.0015,
    pump2=0.0019, cavity_pump=0.0057, kappa=0.147, zeta=0.01, temperature=4.0,
)

WORKLOADS = ("population-map", "spectra-panel", "high-cutoff")
NPROC = len(os.sched_getaffinity(0))
GRID = 16
ZETA_POINTS = 8
HIGH_N_MAX = 7
POOL = 64  # distinct inputs drawn per run; requests cycle through them

_FLAGS = {
    "omega0": "--omega0-mev", "omega1": "--omega1-mev", "omega2": "--omega2-mev",
    "tunneling_T": "--tunneling-mev", "g1": "--g1-mev", "g2": "--g2-mev",
    "gamma1": "--gamma1-mev", "gamma2": "--gamma2-mev", "pump1": "--pump1-mev",
    "pump2": "--pump2-mev", "cavity_pump": "--cavity-pump-mev", "kappa": "--kappa-mev",
    "zeta": "--zeta-mev", "temperature": "--temperature-k",
}


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return 10.0 ** rng.uniform(lo, hi)


def make_inputs(workload: str, seed: int) -> list[dict]:
    """POOL request inputs, a pure function of (workload, seed)."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {', '.join(WORKLOADS)}")
    rng = random.Random(f"{workload}:{seed}")
    pool = []
    for _ in range(POOL):
        params = dict(LAUCHT_STRONG)
        item = {"params": params}
        if workload == "population-map":
            params["temperature"] = rng.uniform(1.0, 10.0)
            item["axis1"] = ("tunneling_T", _log_uniform(rng, -3, -2.5), _log_uniform(rng, 0.5, 1), GRID)
            item["axis2"] = ("zeta", _log_uniform(rng, -3, -2.5), _log_uniform(rng, 0.5, 1), GRID)
        elif workload == "spectra-panel":
            params["temperature"] = rng.uniform(1.0, 10.0)
            params["omega2"] = params["omega1"] + rng.uniform(0.08, 0.12)
        else:
            params["temperature"] = rng.uniform(2.0, 10.0)
            params["tunneling_T"] = _log_uniform(rng, -3, 0)
            # zeta >= 0.05 meV relaxes the dot populations well inside the
            # longest delay 100/kappa, where g2 must have reached 1
            params["zeta"] = _log_uniform(rng, -1.3, 0)
        pool.append(item)
    return pool


def points_per_request(workload: str) -> int:
    return {"population-map": GRID * GRID, "spectra-panel": 3 * ZETA_POINTS, "high-cutoff": 1}[workload]


def _param_flags(params: dict) -> list[str]:
    flags = ["--preset", "laucht-strong"]
    for name, flag in _FLAGS.items():
        flags += [flag, repr(float(params[name]))]
    return flags


def invocations(workload: str, item: dict, outdir: str) -> list[list[str]]:
    """The CLI argument lists that make up one request, writing under outdir."""
    flags = _param_flags(item["params"])
    if workload == "population-map":
        axes = [f"{name}:{lo!r}:{hi!r}:{count}" for name, lo, hi, count in (item["axis1"], item["axis2"])]
        return [["sweep", *flags, "--n-max", "3", "--axis1", axes[0], "--axis2", axes[1],
                 "--observables", "n_cavity,n_qd1,n_qd2,g2_zero", "--parallelism", str(NPROC),
                 "--format", "csv", "--out", os.path.join(outdir, "map.csv")]]
    if workload == "spectra-panel":
        return [["figures", *flags, "--n-max", "3", "--which", "2",
                 "--zeta-points", str(ZETA_POINTS), "--parallelism", "1", "--out", outdir]]
    n_max = str(HIGH_N_MAX)
    return [
        ["steady", *flags, "--n-max", n_max, "--format", "json",
         "--out", os.path.join(outdir, "steady.json")],
        ["g2", *flags, "--n-max", n_max, "--format", "csv",
         "--out", os.path.join(outdir, "g2.csv")],
    ]
