"""Grid sweeps over model parameters with per-point fault isolation.

A sweep point is a pure function of (params, n_max); points run serially or on
a thread pool and either way land in the same coordinate-ordered table, so a
sweep is reproducible bit for bit. A point that fails (for example zeta > 0
with zero detuning) is recorded as an error row, never an abort.
"""

from __future__ import annotations

import csv
import dataclasses
import datetime
import io
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from ._version import __version__
from .dynamics import SpectrumResult, g2_zero_from_state, pl_spectrum
from .hilbert import CompositeBasis, frozen_array
from .manifold import TransitionLine, transition_lines
from .model import ModelParams
from .steadystate import occupations, sector_steady_state
# bound here only because perfbench/tracing.py patches them under these names
from .hilbert import annihilation, qubit_lowering  # noqa: F401
from .liouvillian import build_liouvillian  # noqa: F401
from .steadystate import steady_state  # noqa: F401

_OCCUPATIONS = ("n_cavity", "n_qd1", "n_qd2")
SCALAR_OBSERVABLES = _OCCUPATIONS + ("g2_zero",)
ALLOWED_OBSERVABLES = SCALAR_OBSERVABLES + ("transition_lines",)

_PARAM_NAMES = tuple(f.name for f in dataclasses.fields(ModelParams))


@dataclass(frozen=True)
class SweepAxis:
    """Log-spaced scan of one ModelParams field."""

    name: str
    start: float
    stop: float
    count: int

    def __post_init__(self):
        if self.name not in _PARAM_NAMES:
            raise ValueError(
                f"unknown sweep parameter {self.name!r}; expected one of {', '.join(_PARAM_NAMES)}"
            )
        if not (self.start > 0.0 and self.stop > 0.0):
            raise ValueError(f"log axis {self.name!r} needs strictly positive range")
        if not np.isfinite([self.start, self.stop]).all():
            raise ValueError(
                f"log axis {self.name!r} needs finite bounds, got {self.start} to {self.stop}"
            )
        if not isinstance(self.count, (int, np.integer)) or self.count < 2:
            raise ValueError(f"axis {self.name!r} needs an integer count >= 2, got {self.count!r}")

    def values(self) -> np.ndarray:
        return np.geomspace(self.start, self.stop, self.count)


@dataclass(frozen=True)
class SweepSpec:
    """What to sweep and what to record at each grid point."""

    params: ModelParams
    axis1: SweepAxis
    axis2: SweepAxis
    observables: tuple[str, ...] = ("n_cavity", "n_qd1", "n_qd2")
    n_max: int = 3

    def __post_init__(self):
        object.__setattr__(self, "observables", tuple(self.observables))
        for name in self.observables:
            if name not in ALLOWED_OBSERVABLES:
                raise ValueError(
                    f"unknown observable {name!r}; expected one of {', '.join(ALLOWED_OBSERVABLES)}"
                )
        if not self.observables:
            raise ValueError("at least one observable is required")
        if self.axis1.name == self.axis2.name:
            raise ValueError(f"both axes sweep {self.axis1.name!r}; axes must differ")
        CompositeBasis(self.n_max)  # raises on an invalid cutoff

    def columns(self) -> tuple[str, ...]:
        cols = [self.axis1.name, self.axis2.name]
        cols += [name for name in SCALAR_OBSERVABLES if name in self.observables]
        if "transition_lines" in self.observables:
            for k in (1, 2, 3):
                cols += [f"line{k}_frequency_mev", f"line{k}_hwhm_mev"]
        cols += ["status", "error"]
        return tuple(cols)


@dataclass(frozen=True)
class SweepResult:
    """Coordinate-ordered sweep table plus run metadata.

    rows hold one dict per grid point (axis1-major order) with every column
    present; errored points carry None values, a status code, and the error
    text.
    """

    columns: tuple[str, ...]
    rows: tuple[dict, ...]
    metadata: dict

    def to_csv(self) -> str:
        return csv_table(self.columns, ([row[c] for c in self.columns] for row in self.rows))


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def csv_table(header, rows) -> str:
    """CSV text of a header row and data rows; floats at full double precision, None empty."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    for row in rows:
        writer.writerow([_format_cell(v) for v in row])
    return buf.getvalue()


def _map(fn, tasks: list, parallelism: int) -> list:
    """[fn(t) for t in tasks], in the calling thread at parallelism 1, else on a thread pool."""
    if parallelism < 1:
        raise ValueError(f"parallelism must be >= 1, got {parallelism}")
    if parallelism == 1:
        return [fn(t) for t in tasks]
    with ThreadPoolExecutor(max_workers=parallelism) as pool:
        return list(pool.map(fn, tasks))


def evaluate_point(spec: SweepSpec, value1: float, value2: float) -> dict:
    """One grid point as a row dict over spec.columns(). Errors become data."""
    row = {c: None for c in spec.columns()}
    row[spec.axis1.name] = float(value1)
    row[spec.axis2.name] = float(value2)
    try:
        point = spec.params.replace(
            **{spec.axis1.name: float(value1), spec.axis2.name: float(value2)}
        )
        if any(name in spec.observables for name in SCALAR_OBSERVABLES):
            rho = sector_steady_state(point, CompositeBasis(spec.n_max))
            if any(name in spec.observables for name in _OCCUPATIONS):
                row.update((k, v) for k, v in occupations(rho).items() if k in spec.observables)
            if "g2_zero" in spec.observables:
                row["g2_zero"] = g2_zero_from_state(rho)
        if "transition_lines" in spec.observables:
            for k, line in enumerate(transition_lines(point), start=1):
                row[f"line{k}_frequency_mev"] = line.frequency
                row[f"line{k}_hwhm_mev"] = line.hwhm
        row["status"] = "ok"
        row["error"] = ""
    except (ValueError, RuntimeError, ArithmeticError) as exc:
        row["status"] = f"error:{type(exc).__name__}"
        row["error"] = str(exc)
    return row


def _run_metadata(spec: SweepSpec) -> dict:
    return {
        "params": spec.params.as_dict(),
        "axis1": dataclasses.asdict(spec.axis1),
        "axis2": dataclasses.asdict(spec.axis2),
        "observables": list(spec.observables),
        "n_max": spec.n_max,
        "package_version": __version__,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }


def run_sweep(spec: SweepSpec, *, parallelism: int = 1) -> SweepResult:
    """Evaluate the full grid; identical output for any parallelism degree.

    The timestamp lives only in metadata, never in the CSV table, so repeated
    runs of the same spec diff clean.
    """
    v2s = spec.axis2.values()
    tasks = [(float(a), float(b)) for a in spec.axis1.values() for b in v2s]
    rows = _map(lambda task: evaluate_point(spec, *task), tasks, parallelism)
    return SweepResult(columns=spec.columns(), rows=tuple(rows), metadata=_run_metadata(spec))


@dataclass(frozen=True)
class SpectraPanel:
    """Spectra stacked over zeta at one tunneling amplitude, with line overlays."""

    tunneling: float
    zetas: np.ndarray
    statuses: tuple[str, ...]
    spectra: tuple[SpectrumResult | None, ...]
    lines: tuple[tuple[TransitionLine, ...] | None, ...]

    def __post_init__(self):
        object.__setattr__(self, "zetas", frozen_array(self.zetas, float))


def run_spectra_panel(
    params: ModelParams,
    tunneling_values,
    zeta_values,
    *,
    n_max: int = 3,
    parallelism: int = 1,
) -> list[SpectraPanel]:
    """One SpectraPanel per tunneling amplitude over a shared zeta scan.

    Each spectrum is on pl_spectrum's default frequency grid.
    """
    CompositeBasis(n_max)  # raises on an invalid cutoff before any point runs
    zeta_values = np.asarray(zeta_values, dtype=float)

    def point(task):
        tun, z = task
        try:
            p = params.replace(tunneling_T=float(tun), zeta=float(z))
            spectrum = pl_spectrum(p, n_max=n_max)
            lines = transition_lines(p)
            return "ok", spectrum, lines
        except (ValueError, RuntimeError, ArithmeticError) as exc:
            return f"error:{type(exc).__name__}: {exc}", None, None

    tunnelings = [float(tun) for tun in tunneling_values]
    tasks = [(tun, float(z)) for tun in tunnelings for z in zeta_values]
    outs = _map(point, tasks, parallelism)
    n = len(zeta_values)
    panels = []
    for k, tun in enumerate(tunnelings):
        chunk = outs[k * n : (k + 1) * n]
        panels.append(
            SpectraPanel(
                tunneling=tun,
                zetas=zeta_values,
                statuses=tuple(o[0] for o in chunk),
                spectra=tuple(o[1] for o in chunk),
                lines=tuple(o[2] for o in chunk),
            )
        )
    return panels


def panel_spectra_csv(panel: SpectraPanel) -> str:
    """Long-format table (zeta, omega, offset, intensity) for one panel."""
    rows = (
        (float(panel.tunneling), float(z), float(w), float(off), float(inten))
        for z, status, spectrum in zip(panel.zetas, panel.statuses, panel.spectra)
        if status == "ok" and spectrum is not None
        for w, off, inten in zip(spectrum.frequencies, spectrum.offsets, spectrum.intensities)
    )
    return csv_table(["tunneling_T", "zeta", "omega_mev", "offset_mev", "intensity"], rows)


def panel_lines_csv(panel: SpectraPanel) -> str:
    """Long-format transition-line table (zeta, line index, frequency, width)."""
    rows = (
        (float(panel.tunneling), float(z), k, line.frequency, line.offset, line.hwhm)
        for z, status, lines in zip(panel.zetas, panel.statuses, panel.lines)
        if status == "ok" and lines is not None
        for k, line in enumerate(lines, start=1)
    )
    header = ["tunneling_T", "zeta", "line_index", "frequency_mev", "offset_mev", "hwhm_mev"]
    return csv_table(header, rows)
