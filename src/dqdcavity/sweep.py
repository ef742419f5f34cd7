"""Grid sweeps over model parameters with per-point fault isolation.

A sweep point is a pure function of (params, n_max); points run serially or
in one contiguous chunk per thread and either way land in the same
coordinate-ordered table, so a sweep is reproducible bit for bit. A chunk
hands all its steady states to steadystate.sector_steady_states in one call;
that module owns the stack bound, solving a stack of points per numpy call
that releases the interpreter lock, and no point's result depends on its
stack. A point that fails with a ValueError or an errors.NumericalError (for
example zeta > 0 with zero detuning) is an error row that holds no values;
any other exception is a bug and ends the sweep.
"""

from __future__ import annotations

import dataclasses
import datetime
import functools
import itertools
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from ._version import __version__
from .dynamics import SpectrumResult, g2_zero_from_moments, pl_spectrum
from .errors import NumericalError
from .hilbert import CompositeBasis, frozen_array
from .liouvillian import term_coefficients
from .manifold import TransitionLine, transition_lines
from .model import ModelParams
from .steadystate import number_moments, occupations, sector_steady_states
# bound here only because perfbench/tracing.py patches them under these names
from .hilbert import annihilation, qubit_lowering  # noqa: F401
from .liouvillian import build_liouvillian  # noqa: F401
from .steadystate import steady_state  # noqa: F401

SCALAR_OBSERVABLES = ("n_cavity", "n_qd1", "n_qd2", "g2_zero")
ALLOWED_OBSERVABLES = SCALAR_OBSERVABLES + ("transition_lines",)

_PARAM_NAMES = tuple(f.name for f in dataclasses.fields(ModelParams))

# what a failed grid point raises (see errors.py); any other exception is a bug and propagates
_POINT_ERRORS = (ValueError, NumericalError)


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
    present; an errored point carries None in every value column, a status
    code and the error text, and is never partly filled.
    """

    columns: tuple[str, ...]
    rows: tuple[dict, ...]
    metadata: dict

    def to_csv(self) -> str:
        return csv_table(self.columns, [[[row[c] for row in self.rows] for c in self.columns]])


# characters that make csv.writer quote a cell (its delimiter, quote char and line terminator)
_QUOTED = frozenset(',"\r\n')


def _format_cell(value) -> str:
    """One cell as csv.writer writes it: a float as "%.17g" % v, None empty.

    A formatted float never holds a delimiter, quote or line break, so only
    other values can need csv.writer's minimal quoting.
    """
    if value is None:
        return ""
    if isinstance(value, float):
        return "%.17g" % value
    text = str(value)
    if _QUOTED.isdisjoint(text):
        return text
    return '"' + text.replace('"', '""') + '"'


@functools.lru_cache(maxsize=1)
def _rows_template(rows: int, slots: tuple) -> str:
    """The %-format of a block's rows: a bytes slot is a float64 column written out as text.

    One % pass writes the bytes columns through "%.17g" and turns every other
    slot, escaped as "%%s" or "%%.17g", back into itself; formatted floats
    hold no '%'. The key is the columns' exact bytes, so the panels of one
    figures call, which share one frequency grid, write that grid out once.
    """
    grid = [np.frombuffer(slot).tolist() for slot in slots if isinstance(slot, bytes)]
    row = ",".join("%.17g" if isinstance(slot, bytes) else "%" + slot for slot in slots)
    return ((row + "\r\n") * rows) % tuple(itertools.chain.from_iterable(zip(*grid)))


def _block_text(block: tuple, neighbours: tuple) -> str:
    """CSV lines of one block, each ended by CRLF as csv.writer ends it, from one % format.

    The one place that decides template text: a 1-D float64 array whose bytes
    equal the same-position column of a neighbouring block is text of the row
    template. Any other such array fills a %.17g slot with its floats. Any
    other list or array fills a %s slot with its formatted cells, and any
    other value is one formatted cell repeated on every row.
    """
    slots, values, lengths = [], [], set()
    for j, column in enumerate(block):
        if isinstance(column, np.ndarray) and column.ndim == 1 and column.dtype == np.float64:
            lengths.add(len(column))
            data = column.tobytes()
            if any(j < len(b) and isinstance(b[j], np.ndarray) and b[j].tobytes() == data
                   for b in neighbours):
                slots.append(data)
            else:
                slots.append("%.17g")
                values.append(column.tolist())
            continue
        cells = column.tolist() if isinstance(column, np.ndarray) else column
        if isinstance(cells, list):
            cells = list(map(_format_cell, cells))
            lengths.add(len(cells))
        else:
            cells = _format_cell(cells)
        if len(block) == 1:  # csv.writer quotes a lone empty cell so that its row is not blank
            cells = [c or '""' for c in cells] if isinstance(cells, list) else cells or '""'
        slots.append("%s")
        values.append(cells)
    if len(lengths) > 1:
        raise ValueError(f"columns of one block differ in length: {sorted(lengths)}")
    rows = lengths.pop() if lengths else 1
    if any(isinstance(slot, bytes) for slot in slots):
        template = _rows_template(rows, tuple(slots))
    else:
        template = (",".join(slots) + "\r\n") * rows
    args = [None] * (len(values) * rows)  # row-major, filled one column at a time
    for j, cells in enumerate(values):
        args[j :: len(values)] = cells if isinstance(cells, list) else [cells] * rows
    return template % tuple(args)


def csv_table(header, blocks) -> str:
    """CSV text of a header row and blocks of rows, each block given column by column.

    A block holds one entry per column: a list or array of the column's
    cells, or a single cell repeated on every row of the block, so a block of
    single cells is one row. Each block is written by one % format over a row
    template. A float64 array whose bytes a neighbouring block holds at the
    same position is text of that template, formatted once for every block
    whose template holds the same bytes.
    The text is what csv.writer writes for the same rows with each float cell
    formatted as "%.17g" % v (which is format(v, ".17g")) and each None as "".
    """
    blocks = [tuple(header), *map(tuple, blocks)]
    neighbours = zip([()] + blocks, blocks[1:] + [()])
    return "".join(map(_block_text, blocks, neighbours))


def _map(fn, tasks: list, parallelism: int) -> list:
    """fn(tasks) for an fn from a list of tasks to the list of their outputs.

    Above parallelism 1, each thread runs fn on one contiguous, non-empty chunk of tasks.
    """
    if parallelism < 1:
        raise ValueError(f"parallelism must be >= 1, got {parallelism}")
    workers = min(parallelism, len(tasks))
    if workers <= 1:
        return fn(tasks)
    bounds = [len(tasks) * i // workers for i in range(workers + 1)]
    chunks = [tasks[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return [out for outs in pool.map(fn, chunks) for out in outs]


def _attempt(fn, *args):
    """fn(*args), or the point error that it raised, as a value."""
    try:
        return fn(*args)
    except _POINT_ERRORS as exc:
        return exc


def _evaluate(spec: SweepSpec, tasks: list) -> list[dict]:
    """Rows of consecutive grid points, each with all its values or with its error and none.

    The points whose params and term coefficients build go to
    sector_steady_states in one call, and each of their rows takes its state
    as the row is written, so at most one stack of builds and states is held.
    """
    def build(value1, value2):
        point = spec.params.replace(**{spec.axis1.name: value1, spec.axis2.name: value2})
        return point, term_coefficients(point, spec.n_max)

    def read_out(point, rho):
        values = {}
        if wants_state:
            moments = number_moments(rho)
            values = {k: v for k, v in occupations(moments).items() if k in columns}
            if "g2_zero" in spec.observables:
                values["g2_zero"] = g2_zero_from_moments(moments)
        if "transition_lines" in spec.observables:
            for k, line in enumerate(transition_lines(point), start=1):
                values[f"line{k}_frequency_mev"] = line.frequency
                values[f"line{k}_hwhm_mev"] = line.hwhm
        return values

    # the solver builds a stack ahead of the rows, so builds overlap other threads' solves
    outcomes, ahead = itertools.tee(_attempt(build, *task) for task in tasks)
    coefs = (o[1] for o in ahead if not isinstance(o, Exception))
    states = sector_steady_states(coefs, CompositeBasis(spec.n_max))
    wants_state = any(name in spec.observables for name in SCALAR_OBSERVABLES)
    columns = spec.columns()
    rows = []
    for (value1, value2), outcome in zip(tasks, outcomes):
        if not isinstance(outcome, Exception):
            rho = next(states) if wants_state else None
            outcome = rho if isinstance(rho, Exception) else _attempt(read_out, outcome[0], rho)
        row = dict.fromkeys(columns) | {spec.axis1.name: value1, spec.axis2.name: value2}
        if isinstance(outcome, Exception):
            row.update(status=f"error:{type(outcome).__name__}", error=str(outcome))
        else:
            row.update(outcome, status="ok", error="")
        rows.append(row)
    return rows


def evaluate_point(spec: SweepSpec, value1: float, value2: float) -> dict:
    """One grid point as a row dict over spec.columns(). Errors become data."""
    return _evaluate(spec, [(float(value1), float(value2))])[0]


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
    rows = _map(lambda chunk: _evaluate(spec, chunk), tasks, parallelism)
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

    def solve(tun, z):
        p = params.replace(tunneling_T=tun, zeta=z)
        return "ok", pl_spectrum(p, n_max=n_max), transition_lines(p)

    def point(task):
        out = _attempt(solve, *task)
        return (f"error:{type(out).__name__}: {out}", None, None) if isinstance(out, Exception) else out

    tunnelings = [float(tun) for tun in tunneling_values]
    tasks = [(tun, float(z)) for tun in tunnelings for z in zeta_values]
    outs = _map(lambda chunk: [point(task) for task in chunk], tasks, parallelism)
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
    """Long-format table (zeta, omega, offset, intensity) for one panel.

    One block per spectrum, so csv_table writes a grid that neighbouring
    spectra share bit for bit as text of one row template, which panels on
    the same grid share too.
    """
    blocks = [
        (float(panel.tunneling), float(z), spectrum.frequencies, spectrum.offsets,
         spectrum.intensities)
        for z, status, spectrum in zip(panel.zetas, panel.statuses, panel.spectra)
        if status == "ok" and spectrum is not None
    ]
    return csv_table(["tunneling_T", "zeta", "omega_mev", "offset_mev", "intensity"], blocks)


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
