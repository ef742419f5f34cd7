"""Command-line front end: flags/config resolution, dispatch, CSV/JSON emission.

All energies on this boundary are meV (flag names carry the -mev suffix) and
temperature is kelvin. Configuration may come from a JSON file (--config) whose
keys are parsed as flags ahead of the explicit ones, so they are checked the
same way and explicit flags take precedence; the fully resolved configuration
is echoed into output metadata so any run can be reproduced from its own
artifact.

Exit codes: 0 success, 1 configuration error (offending field named) or unwritable
output, 2 numerical failure (an errors.NumericalError; failing parameter point printed).
"""

from __future__ import annotations

import argparse
import datetime
import functools
import json
import os
import sys

import numpy as np

from ._version import __version__
from .dynamics import default_omega_grid, g2, pl_spectrum
from .errors import NumericalError
from .manifold import transition_lines
from .model import ModelParams, preset, preset_names
from .steadystate import steady_observables
from .sweep import (
    SweepAxis,
    SweepSpec,
    _panel_spectra_texts,
    csv_table,
    panel_lines_csv,
    run_spectra_panel,
    run_sweep,
)
# bound here only because perfbench/tracing.py patches it under this name
from .sweep import panel_spectra_csv  # noqa: F401

SCHEMA_VERSION = "dqdcavity-output-v1"

# flag destination -> ModelParams field
_PARAM_DESTS = {
    "omega0_mev": "omega0",
    "omega1_mev": "omega1",
    "omega2_mev": "omega2",
    "tunneling_mev": "tunneling_T",
    "g1_mev": "g1",
    "g2_mev": "g2",
    "gamma1_mev": "gamma1",
    "gamma2_mev": "gamma2",
    "pump1_mev": "pump1",
    "pump2_mev": "pump2",
    "cavity_pump_mev": "cavity_pump",
    "kappa_mev": "kappa",
    "zeta_mev": "zeta",
    "temperature_k": "temperature",
}

_FIG2_TUNNELING = (0.01, 0.55, 5.0)


class CliConfigError(Exception):
    """Anything wrong with flags, config file, or parameter values."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliConfigError(message)


def _at_least(minimum: int):
    """argparse type for a count flag: an int no smaller than minimum."""

    def parse(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


def _finite(text: str) -> float:
    """argparse type for a grid bound: a finite float."""
    value = float(text)
    if not np.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {value}")
    return value


_finite.__name__ = "float"  # argparse names the type in "invalid float value"


def _add_model_args(p: _Parser):
    p.add_argument("--config", default=None,
                   help="JSON file of flag values, checked like flags; explicit flags win")
    p.add_argument("--preset", choices=preset_names(), default="laucht-strong",
                   help="named parameter set to start from (default %(default)s)")
    for dest, field in _PARAM_DESTS.items():
        flag = "--" + dest.replace("_", "-")
        unit = "K" if dest == "temperature_k" else "meV"
        p.add_argument(flag, type=float, default=None, help=f"override {field} ({unit})")
    p.add_argument("--n-max", type=_at_least(1), default=3,
                   help="photon cutoff (default %(default)s)")


def _add_io_args(p: _Parser, default_format: str):
    p.add_argument("--out", default=None, help="output file (default stdout)")
    p.add_argument("--format", choices=("json", "csv"), default=default_format,
                   help="output format (default %(default)s)")


@functools.cache
def _build_parser() -> _Parser:
    """The one parser of the process; parse_args leaves it unchanged, so every call shares it."""
    parser = _Parser(prog="dqdcavity",
                     description="Double-dot + cavity Lindblad simulator")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("steady", help="steady-state occupations")
    _add_model_args(p)
    _add_io_args(p, "json")

    p = sub.add_parser("lines", help="manifold transition lines")
    _add_model_args(p)
    _add_io_args(p, "json")

    p = sub.add_parser("spectrum", help="cavity emission spectrum")
    _add_model_args(p)
    _add_io_args(p, "csv")
    p.add_argument("--omega-min-mev", type=_finite, default=None)
    p.add_argument("--omega-max-mev", type=_finite, default=None)
    p.add_argument("--omega-points", type=_at_least(2), default=2001,
                   help="grid size (default %(default)s)")
    p.add_argument("--normalize", action="store_true",
                   help="scale intensities to unit maximum")

    p = sub.add_parser("g2", help="second-order coherence g2(tau)")
    _add_model_args(p)
    _add_io_args(p, "csv")
    p.add_argument("--tau-points", type=_at_least(2), default=200)
    p.add_argument("--tau-min-inv-kappa", type=_finite, default=1e-3,
                   help="shortest delay in units of 1/kappa (default %(default)s)")
    p.add_argument("--tau-max-inv-kappa", type=_finite, default=1e2,
                   help="longest delay in units of 1/kappa (default %(default)s)")

    p = sub.add_parser("sweep", help="two-axis log grid sweep")
    _add_model_args(p)
    _add_io_args(p, "csv")
    p.add_argument("--axis1", default="tunneling_T:0.001:10:40",
                   help="name:start:stop:count, log spaced (default %(default)s)")
    p.add_argument("--axis2", default="zeta:0.001:10:40",
                   help="name:start:stop:count, log spaced (default %(default)s)")
    p.add_argument("--observables", default="n_cavity,n_qd1,n_qd2",
                   help="comma list from n_cavity,n_qd1,n_qd2,g2_zero,transition_lines")
    p.add_argument("--parallelism", type=_at_least(1), default=1,
                   help="threads, each solving one contiguous chunk of the grid in stacks; "
                        "the output does not depend on it (default 1)")

    p = sub.add_parser("figures", help="write plot-ready data files")
    _add_model_args(p)
    p.add_argument("--out", default=None, help="output directory (required)")
    p.add_argument("--which", choices=("1", "2", "3", "all"), default="all")
    p.add_argument("--grid-points", type=_at_least(2), default=40,
                   help="points per sweep axis (default %(default)s)")
    p.add_argument("--zeta-points", type=_at_least(1), default=40,
                   help="zeta values per spectra panel (default %(default)s)")
    p.add_argument("--parallelism", type=_at_least(1), default=1,
                   help="threads, each taking one contiguous chunk of a map's grid or a "
                        "panel's points; the output does not depend on it (default 1)")
    return parser


def _config_flags(path: str, ns: argparse.Namespace) -> list[str]:
    """The keys of a --config file as --key=value flags of the invoked subcommand."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise CliConfigError(f"cannot read config file {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise CliConfigError(f"config file {path!r} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise CliConfigError(f"config file {path!r} must hold a JSON object")
    sub = data.pop("subcommand", ns.subcommand)
    if sub != ns.subcommand:
        raise CliConfigError(
            f"config file {path!r} targets subcommand {sub!r} but {ns.subcommand!r} was invoked"
        )
    flags = []
    for key, value in data.items():
        if key == "config" or not hasattr(ns, key):
            raise CliConfigError(f"unknown configuration key {key!r} in {path!r}")
        switch = isinstance(getattr(ns, key), bool)
        if switch != isinstance(value, bool) or isinstance(value, (list, dict)):
            raise CliConfigError(f"configuration key {key!r} in {path!r} cannot be {value!r}")
        flag = "--" + key.replace("_", "-")
        if switch:
            flags += [flag] if value else []
        elif value is not None:
            flags.append(f"{flag}={value}")
    return flags


def _parse(argv: list[str]) -> argparse.Namespace:
    """Parse argv, a --config file's flags going first so that explicit flags win."""
    parser = _build_parser()
    ns = parser.parse_args(argv)
    if ns.config is None:
        return ns
    flags = _config_flags(ns.config, ns)
    try:  # argv alone parsed, so an error here comes from the file's flags
        return parser.parse_args([argv[0], *flags, *argv[1:]])
    except CliConfigError as exc:
        raise CliConfigError(f"config file {ns.config!r}: {exc}") from None


def _envelope(ns: argparse.Namespace, params: ModelParams, data,
              extra_metadata: dict | None = None) -> dict:
    metadata = {
        "package_version": __version__,
        "config": {k: v for k, v in vars(ns).items() if k != "config"},
        "params": params.as_dict(),
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }
    if extra_metadata:
        metadata.update(extra_metadata)
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": ns.subcommand,
        "metadata": metadata,
        "data": data,
    }


def _write(path: str, chunks) -> None:
    """Write an iterable of text chunks to path, one chunk at a time."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.writelines(chunks)


def _write_sidecar(ns: argparse.Namespace, params: ModelParams, path: str,
                   extra_metadata: dict | None = None) -> None:
    """Run metadata for the CSV at path, written to path + '.meta.json'."""
    sidecar = _envelope(ns, params, {"file": os.path.basename(path)}, extra_metadata)
    _write(path + ".meta.json", [json.dumps(sidecar, indent=2, sort_keys=True)])


def _emit(ns: argparse.Namespace, params: ModelParams, data, csv_text,
          extra_metadata: dict | None = None) -> None:
    """Write data in a JSON envelope, or the CSV that csv_text() returns, to stdout or --out.

    A CSV written to --out gets a .meta.json sidecar.
    """
    csv_format = ns.format == "csv"
    if csv_format:
        text = csv_text()
    else:
        envelope = _envelope(ns, params, data, extra_metadata)
        text = json.dumps(envelope, indent=2, sort_keys=True)
    if ns.out is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        _write(ns.out, [text])
        if csv_format:
            _write_sidecar(ns, params, ns.out, extra_metadata)


def _cmd_steady(ns: argparse.Namespace, params: ModelParams) -> int:
    values = steady_observables(params, n_max=ns.n_max)
    _emit(ns, params, values, lambda: csv_table(list(values), [list(values.values())]))
    return 0


def _cmd_lines(ns: argparse.Namespace, params: ModelParams) -> int:
    header = ["line_index", "frequency_mev", "offset_mev", "hwhm_mev"]
    records = [
        dict(zip(header, (k, line.frequency, line.offset, line.hwhm)))
        for k, line in enumerate(transition_lines(params), start=1)
    ]
    _emit(ns, params, records, lambda: csv_table(header, [list(r.values()) for r in records]))
    return 0


def _spectrum_grid(ns: argparse.Namespace, params: ModelParams) -> np.ndarray:
    lo, hi = ns.omega_min_mev, ns.omega_max_mev
    if (lo is None) != (hi is None):
        raise CliConfigError("omega-min-mev and omega-max-mev must be given together")
    if lo is None:
        return default_omega_grid(params, points=ns.omega_points)
    if not hi > lo:
        raise CliConfigError(f"omega-max-mev ({hi}) must exceed omega-min-mev ({lo})")
    if not np.isfinite(hi - lo):
        raise CliConfigError(f"omega-max-mev ({hi}) minus omega-min-mev ({lo}) overflows")
    return np.linspace(lo, hi, ns.omega_points)


def _cmd_spectrum(ns: argparse.Namespace, params: ModelParams) -> int:
    grid = _spectrum_grid(ns, params)
    result = pl_spectrum(params, grid, n_max=ns.n_max)
    intensities = result.intensities
    if ns.normalize:
        top = intensities.max()
        if top > 0.0:
            intensities = intensities / top
    data = {
        "omega_mev": result.frequencies.tolist(),
        "offset_mev": result.offsets.tolist(),
        "intensity": intensities.tolist(),
        "poles": [{"re": p.real, "im": p.imag} for p in result.poles],
        "amplitudes": [{"re": a.real, "im": a.imag} for a in result.amplitudes],
    }
    _emit(ns, params, data, lambda: csv_table(
        ["omega_mev", "offset_mev", "intensity"],
        [(result.frequencies, result.offsets, intensities)],
    ))
    return 0


def _cmd_g2(ns: argparse.Namespace, params: ModelParams) -> int:
    kappa = params.kappa
    if kappa <= 0.0:
        raise CliConfigError("g2 delay grid needs kappa > 0")
    lo, hi = ns.tau_min_inv_kappa, ns.tau_max_inv_kappa
    if not 0.0 < lo < hi:
        raise CliConfigError("need 0 < tau-min-inv-kappa < tau-max-inv-kappa")
    if lo / kappa == 0.0:
        raise CliConfigError(f"tau-min-inv-kappa ({lo}) / kappa-mev ({kappa}) underflows to 0")
    if not np.isfinite(hi / kappa):
        raise CliConfigError(f"tau-max-inv-kappa ({hi}) / kappa-mev ({kappa}) overflows")
    taus = np.geomspace(lo / kappa, hi / kappa, ns.tau_points)
    pairs = g2(params, taus, n_max=ns.n_max)
    header = ["tau_hbar_per_mev", "tau_kappa", "g2"]
    data = [dict(zip(header, (t, t * kappa, v))) for t, v in pairs]
    _emit(ns, params, data, lambda: csv_table(header, [list(r.values()) for r in data]))
    return 0


def _parse_axis(text: str, which: str) -> SweepAxis:
    parts = text.split(":")
    if len(parts) != 4:
        raise CliConfigError(
            f"{which} must look like name:start:stop:count, got {text!r}"
        )
    name, start, stop, count = parts
    try:
        return SweepAxis(name=name, start=float(start), stop=float(stop), count=int(count))
    except ValueError as exc:
        raise CliConfigError(f"{which}: {exc}") from exc


def _cmd_sweep(ns: argparse.Namespace, params: ModelParams) -> int:
    axis1 = _parse_axis(ns.axis1, "axis1")
    axis2 = _parse_axis(ns.axis2, "axis2")
    observables = tuple(s.strip() for s in ns.observables.split(",") if s.strip())
    if "spectrum" in observables:
        raise CliConfigError(
            "observable 'spectrum' is not representable in a flat sweep table; "
            "use the figures command"
        )
    spec = SweepSpec(
        params=params,
        axis1=axis1,
        axis2=axis2,
        observables=observables,
        n_max=ns.n_max,
    )
    result = run_sweep(spec, parallelism=ns.parallelism)
    data = {
        "columns": list(result.columns),
        "rows": [[row[c] for c in result.columns] for row in result.rows],
    }
    _emit(ns, params, data, result.to_csv, {"sweep": result.metadata})
    return 0


def _figure_tag(value: float) -> str:
    return format(value, "g").replace(".", "p")


def _cmd_figures(ns: argparse.Namespace, params: ModelParams) -> int:
    outdir = ns.out
    if not outdir:
        raise CliConfigError("figures requires --out pointing at an output directory")
    os.makedirs(outdir, exist_ok=True)
    written: list[str] = []

    def emit_sweep(name: str, table_params: ModelParams, observables: tuple, n_max: int) -> None:
        """Run a tunneling x zeta map and write it with a sidecar naming its own params."""
        spec = SweepSpec(
            params=table_params,
            axis1=SweepAxis("tunneling_T", 1e-3, 10.0, ns.grid_points),
            axis2=SweepAxis("zeta", 1e-3, 10.0, ns.grid_points),
            observables=observables,
            n_max=n_max,
        )
        result = run_sweep(spec, parallelism=ns.parallelism)
        path = os.path.join(outdir, name)
        _write(path, [result.to_csv()])
        _write_sidecar(ns, table_params, path, {"sweep": result.metadata})
        written.extend([name, name + ".meta.json"])

    def emit_panel(tunneling: float, zetas: np.ndarray) -> None:
        """Run one Fig. 2 panel and write its tables, the spectra a block at a time."""
        (panel,) = run_spectra_panel(
            params, [tunneling], zetas, n_max=ns.n_max, parallelism=ns.parallelism
        )
        tag = _figure_tag(panel.tunneling)
        for name, chunks in ((f"fig2_spectra_T{tag}.csv", _panel_spectra_texts(panel)),
                             (f"fig2_lines_T{tag}.csv", [panel_lines_csv(panel)])):
            _write(os.path.join(outdir, name), chunks)
            written.append(name)
        for z, status in zip(panel.zetas, panel.statuses):
            if status != "ok":
                print(f"warning: panel T={panel.tunneling:g} zeta={z:g} failed: {status}",
                      file=sys.stderr)

    if ns.which in ("1", "all"):
        emit_sweep("fig1_populations.csv", params, ("n_cavity", "n_qd1", "n_qd2"), ns.n_max)

    if ns.which in ("2", "all"):
        # one panel is held at a time, and written as soon as it is computed
        zetas = np.geomspace(1e-3, 10.0, ns.zeta_points)
        for tunneling in _FIG2_TUNNELING:
            emit_panel(tunneling, zetas)

    if ns.which in ("3", "all"):
        emit_sweep("fig3_left_g2.csv", params, ("g2_zero",), ns.n_max)
        # stronger pumping needs more photon headroom than the default cutoff
        emit_sweep("fig3_right_g2.csv", preset("fig3-right"), ("g2_zero",), max(5, ns.n_max))

    text = json.dumps(
        _envelope(ns, params, {"directory": outdir, "files": written}),
        indent=2,
        sort_keys=True,
    )
    sys.stdout.write(text + "\n")
    return 0


_COMMANDS = {
    "steady": _cmd_steady,
    "lines": _cmd_lines,
    "spectrum": _cmd_spectrum,
    "g2": _cmd_g2,
    "sweep": _cmd_sweep,
    "figures": _cmd_figures,
}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    ns = None
    try:
        ns = _parse(argv)
        overrides = {field: getattr(ns, dest) for dest, field in _PARAM_DESTS.items()}
        params = preset(ns.preset, **{k: v for k, v in overrides.items() if v is not None})
        return _COMMANDS[ns.subcommand](ns, params)
    except (CliConfigError, ValueError, OSError) as exc:
        # _parse names the config file in its own errors; later checks see merged flags
        path = getattr(ns, "config", None)
        merged = f" (flags merged from config file {path!r})" if path else ""
        print(f"configuration error: {exc}{merged}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        point = json.dumps(params.as_dict(), sort_keys=True)
        print(f"numerical failure: {exc}\nat parameter point: {point}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
