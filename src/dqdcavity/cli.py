"""Command-line front end: flags/config resolution, dispatch, CSV/JSON emission.

All energies on this boundary are meV (flag names carry the -mev suffix) and
temperature is kelvin. Configuration may come from a JSON file (--config) whose
keys are parsed as flags ahead of the explicit ones, so they are checked the
same way and explicit flags take precedence; the fully resolved configuration
is echoed into output metadata so any run can be reproduced from its own
artifact.

Exit codes: 0 success, 1 configuration error (offending field named), 2
numerical failure (failing parameter point printed).
"""

from __future__ import annotations

import argparse
import dataclasses
import datetime
import json
import os
import sys

import numpy as np

from ._version import __version__
from .dynamics import default_omega_grid, g2, pl_spectrum
from .errors import (
    DegenerateSteadyStateError,
    DiagonalizationError,
    SteadyStateConvergenceError,
    UndefinedObservableError,
)
from .manifold import transition_lines
from .model import ModelParams, preset, preset_names
from .steadystate import steady_observables
from .sweep import (
    SweepAxis,
    SweepSpec,
    csv_table,
    panel_lines_csv,
    panel_spectra_csv,
    run_spectra_panel,
    run_sweep,
)

SCHEMA_VERSION = "dqdcavity-output-v1"

_NUMERICAL_ERRORS = (
    DegenerateSteadyStateError,
    SteadyStateConvergenceError,
    DiagonalizationError,
    UndefinedObservableError,
)

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


def _add_model_args(p: _Parser):
    p.add_argument("--config", default=None,
                   help="JSON file of flag values, checked like flags; explicit flags win")
    p.add_argument("--preset", choices=preset_names(), default="laucht-strong",
                   help="named parameter set to start from (default %(default)s)")
    for dest, field in _PARAM_DESTS.items():
        flag = "--" + dest.replace("_", "-")
        unit = "K" if dest == "temperature_k" else "meV"
        p.add_argument(flag, type=float, default=None, help=f"override {field} ({unit})")
    p.add_argument("--n-max", type=int, default=3, help="photon cutoff (default %(default)s)")


def _add_io_args(p: _Parser, default_format: str):
    p.add_argument("--out", default=None, help="output file (default stdout)")
    p.add_argument("--format", choices=("json", "csv"), default=default_format,
                   help="output format (default %(default)s)")


def _build_parser() -> _Parser:
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
    p.add_argument("--omega-min-mev", type=float, default=None)
    p.add_argument("--omega-max-mev", type=float, default=None)
    p.add_argument("--omega-points", type=int, default=2001,
                   help="grid size (default %(default)s)")
    p.add_argument("--normalize", action="store_true",
                   help="scale intensities to unit maximum")

    p = sub.add_parser("g2", help="second-order coherence g2(tau)")
    _add_model_args(p)
    _add_io_args(p, "csv")
    p.add_argument("--tau-points", type=int, default=200)
    p.add_argument("--tau-min-inv-kappa", type=float, default=1e-3,
                   help="shortest delay in units of 1/kappa (default %(default)s)")
    p.add_argument("--tau-max-inv-kappa", type=float, default=1e2,
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
    p.add_argument("--parallelism", type=int, default=1, help="worker threads (default 1)")

    p = sub.add_parser("figures", help="write plot-ready data files")
    _add_model_args(p)
    p.add_argument("--out", default=None, help="output directory (required)")
    p.add_argument("--which", choices=("1", "2", "3", "all"), default="all")
    p.add_argument("--grid-points", type=int, default=40,
                   help="points per sweep axis (default %(default)s)")
    p.add_argument("--zeta-points", type=int, default=40,
                   help="zeta values per spectra panel (default %(default)s)")
    p.add_argument("--parallelism", type=int, default=1, help="worker threads (default 1)")
    return parser


@dataclasses.dataclass
class RunConfig:
    """Fully resolved run: every flag's value, parameters validated."""

    subcommand: str
    params: ModelParams
    options: dict


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
    data = dict(data)
    sub = data.pop("subcommand", ns.subcommand)
    if sub != ns.subcommand:
        raise CliConfigError(
            f"config file targets subcommand {sub!r} but {ns.subcommand!r} was invoked"
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
    try:
        parser.parse_args([ns.subcommand, *flags])
    except CliConfigError as exc:
        raise CliConfigError(f"config file {ns.config!r}: {exc}") from None
    return parser.parse_args([argv[0], *flags, *argv[1:]])


def _resolve(ns: argparse.Namespace) -> RunConfig:
    options = vars(ns)
    overrides = {
        field: options[dest] for dest, field in _PARAM_DESTS.items() if options[dest] is not None
    }
    try:
        params = preset(options["preset"], **overrides)
    except ValueError as exc:
        raise CliConfigError(str(exc)) from exc
    return RunConfig(subcommand=ns.subcommand, params=params, options=options)


def _envelope(kind: str, cfg: RunConfig, data, extra_metadata: dict | None = None) -> dict:
    metadata = {
        "package_version": __version__,
        "config": {k: v for k, v in cfg.options.items() if k != "config"},
        "params": cfg.params.as_dict(),
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }
    if extra_metadata:
        metadata.update(extra_metadata)
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": kind,
        "metadata": metadata,
        "data": data,
    }


def _write(path: str, text: str) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(text)


def _write_sidecar(cfg: RunConfig, path: str, extra_metadata: dict | None = None) -> None:
    """Run metadata for the CSV at path, written to path + '.meta.json'."""
    sidecar = _envelope(cfg.subcommand, cfg, {"file": os.path.basename(path)}, extra_metadata)
    _write(path + ".meta.json", json.dumps(sidecar, indent=2, sort_keys=True))


def _emit(cfg: RunConfig, data, csv_text, extra_metadata: dict | None = None) -> None:
    """Write data in a JSON envelope, or the CSV that csv_text() returns, to stdout or --out.

    A CSV written to --out gets a .meta.json sidecar.
    """
    csv_format = cfg.options["format"] == "csv"
    if csv_format:
        text = csv_text()
    else:
        envelope = _envelope(cfg.subcommand, cfg, data, extra_metadata)
        text = json.dumps(envelope, indent=2, sort_keys=True)
    out = cfg.options["out"]
    if out is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        _write(out, text)
        if csv_format:
            _write_sidecar(cfg, out, extra_metadata)


def _cmd_steady(cfg: RunConfig) -> int:
    values = steady_observables(cfg.params, n_max=cfg.options["n_max"])
    _emit(cfg, values, lambda: csv_table(list(values), [list(values.values())]))
    return 0


def _cmd_lines(cfg: RunConfig) -> int:
    header = ["line_index", "frequency_mev", "offset_mev", "hwhm_mev"]
    records = [
        dict(zip(header, (k, line.frequency, line.offset, line.hwhm)))
        for k, line in enumerate(transition_lines(cfg.params), start=1)
    ]
    _emit(cfg, records, lambda: csv_table(header, [list(r.values()) for r in records]))
    return 0


def _spectrum_grid(cfg: RunConfig) -> np.ndarray:
    lo = cfg.options["omega_min_mev"]
    hi = cfg.options["omega_max_mev"]
    points = cfg.options["omega_points"]
    if points < 2:
        raise CliConfigError(f"omega_points must be >= 2, got {points}")
    if (lo is None) != (hi is None):
        raise CliConfigError("omega-min-mev and omega-max-mev must be given together")
    if lo is None:
        return default_omega_grid(cfg.params, points=points)
    if not hi > lo:
        raise CliConfigError(f"omega-max-mev ({hi}) must exceed omega-min-mev ({lo})")
    return np.linspace(lo, hi, points)


def _cmd_spectrum(cfg: RunConfig) -> int:
    grid = _spectrum_grid(cfg)
    result = pl_spectrum(cfg.params, grid, n_max=cfg.options["n_max"])
    intensities = result.intensities
    if cfg.options["normalize"]:
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
    _emit(cfg, data, lambda: csv_table(
        ["omega_mev", "offset_mev", "intensity"],
        zip(data["omega_mev"], data["offset_mev"], data["intensity"]),
    ))
    return 0


def _cmd_g2(cfg: RunConfig) -> int:
    kappa = cfg.params.kappa
    if kappa <= 0.0:
        raise CliConfigError("g2 delay grid needs kappa > 0")
    points = cfg.options["tau_points"]
    lo = cfg.options["tau_min_inv_kappa"]
    hi = cfg.options["tau_max_inv_kappa"]
    if points < 2 or lo <= 0.0 or hi <= lo:
        raise CliConfigError(
            "need tau_points >= 2 and 0 < tau-min-inv-kappa < tau-max-inv-kappa"
        )
    taus = np.geomspace(lo / kappa, hi / kappa, points)
    pairs = g2(cfg.params, taus, n_max=cfg.options["n_max"])
    header = ["tau_hbar_per_mev", "tau_kappa", "g2"]
    data = [dict(zip(header, (t, t * kappa, v))) for t, v in pairs]
    _emit(cfg, data, lambda: csv_table(header, [list(r.values()) for r in data]))
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


def _cmd_sweep(cfg: RunConfig) -> int:
    axis1 = _parse_axis(cfg.options["axis1"], "axis1")
    axis2 = _parse_axis(cfg.options["axis2"], "axis2")
    observables = tuple(s.strip() for s in cfg.options["observables"].split(",") if s.strip())
    if "spectrum" in observables:
        raise CliConfigError(
            "observable 'spectrum' is not representable in a flat sweep table; "
            "use the figures command"
        )
    try:
        spec = SweepSpec(
            params=cfg.params,
            axis1=axis1,
            axis2=axis2,
            observables=observables,
            n_max=cfg.options["n_max"],
        )
    except ValueError as exc:
        raise CliConfigError(str(exc)) from exc
    result = run_sweep(spec, parallelism=cfg.options["parallelism"])
    data = {
        "columns": list(result.columns),
        "rows": [[row[c] for c in result.columns] for row in result.rows],
    }
    _emit(cfg, data, result.to_csv, {"sweep": result.metadata})
    return 0


def _figure_tag(value: float) -> str:
    return format(value, "g").replace(".", "p")


def _cmd_figures(cfg: RunConfig) -> int:
    outdir = cfg.options["out"]
    if not outdir:
        raise CliConfigError("figures requires --out pointing at an output directory")
    os.makedirs(outdir, exist_ok=True)
    which = cfg.options["which"]
    n_grid = cfg.options["grid_points"]
    n_zeta = cfg.options["zeta_points"]
    parallelism = cfg.options["parallelism"]
    n_max = cfg.options["n_max"]
    written: list[str] = []

    def emit_sweep(name: str, result) -> None:
        path = os.path.join(outdir, name)
        _write(path, result.to_csv())
        _write_sidecar(cfg, path, {"sweep": result.metadata})
        written.append(name)
        written.append(name + ".meta.json")

    if which in ("1", "all"):
        spec = SweepSpec(
            params=cfg.params,
            axis1=SweepAxis("tunneling_T", 1e-3, 10.0, n_grid),
            axis2=SweepAxis("zeta", 1e-3, 10.0, n_grid),
            observables=("n_cavity", "n_qd1", "n_qd2"),
            n_max=n_max,
        )
        emit_sweep("fig1_populations.csv", run_sweep(spec, parallelism=parallelism))

    if which in ("2", "all"):
        zetas = np.geomspace(1e-3, 10.0, n_zeta)
        panels = run_spectra_panel(
            cfg.params, _FIG2_TUNNELING, zetas, n_max=n_max, parallelism=parallelism
        )
        for panel in panels:
            tag = _figure_tag(panel.tunneling)
            spectra_name = f"fig2_spectra_T{tag}.csv"
            lines_name = f"fig2_lines_T{tag}.csv"
            _write(os.path.join(outdir, spectra_name), panel_spectra_csv(panel))
            _write(os.path.join(outdir, lines_name), panel_lines_csv(panel))
            written += [spectra_name, lines_name]
            bad = [
                (float(z), status)
                for z, status in zip(panel.zetas, panel.statuses)
                if status != "ok"
            ]
            for z, status in bad:
                print(
                    f"warning: panel T={panel.tunneling:g} zeta={z:g} failed: {status}",
                    file=sys.stderr,
                )

    if which in ("3", "all"):
        axis1 = SweepAxis("tunneling_T", 1e-3, 10.0, n_grid)
        axis2 = SweepAxis("zeta", 1e-3, 10.0, n_grid)
        left = SweepSpec(params=cfg.params, axis1=axis1, axis2=axis2,
                         observables=("g2_zero",), n_max=n_max)
        emit_sweep("fig3_left_g2.csv", run_sweep(left, parallelism=parallelism))
        # stronger pumping needs more photon headroom than the default cutoff
        right = SweepSpec(params=preset("fig3-right"), axis1=axis1, axis2=axis2,
                          observables=("g2_zero",), n_max=max(5, n_max))
        emit_sweep("fig3_right_g2.csv", run_sweep(right, parallelism=parallelism))

    text = json.dumps(
        _envelope("figures", cfg, {"directory": outdir, "files": written}),
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
    try:
        cfg = _resolve(_parse(argv))
    except CliConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    try:
        return _COMMANDS[cfg.subcommand](cfg)
    except (CliConfigError, ValueError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except _NUMERICAL_ERRORS as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        print(
            "at parameter point: " + json.dumps(cfg.params.as_dict(), sort_keys=True),
            file=sys.stderr,
        )
        return 2


if __name__ == "__main__":
    sys.exit(main())
