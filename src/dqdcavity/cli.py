"""Command-line front end: flags/config resolution, dispatch, CSV/JSON emission.

All energies on this boundary are meV (flag names carry the -mev suffix) and
temperature is kelvin. Configuration may come from a JSON file (--config) with
flags taking precedence; the fully resolved configuration is echoed into output
metadata so any run can be reproduced from its own artifact.

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
    p.add_argument("--preset", choices=preset_names(), default=None,
                   help="named parameter set to start from (default laucht-strong)")
    for dest, field in _PARAM_DESTS.items():
        flag = "--" + dest.replace("_", "-")
        unit = "K" if dest == "temperature_k" else "meV"
        p.add_argument(flag, dest=dest, type=float, default=None,
                       help=f"override {field} ({unit})")
    p.add_argument("--n-max", dest="n_max", type=int, default=None,
                   help="photon cutoff (default 3)")


def _add_io_args(p: _Parser, default_format: str):
    p.add_argument("--config", default=None,
                   help="JSON file with flag values; explicit flags win")
    p.add_argument("--out", default=None, help="output file (default stdout)")
    p.add_argument("--format", choices=("json", "csv"), default=None,
                   help=f"output format (default {default_format})")


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
    p.add_argument("--omega-min-mev", dest="omega_min_mev", type=float, default=None)
    p.add_argument("--omega-max-mev", dest="omega_max_mev", type=float, default=None)
    p.add_argument("--omega-points", dest="omega_points", type=int, default=None,
                   help="grid size (default 2001)")
    p.add_argument("--normalize", dest="normalize", action="store_const", const=True,
                   default=None, help="scale intensities to unit maximum")

    p = sub.add_parser("g2", help="second-order coherence g2(tau)")
    _add_model_args(p)
    _add_io_args(p, "csv")
    p.add_argument("--tau-points", dest="tau_points", type=int, default=None)
    p.add_argument("--tau-min-inv-kappa", dest="tau_min_inv_kappa", type=float, default=None,
                   help="shortest delay in units of 1/kappa (default 1e-3)")
    p.add_argument("--tau-max-inv-kappa", dest="tau_max_inv_kappa", type=float, default=None,
                   help="longest delay in units of 1/kappa (default 1e2)")

    p = sub.add_parser("sweep", help="two-axis log grid sweep")
    _add_model_args(p)
    _add_io_args(p, "csv")
    p.add_argument("--axis1", default=None, help="name:start:stop:count (log spaced)")
    p.add_argument("--axis2", default=None, help="name:start:stop:count (log spaced)")
    p.add_argument("--observables", default=None,
                   help="comma list from n_cavity,n_qd1,n_qd2,g2_zero,transition_lines")
    p.add_argument("--parallelism", dest="parallelism", type=int, default=None,
                   help="worker threads (default DQDCAVITY_PARALLELISM or 1)")

    p = sub.add_parser("figures", help="write plot-ready data files")
    _add_model_args(p)
    p.add_argument("--config", default=None,
                   help="JSON file with flag values; explicit flags win")
    p.add_argument("--out", default=None, help="output directory (required)")
    p.add_argument("--which", choices=("1", "2", "3", "all"), default=None)
    p.add_argument("--grid-points", dest="grid_points", type=int, default=None,
                   help="points per sweep axis (default 40)")
    p.add_argument("--zeta-points", dest="zeta_points", type=int, default=None,
                   help="zeta values per spectra panel (default 40)")
    p.add_argument("--parallelism", dest="parallelism", type=int, default=None)
    return parser


_DEFAULTS_COMMON = {"preset": "laucht-strong", "n_max": 3, "out": None, "config": None}
_DEFAULTS = {
    "steady": {"format": "json"},
    "lines": {"format": "json"},
    "spectrum": {"format": "csv", "omega_min_mev": None, "omega_max_mev": None,
                 "omega_points": 2001, "normalize": False},
    "g2": {"format": "csv", "tau_points": 200, "tau_min_inv_kappa": 1e-3,
           "tau_max_inv_kappa": 1e2},
    "sweep": {"format": "csv", "axis1": "tunneling_T:0.001:10:40",
              "axis2": "zeta:0.001:10:40",
              "observables": "n_cavity,n_qd1,n_qd2", "parallelism": None},
    "figures": {"which": "all", "grid_points": 40, "zeta_points": 40,
                "parallelism": None},
}
for dest in _PARAM_DESTS:
    _DEFAULTS_COMMON.setdefault(dest, None)


@dataclasses.dataclass
class RunConfig:
    """Fully resolved run: every knob pinned, parameters validated."""

    subcommand: str
    params: ModelParams
    options: dict
    echo: dict


def _load_config_file(path: str, allowed: set, subcommand: str) -> dict:
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
    sub = data.pop("subcommand", None)
    if sub is not None and sub != subcommand:
        raise CliConfigError(
            f"config file targets subcommand {sub!r} but {subcommand!r} was invoked"
        )
    for key in data:
        if key not in allowed:
            raise CliConfigError(f"unknown configuration key {key!r} in {path!r}")
    return data


def _resolve(ns: argparse.Namespace) -> RunConfig:
    subcommand = ns.subcommand
    defaults = dict(_DEFAULTS_COMMON)
    defaults.update(_DEFAULTS[subcommand])
    allowed = set(defaults) - {"config"}

    merged = dict(defaults)
    if ns.config is not None:
        merged.update(_load_config_file(ns.config, allowed, subcommand))
    for dest in allowed:
        value = getattr(ns, dest, None)
        if value is not None:
            merged[dest] = value

    if merged.get("parallelism", "absent") is None:
        env = os.environ.get("DQDCAVITY_PARALLELISM")
        if env is None:
            merged["parallelism"] = 1
        else:
            try:
                merged["parallelism"] = int(env)
            except ValueError:
                raise CliConfigError(
                    f"DQDCAVITY_PARALLELISM must be an integer, got {env!r}"
                ) from None

    overrides = {}
    for dest, field in _PARAM_DESTS.items():
        if merged.get(dest) is not None:
            overrides[field] = float(merged[dest])
    try:
        params = preset(merged["preset"], **overrides)
    except (ValueError, TypeError) as exc:
        raise CliConfigError(str(exc)) from exc

    echo = {"subcommand": subcommand}
    echo.update({k: merged[k] for k in sorted(allowed)})
    options = {k: merged[k] for k in merged if k not in _PARAM_DESTS and k != "preset"}
    return RunConfig(subcommand=subcommand, params=params, options=options, echo=echo)


def _envelope(kind: str, cfg: RunConfig, data, extra_metadata: dict | None = None) -> dict:
    metadata = {
        "package_version": __version__,
        "config": cfg.echo,
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


def _emit(cfg: RunConfig, text: str, extra_metadata: dict | None = None) -> None:
    """Print text, or write it to --out; a CSV there gets a .meta.json sidecar."""
    out = cfg.options.get("out")
    if out is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        _write(out, text)
        if cfg.options["format"] == "csv":
            _write_sidecar(cfg, out, extra_metadata)


def _cmd_steady(cfg: RunConfig) -> int:
    values = steady_observables(cfg.params, n_max=cfg.options["n_max"])
    if cfg.options["format"] == "json":
        text = json.dumps(_envelope("steady", cfg, values), indent=2, sort_keys=True)
    else:
        text = csv_table(list(values), [[values[k] for k in values]])
    _emit(cfg, text)
    return 0


def _cmd_lines(cfg: RunConfig) -> int:
    lines = transition_lines(cfg.params)
    records = [
        {
            "line_index": k,
            "frequency_mev": line.frequency,
            "offset_mev": line.offset,
            "hwhm_mev": line.hwhm,
        }
        for k, line in enumerate(lines, start=1)
    ]
    if cfg.options["format"] == "json":
        text = json.dumps(_envelope("lines", cfg, records), indent=2, sort_keys=True)
    else:
        header = ["line_index", "frequency_mev", "offset_mev", "hwhm_mev"]
        text = csv_table(header, [[r[h] for h in header] for r in records])
    _emit(cfg, text)
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
    if cfg.options["format"] == "json":
        data = {
            "omega_mev": result.frequencies.tolist(),
            "offset_mev": result.offsets.tolist(),
            "intensity": intensities.tolist(),
            "poles": [{"re": p.real, "im": p.imag} for p in result.poles],
            "amplitudes": [{"re": a.real, "im": a.imag} for a in result.amplitudes],
        }
        text = json.dumps(_envelope("spectrum", cfg, data), indent=2, sort_keys=True)
    else:
        rows = [
            [float(w), float(off), float(i)]
            for w, off, i in zip(result.frequencies, result.offsets, intensities)
        ]
        text = csv_table(["omega_mev", "offset_mev", "intensity"], rows)
    _emit(cfg, text)
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
    if cfg.options["format"] == "json":
        data = [{"tau_hbar_per_mev": t, "tau_kappa": t * kappa, "g2": v} for t, v in pairs]
        text = json.dumps(_envelope("g2", cfg, data), indent=2, sort_keys=True)
    else:
        rows = [[t, t * kappa, v] for t, v in pairs]
        text = csv_table(["tau_hbar_per_mev", "tau_kappa", "g2"], rows)
    _emit(cfg, text)
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
    extra = {"sweep": result.metadata}
    if cfg.options["format"] == "json":
        data = {
            "columns": list(result.columns),
            "rows": [[row[c] for c in result.columns] for row in result.rows],
        }
        text = json.dumps(_envelope("sweep", cfg, data, extra), indent=2, sort_keys=True)
    else:
        text = result.to_csv()
    _emit(cfg, text, extra)
    return 0


def _figure_tag(value: float) -> str:
    return format(value, "g").replace(".", "p")


def _cmd_figures(cfg: RunConfig) -> int:
    outdir = cfg.options.get("out")
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
    try:
        ns = _build_parser().parse_args(argv)
        cfg = _resolve(ns)
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
