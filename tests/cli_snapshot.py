"""Run a fixed set of small CLI invocations and store everything they produce.

    PYTHONPATH=src python3 tests/cli_snapshot.py OUTDIR

Each case runs through ``dqdcavity.cli.main`` in this process and gets its own
directory ``OUTDIR/<case>/`` holding the files it wrote plus ``stdout.txt``,
``stderr.txt`` and ``exit_code.txt``. JSON ``"timestamp"`` values and the
OUTDIR path itself are masked afterwards, so two snapshots of the same
program compare byte for byte. Each case runs inside its own
``warnings.catch_warnings()``, which resets Python's once-per-location
warning registry, so a case's ``stderr.txt`` holds every warning it shows
even when an earlier case showed one from the same source line:

    diff -r before/ after/

Run both snapshots under the same BLAS setting (e.g. the same
``OPENBLAS_NUM_THREADS``): g2's last digits, and whether the ``g2_not_finite``
case is refused, move with the BLAS thread count.

Pytest does not collect this file; it is a byte gate for changes that must
not alter what the CLI writes.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import sys
import warnings

from dqdcavity.cli import main

_SMALL = ["--preset", "laucht-strong", "--n-max", "2"]
_GRID = ["--axis1", "tunneling_T:0.001:10:6", "--axis2", "zeta:0.001:10:6"]
_ALL_SCALARS = "n_cavity,n_qd1,n_qd2,g2_zero,transition_lines"
# omega2 == omega1 is valid only at zeta 0, so every point that sets zeta > 0 fails
_DEGENERATE = ["--omega2-mev", "1218.0", "--zeta-mev", "0"]
# no gain channel, so the steady state is the empty vacuum and nothing is emitted
_DARK = ["--pump1-mev", "0", "--pump2-mev", "0", "--cavity-pump-mev", "0"]

# case name -> (argv with {d} for the case directory, config file contents or None)
CASES = {
    "steady_json": (["steady", *_SMALL], None),
    "steady_csv": (["steady", *_SMALL, "--format", "csv", "--out", "{d}/steady.csv"], None),
    "lines_json": (["lines", *_SMALL], None),
    "lines_csv": (["lines", *_SMALL, "--format", "csv", "--out", "{d}/lines.csv"], None),
    "spectrum_csv": (["spectrum", *_SMALL, "--omega-points", "201",
                      "--out", "{d}/spectrum.csv"], None),
    "spectrum_json": (["spectrum", *_SMALL, "--omega-points", "201", "--format", "json"], None),
    "spectrum_default_csv": (["spectrum", *_SMALL, "--out", "{d}/spectrum.csv"], None),
    "spectrum_normalized_csv": (["spectrum", *_SMALL, "--omega-points", "201", "--normalize",
                                 "--out", "{d}/spectrum.csv"], None),
    "spectrum_normalized_json": (["spectrum", *_SMALL, "--omega-points", "201", "--normalize",
                                  "--format", "json"], None),
    "g2_csv": (["g2", *_SMALL, "--tau-points", "20", "--out", "{d}/g2.csv"], None),
    "g2_json": (["g2", *_SMALL, "--tau-points", "20", "--format", "json"], None),
    "sweep_csv": (["sweep", *_SMALL, *_GRID, "--observables", _ALL_SCALARS,
                   "--parallelism", "2", "--out", "{d}/sweep.csv"], None),
    "sweep_json": (["sweep", *_SMALL, *_GRID, "--observables", _ALL_SCALARS,
                    "--parallelism", "2", "--format", "json"], None),
    "sweep_all_errors": (["sweep", *_SMALL, *_DEGENERATE, *_GRID,
                          "--out", "{d}/sweep.csv"], None),
    # 36 points whose first 6 (omega2 == omega1, zeta > 0) fail before the solve, so
    # rows must not depend on whether failed points count towards a stack
    "sweep_mixed_errors": (["sweep", *_SMALL, "--axis1", "omega2:1218.0:1218.5:6",
                            "--axis2", "zeta:0.001:10:6", "--observables", "n_cavity,g2_zero",
                            "--out", "{d}/sweep.csv"], None),
    # dot 2 cut off: its population is undetermined at pump2 = 1e-30, so every other
    # point fails inside the solve
    "sweep_solve_errors": (["sweep", *_SMALL, "--gamma2-mev", "0", "--g2-mev", "0",
                            "--tunneling-mev", "0", "--zeta-mev", "0",
                            "--axis1", "kappa:0.1:1:3", "--axis2", "pump2:1e-30:1e-2:2",
                            "--observables", "n_cavity,n_qd2,g2_zero",
                            "--out", "{d}/sweep.csv"], None),
    # the same cut-off dot on 72 points at parallelism 2: each chunk of 36 solves a full
    # stack (33 points at n_max 2) and a short one, and the first chunk's failed points
    # sit on both sides of that stack seam
    "sweep_stacked_solve_errors": (["sweep", *_SMALL, "--gamma2-mev", "0", "--g2-mev", "0",
                                    "--tunneling-mev", "0", "--zeta-mev", "0",
                                    "--axis1", "kappa:0.1:1:9", "--axis2", "pump2:1e-30:1e-2:8",
                                    "--observables", "n_cavity,n_qd2,g2_zero",
                                    "--parallelism", "2", "--out", "{d}/sweep.csv"], None),
    # no gain: the occupations read out before g2 fails on the empty cavity, and
    # each row must still hold no values next to its error
    "sweep_observable_errors": (["sweep", *_SMALL, *_DARK, "--axis1", "tunneling_T:0.01:1:2",
                                 "--axis2", "zeta:0.01:1:2",
                                 "--observables", "n_cavity,g2_zero,transition_lines",
                                 "--out", "{d}/sweep.csv"], None),
    "sweep_rejects_spectrum": (["sweep", *_SMALL, "--observables", "n_cavity,spectrum"], None),
    "figures_2": (["figures", *_SMALL, "--which", "2", "--zeta-points", "3",
                   "--parallelism", "2", "--out", "{d}/fig"], None),
    "figures_2_all_fail": (["figures", *_SMALL, *_DEGENERATE, "--which", "2",
                            "--zeta-points", "3", "--out", "{d}/fig"], None),
    "figures_1": (["figures", *_SMALL, "--which", "1", "--grid-points", "3",
                   "--out", "{d}/fig"], None),
    "figures_3": (["figures", *_SMALL, "--which", "3", "--grid-points", "3",
                   "--out", "{d}/fig"], None),
    "config_merge": (["steady", "--config", "{d}/run.json", "--zeta-mev", "0.4"],
                     {"preset": "laucht-strong", "zeta_mev": 0.2, "n_max": 1,
                      "format": "csv"}),
    "config_bad_format": (["steady", "--config", "{d}/run.json"], {"format": "xml"}),
    "config_range_error": (["spectrum", "--config", "{d}/run.json"], {"omega_points": 1}),
    "figures_zeta_points_zero": (["figures", "--which", "2", "--zeta-points", "0",
                                  "--out", "{d}/fig"], None),
    "spectrum_range_csv": (["spectrum", *_SMALL, "--omega-min-mev", "1217.25",
                            "--omega-max-mev", "1218.75", "--omega-points", "61",
                            "--out", "{d}/spectrum.csv"], None),
    "spectrum_dark_json": (["spectrum", *_SMALL, *_DARK, "--omega-points", "11",
                            "--format", "json"], None),
    # at n_max 1, a a = 0: g2 is 0 at tau = 0 and must not be refused for it
    "g2_cutoff_1": (["g2", "--preset", "laucht-strong", "--n-max", "1", "--tau-points", "5",
                     "--out", "{d}/g2.csv"], None),
    "g2_tau_max_inf": (["g2", *_SMALL, "--tau-points", "5", "--tau-max-inv-kappa", "inf",
                        "--out", "{d}/g2.csv"], None),
    # at tau ~ 1e297 the mode sum overflows: a numerical failure, exit code 2
    "g2_not_finite": (["g2", *_SMALL, "--kappa-mev", "1e-300", "--tau-points", "3"], None),
    # kappa near DBL_MAX overflows the steady-state system: refused, exit code 2, and
    # stderr holds the error alone
    "steady_rate_near_dbl_max": (["steady", *_SMALL, "--kappa-mev", "1e308"], None),
    "config_model_error": (["steady", "--config", "{d}/run.json"], {"kappa_mev": -1}),
    "sweep_axis_inf": (["sweep", "--n-max", "1", "--axis1", "tunneling_T:0.001:inf:3",
                        "--axis2", "zeta:0.001:10:2", "--format", "csv"], None),
    "config_subcommand_mismatch": (["spectrum", "--config", "{d}/run.json"],
                                   {"subcommand": "g2"}),
    "config_normalize_switch": (["spectrum", "--config", "{d}/run.json"],
                                {"normalize": True, "n_max": 1, "omega_points": 11}),
    # grid ends whose span or delays leave the double range: refused, exit code 1, one line
    "spectrum_span_overflow": (["spectrum", "--n-max", "1", "--omega-min-mev=-1e308",
                                "--omega-max-mev", "1e308", "--omega-points", "3"], None),
    "g2_delay_overflow": (["g2", "--n-max", "1", "--kappa-mev", "1e-310", "--tau-points", "3"],
                          None),
    "g2_delay_underflow": (["g2", "--n-max", "1", "--kappa-mev", "1e10",
                            "--tau-min-inv-kappa", "1e-320", "--tau-points", "3"], None),
    # zeta 0 switches PhAT off even where n_th overflows, so this is the 4 K point's CSV
    "steady_zeta_0_hot": (["steady", "--n-max", "1", "--zeta-mev", "0", "--temperature-k", "1e300",
                           "--omega2-mev", "1218.0000000000002", "--format", "csv"], None),
    # at zeta 0.01 the same point's PhAT rates are inf: refused by name, exit code 2
    "steady_rate_not_finite": (["steady", "--n-max", "1", "--temperature-k", "1e300",
                                "--omega2-mev", "1218.0000000000002"], None),
}

_TIMESTAMP = re.compile(r'("timestamp": )"[^"]*"')


def _run_case(case_dir: str, argv: list[str], config) -> None:
    os.makedirs(case_dir)
    if config is not None:
        with open(os.path.join(case_dir, "run.json"), "w", encoding="utf-8") as fh:
            json.dump(config, fh)
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([arg.replace("{d}", case_dir) for arg in argv])
    for name, text in (("stdout.txt", out.getvalue()), ("stderr.txt", err.getvalue()),
                       ("exit_code.txt", f"{code}\n")):
        with open(os.path.join(case_dir, name), "w", encoding="utf-8") as fh:
            fh.write(text)


def _mask(root: str) -> None:
    for folder, _, files in os.walk(root):
        for name in files:
            path = os.path.join(folder, name)
            with open(path, encoding="utf-8", newline="") as fh:
                text = fh.read()
            masked = _TIMESTAMP.sub(r'\1"<timestamp>"', text.replace(root, "<OUTDIR>"))
            if masked != text:
                with open(path, "w", encoding="utf-8", newline="") as fh:
                    fh.write(masked)


def snapshot(outdir: str) -> None:
    root = os.path.abspath(outdir)
    for case, (argv, config) in CASES.items():
        _run_case(os.path.join(root, case), argv, config)
    _mask(root)


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(f"usage: {sys.argv[0]} OUTDIR")
    snapshot(sys.argv[1])
