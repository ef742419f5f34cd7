import csv
import io
import json
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

jsonschema = pytest.importorskip("jsonschema")

import dqdcavity
from dqdcavity import errors, load_output_schema, panel_lines_csv, panel_spectra_csv, preset
from dqdcavity import run_spectra_panel
from dqdcavity.cli import main


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _validate(payload):
    jsonschema.validate(payload, load_output_schema())


def test_steady_json_envelope(capsys):
    code, out, _ = _run(capsys, ["steady", "--preset", "laucht-strong", "--n-max", "2"])
    assert code == 0
    payload = json.loads(out)
    _validate(payload)
    assert payload["schema_version"] == "dqdcavity-output-v1"
    assert payload["kind"] == "steady"
    assert payload["metadata"]["config"]["subcommand"] == "steady"
    assert payload["metadata"]["params"]["kappa"] == 0.147
    assert payload["data"]["n_cavity"] > 0.0


def test_parameter_override_echoed(capsys):
    code, out, _ = _run(
        capsys, ["steady", "--preset", "laucht-strong", "--zeta-mev", "0.5", "--n-max", "1"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["metadata"]["params"]["zeta"] == 0.5


def test_lines_decoupled_read_off(capsys):
    p = preset("laucht-strong")
    code, out, _ = _run(capsys, [
        "lines", "--preset", "laucht-strong", "--tunneling-mev", "0",
        "--zeta-mev", "0", "--g1-mev", "0", "--g2-mev", "0", "--format", "csv",
    ])
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 3
    got = [(float(r["frequency_mev"]), float(r["hwhm_mev"])) for r in rows]
    want = [
        (p.omega1, p.gamma1 / 2.0),
        (p.omega0, p.kappa / 2.0),
        (p.omega2, p.gamma2 / 2.0),
    ]
    for (fg, wg), (fw, ww) in zip(got, want):
        assert fg == pytest.approx(fw, abs=1e-9)
        assert wg == pytest.approx(ww, abs=1e-12)


def test_lines_json_matches_schema(capsys):
    code, out, _ = _run(capsys, ["lines", "--preset", "laucht-strong"])
    assert code == 0
    payload = json.loads(out)
    _validate(payload)
    assert payload["kind"] == "lines"
    assert len(payload["data"]) == 3


def test_spectrum_normalized_csv(capsys):
    code, out, _ = _run(capsys, [
        "spectrum", "--preset", "laucht-strong", "--n-max", "1",
        "--omega-points", "101", "--normalize",
    ])
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 101
    peak = max(float(r["intensity"]) for r in rows)
    assert peak == pytest.approx(1.0, abs=1e-12)
    offs = [float(r["offset_mev"]) for r in rows]
    assert offs[0] == pytest.approx(-3.0)
    assert offs[-1] == pytest.approx(3.0)


def test_g2_roundtrip_to_file(tmp_path, capsys):
    out_file = tmp_path / "g2.json"
    code, out, _ = _run(capsys, [
        "g2", "--preset", "fig3-right", "--n-max", "2", "--tau-points", "5",
        "--format", "json", "--out", str(out_file),
    ])
    assert code == 0
    payload = json.loads(out_file.read_text())
    _validate(payload)
    assert payload["kind"] == "g2"
    assert len(payload["data"]) == 5
    assert payload["data"][0]["g2"] < 1.0  # antibunched preset


def test_sweep_csv_with_sidecar(tmp_path, capsys):
    out_file = tmp_path / "grid.csv"
    code, _, _ = _run(capsys, [
        "sweep", "--preset", "laucht-strong", "--n-max", "1",
        "--axis1", "tunneling_T:0.001:10:2", "--axis2", "zeta:0.001:10:2",
        "--observables", "n_cavity", "--out", str(out_file),
    ])
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out_file.read_text())))
    assert len(rows) == 4
    assert all(r["status"] == "ok" for r in rows)
    sidecar = json.loads((tmp_path / "grid.csv.meta.json").read_text())
    _validate(sidecar)
    assert sidecar["metadata"]["sweep"]["n_max"] == 1


def test_spectrum_csv_with_sidecar(tmp_path, capsys):
    out_file = tmp_path / "spectrum.csv"
    code, _, _ = _run(capsys, [
        "spectrum", "--n-max", "1", "--omega-points", "11", "--out", str(out_file),
    ])
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out_file.read_text())))
    assert len(rows) == 11
    sidecar = json.loads((tmp_path / "spectrum.csv.meta.json").read_text())
    _validate(sidecar)
    assert sidecar["kind"] == "spectrum"
    assert sidecar["data"] == {"file": "spectrum.csv"}


def test_sweep_rejects_spectrum_observable(capsys):
    code, _, err = _run(capsys, [
        "sweep", "--preset", "laucht-strong", "--observables", "n_cavity,spectrum",
    ])
    assert code == 1
    assert "figures" in err


def test_bad_axis_is_config_error(capsys):
    code, _, err = _run(capsys, [
        "sweep", "--preset", "laucht-strong", "--axis1", "tunneling_T:1:10",
    ])
    assert code == 1
    assert "name:start:stop:count" in err
    code, out, err = _run(capsys, [
        "sweep", "--n-max", "1", "--axis1", "tunneling_T:0.001:inf:3",
        "--axis2", "zeta:0.001:10:2", "--format", "csv",
    ])
    assert code == 1
    assert "axis1" in err and "finite" in err
    assert out == ""


def test_unknown_observable_names_itself(capsys):
    code, _, err = _run(capsys, [
        "sweep", "--preset", "laucht-strong", "--observables", "n_cavity,typo",
    ])
    assert code == 1
    assert "typo" in err


def test_degenerate_model_exits_two(capsys):
    code, _, err = _run(capsys, [
        "steady", "--preset", "laucht-strong", "--n-max", "1",
        "--gamma2-mev", "0", "--pump1-mev", "0", "--pump2-mev", "0",
        "--cavity-pump-mev", "0", "--g2-mev", "0",
        "--tunneling-mev", "0", "--zeta-mev", "0",
    ])
    assert code == 2
    assert "numerical failure" in err
    assert "at parameter point" in err


def test_g2_that_is_not_finite_exits_two(capsys):
    # the delays reach 1e302 hbar/meV, where the mode sum overflows
    code, out, err = _run(capsys, ["g2", "--kappa-mev", "1e-300", "--tau-points", "3"])
    assert code == 2
    assert out == ""
    assert "numerical failure: g2 is not finite at delay 1e+297" in err
    assert '"kappa": 1e-300' in err


@pytest.mark.parametrize("flag, field, value", [
    ("--kappa-mev", "kappa", 1e308), ("--pump1-mev", "pump1", 1e308),
    ("--tunneling-mev", "tunneling_T", 1.7e308), ("--zeta-mev", "zeta", 1e308),
])
@pytest.mark.parametrize("command", ["steady", "spectrum"])
def test_rate_near_dbl_max_exits_two_with_the_error_alone(capsys, command, flag, field, value):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = _run(capsys, [command, "--n-max", "2", flag, repr(value)])
    assert [str(w.message) for w in caught] == []
    assert (code, out) == (2, "")
    failure, point = err.splitlines()
    assert failure.startswith("numerical failure: trace-row system is numerically singular (rcond = ")
    assert json.loads(point.removeprefix("at parameter point: "))[field] == value


def test_sweep_over_rates_near_dbl_max_writes_error_rows_alone(capsys):
    argv = ["sweep", "--n-max", "2", "--axis1", "kappa:1e300:1e308:2", "--axis2", "zeta:0.01:1:2",
            "--observables", "n_cavity", "--format", "csv"]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = _run(capsys, argv)
    assert [str(w.message) for w in caught] == []
    assert (code, err) == (0, "")
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 4
    assert {row["status"] for row in rows} == {"error:DegenerateSteadyStateError"}


_HOT = ["--n-max", "1", "--omega2-mev", "1218.0000000000002"]
_NOT_FINITE = ("model coefficients are not finite: gamma_T = inf, p_T = inf "
               "(phonon occupation n_th = inf)")


def test_rate_that_is_not_finite_is_refused_by_name(capsys):
    # at zeta 0.01 and 1e300 K the phonon occupation overflows, so both PhAT
    # rates are inf: refused before any block is built, not as a singular solve
    argv = ["sweep", *_HOT, "--axis1", "temperature:1e299:1e300:2", "--axis2", "zeta:0.01:1:2",
            "--format", "csv"]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = _run(capsys, ["steady", *_HOT, "--temperature-k", "1e300"])
        assert (code, out) == (2, "")
        assert err.splitlines()[0] == f"numerical failure: {_NOT_FINITE}"
        code, out, err = _run(capsys, argv)
    assert [str(w.message) for w in caught] == []
    assert (code, err) == (0, "")
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 4
    assert {(row["status"], row["error"]) for row in rows} == {("error:NumericalError", _NOT_FINITE)}


def test_numerical_errors_share_one_base():
    # the CLI's exit 2 and a sweep's error rows both key on this base
    for error in (errors.DegenerateSteadyStateError, errors.SteadyStateConvergenceError,
                  errors.DiagonalizationError, errors.UndefinedObservableError):
        assert issubclass(error, errors.NumericalError)
        assert issubclass(error, RuntimeError)
    assert "NumericalError" not in dqdcavity.__all__


@pytest.mark.parametrize(
    "argv",
    [
        ["steady", "--n-max", "1", "--out", "{missing}/steady.json"],
        ["sweep", "--n-max", "1", "--axis1", "tunneling_T:0.01:1:2", "--axis2", "zeta:0.01:1:2",
         "--out", "{missing}/sweep.csv"],
        ["figures", "--n-max", "1", "--which", "1", "--grid-points", "2", "--out", "{file}"],
    ],
    ids=["steady", "sweep", "figures"],
)
def test_unwritable_out_is_a_config_error(tmp_path, capsys, argv):
    taken = tmp_path / "taken"
    taken.write_text("not a directory")
    code, out, err = _run(capsys, [
        a.format(missing=tmp_path / "missing", file=taken) for a in argv
    ])
    assert code == 1
    assert out == ""
    assert err.startswith("configuration error: [Errno ")
    assert err.count("\n") == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["taken"]


def test_spectrum_eigendecomposition_failure_exits_two(capsys, monkeypatch):
    def eig(*args):
        raise np.linalg.LinAlgError("eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eig", eig)
    code, out, err = _run(capsys, ["spectrum", "--n-max", "1", "--omega-points", "11"])
    assert code == 2
    assert out == ""
    assert "numerical failure: generator eigendecomposition failed" in err
    assert "at parameter point" in err


@pytest.mark.parametrize(
    ("argv", "named"),
    [
        (["steady", "--preset", "laucht-strong", "--kappa-mev", "-1"], "kappa"),
        (["g2", "--tau-max-inv-kappa", "inf"], "--tau-max-inv-kappa"),
        (["spectrum", "--omega-min-mev=-inf", "--omega-max-mev", "inf"], "--omega-min-mev"),
        (["spectrum", "--omega-min-mev", "1217"], "omega-max-mev"),
        (["spectrum", "--omega-max-mev", "1219"], "omega-min-mev"),
        (["spectrum", "--omega-min-mev", "1219", "--omega-max-mev", "1217"], "must exceed"),
        (["g2", "--kappa-mev", "0"], "kappa > 0"),
        (["g2", "--tau-min-inv-kappa", "10", "--tau-max-inv-kappa", "1"], "tau-min-inv-kappa"),
        # grid ends that leave the double range only once they are derived
        (["spectrum", "--n-max", "1", "--omega-min-mev=-1e308", "--omega-max-mev", "1e308",
          "--omega-points", "3"], "omega-max-mev (1e+308) minus omega-min-mev (-1e+308)"),
        (["g2", "--n-max", "1", "--kappa-mev", "1e-310", "--tau-points", "3"],
         "tau-max-inv-kappa (100.0) / kappa-mev (1e-310)"),
        (["g2", "--n-max", "1", "--kappa-mev", "1e10", "--tau-min-inv-kappa", "1e-320",
          "--tau-points", "3"], "tau-min-inv-kappa (1e-320) / kappa-mev (10000000000.0)"),
    ],
    ids=["kappa", "tau-max-inf", "omega-min-inf", "omega-min-only", "omega-max-only",
         "omega-reversed", "g2-kappa-zero", "tau-reversed", "omega-span-overflow",
         "tau-max-overflow", "tau-min-underflow"],
)
def test_invalid_parameter_exits_one(tmp_path, capsys, argv, named):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = _run(capsys, [*argv, "--out", str(tmp_path / "o")])
    assert [str(w.message) for w in caught] == []
    assert code == 1
    assert named in err
    assert err.count("\n") == 1
    assert out == ""
    assert list(tmp_path.iterdir()) == []


def test_zeta_zero_point_does_not_depend_on_temperature(capsys):
    # zeta 0 switches PhAT off, and temperature enters the model nowhere else,
    # even where the phonon occupation overflows
    argv = ["steady", "--n-max", "1", "--zeta-mev", "0", "--omega2-mev", "1218.0000000000002",
            "--format", "csv"]
    runs = []
    for kelvin in ("4", "1e300"):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            runs.append(_run(capsys, [*argv, "--temperature-k", kelvin]))
        assert [str(w.message) for w in caught] == []
    assert runs[0] == runs[1]
    assert runs[0][0] == 0 and runs[0][2] == ""


def test_spectrum_range_sets_grid_ends(capsys):
    code, out, _ = _run(capsys, [
        "spectrum", "--n-max", "1", "--omega-min-mev", "1217.5",
        "--omega-max-mev", "1218.5", "--omega-points", "11",
    ])
    assert code == 0
    omegas = [float(r["omega_mev"]) for r in csv.DictReader(io.StringIO(out))]
    assert len(omegas) == 11
    assert (omegas[0], omegas[-1]) == (1217.5, 1218.5)


def test_config_file_merge_and_flag_priority(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"preset": "laucht-strong", "zeta_mev": 0.2, "n_max": 1}))
    code, out, _ = _run(capsys, ["steady", "--config", str(cfg), "--zeta-mev", "0.4"])
    assert code == 0
    payload = json.loads(out)
    assert payload["metadata"]["params"]["zeta"] == 0.4  # flag beats file


def test_config_file_unknown_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"preset": "laucht-strong", "zeta_meV_typo": 1.0}))
    code, _, err = _run(capsys, ["steady", "--config", str(cfg)])
    assert code == 1
    assert "zeta_meV_typo" in err
    assert str(cfg) in err


@pytest.mark.parametrize(
    ("subcommand", "config"),
    [
        ("sweep", {"parallelism": "two"}),
        ("spectrum", {"omega_points": "11x"}),
        ("steady", {"format": "xml"}),
        ("figures", {"which": "5"}),
        ("spectrum", {"omega_points": 1}),
        ("g2", {"tau_points": 1}),
        ("figures", {"grid_points": 1}),
        ("sweep", {"parallelism": 0}),
        ("steady", {"n_max": 0}),
        ("g2", {"tau_min_inv_kappa": 0}),
        ("steady", {"kappa_mev": -1}),
        ("sweep", {"axis1": "tunneling_T:0:1:3"}),
        ("g2", {"tau_max_inv_kappa": float("inf")}),
        ("spectrum", {"omega_min_mev": float("-inf"), "omega_max_mev": 1219.0}),
    ],
)
def test_config_file_values_checked_like_flags(tmp_path, capsys, subcommand, config):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(config))
    code, out, err = _run(capsys, [subcommand, "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 1
    assert "configuration error" in err
    assert str(cfg) in err
    assert "Traceback" not in err
    assert out == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.json"]


@pytest.mark.parametrize(
    "text",
    [None, "{not json", "[1, 2]", '{"subcommand": "g2"}', '{"omega_points": [11]}'],
    ids=["unreadable", "invalid-json", "not-an-object", "other-subcommand", "list-value"],
)
def test_config_file_errors_name_the_file(tmp_path, capsys, text):
    cfg = tmp_path / "run.json"
    if text is not None:
        cfg.write_text(text)
    code, out, err = _run(capsys, ["spectrum", "--config", str(cfg)])
    assert code == 1
    assert err.startswith("configuration error: ")
    assert repr(str(cfg)) in err
    assert out == ""


def test_config_file_switch_sets_flag(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"normalize": True, "n_max": 1, "omega_points": 101}))
    code, out, _ = _run(capsys, ["spectrum", "--config", str(cfg)])
    assert code == 0
    assert max(float(r["intensity"]) for r in csv.DictReader(io.StringIO(out))) == 1.0


_PARAM_NONE = {
    f"{name}_mev": None
    for name in ("omega0", "omega1", "omega2", "tunneling", "g1", "g2", "gamma1",
                 "gamma2", "pump1", "pump2", "cavity_pump", "kappa", "zeta")
}
_COMMON_DEFAULTS = {"preset": "laucht-strong", "n_max": 3, "temperature_k": None, **_PARAM_NONE}
_SMALL_GRID = ["--axis1", "tunneling_T:0.001:10:2", "--axis2", "zeta:0.001:10:2"]

# subcommand -> (flags a fast run needs, --out under tmp_path, expected metadata.config);
# --out None reads the envelope from stdout, "" points --out at tmp_path itself
_DEFAULT_CASES = {
    "steady": ([], None, {"out": None, "format": "json"}),
    "lines": ([], None, {"out": None, "format": "json"}),
    "spectrum": ([], "spectrum.csv", {
        "format": "csv", "omega_min_mev": None, "omega_max_mev": None,
        "omega_points": 2001, "normalize": False,
    }),
    "g2": ([], "g2.csv", {
        "format": "csv", "tau_points": 200, "tau_min_inv_kappa": 0.001,
        "tau_max_inv_kappa": 100.0,
    }),
    "sweep": (_SMALL_GRID, "sweep.csv", {
        "format": "csv", "axis1": "tunneling_T:0.001:10:2", "axis2": "zeta:0.001:10:2",
        "observables": "n_cavity,n_qd1,n_qd2", "parallelism": 1,
    }),
    "figures": (["--grid-points", "2", "--zeta-points", "2"], "", {
        "which": "all", "grid_points": 2, "zeta_points": 2, "parallelism": 1,
    }),
}


@pytest.mark.parametrize("subcommand", list(_DEFAULT_CASES))
def test_resolved_defaults_echoed(tmp_path, capsys, subcommand):
    flags, out_name, specific = _DEFAULT_CASES[subcommand]
    argv = [subcommand, *flags]
    expected = {"subcommand": subcommand, **_COMMON_DEFAULTS, **specific}
    if out_name is not None:
        out = str(tmp_path / out_name) if out_name else str(tmp_path)
        argv += ["--out", out]
        expected["out"] = out
    code, stdout, _ = _run(capsys, argv)
    assert code == 0
    if out_name:
        payload = json.loads((tmp_path / (out_name + ".meta.json")).read_text())
    else:
        payload = json.loads(stdout)
    config = payload["metadata"]["config"]
    assert config == expected
    assert {k: type(v) for k, v in config.items()} == {k: type(v) for k, v in expected.items()}


def test_figures_panel_files(tmp_path, capsys):
    code, out, _ = _run(capsys, [
        "figures", "--preset", "laucht-strong", "--which", "2",
        "--out", str(tmp_path), "--zeta-points", "3", "--n-max", "1",
    ])
    assert code == 0
    payload = json.loads(out)
    _validate(payload)
    names = set(payload["data"]["files"])
    for tag in ("0p01", "0p55", "5"):
        assert f"fig2_spectra_T{tag}.csv" in names
        assert f"fig2_lines_T{tag}.csv" in names
        assert (tmp_path / f"fig2_spectra_T{tag}.csv").exists()
    lines_rows = list(csv.DictReader(
        io.StringIO((tmp_path / "fig2_lines_T0p01.csv").read_text())
    ))
    assert len(lines_rows) == 3 * 3  # three lines per zeta point


def test_figures_writes_the_panel_tables_one_panel_at_a_time(tmp_path, capsys):
    # the files hold what panel_spectra_csv and panel_lines_csv write for the
    # same panels, and no panel's CSV text is held whole: the traced peak stays
    # below the size of the largest file written
    argv = ["figures", "--which", "2", "--zeta-points", "16", "--out", str(tmp_path)]
    tracemalloc.start()
    try:
        code = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert code == 0
    zetas = np.geomspace(1e-3, 10.0, 16)
    largest = 0
    for panel in run_spectra_panel(preset("laucht-strong"), [0.01, 0.55, 5.0], zetas):
        tag = format(panel.tunneling, "g").replace(".", "p")
        spectra = (tmp_path / f"fig2_spectra_T{tag}.csv").read_bytes()
        assert spectra == panel_spectra_csv(panel).encode()
        assert (tmp_path / f"fig2_lines_T{tag}.csv").read_bytes() == panel_lines_csv(panel).encode()
        largest = max(largest, len(spectra))
    assert peak < largest


def test_figures_warns_about_failed_panel_points(tmp_path, capsys):
    # omega2 == omega1 is valid only at zeta 0, so every panel point fails
    code, out, err = _run(capsys, [
        "figures", "--which", "2", "--omega2-mev", "1218.0", "--zeta-mev", "0",
        "--out", str(tmp_path), "--zeta-points", "1", "--n-max", "1",
    ])
    assert code == 0
    assert err.count("warning: panel T=") == 3
    assert "failed: error:ValueError: " in err
    _validate(json.loads(out))


def test_figures_grid_files(tmp_path, capsys):
    code, out, _ = _run(capsys, [
        "figures", "--preset", "laucht-strong", "--which", "1",
        "--out", str(tmp_path), "--grid-points", "2", "--n-max", "1",
    ])
    assert code == 0
    table = (tmp_path / "fig1_populations.csv").read_text()
    rows = list(csv.DictReader(io.StringIO(table)))
    assert len(rows) == 4
    assert {"n_cavity", "n_qd1", "n_qd2"} <= set(rows[0])
    meta = json.loads((tmp_path / "fig1_populations.csv.meta.json").read_text())
    _validate(meta)


def test_figure_sidecars_name_the_params_of_their_table(tmp_path, capsys):
    code, _, _ = _run(capsys, [
        "figures", "--preset", "laucht-strong", "--which", "3",
        "--out", str(tmp_path), "--grid-points", "2", "--n-max", "1",
    ])
    assert code == 0
    right = json.loads((tmp_path / "fig3_right_g2.csv.meta.json").read_text())["metadata"]
    assert right["params"] == preset("fig3-right").as_dict() == right["sweep"]["params"]
    left = json.loads((tmp_path / "fig3_left_g2.csv.meta.json").read_text())["metadata"]
    assert left["params"] == preset("laucht-strong").as_dict()


def test_figures_requires_out(capsys):
    code, _, err = _run(capsys, ["figures", "--which", "1"])
    assert code == 1
    assert "--out" in err


def test_console_script_entry_point():
    # the child imports the same package as this process, installed or not
    src = str(Path(dqdcavity.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "dqdcavity.cli", "steady",
         "--preset", "laucht-strong", "--n-max", "1"],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["kind"] == "steady"


_NO_SCIPY_CHILD = """
import contextlib, io, sys, tempfile
import numpy as np
import dqdcavity, dqdcavity.cli
small = ["--preset", "laucht-strong", "--n-max", "2"]
grid = ["--axis1", "tunneling_T:0.01:1:3", "--axis2", "zeta:0.01:1:3"]
with tempfile.TemporaryDirectory() as out, contextlib.redirect_stdout(io.StringIO()):
    for argv in (["steady", *small],
                 ["sweep", *small, *grid, "--observables", "n_cavity,g2_zero,transition_lines",
                  "--parallelism", "2"],
                 ["figures", *small, "--which", "2", "--zeta-points", "2", "--out", out],
                 ["g2", *small]):
        assert dqdcavity.cli.main(argv) == 0, argv
laucht = dqdcavity.preset("laucht-strong")
assert dqdcavity.find_spectrum_peaks(dqdcavity.pl_spectrum(laucht, n_max=2))
# an unusable eigenbasis is refused, not propagated by another route
basis = dqdcavity.CompositeBasis(1)
a = dqdcavity.annihilation(basis)
rho = dqdcavity.steady_state(dqdcavity.build_liouvillian(laucht, basis))
jordan = dqdcavity.SuperoperatorMatrix(basis, np.eye(basis.dim**2, k=-1))
try:
    dqdcavity.two_time_correlation(jordan, rho, a.dag(), a, a.dag() @ a, [0.0, 1.0])
except dqdcavity.DiagonalizationError:
    pass
else:
    raise AssertionError("the Jordan block was not refused")
print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
"""


def test_no_workload_imports_scipy():
    # every CLI command and the library's peak detector run on numpy alone
    src = str(Path(dqdcavity.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _NO_SCIPY_CHILD],
                          capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
