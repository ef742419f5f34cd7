import csv
import io

import numpy as np
import pytest

from dqdcavity import (
    SpectraPanel,
    SpectrumResult,
    SweepAxis,
    SweepSpec,
    TransitionLine,
    default_omega_grid,
    evaluate_point,
    find_spectrum_peaks,
    panel_lines_csv,
    panel_spectra_csv,
    pl_spectrum,
    run_spectra_panel,
    run_sweep,
    sweep,
    transition_lines,
)
from dqdcavity.steadystate import _STACK
from dqdcavity.sweep import _map, csv_table


def _axis(name="tunneling_T", start=0.01, stop=1.0, count=3):
    return SweepAxis(name=name, start=start, stop=stop, count=count)


def test_axis_validation_names_offender():
    with pytest.raises(ValueError, match="not_a_field"):
        SweepAxis(name="not_a_field", start=0.1, stop=1.0, count=3)
    with pytest.raises(ValueError):
        SweepAxis(name="zeta", start=0.0, stop=1.0, count=3)
    with pytest.raises(ValueError):
        SweepAxis(name="zeta", start=0.1, stop=1.0, count=1)
    with pytest.raises(ValueError, match="'zeta' needs finite bounds"):
        SweepAxis(name="zeta", start=0.1, stop=float("inf"), count=3)
    with pytest.raises(ValueError, match="integer count"):
        SweepAxis(name="zeta", start=0.1, stop=1.0, count=2.5)


def test_axis_values_are_log_spaced():
    vals = _axis(start=1e-3, stop=10.0, count=5).values()
    assert vals[0] == pytest.approx(1e-3)
    assert vals[-1] == pytest.approx(10.0)
    ratios = vals[1:] / vals[:-1]
    assert np.allclose(ratios, ratios[0])


def test_spec_validation(laucht):
    with pytest.raises(ValueError, match="bogus"):
        SweepSpec(params=laucht, axis1=_axis(), axis2=_axis("zeta"),
                  observables=("n_cavity", "bogus"))
    with pytest.raises(ValueError, match="axes must differ"):
        SweepSpec(params=laucht, axis1=_axis(), axis2=_axis())
    with pytest.raises(ValueError):
        SweepSpec(params=laucht, axis1=_axis(), axis2=_axis("zeta"), observables=())
    with pytest.raises(ValueError):
        SweepSpec(params=laucht, axis1=_axis(), axis2=_axis("zeta"), n_max=0)
    with pytest.raises(ValueError, match="n_max must be an integer >= 1, got 2.5"):
        SweepSpec(params=laucht, axis1=_axis(), axis2=_axis("zeta"), n_max=2.5)


def test_columns_follow_observables(laucht):
    spec = SweepSpec(params=laucht, axis1=_axis(), axis2=_axis("zeta"),
                     observables=("n_cavity", "g2_zero", "transition_lines"))
    cols = spec.columns()
    assert cols[:2] == ("tunneling_T", "zeta")
    assert "n_cavity" in cols and "g2_zero" in cols
    assert "line3_hwhm_mev" in cols
    assert cols[-2:] == ("status", "error")
    lean = SweepSpec(params=laucht, axis1=_axis(), axis2=_axis("zeta"))
    assert "line1_frequency_mev" not in lean.columns()


def test_small_sweep_smoke(laucht):
    spec = SweepSpec(
        params=laucht,
        axis1=_axis(count=2), axis2=_axis("zeta", count=2),
        observables=("n_cavity",), n_max=2,
    )
    result = run_sweep(spec)
    assert len(result.rows) == 4
    for row in result.rows:
        assert row["status"] == "ok"
        assert row["n_cavity"] >= 0.0
    # axis1-major ordering
    t_vals = [row["tunneling_T"] for row in result.rows]
    assert t_vals == sorted(t_vals)
    assert result.metadata["package_version"]
    assert result.metadata["n_max"] == 2


def test_point_errors_become_rows(laucht):
    # the first omega2 grid point (exact endpoint) collides with omega1
    # while zeta > 0: the thermal factor is undefined there
    spec = SweepSpec(
        params=laucht,
        axis1=SweepAxis(name="omega2", start=laucht.omega1,
                        stop=laucht.omega1 + 100.0, count=3),
        axis2=_axis("zeta", count=2),
        observables=("n_cavity",), n_max=1,
    )
    result = run_sweep(spec)
    statuses = {row["status"] for row in result.rows}
    assert "error:ValueError" in statuses and "ok" in statuses
    bad = [r for r in result.rows if r["status"] != "ok"]
    assert len(bad) == 2  # the degenerate omega2 at both zeta values
    for row in bad:
        assert row["n_cavity"] is None
        assert "omega1 != omega2" in row["error"]
    good = [r for r in result.rows if r["status"] == "ok"]
    assert all(r["n_cavity"] is not None for r in good)


def test_transition_line_columns_match_transition_lines(laucht):
    spec = SweepSpec(params=laucht, axis1=_axis(count=2), axis2=_axis("zeta", count=2),
                     observables=("transition_lines",), n_max=1)
    row = evaluate_point(spec, 0.3, 0.7)
    assert row["status"] == "ok"
    lines = transition_lines(laucht.replace(tunneling_T=0.3, zeta=0.7))
    for k, line in enumerate(lines, start=1):
        assert row[f"line{k}_frequency_mev"] == line.frequency
        assert row[f"line{k}_hwhm_mev"] == line.hwhm


def test_error_rows_write_empty_cells(laucht):
    spec = SweepSpec(
        params=laucht.replace(omega2=laucht.omega1, zeta=0.0),
        axis1=_axis(count=2), axis2=_axis("zeta", count=2),
        observables=("n_cavity", "transition_lines"), n_max=1,
    )
    result = run_sweep(spec)
    rows = list(csv.reader(io.StringIO(result.to_csv())))
    assert len(rows) == 5
    for row in rows[1:]:
        cells = dict(zip(rows[0], row))
        assert cells["status"] == "error:ValueError"
        assert cells["error"]
        data = [v for c, v in cells.items() if c not in ("tunneling_T", "zeta", "status", "error")]
        assert data and all(v == "" for v in data)


def test_sweep_determinism_and_parallel_equivalence(laucht):
    spec = SweepSpec(
        params=laucht,
        axis1=_axis(start=1e-3, stop=10.0, count=4),
        axis2=_axis("zeta", start=1e-3, stop=10.0, count=4),
        observables=("n_cavity", "n_qd1", "n_qd2", "g2_zero"), n_max=2,
    )
    serial_a = run_sweep(spec, parallelism=1).to_csv()
    serial_b = run_sweep(spec, parallelism=1).to_csv()
    threaded = run_sweep(spec, parallelism=4).to_csv()
    assert serial_a == serial_b
    assert serial_a == threaded


def test_csv_shape_and_precision(laucht):
    spec = SweepSpec(params=laucht, axis1=_axis(count=2), axis2=_axis("zeta", count=2),
                     observables=("n_cavity",), n_max=1)
    result = run_sweep(spec)
    text = result.to_csv()
    lines = text.split("\r\n")
    assert lines[0] == "tunneling_T,zeta,n_cavity,status,error"
    assert len([ln for ln in lines if ln]) == 5
    first = lines[1].split(",")
    # repr round-trip precision on data cells
    assert float(first[2]) == result.rows[0]["n_cavity"]
    assert "timestamp" not in text


def test_sweep_rejects_bad_parallelism(laucht):
    spec = SweepSpec(params=laucht, axis1=_axis(count=2), axis2=_axis("zeta", count=2),
                     observables=("n_cavity",), n_max=1)
    with pytest.raises(ValueError):
        run_sweep(spec, parallelism=0)


def test_stored_dot_excitation_grows_across_delocalization(laucht):
    # along zeta at small tunneling the combined dot population never drops
    prev = None
    for z in np.geomspace(0.5, 10.0, 8):
        row = evaluate_point(
            SweepSpec(params=laucht.replace(tunneling_T=1e-3),
                      axis1=_axis(count=2), axis2=_axis("zeta", count=2),
                      observables=("n_qd1", "n_qd2"), n_max=3),
            1e-3, float(z),
        )
        total = row["n_qd1"] + row["n_qd2"]
        if prev is not None:
            assert total >= prev - 1e-8
        prev = total


def _low_pump(params):
    return params.replace(pump1=params.pump1 * 0.01, pump2=params.pump2 * 0.01,
                          cavity_pump=params.cavity_pump * 0.01)


def test_panel_structure_and_peak_counts(laucht):
    quiet = _low_pump(laucht)
    panels = run_spectra_panel(
        quiet, tunneling_values=[0.01, 5.0], zeta_values=[1e-4, 1e-3],
        n_max=2,
    )
    assert [p.tunneling for p in panels] == [0.01, 5.0]
    for panel in panels:
        assert panel.statuses == ("ok", "ok")
        assert len(panel.spectra) == 2
        assert len(panel.lines[0]) == 3
    # weak feeding keeps only first-manifold transitions visible
    for panel, expected in zip(panels, (3, 1)):
        peaks = find_spectrum_peaks(panel.spectra[0])
        mx = panel.spectra[0].intensities.max()
        strong = [pk for pk in peaks if pk.height >= 0.01 * mx]
        assert len(strong) == expected
        assert len(strong) <= 3


def test_two_bright_lines_flank_a_dark_center(laucht):
    # near-degenerate dots at weak tunneling: the outer dressed lines carry
    # the emission while the middle line stays comparatively dark
    p = laucht.replace(tunneling_T=0.01, zeta=1e-3)
    lines = transition_lines(p)
    spec = pl_spectrum(p, default_omega_grid(p), n_max=3)
    areas = np.zeros(3)
    for amp, pole in zip(spec.amplitudes, spec.poles):
        freq = abs(pole.imag)
        dists = [abs(freq - ln.frequency) for ln in lines]
        k = int(np.argmin(dists))
        if dists[k] < 0.05:
            areas[k] += spec.kappa * amp.real
    left, center, right = areas
    assert left > 0.0 and right > 0.0
    assert center < 0.2 * min(left, right)


def test_failed_panel_point_is_kept_as_status(laucht):
    (panel,) = run_spectra_panel(
        laucht.replace(omega2=laucht.omega1, zeta=0.0),
        tunneling_values=[0.01], zeta_values=[1e-3],
        n_max=1,
    )
    assert panel.statuses[0].startswith("error:ValueError: ")
    assert panel.spectra == (None,)
    assert panel.lines == (None,)
    assert panel_spectra_csv(panel) == "tunneling_T,zeta,omega_mev,offset_mev,intensity\r\n"


def test_spectra_panel_rejects_bad_cutoff(laucht):
    with pytest.raises(ValueError, match="n_max must be an integer >= 1, got 0"):
        run_spectra_panel(laucht, tunneling_values=[0.01], zeta_values=[1e-3], n_max=0)


def test_panel_csv_writers(laucht):
    quiet = _low_pump(laucht)
    panels = run_spectra_panel(
        quiet, tunneling_values=[0.01], zeta_values=[1e-3],
        n_max=1,
    )
    spectra_text = panel_spectra_csv(panels[0])
    rows = spectra_text.split("\r\n")
    assert rows[0] == "tunneling_T,zeta,omega_mev,offset_mev,intensity"
    assert len([r for r in rows if r]) == 1 + 2001
    lines_text = panel_lines_csv(panels[0])
    lrows = lines_text.split("\r\n")
    assert lrows[0] == "tunneling_T,zeta,line_index,frequency_mev,offset_mev,hwhm_mev"
    assert len([r for r in lrows if r]) == 1 + 3


def test_rows_do_not_depend_on_chunking(laucht):
    # 15 points split into 2, 3, 4 and 7 contiguous chunks, most of them uneven
    spec = SweepSpec(
        params=laucht,
        axis1=_axis(start=1e-3, stop=10.0, count=5),
        axis2=_axis("zeta", start=1e-3, stop=10.0, count=3),
        observables=("n_cavity", "g2_zero", "transition_lines"), n_max=1,
    )
    serial = run_sweep(spec, parallelism=1)
    for parallelism in (2, 3, 4, 7):
        chunked = run_sweep(spec, parallelism=parallelism)
        assert chunked.rows == serial.rows
        assert chunked.to_csv() == serial.to_csv()


def test_stacked_rows_do_not_depend_on_parallelism(laucht):
    # 45 points at n_max 3 fill more than one stacked solve per chunk; every row
    # is also the point's own one-point evaluation
    spec = SweepSpec(
        params=laucht,
        axis1=_axis(start=1e-3, stop=10.0, count=9),
        axis2=_axis("zeta", start=1e-3, stop=10.0, count=5),
        observables=("n_cavity", "n_qd1", "n_qd2", "g2_zero"), n_max=3,
    )
    assert 9 * 5 > _STACK
    serial = run_sweep(spec, parallelism=1)
    assert all(row["status"] == "ok" for row in serial.rows)
    for parallelism in (2, 7):
        assert run_sweep(spec, parallelism=parallelism).rows == serial.rows
    for row in serial.rows:
        assert evaluate_point(spec, row["tunneling_T"], row["zeta"]) == row


def _failing_before_the_solve(laucht):
    # omega2 starts at omega1, so the first 5 points (zeta > 0) fail before
    # any solve; the 40 good points that follow cross a stack boundary
    spec = SweepSpec(
        params=laucht,
        axis1=SweepAxis(name="omega2", start=laucht.omega1, stop=laucht.omega1 + 1.0, count=9),
        axis2=_axis("zeta", start=1e-3, stop=1.0, count=5),
        observables=("n_cavity", "n_qd1", "n_qd2", "g2_zero", "transition_lines"), n_max=3,
    )
    return spec, ["error:ValueError"] * 5 + ["ok"] * 40


def _failing_in_the_solve(laucht):
    # dot 2 cut off: at pump2 = 1e-30 its population is left undetermined
    # (rcond ~ 1e-20), so 20 points fail inside the solve, alternating with
    # 20 good ones across a stack boundary
    cut = laucht.replace(gamma2=0.0, pump2=0.0, g2=0.0, tunneling_T=0.0, zeta=0.0)
    spec = SweepSpec(
        params=cut,
        axis1=_axis("kappa", start=0.1, stop=1.0, count=20),
        axis2=_axis("pump2", start=1e-30, stop=1e-2, count=2),
        observables=("n_cavity", "n_qd1", "n_qd2", "g2_zero"), n_max=3,
    )
    return spec, ["error:DegenerateSteadyStateError", "ok"] * 20


def test_states_stay_with_their_points_after_failed_points(laucht):
    for spec, statuses in (_failing_before_the_solve(laucht), _failing_in_the_solve(laucht)):
        serial = run_sweep(spec, parallelism=1)
        assert [row["status"] for row in serial.rows] == statuses
        assert len(statuses) > _STACK
        for parallelism in (2, 3):
            assert run_sweep(spec, parallelism=parallelism).rows == serial.rows
        for row in serial.rows:
            assert evaluate_point(spec, row[spec.axis1.name], row[spec.axis2.name]) == row


def test_map_starts_no_more_threads_than_tasks(monkeypatch):
    chunks, pools = [], []

    class Pool(sweep.ThreadPoolExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers=max_workers)

    def record(chunk):
        chunks.append(list(chunk))
        return [2 * task for task in chunk]

    monkeypatch.setattr(sweep, "ThreadPoolExecutor", Pool)
    assert _map(record, [1, 2, 3], 8) == [2, 4, 6]
    assert pools == [3]
    assert sorted(chunks) == [[1], [2], [3]]
    chunks.clear()
    assert _map(record, [], 8) == []  # no tasks: one serial call, no pool
    assert chunks == [[]] and pools == [3]


def _writer_csv(rows) -> str:
    """Reference: csv.writer, with floats as format(v, ".17g") and None as ""."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    for row in rows:
        writer.writerow(
            ["" if v is None else format(v, ".17g") if isinstance(v, float) else v for v in row]
        )
    return buf.getvalue()


_AWKWARD_CELLS = (
    float("nan"), float("inf"), float("-inf"), -0.0, 0.0, 5e-324, 1e300, 0.1, None, 7, -3,
    "a,b", 'say "hi"', "two\nlines", "cr\rhere", '",\r\n', " padded ", "plain", "",
)


def test_csv_table_matches_csv_writer():
    header = ("value", "index", "note,with comma")
    rows = [(v, k, f"{v!r}") for k, v in enumerate(_AWKWARD_CELLS)]
    expected = _writer_csv([header, *rows])
    assert csv_table(header, rows) == expected  # one row per block
    assert csv_table(header, [[list(c) for c in zip(*rows)]]) == expected  # one block of columns


def test_csv_table_blocks_of_arrays_and_repeated_cells():
    grid = np.array([-0.0, 0.0, 5e-324, 1e300, np.nan, -np.inf, 0.1])
    twin = grid.copy()
    blocks = [
        (1.5, grid, grid * 2),
        ("x,y", grid, np.arange(7.0)),  # same grid object: formatted once, cells unchanged
        (None, twin, grid[::-1]),
        (-0.0, twin, [None, 1, "q\"", 2.5, float("nan"), -0.0, ""]),
    ]
    rows = [
        (head, *cells)
        for head, *columns in blocks
        for cells in zip(*(c.tolist() if isinstance(c, np.ndarray) else c for c in columns))
    ]
    header = ["head", "grid", "value"]
    assert csv_table(header, blocks) == _writer_csv([header, *rows])


def test_csv_table_edge_shapes():
    # a lone empty cell is quoted so that its row is not blank
    assert csv_table(["only"], [[[None, 1.0, ""]]]) == _writer_csv([["only"], [None], [1.0], [""]])
    assert csv_table(["a", "b"], [([], np.array([]))]) == "a,b\r\n"
    assert csv_table(["a", "b"], []) == "a,b\r\n"
    with pytest.raises(ValueError, match="differ in length"):
        csv_table(["a", "b"], [([1.0, 2.0], [1.0])])


def _spectrum(grid: np.ndarray, offsets: np.ndarray, scale: float) -> SpectrumResult:
    return SpectrumResult(
        frequencies=grid, offsets=offsets, intensities=scale / (1.0 + offsets ** 2),
        amplitudes=np.array([scale + 0j]), poles=np.array([-0.05 - 1j]), kappa=0.1, omega0=1.0,
    )


def test_panel_csv_skips_a_failed_middle_point():
    grid = np.linspace(0.5, 1.5, 5)
    offsets = grid - 1.0
    shifted = np.linspace(0.25, 1.25, 5)
    spectra = (
        _spectrum(grid, offsets, 1.0),
        None,
        _spectrum(grid.copy(), offsets.copy(), 2.0),  # equal grid, other arrays
        _spectrum(grid, np.where(offsets == 0.0, -0.0, offsets), 3.0),  # 0.0 -> -0.0 only
        _spectrum(shifted, shifted - 1.0, 4.0),
    )
    line = TransitionLine(frequency=1.01, offset=0.01, hwhm=0.05, eigenvalue=-0.05 - 1.01j)
    panel = SpectraPanel(
        tunneling=0.55,
        zetas=np.array([1e-3, 1e-2, 1e-1, 1.0, 10.0]),
        statuses=("ok", "error:ValueError: omega1 != omega2", "ok", "ok", "ok"),
        spectra=spectra,
        lines=((line,), None, (line, line), (line,), (line,)),
    )
    ok = [k for k, status in enumerate(panel.statuses) if status == "ok"]
    assert offsets[2] == 0.0  # the -0.0 spectrum really differs from the first in its bits
    spectra_rows = [
        (0.55, float(panel.zetas[k]), w, off, inten)
        for k in ok
        for w, off, inten in zip(spectra[k].frequencies.tolist(), spectra[k].offsets.tolist(),
                                 spectra[k].intensities.tolist())
    ]
    header = ["tunneling_T", "zeta", "omega_mev", "offset_mev", "intensity"]
    assert panel_spectra_csv(panel) == _writer_csv([header, *spectra_rows])
    line_rows = [
        (0.55, float(panel.zetas[k]), i, ln.frequency, ln.offset, ln.hwhm)
        for k in ok
        for i, ln in enumerate(panel.lines[k], start=1)
    ]
    header = ["tunneling_T", "zeta", "line_index", "frequency_mev", "offset_mev", "hwhm_mev"]
    assert panel_lines_csv(panel) == _writer_csv([header, *line_rows])
