import numpy as np
import pytest

from dqdcavity import (
    SweepAxis,
    SweepSpec,
    default_omega_grid,
    evaluate_point,
    find_spectrum_peaks,
    panel_lines_csv,
    panel_spectra_csv,
    pl_spectrum,
    run_spectra_panel,
    run_sweep,
    transition_lines,
)


def _axis(name="tunneling_T", start=0.01, stop=1.0, count=3):
    return SweepAxis(name=name, start=start, stop=stop, count=count)


def test_axis_validation_names_offender():
    with pytest.raises(ValueError, match="not_a_field"):
        SweepAxis(name="not_a_field", start=0.1, stop=1.0, count=3)
    with pytest.raises(ValueError):
        SweepAxis(name="zeta", start=0.0, stop=1.0, count=3)
    with pytest.raises(ValueError):
        SweepAxis(name="zeta", start=0.1, stop=1.0, count=1)


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
        omega_grid=default_omega_grid(laucht), n_max=2,
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


def test_panel_csv_writers(laucht):
    quiet = _low_pump(laucht)
    panels = run_spectra_panel(
        quiet, tunneling_values=[0.01], zeta_values=[1e-3],
        omega_grid=default_omega_grid(laucht, points=51), n_max=1,
    )
    spectra_text = panel_spectra_csv(panels[0])
    rows = spectra_text.split("\r\n")
    assert rows[0] == "tunneling_T,zeta,omega_mev,offset_mev,intensity"
    assert len([r for r in rows if r]) == 1 + 51
    lines_text = panel_lines_csv(panels[0])
    lrows = lines_text.split("\r\n")
    assert lrows[0] == "tunneling_T,zeta,line_index,frequency_mev,offset_mev,hwhm_mev"
    assert len([r for r in lrows if r]) == 1 + 3
