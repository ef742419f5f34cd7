import dqdcavity

# the public names; a change here is a deliberate change of the package's API
PUBLIC_NAMES = {
    "__version__",
    "BOLTZMANN_MEV_PER_K",
    "G",
    "X",
    "BasisMismatchError",
    "CompositeBasis",
    "CorrelationResult",
    "DegenerateSteadyStateError",
    "DensityMatrix",
    "DiagonalizationError",
    "ExceptionalPointScan",
    "ModelParams",
    "OperatorMatrix",
    "PhatRates",
    "SpectraPanel",
    "SpectrumPeak",
    "SpectrumResult",
    "SteadyStateConvergenceError",
    "SuperoperatorMatrix",
    "SweepAxis",
    "SweepResult",
    "SweepSpec",
    "TransitionLine",
    "UndefinedObservableError",
    "annihilation",
    "build_liouvillian",
    "default_omega_grid",
    "evaluate_point",
    "exceptional_point_scan",
    "exp_decay_sum",
    "find_spectrum_peaks",
    "g2",
    "g2_zero",
    "g2_zero_from_state",
    "hamiltonian",
    "jump_operators",
    "liouvillian_block_crosscheck",
    "load_output_schema",
    "lorentzian_sum",
    "panel_lines_csv",
    "panel_spectra_csv",
    "phat_rates",
    "pl_spectrum",
    "preset",
    "preset_names",
    "qubit_lowering",
    "run_spectra_panel",
    "run_sweep",
    "steady_observables",
    "steady_state",
    "thermal_occupation",
    "transition_lines",
    "transition_matrix_explicit",
    "transition_matrix_generic",
    "two_time_correlation",
    "unvec",
    "vec",
}


def test_public_names_are_exactly_the_listed_set():
    assert set(dqdcavity.__all__) == PUBLIC_NAMES
    assert len(dqdcavity.__all__) == len(PUBLIC_NAMES)


def test_every_public_name_resolves():
    missing = [name for name in dqdcavity.__all__ if not hasattr(dqdcavity, name)]
    assert missing == []
