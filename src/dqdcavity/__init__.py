"""Lindblad simulator for a tunnel-coupled quantum-dot pair in a single-mode cavity.

Computes steady states, cavity emission spectra, excitation-manifold transition
lines, and second-order photon coherence, plus parallel parameter sweeps and a
CLI that emits plot-ready CSV/JSON tables.
"""

import importlib.resources
import json

from ._version import __version__
from .dynamics import (
    CorrelationResult,
    SpectrumPeak,
    SpectrumResult,
    default_omega_grid,
    exp_decay_sum,
    find_spectrum_peaks,
    g2,
    g2_zero,
    g2_zero_from_state,
    lorentzian_sum,
    pl_spectrum,
    two_time_correlation,
)
from .errors import (
    BasisMismatchError,
    DegenerateSteadyStateError,
    DiagonalizationError,
    SteadyStateConvergenceError,
    UndefinedObservableError,
)
from .hilbert import (
    G,
    X,
    CompositeBasis,
    OperatorMatrix,
    annihilation,
    qubit_lowering,
)
from .liouvillian import (
    SuperoperatorMatrix,
    build_liouvillian,
    unvec,
    vec,
)
from .manifold import (
    ExceptionalPointScan,
    TransitionLine,
    exceptional_point_scan,
    liouvillian_block_crosscheck,
    transition_lines,
    transition_matrix_explicit,
    transition_matrix_generic,
)
from .model import (
    BOLTZMANN_MEV_PER_K,
    ModelParams,
    PhatRates,
    hamiltonian,
    jump_operators,
    phat_rates,
    preset,
    preset_names,
    thermal_occupation,
)
from .steadystate import (
    DensityMatrix,
    steady_observables,
    steady_state,
)
from .sweep import (
    SpectraPanel,
    SweepAxis,
    SweepResult,
    SweepSpec,
    evaluate_point,
    panel_lines_csv,
    panel_spectra_csv,
    run_spectra_panel,
    run_sweep,
)


def load_output_schema() -> dict:
    """The JSON schema that CLI JSON envelopes validate against."""
    path = importlib.resources.files("dqdcavity").joinpath("schemas/output.schema.json")
    return json.loads(path.read_text(encoding="utf-8"))


__all__ = [
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
]
