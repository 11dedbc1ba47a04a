"""Exact simulation and metrology of driven few-qubit Ising systems.

The package covers the full pipeline from the two-step Floquet drive to
its period-doubling diagnostics (subharmonic spectral weight, pi-paired
quasienergies) and the quantum/classical Fisher information for the
transverse field and the Ising coupling, including curvature phase
diagrams over the (h_x T, J T) plane.
"""

from .dynamics import (
    DiagonalObservable,
    TimeSeries,
    magnetization_series,
    pair_correlation,
    pair_correlation_series,
    stroboscopic_trajectory,
    total_magnetization,
)
from .errors import NumericalError
from .metrology import (
    CurvatureFit,
    FisherSeries,
    cfi_series,
    curvature_fit,
    qfi_series,
    qfi_value,
)
from .model import (
    CHAIN,
    FIELD_THEN_ISING,
    ISING_THEN_FIELD,
    RING,
    TARGET_HX,
    TARGET_J,
    DriveProtocol,
    FloquetOperator,
    ModelSpec,
    default_boundary,
)
from .quasienergy import (
    QuasienergyAnalysis,
    analyze,
    default_pair_tolerance,
    detect_pi_pairs,
    floquet_eigensystem,
    overlap_weight,
)
from .spectral import (
    PowerSpectrum,
    SubharmonicDiagnostic,
    power_spectrum,
    subharmonic_weight,
)
from .states import all_zero_state
from .sweep import (
    DIAGNOSTICS,
    AnalysisSettings,
    GridSpec,
    PhaseDiagram,
    SweepSettings,
    classify_pd,
    sweep_diagnostic,
)

__version__ = "0.1.0"

__all__ = [
    "AnalysisSettings",
    "CHAIN",
    "CurvatureFit",
    "DIAGNOSTICS",
    "DiagonalObservable",
    "DriveProtocol",
    "FIELD_THEN_ISING",
    "FisherSeries",
    "FloquetOperator",
    "GridSpec",
    "ISING_THEN_FIELD",
    "ModelSpec",
    "NumericalError",
    "PhaseDiagram",
    "PowerSpectrum",
    "QuasienergyAnalysis",
    "RING",
    "SubharmonicDiagnostic",
    "SweepSettings",
    "TARGET_HX",
    "TARGET_J",
    "TimeSeries",
    "all_zero_state",
    "analyze",
    "cfi_series",
    "classify_pd",
    "curvature_fit",
    "default_boundary",
    "default_pair_tolerance",
    "detect_pi_pairs",
    "floquet_eigensystem",
    "magnetization_series",
    "overlap_weight",
    "pair_correlation",
    "pair_correlation_series",
    "power_spectrum",
    "qfi_series",
    "qfi_value",
    "stroboscopic_trajectory",
    "subharmonic_weight",
    "sweep_diagnostic",
    "total_magnetization",
]
