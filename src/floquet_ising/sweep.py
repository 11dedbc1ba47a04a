"""Parallel evaluation of diagnostics over (h_x T, J T) grids.

Grid cells are independent work items; results are reduced by cell index,
so a sweep is a deterministic function of the grid regardless of worker
count or schedule. A cell whose numerics fail (a NumericalError or a
LinAlgError) is recorded as nan instead of aborting the sweep; any other
exception aborts it.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from . import metrology, quasienergy, spectral
from .dynamics import magnetization_series
from .errors import NumericalError
from .model import FIELD_THEN_ISING, TARGET_HX, TARGET_J, ModelSpec, default_boundary
from .states import all_zero_state

WEIGHT = "weight"
PI_FRACTION = "pi_fraction"
OVERLAP = "overlap"
KAPPA_HX = "kappa_hx"
KAPPA_J = "kappa_j"
DIAGNOSTICS = (WEIGHT, PI_FRACTION, OVERLAP, KAPPA_HX, KAPPA_J)

DEFAULT_PD_THRESHOLD = 0.8


@dataclass(frozen=True)
class GridSpec:
    """A rectangular grid in the dimensionless (h_x T, J T) plane."""

    h_range: tuple[float, float, int] = (0.0, np.pi, 61)
    j_range: tuple[float, float, int] = (0.0, np.pi, 61)
    n_qubits: int = 3
    boundary: str | None = None
    period: float = 1.0
    t1_fraction: float = 0.5
    step_order: str = FIELD_THEN_ISING

    def __post_init__(self):
        for name, (lo, hi, count) in (("h_range", self.h_range), ("j_range", self.j_range)):
            if count < 2:
                raise ValueError(f"{name} needs at least 2 points, got {count}")
            if not (np.isfinite(lo) and np.isfinite(hi)):
                raise ValueError(f"{name} bounds must be finite")

    def h_values(self) -> np.ndarray:
        lo, hi, count = self.h_range
        return np.linspace(lo, hi, count)

    def j_values(self) -> np.ndarray:
        lo, hi, count = self.j_range
        return np.linspace(lo, hi, count)

    def resolved_boundary(self) -> str:
        return self.boundary if self.boundary is not None else default_boundary(self.n_qubits)

    def model_at(self, hx_t: float, j_t: float) -> ModelSpec:
        return ModelSpec.dimensionless(
            self.n_qubits,
            hx_t,
            j_t,
            period=self.period,
            t1_fraction=self.t1_fraction,
            boundary=self.resolved_boundary(),
            step_order=self.step_order,
        )


@dataclass(frozen=True)
class SweepSettings:
    """Per-diagnostic knobs, defaulting to the analysis-wide choices."""

    transient_discard: int = 50
    spectrum_samples: int = 512
    n_max: int = 200
    pair_tolerance: float | None = None  # None -> 0.05 * pi / T
    fit_window: float = 0.5
    workers: int = 1


@dataclass
class PhaseDiagram:
    """values[i, j] = diagnostic at (h_values[i], j_values[j])."""

    grid: GridSpec
    field_name: str
    values: np.ndarray
    classification: np.ndarray | None = field(default=None)


def _cell_value(task: tuple) -> float:
    """Evaluate one diagnostic at one grid cell; nan on a numerical failure."""
    diagnostic, grid, hx_t, j_t, settings = task
    if diagnostic not in DIAGNOSTICS:
        raise ValueError(f"diagnostic must be one of {DIAGNOSTICS}, got {diagnostic!r}")
    spec = grid.model_at(hx_t, j_t)
    psi0 = all_zero_state(grid.n_qubits)
    try:
        if diagnostic == WEIGHT:
            n_max = settings.transient_discard + settings.spectrum_samples
            series = magnetization_series(spec, psi0, n_max)
            return spectral.subharmonic_weight(
                series, settings.transient_discard, settings.spectrum_samples
            ).weight
        if diagnostic in (PI_FRACTION, OVERLAP):
            analysis = quasienergy.detect_pi_pairs(
                quasienergy.floquet_eigensystem(spec), settings.pair_tolerance
            )
            if diagnostic == PI_FRACTION:
                return analysis.pair_fraction
            return quasienergy.overlap_weight(analysis, psi0)
        target = TARGET_HX if diagnostic == KAPPA_HX else TARGET_J
        series = metrology.qfi_series(spec, target, psi0, settings.n_max)
        return metrology.curvature_fit(series, settings.fit_window).a
    except (NumericalError, np.linalg.LinAlgError):
        # eigensolver edge cases at exact degeneracies must not destroy a
        # long sweep; the cell keeps a not-a-value marker. Any other
        # exception is a bug and propagates.
        return np.nan


def _run_cells(tasks: list[tuple], workers: int) -> Iterable[float]:
    if workers <= 1:
        return [_cell_value(task) for task in tasks]
    chunksize = max(1, len(tasks) // (8 * workers))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_cell_value, tasks, chunksize=chunksize))


def sweep_diagnostic(
    grid: GridSpec, diagnostic: str, settings: SweepSettings | None = None
) -> PhaseDiagram:
    """Evaluate one diagnostic on every grid cell (row-major in h, then J)."""
    if diagnostic not in DIAGNOSTICS:
        raise ValueError(f"diagnostic must be one of {DIAGNOSTICS}, got {diagnostic!r}")
    settings = settings or SweepSettings()
    h_values = grid.h_values()
    j_values = grid.j_values()
    tasks = [
        (diagnostic, grid, float(h), float(j), settings)
        for h in h_values
        for j in j_values
    ]
    flat = np.asarray(list(_run_cells(tasks, settings.workers)))
    values = flat.reshape(len(h_values), len(j_values))
    return PhaseDiagram(grid=grid, field_name=diagnostic, values=values)


def classify_pd(diagram: PhaseDiagram, threshold: float = DEFAULT_PD_THRESHOLD) -> np.ndarray:
    """Boolean period-doubling flag per cell: subharmonic weight >= threshold."""
    if not 0 < threshold < 1:
        raise ValueError(f"threshold must lie in (0, 1), got {threshold}")
    if diagram.field_name != WEIGHT:
        raise ValueError(f"classification needs a {WEIGHT!r} diagram, got {diagram.field_name!r}")
    flags = diagram.values >= threshold
    diagram.classification = flags
    return flags

