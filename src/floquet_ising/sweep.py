"""Parallel evaluation of diagnostics over (h_x T, J T) grids.

DIAGNOSTICS declares each map diagnostic once: its --diag spelling, the
state rows per cell of its recurrence block (None for an eigen diagnostic)
and its block evaluator, a family function with its reader or target bound.

A sweep plans over the drive's mirror orbits. With a = h_x T1,
U_F(pi/2 - a) = (-i)^N P Z U_F(a) Z (P and Z the products of sigma_x and
sigma_z), so two rows whose h_x T sum to pi / (2 t1_fraction) (pi at
T1 = T/2) within 4 ulp form an orbit. Only the lower row is evaluated,
and the family fills the upper. The row-major evaluated cells are split
into contiguous, near-equal blocks, each one _block_values call.
_recurrence_values evolves a block as one FloquetOperator, with at least
one block per worker, each within a fixed byte budget for its (cells,
rows, 2^N) state block. Without a target it takes the subharmonic weight
by one rfft, a mirror's from the series signed by (-1)^n (P flips M_z);
with one, the curvature by one least-squares solve, copied to a mirror
(the QFI series are equal). It raises no numerical errors, so a block
succeeds or fails as a whole. _eigen_values takes 8 blocks per worker,
solves each cell in turn and reads its value off the pi-paired spectrum
and |<v|0..0>|^2, a mirror's off the spectrum i^N p lambda (p the state's
parity) and the same weights. An orbit whose numerics fail (a
NumericalError or a LinAlgError) is nan in both cells instead of
aborting the sweep; any other exception aborts it.

Each block carries the sweep's AnalysisSettings, a run's [analysis]
section, and reads only its own diagnostic's fields there.

Results are reduced by cell index, and every per-cell product and sum is
taken one row at a time, so a sweep is a deterministic function of the
grid, independent of worker count, block size and schedule.

With workers > 1 the tasks run on one process pool per process: the first
pooled sweep makes it and later ones with the same worker count reuse it.
Workers see module state as of their start (a later monkeypatch does not
reach them), and idle workers stay resident. A pool ends when the worker
count changes (it is joined before the next one forks), when a worker dies
(that call raises BrokenProcessPool, the next starts a fresh pool) and at
exit; a process forked from its owner starts its own.
"""

from __future__ import annotations

import atexit
import os
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import metrology, quasienergy, spectral
from .dynamics import expectation_records, total_magnetization
from .errors import NumericalError
from .model import FIELD_THEN_ISING, TARGET_HX, TARGET_J, FloquetOperator, ModelSpec
from .states import all_zero_state

# byte budget of one (cells, rows, 2^N) complex block of recurrence cells,
# 64 cells of 2 rows at N=7: large enough to spread each period's
# interpreter overhead over many cells, small enough to stay in cache
BLOCK_BYTES = 64 * 2 * 16 << 7


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

    def model_at(self, hx_t: float, j_t: float) -> ModelSpec:
        return ModelSpec.dimensionless(
            self.n_qubits,
            hx_t,
            j_t,
            period=self.period,
            t1_fraction=self.t1_fraction,
            boundary=self.boundary,
            step_order=self.step_order,
        )


@dataclass
class AnalysisSettings:
    """The analysis choices: a run's [analysis] section and every sweep's knobs."""

    transient_discard: int = 50
    spectrum_samples: int = 512
    n_max: int = 200
    pair_tolerance: float = 0.0  # 0 -> default 0.05 * pi / T
    fit_window: float = 0.5
    pd_threshold: float = 0.8


@dataclass(frozen=True)
class SweepSettings:
    """The analysis choices a sweep reads, and its worker count."""

    analysis: AnalysisSettings = field(default_factory=AnalysisSettings)
    workers: int = 1


@dataclass
class PhaseDiagram:
    """values[i, j] = diagnostic at (h_values[i], j_values[j])."""

    grid: GridSpec
    field_name: str
    values: np.ndarray
    classification: np.ndarray | None = field(default=None)

    def columns(self) -> dict:
        """One row per cell, h_x T outer: hxT, JT, value and, once classified, pd_flag."""
        h, j = np.meshgrid(self.grid.h_values(), self.grid.j_values(), indexing="ij")
        columns = {"hxT": h.ravel(), "JT": j.ravel(), "value": self.values.ravel()}
        if self.classification is not None:
            columns["pd_flag"] = self.classification.ravel().astype(int)
        return columns


def _eigen_values(value, grid, cells, analysis) -> tuple[np.ndarray, np.ndarray]:
    """value(spectrum, |<v|0..0>|^2) of each cell of a block, solved in turn, and of the flagged cells' mirrors."""
    tolerance = analysis.pair_tolerance or None
    own, mirrors = [], []
    for hx_t, j_t, flag in cells:
        try:
            spectrum = quasienergy.detect_pi_pairs(quasienergy.floquet_eigensystem(grid.model_at(hx_t, j_t)), tolerance)
            weights = np.abs(spectrum.eigenvectors[0]) ** 2
            spectra = [(spectrum, weights)]
            if flag:
                eigenvalues = np.exp(-1j * spectrum.period * spectrum.epsilons) * 1j**grid.n_qubits
                epsilons = quasienergy.fold_quasienergies(eigenvalues * spectrum.parities, spectrum.period)
                order = np.argsort(epsilons, kind="stable")
                mirror = quasienergy.QuasienergyAnalysis(epsilons[order], None, spectrum.period)
                spectra.append((quasienergy.detect_pi_pairs(mirror, tolerance), weights[order]))
            values = [value(*pair) for pair in spectra]
        except (NumericalError, np.linalg.LinAlgError):
            # eigensolver edge cases at exact degeneracies must not destroy a
            # long sweep; the orbit keeps a not-a-value marker. Any other
            # exception is a bug and propagates.
            values = [np.nan] * (1 + flag)
        own.append(values[0])
        mirrors.extend(values[1:])
    return np.array(own, dtype=float), np.array(mirrors, dtype=float)


def _recurrence_values(target, grid, cells, analysis) -> tuple[np.ndarray, np.ndarray]:
    """A block's cells evolved together: the subharmonic weight without a target, else the target's curvature."""
    op = FloquetOperator([grid.model_at(hx_t, j_t) for hx_t, j_t, _ in cells])
    mirrored = np.array([flag for *_, flag in cells], dtype=bool)
    psi0 = all_zero_state(grid.n_qubits)
    if target is None:
        n_max = analysis.transient_discard + analysis.spectrum_samples
        mz = expectation_records(op, psi0, n_max, [total_magnetization(grid.n_qubits)])[:, 0, 0]
        signed = mz[mirrored] * np.where(np.arange(n_max + 1) % 2, -1.0, 1.0)
        weights = spectral.subharmonic_weights(np.concatenate((mz, signed)), analysis.transient_discard,
                                               analysis.spectrum_samples)[0]
        return weights[: len(cells)], weights[len(cells) :]
    window = metrology.tail_window(analysis.n_max + 1, analysis.fit_window)
    qfi = metrology.qfi_records(op, target, psi0, analysis.n_max)[:, window]
    t = np.arange(analysis.n_max + 1)[window] * grid.period
    kappa = metrology.quadratic_fits(t, qfi)[0][:, 0]
    return kappa, kappa[mirrored]


# name: (--diag spelling, state rows per recurrence cell or None, block evaluator); the
# readers call through their modules when they run, so a patched function reaches them
DIAGNOSTICS = {
    "weight": ("weight", 1, partial(_recurrence_values, None)),
    "pi_fraction": ("fpi", None, partial(_eigen_values, lambda spectrum, weights: spectrum.pair_fraction)),
    "overlap": ("overlap", None, partial(_eigen_values, lambda *pair: quasienergy.paired_weight(*pair))),
    "kappa_hx": ("kappa-hx", 2, partial(_recurrence_values, TARGET_HX)),
    "kappa_j": ("kappa-j", 2, partial(_recurrence_values, TARGET_J)),
}


def _block_values(task: tuple) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate a diagnostic on a block of cells, and on the flagged cells' mirrors."""
    diagnostic, grid, cells, analysis = task
    return DIAGNOSTICS[diagnostic][2](grid, cells, analysis)


def _mirror_rows(grid: GridSpec) -> dict[int, int]:
    """{lower row: upper row} for row pairs whose h_x T sum to pi / (2 t1_fraction) within 4 ulp."""
    h = grid.h_values()
    mirror = np.pi / (2.0 * grid.t1_fraction)
    match = np.abs(h[:, np.newaxis] + h - mirror) <= 4 * np.spacing(mirror)
    partner: dict[int, int] = {}
    for row in np.argsort(h, kind="stable").tolist():
        taken = {row, *partner, *partner.values()}
        found = [k for k in np.flatnonzero(match[row]).tolist() if k not in taken]
        if row not in partner.values() and found:
            partner[row] = found[0]
    return partner


# (pid, workers, executor): the pool of the process that made it, if any
_pool = None


def _shutdown_pool() -> None:
    """End this process's pool and wait for it; a pool inherited through fork is only dropped."""
    global _pool
    if _pool is not None and _pool[0] == os.getpid():
        _pool[2].shutdown(wait=True)
    _pool = None


def _run(tasks: list[tuple], workers: int) -> list:
    if workers <= 1:
        return [_block_values(task) for task in tasks]
    # imported here: it costs about a tenth of the package import, which
    # every serial run and every CLI command would otherwise pay
    from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor

    global _pool
    if _pool is None or _pool[:2] != (os.getpid(), workers):
        # the old pool's threads are joined before the new pool forks
        _shutdown_pool()
        _pool = (os.getpid(), workers, ProcessPoolExecutor(max_workers=workers))
    try:
        return list(_pool[2].map(_block_values, tasks))
    except BrokenProcessPool:
        # a worker died; the next pooled sweep starts a fresh pool
        _shutdown_pool()
        raise


atexit.register(_shutdown_pool)


def sweep_diagnostic(
    grid: GridSpec, diagnostic: str, settings: SweepSettings | None = None
) -> PhaseDiagram:
    """Evaluate one diagnostic on every grid cell (row-major in h, then J)."""
    if diagnostic not in DIAGNOSTICS:
        raise ValueError(f"diagnostic must be one of {tuple(DIAGNOSTICS)}, got {diagnostic!r}")
    settings = settings or SweepSettings()
    h_values = grid.h_values()
    j_values = grid.j_values()
    partner = _mirror_rows(grid)
    evaluated = [row for row in range(len(h_values)) if row not in partner.values()]
    cells = [(float(h_values[row]), float(j), row in partner) for row in evaluated for j in j_values]
    rows = DIAGNOSTICS[diagnostic][1]
    if rows is None:
        count = 8 * settings.workers
    else:
        cap = max(1, BLOCK_BYTES // (rows * 16 << grid.n_qubits))
        count = max(settings.workers, -(-len(cells) // cap))
    blocks = np.array_split(np.arange(len(cells)), min(len(cells), count))
    tasks = [(diagnostic, grid, [cells[i] for i in block], settings.analysis) for block in blocks]
    results = _run(tasks, settings.workers)
    values = np.empty((len(h_values), len(j_values)))
    values[evaluated] = np.concatenate([own for own, _ in results]).reshape(-1, len(j_values))
    filled = [partner[row] for row in evaluated if row in partner]
    values[filled] = np.concatenate([mirror for _, mirror in results]).reshape(-1, len(j_values))
    return PhaseDiagram(grid=grid, field_name=diagnostic, values=values)


def classify_pd(diagram: PhaseDiagram, threshold: float = AnalysisSettings.pd_threshold) -> np.ndarray:
    """Boolean period-doubling flag per cell: subharmonic weight >= threshold."""
    if not 0 < threshold < 1:
        raise ValueError(f"threshold must lie in (0, 1), got {threshold}")
    if diagram.field_name != "weight":
        raise ValueError(f"classification needs a 'weight' diagram, got {diagram.field_name!r}")
    flags = diagram.values >= threshold
    diagram.classification = flags
    return flags

