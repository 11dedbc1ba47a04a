"""Parallel evaluation of diagnostics over (h_x T, J T) grids.

A sweep plans over the drive's mirror orbits. With a = h_x T1,
U_F(pi/2 - a) = (-i)^N P Z U_F(a) Z (P and Z the products of sigma_x and
sigma_z), so two rows whose h_x T sum to pi / (2 t1_fraction) (pi at
T1 = T/2) within 4 ulp form an orbit. Only the lower row is evaluated;
the upper is filled by its diagnostic's rule: kappa_hx and kappa_j are
copied (the QFI series are equal), weight is that of the series signed
by (-1)^n (P flips M_z), and pi_fraction and overlap come from the
spectrum i^N p lambda (p the state's parity) and the same |<v|0..0>|^2.

Every diagnostic runs as one task type: the row-major list of evaluated
cells is split into contiguous, near-equal blocks, and each block is one
_block_values call. The recurrence diagnostics (weight, kappa_hx,
kappa_j) take at least one block per worker, each within a fixed byte
budget for its (cells, rows, 2^N) state block; a block is one
FloquetOperator evolved by one loop, reduced by one rfft (weight) or one
least-squares solve (kappa), and since the recurrence raises no numerical
errors it succeeds or fails as a whole. The eigen diagnostics
(pi_fraction, overlap) take 8 blocks per worker and solve each cell of a
block in turn; an orbit whose numerics fail (a NumericalError or a
LinAlgError) is recorded as nan in both cells instead of aborting the
sweep, and any other exception aborts it.

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

import numpy as np

from . import metrology, quasienergy, spectral
from .dynamics import expectation_records, total_magnetization
from .errors import NumericalError
from .model import FIELD_THEN_ISING, TARGET_HX, TARGET_J, FloquetOperator, ModelSpec
from .states import all_zero_state

WEIGHT = "weight"
PI_FRACTION = "pi_fraction"
OVERLAP = "overlap"
KAPPA_HX = "kappa_hx"
KAPPA_J = "kappa_j"
DIAGNOSTICS = (WEIGHT, PI_FRACTION, OVERLAP, KAPPA_HX, KAPPA_J)

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


def _block_values(task: tuple) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate a diagnostic on a block of cells, and on the flagged cells' mirrors."""
    diagnostic, grid, cells, settings = task
    if diagnostic in (PI_FRACTION, OVERLAP):
        tolerance = settings.pair_tolerance or None
        own, mirrors = [], []
        for hx_t, j_t, flag in cells:
            try:
                analysis = quasienergy.detect_pi_pairs(
                    quasienergy.floquet_eigensystem(grid.model_at(hx_t, j_t)), tolerance
                )
                weights = np.abs(analysis.eigenvectors[0]) ** 2  # |<v|0..0>|^2
                spectra = [(analysis, weights)]
                if flag:
                    eigenvalues = np.exp(-1j * analysis.period * analysis.epsilons) * 1j**grid.n_qubits
                    epsilons = quasienergy.fold_quasienergies(eigenvalues * analysis.parities, analysis.period)
                    order = np.argsort(epsilons, kind="stable")
                    mirror = quasienergy.QuasienergyAnalysis(epsilons[order], None, analysis.period)
                    spectra.append((quasienergy.detect_pi_pairs(mirror, tolerance), weights[order]))
                values = [
                    spectrum.pair_fraction if diagnostic == PI_FRACTION else quasienergy.paired_weight(spectrum, w)
                    for spectrum, w in spectra
                ]
            except (NumericalError, np.linalg.LinAlgError):
                # eigensolver edge cases at exact degeneracies must not destroy a
                # long sweep; the orbit keeps a not-a-value marker. Any other
                # exception is a bug and propagates.
                values = [np.nan] * (1 + flag)
            own.append(values[0])
            mirrors.extend(values[1:])
        return np.array(own, dtype=float), np.array(mirrors, dtype=float)
    op = FloquetOperator([grid.model_at(hx_t, j_t) for hx_t, j_t, _ in cells])
    mirrored = np.array([flag for *_, flag in cells], dtype=bool)
    psi0 = all_zero_state(grid.n_qubits)
    if diagnostic == WEIGHT:
        n_max = settings.transient_discard + settings.spectrum_samples
        mz = expectation_records(op, psi0, n_max, [total_magnetization(grid.n_qubits)])[:, 0, 0]
        signed = mz[mirrored] * np.where(np.arange(n_max + 1) % 2, -1.0, 1.0)
        weights = spectral.subharmonic_weights(np.concatenate((mz, signed)), settings.transient_discard,
                                               settings.spectrum_samples)[0]
        return weights[: len(cells)], weights[len(cells) :]
    target = TARGET_HX if diagnostic == KAPPA_HX else TARGET_J
    window = metrology.tail_window(settings.n_max + 1, settings.fit_window)
    qfi = metrology.qfi_records(op, target, psi0, settings.n_max)[:, window]
    t = np.arange(settings.n_max + 1)[window] * grid.period
    kappa = metrology.quadratic_fits(t, qfi)[0][:, 0]
    return kappa, kappa[mirrored]


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
        raise ValueError(f"diagnostic must be one of {DIAGNOSTICS}, got {diagnostic!r}")
    settings = settings or SweepSettings()
    h_values = grid.h_values()
    j_values = grid.j_values()
    partner = _mirror_rows(grid)
    evaluated = [row for row in range(len(h_values)) if row not in partner.values()]
    cells = [(float(h_values[row]), float(j), row in partner) for row in evaluated for j in j_values]
    if diagnostic in (PI_FRACTION, OVERLAP):
        count = 8 * settings.workers
    else:
        rows = 1 if diagnostic == WEIGHT else 2
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
    if diagram.field_name != WEIGHT:
        raise ValueError(f"classification needs a {WEIGHT!r} diagram, got {diagram.field_name!r}")
    flags = diagram.values >= threshold
    diagram.classification = flags
    return flags

