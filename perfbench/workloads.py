"""Seeded workloads, their measurement loops and their output checks.

A workload is a list of equally sized rounds. The seed only chooses inputs
(grid offsets or (h_x T, J T) points); the package receives ordinary
grids and points through its public API and command line.

- sweep-recurrence-n7: serial sweeps of weight, kappa_hx and kappa_j on a
  stride-10 sub-grid of the production 61x61 grid (acceptance criterion
  11's map). One round is one 2x2 block for all three diagnostics.
- sweep-eigen-n9: pi_fraction and overlap with two pool workers. The
  4x4 grid is mirror-symmetric about the grid centre and jittered by the
  seed, so every seed samples the same mix of cheap (near-degenerate) and
  costly eigenproblems. One round is one 2x2 block for both diagnostics.
- trajectory-n12: one (h_x T, J T) point per round, run through cli.main
  as evolve, qfi --theta j and cfi --theta hx --observable czz.

Every operation (a cell-diagnostic or a CLI call) is checked: sweep cells
must be finite, weights and fractions must lie in [0, 1], values must
match the reference recorded for the default seed, a seeded sample must
match the per-cell public functions, and repeats must match the first
evaluation. A tolerance violation counts as a failed operation.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import floquet_ising
from floquet_ising import cli, sweep
from floquet_ising.dynamics import magnetization_series, pair_correlation, pair_correlation_series
from floquet_ising.metrology import cfi_series, curvature_fit, qfi_series
from floquet_ising.model import TARGET_HX, TARGET_J, ModelSpec
from floquet_ising.quasienergy import analyze
from floquet_ising.spectral import subharmonic_weight
from floquet_ising.states import all_zero_state

from tracing import Tracer

BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = BENCH_DIR / "out"
REFERENCE_PATH = BENCH_DIR / "reference.json"
SRC_DIR = Path(floquet_ising.__file__).resolve().parent.parent

WORKLOADS = ("sweep-recurrence-n7", "sweep-eigen-n9", "trajectory-n12")
DEFAULT_SEED = 0

# the production grid of acceptance criterion 11 and the CLI defaults
PRODUCTION_AXIS = np.linspace(0.0, np.pi, 61)
DISCARD, SAMPLES, N_MAX, FIT_WINDOW = 50, 512, 200, 0.5

# Wide enough for reordered floating-point sums in a rewritten propagator
# (batched prototypes deviate by ~1e-12 relative), narrow enough that any
# physics error fails. The absolute part absorbs noise-floor kappa values
# (5.1e-26 became 1.8e-26 between two runs of the same code).
ATOL = 1e-8
RTOL = 1e-6
UNIT_INTERVAL = ("weight", "pi_fraction", "overlap")
DECIMATE = 8  # reference keeps every 8th sample of a long series
MISMATCH = 1e12  # error reported for a shape or nan-pattern mismatch (finite, so the JSON stays valid)

SETUP_REPEATS = 11
MEASURED_BY = (
    "only this benchmark process and its pool children are measured: "
    "no machine-wide tracing, no cache dropping, no change to machine settings"
)


@dataclass
class Evaluation:
    """One operation: a sweep cell-diagnostic or one CLI call."""

    cell: object
    outputs: dict
    completed: bool = True
    bytes_written: int = 0


@dataclass
class Round:
    wall: float
    evaluations: list


@dataclass
class SweepWorkload:
    name: str
    n_qubits: int
    diagnostics: tuple
    workers: int
    h_index: list
    j_index: list
    blocks: list
    trace_rounds: int
    oracle_cells: int = 2
    setup_module: str = "floquet_ising"

    @property
    def cells_per_round(self) -> int:
        return 4 * len(self.diagnostics)

    @property
    def periods_per_round(self) -> int:
        # a dense propagator advances all 2^N basis columns by one period
        per_cell = {"weight": DISCARD + SAMPLES, "kappa_hx": N_MAX, "kappa_j": N_MAX}
        return 4 * sum(per_cell.get(d, 1 << self.n_qubits) for d in self.diagnostics)

    def inputs(self) -> dict:
        return {"n_qubits": self.n_qubits, "h_index": self.h_index, "j_index": self.j_index}

    def close(self) -> None:
        """Sweeps leave no files behind."""

    def run_round(self, block, workers: int) -> Round:
        (h0, h1), (j0, j1) = block
        grid = sweep.GridSpec(
            h_range=(PRODUCTION_AXIS[h0], PRODUCTION_AXIS[h1], 2),
            j_range=(PRODUCTION_AXIS[j0], PRODUCTION_AXIS[j1], 2),
            n_qubits=self.n_qubits,
        )
        settings = sweep.SweepSettings(workers=workers)
        wall = 0.0
        evaluations = []
        for diagnostic in self.diagnostics:
            start = time.perf_counter()
            diagram = sweep.sweep_diagnostic(grid, diagnostic, settings)
            wall += time.perf_counter() - start
            for a, ih in enumerate((h0, h1)):
                for b, ij in enumerate((j0, j1)):
                    key = f"{diagnostic}[{ih},{ij}]"
                    evaluations.append(Evaluation((ih, ij), {key: float(diagram.values[a, b])}))
        return Round(wall, evaluations)

    def oracle(self, cells) -> dict:
        """The same values through the per-cell public functions."""
        expected = {}
        psi0 = all_zero_state(self.n_qubits)
        for ih, ij in cells:
            spec = ModelSpec.dimensionless(self.n_qubits, PRODUCTION_AXIS[ih], PRODUCTION_AXIS[ij], boundary="chain")
            cell = f"[{ih},{ij}]"
            if "weight" in self.diagnostics:
                series = magnetization_series(spec, psi0, DISCARD + SAMPLES)
                expected["weight" + cell] = subharmonic_weight(series, DISCARD, SAMPLES).weight
            for diagnostic, target in (("kappa_hx", TARGET_HX), ("kappa_j", TARGET_J)):
                if diagnostic in self.diagnostics:
                    series = qfi_series(spec, target, psi0, N_MAX)
                    expected[diagnostic + cell] = curvature_fit(series, FIT_WINDOW).a
            if "pi_fraction" in self.diagnostics:
                analysis, overlap = analyze(spec, psi0)
                expected["pi_fraction" + cell] = analysis.pair_fraction
                expected["overlap" + cell] = overlap
        return expected


def _pairs(indices) -> list:
    return [(indices[k], indices[k + 1]) for k in range(0, len(indices), 2)]


def recurrence_workload(seed: int, tiny: bool = False) -> SweepWorkload:
    rng = np.random.default_rng(seed)
    offset_h, offset_j = (int(x) for x in rng.integers(0, 10, size=2))
    h_index = [offset_h + 10 * k for k in range(6)]
    j_index = [offset_j + 10 * k for k in range(6)]
    blocks = [(hp, jp) for hp in _pairs(h_index) for jp in _pairs(j_index)]
    return SweepWorkload(
        name="sweep-recurrence-n7",
        n_qubits=4 if tiny else 7,
        diagnostics=("weight", "kappa_hx", "kappa_j"),
        workers=1,
        h_index=h_index,
        j_index=j_index,
        blocks=blocks,
        trace_rounds=4,
    )


def _mirrored(rng) -> list:
    inner, outer = (int(x) for x in rng.integers(-2, 3, size=2))
    near, mid = 10 + inner, 22 + outer
    return [near, mid, 60 - mid, 60 - near]


def eigen_workload(seed: int, tiny: bool = False) -> SweepWorkload:
    rng = np.random.default_rng(seed)
    h_index = _mirrored(rng)
    j_index = _mirrored(rng)
    h_pairs = [(h_index[0], h_index[3]), (h_index[1], h_index[2])]
    j_pairs = [(j_index[0], j_index[3]), (j_index[1], j_index[2])]
    blocks = [(hp, jp) for hp in h_pairs for jp in j_pairs]
    return SweepWorkload(
        name="sweep-eigen-n9",
        n_qubits=4 if tiny else 9,
        diagnostics=("pi_fraction", "overlap"),
        workers=2,
        h_index=h_index,
        j_index=j_index,
        blocks=blocks,
        trace_rounds=2,
    )


def _read_column(path: Path, column: str) -> np.ndarray:
    with open(path, newline="") as handle:
        return np.array([float(row[column]) for row in csv.DictReader(handle)])


def _read_fit(path: Path) -> np.ndarray:
    record = json.loads(path.read_text())
    return np.array([record["a"], record["b"], record["c"]])


@dataclass
class TrajectoryWorkload:
    name: str
    n_qubits: int
    points: list
    trace_rounds: int = 4
    oracle_cells: int = 1
    workers: int = 1
    setup_module: str = "floquet_ising.cli"
    commands: tuple = (
        ("evolve", ()),
        ("qfi", ("--theta", "j")),
        ("cfi", ("--theta", "hx", "--observable", "czz")),
    )
    work_dir: Path = field(default_factory=lambda: OUT_DIR / f"work-{os.getpid()}")

    @property
    def blocks(self) -> list:
        return list(range(len(self.points)))

    @property
    def cells_per_round(self) -> int:
        return len(self.commands)

    @property
    def periods_per_round(self) -> int:
        return (DISCARD + SAMPLES) + 2 * N_MAX

    def inputs(self) -> dict:
        return {"n_qubits": self.n_qubits, "points": self.points}

    def close(self) -> None:
        """Remove the CLI output directory."""
        shutil.rmtree(self.work_dir, ignore_errors=True)

    def run_round(self, k: int, workers: int) -> Round:
        hx_t, j_t = self.points[k]
        wall = 0.0
        evaluations = []
        for command, extra in self.commands:
            out = self.work_dir / f"p{k}-{command}"
            argv = [command, *extra, "-N", str(self.n_qubits), "--hxt", repr(hx_t), "--jt", repr(j_t), "-o", str(out)]
            captured = io.StringIO()
            with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
                start = time.perf_counter()
                try:
                    code = cli.main(argv)
                except Exception:
                    code = None
                    traceback.print_exc()
                wall += time.perf_counter() - start
            if code != 0:
                sys.stderr.write(f"cli {' '.join(argv)} exited with {code}:\n{captured.getvalue()}\n")
                evaluations.append(Evaluation(k, {}, completed=False))
                continue
            written = sum(p.stat().st_size for p in out.iterdir())
            evaluations.append(Evaluation(k, self._parse(out, command, k), bytes_written=written))
            shutil.rmtree(out)
        return Round(wall, evaluations)

    @staticmethod
    def _parse(out: Path, command: str, k: int) -> dict:
        if command == "evolve":
            return {f"p{k}.mz": _read_column(out / "mz.csv", "value"), f"p{k}.czz": _read_column(out / "czz.csv", "value")}
        stem = "qfi_j" if command == "qfi" else "cfi_hx_czz"
        outputs = {f"p{k}.{stem}": _read_column(out / f"{stem}.csv", "value")}
        if (out / "curvature.json").exists():
            outputs[f"p{k}.{stem}.fit"] = _read_fit(out / "curvature.json")
        return outputs

    def oracle(self, cells) -> dict:
        expected = {}
        psi0 = all_zero_state(self.n_qubits)
        czz = pair_correlation(self.n_qubits)
        for k in cells:
            spec = ModelSpec.dimensionless(self.n_qubits, *self.points[k])
            expected[f"p{k}.mz"] = magnetization_series(spec, psi0, DISCARD + SAMPLES).values
            expected[f"p{k}.czz"] = pair_correlation_series(spec, psi0, DISCARD + SAMPLES).values
            qfi = qfi_series(spec, TARGET_J, psi0, N_MAX)
            fit = curvature_fit(qfi, FIT_WINDOW)
            expected[f"p{k}.qfi_j"] = qfi.values
            expected[f"p{k}.qfi_j.fit"] = np.array([fit.a, fit.b, fit.c])
            cfi = cfi_series(spec, TARGET_HX, czz, psi0, N_MAX)
            expected[f"p{k}.cfi_hx_czz"] = cfi.values
            try:
                fit = curvature_fit(cfi, FIT_WINDOW)
            except ValueError:
                continue  # too few defined points: the CLI writes no fit either
            expected[f"p{k}.cfi_hx_czz.fit"] = np.array([fit.a, fit.b, fit.c])
        return expected


def trajectory_workload(seed: int, tiny: bool = False) -> TrajectoryWorkload:
    rng = np.random.default_rng(seed)
    points = [[float(h), float(j)] for h, j in rng.uniform(0.0, np.pi, size=(4, 2))]
    return TrajectoryWorkload(name="trajectory-n12", n_qubits=4 if tiny else 12, points=points)


MAKERS = {
    "sweep-recurrence-n7": recurrence_workload,
    "sweep-eigen-n9": eigen_workload,
    "trajectory-n12": trajectory_workload,
}


# ---------------------------------------------------------------- checks


def reference_view(value):
    """What the reference file keeps of an output: long series are decimated."""
    if np.ndim(value) and np.size(value) > 16:
        return np.asarray(value)[::DECIMATE]
    return value


def tolerance_error(value, expected) -> float:
    """Largest |value - expected| / (ATOL + RTOL |expected|); MISMATCH on a shape or nan mismatch."""
    v = np.asarray(value, dtype=float)
    e = np.asarray(expected, dtype=float)
    if v.shape != e.shape or (np.isnan(v) != np.isnan(e)).any():
        return MISMATCH
    defined = ~np.isnan(e)
    if not defined.any():
        return 0.0
    err = np.abs(v[defined] - e[defined]) / (ATOL + RTOL * np.abs(e[defined]))
    return min(float(np.max(err)), MISMATCH) if np.isfinite(err).all() else MISMATCH


def check(evaluations, reference: dict, oracle: dict) -> tuple[list[bool], float]:
    """Per-evaluation pass/fail and the largest error in tolerance units."""
    first: dict = {}
    max_err = 0.0
    verdicts = []
    for evaluation in evaluations:
        ok = evaluation.completed and bool(evaluation.outputs)
        for key, value in evaluation.outputs.items():
            diagnostic = key.split("[")[0]
            if np.ndim(value) == 0:
                ok &= bool(np.isfinite(value))
                if diagnostic in UNIT_INTERVAL:
                    ok &= -ATOL <= value <= 1.0 + ATOL
            errors = [tolerance_error(value, first.setdefault(key, value))]
            if key in reference:
                errors.append(tolerance_error(reference_view(value), reference[key]))
            if key in oracle:
                errors.append(tolerance_error(value, oracle[key]))
            worst = max(errors)
            max_err = max(max_err, worst)
            ok &= worst <= 1.0
        verdicts.append(ok)
    return verdicts, max_err


def load_reference(workload, seed: int, tiny: bool) -> dict:
    """Recorded values for the default seed at full size; empty otherwise."""
    if tiny or not REFERENCE_PATH.exists():
        return {}
    recorded = json.loads(REFERENCE_PATH.read_text())
    if seed != recorded["seed"]:
        return {}
    entry = recorded["workloads"][workload.name]
    if entry["inputs"] != json.loads(json.dumps(workload.inputs())):
        raise RuntimeError(f"{workload.name}: seed {seed} no longer yields the recorded inputs")
    return entry["values"]


# ---------------------------------------------------------- environment


def _blas_threads():
    """Thread count reported by the loaded OpenBLAS, or None if it cannot be asked."""
    import ctypes

    try:
        with open("/proc/self/maps") as maps:
            paths = {line.split()[-1] for line in maps if "openblas" in line.lower() and "/" in line}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def speed_probe_s() -> float:
    """Median time of a fixed small-array numpy loop: how fast this machine runs right now.

    Recorded at the start and end of a run, so that a reader can tell a slow
    run of the package from a slow phase of a shared host.
    """
    x = np.ones(128, dtype=np.complex128)
    times = []
    for _ in range(5):
        start = time.perf_counter()
        for _ in range(5000):
            x = x * 0.5 + 0.5
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def environment(workload, load_start, probe_start) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {key: blas.get(key) for key in ("name", "version", "openblas configuration")},
        "blas_threads": _blas_threads(),
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "workers": workload.workers,
        "loadavg_start": list(load_start),
        "loadavg_end": list(os.getloadavg()),
        "speed_probe_s": [probe_start, speed_probe_s()],
        "measured": MEASURED_BY,
    }


# ---------------------------------------------------------- measurement

SETUP_SOURCE = """\
import time
start = time.perf_counter()
import {module}
from floquet_ising import FloquetOperator, ModelSpec
FloquetOperator(ModelSpec.dimensionless({n_qubits}, 1.0, 1.0))
print(repr(time.perf_counter() - start))
"""


def measure_setup(workload, repeats: int = SETUP_REPEATS) -> float:
    """Median time for a fresh interpreter to import the package and build one propagator."""
    source = SETUP_SOURCE.format(module=workload.setup_module, n_qubits=workload.n_qubits)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC_DIR), env.get("PYTHONPATH")]))
    times = []
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, "-c", source], env=env, cwd=SRC_DIR.parent,
            capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(proc.stdout.split()[-1]))
    return statistics.median(times)


def peak_rss_mb() -> float:
    """Peak resident size of this process plus the largest finished child (ru_maxrss is in KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def _timed(workload, seconds: float) -> dict:
    """Rounds for about `seconds` after one warm-up round; timings come from the slowest round.

    On a shared host the speed alternates between short, uneven fast phases
    and a steady loaded phase. Nearly every run of a few tens of seconds
    meets the loaded phase, so its slowest round repeats across runs far
    better than its median round does.
    """
    warm_up = workload.run_round(workload.blocks[-1], workload.workers)
    walls, evaluations = [], list(warm_up.evaluations)
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < seconds:
        block = workload.blocks[len(walls) % len(workload.blocks)]
        result = workload.run_round(block, workload.workers)
        walls.append(result.wall)
        evaluations += result.evaluations
    rss = peak_rss_mb()  # before the set-up interpreters become children too
    wall = max(walls)
    metrics = {
        "setup_s": (measure_setup(workload), "s"),
        "wall_s": (wall, "s"),
        "cells_per_s": (workload.cells_per_round / wall, "1/s"),
        "periods_per_s": (workload.periods_per_round / wall, "1/s"),
        "peak_rss_mb": (rss, "MB"),
    }
    return {"evaluations": evaluations, "metrics": metrics}


def _traced(workload, tracer: Tracer) -> dict:
    """Fixed rounds, so counts repeat exactly: untraced serial, traced serial, and pooled if the workload pools.

    The untraced and traced passes of a round run back to back, in
    alternating order, and the overhead and parallel efficiency are medians
    over rounds, so a drift in machine speed between rounds cancels out.
    """
    serial, traced, pooled = [], [], []
    evaluations, traced_evaluations = [], []
    for r in range(workload.trace_rounds):
        block = workload.blocks[r % len(workload.blocks)]
        if workload.workers > 1:
            result = workload.run_round(block, workload.workers)
            pooled.append(result.wall)
            evaluations += result.evaluations
        for with_spans in (r % 2 == 1, r % 2 == 0):
            if with_spans:
                with tracer.installed():
                    result = workload.run_round(block, 1)
                traced.append(result.wall)
                traced_evaluations += result.evaluations
            else:
                result = workload.run_round(block, 1)
                serial.append(result.wall)
                evaluations += result.evaluations
    return {
        "evaluations": evaluations + traced_evaluations,
        "traced_evaluations": traced_evaluations,
        "serial": serial,
        "traced": traced,
        "pooled": pooled,
    }


def _layer_metrics(workload, tracer: Tracer, outcome: dict, max_err: float, failed_frac: float) -> dict:
    stats = tracer.layer_stats()

    def calls(name):
        return stats.get(name, {}).get("calls", 0)

    def self_s(name):
        return stats.get(name, {}).get("self_s", 0.0)

    traced = outcome["traced_evaluations"]
    cells = len({e.cell for e in traced})
    is_sweep = isinstance(workload, SweepWorkload)
    if not is_sweep:
        efficiency = 0.0
    elif outcome["pooled"]:
        efficiency = statistics.median(s / (workload.workers * p) for s, p in zip(outcome["serial"], outcome["pooled"]))
    else:
        efficiency = 1.0  # a serial sweep is its own baseline
    apply_calls = calls("model.apply")
    metrics = {
        "model.apply.calls": (apply_calls, "count"),
        "model.apply.self_s": (self_s("model.apply"), "s"),
        "model.apply.us_per_call": (1e6 * self_s("model.apply") / apply_calls if apply_calls else 0.0, "us"),
        "model.apply_derivative.calls": (calls("model.apply_derivative"), "count"),
        "model.apply_derivative.self_s": (self_s("model.apply_derivative"), "s"),
        "model.dense.calls": (calls("model.dense"), "count"),
        "model.dense.self_s": (self_s("model.dense"), "s"),
        "model.FloquetOperator.calls": (calls("model.FloquetOperator"), "count"),
        "model.FloquetOperator.self_s": (self_s("model.FloquetOperator"), "s"),
        "dynamics.stroboscopic_trajectory.calls": (calls("dynamics.stroboscopic_trajectory"), "count"),
        "dynamics.stroboscopic_trajectory.self_s": (self_s("dynamics.stroboscopic_trajectory"), "s"),
        "spectral.subharmonic_weight.calls": (calls("spectral.subharmonic_weight"), "count"),
        "spectral.subharmonic_weight.self_s": (self_s("spectral.subharmonic_weight"), "s"),
        "metrology.qfi_series.self_s": (self_s("metrology.qfi_series"), "s"),
        "metrology.cfi_series.self_s": (self_s("metrology.cfi_series"), "s"),
        "metrology.curvature_fit.calls": (calls("metrology.curvature_fit"), "count"),
        "metrology.curvature_fit.self_s": (self_s("metrology.curvature_fit"), "s"),
        "quasienergy.floquet_eigensystem.calls": (calls("quasienergy.floquet_eigensystem"), "count"),
        "quasienergy.floquet_eigensystem.self_s": (self_s("quasienergy.floquet_eigensystem"), "s"),
        "quasienergy.detect_pi_pairs.self_s": (self_s("quasienergy.detect_pi_pairs"), "s"),
        "quasienergy.overlap_weight.self_s": (self_s("quasienergy.overlap_weight"), "s"),
        "quasienergy.eigensystems_per_cell": (calls("quasienergy.floquet_eigensystem") / cells, "ratio"),
        "sweep.cells": (len(traced) if is_sweep else 0, "count"),
        "sweep.failed_cells": (sum(not np.isfinite(v) for e in traced if is_sweep for v in e.outputs.values()), "count"),
        "sweep.parallel_efficiency": (efficiency, "ratio"),
        "cli.main.calls": (calls("cli.main"), "count"),
        "cli.main.self_s": (self_s("cli.main"), "s"),
        "output.bytes_written": (sum(e.bytes_written for e in traced), "bytes"),
        "output.write.self_s": (sum((v["self_s"] for k, v in stats.items() if k.startswith("output.write_")), 0.0), "s"),
        "trace.overhead_frac": (statistics.median(t / s for t, s in zip(outcome["traced"], outcome["serial"])) - 1.0, "ratio"),
        "check.max_err": (max_err, "tol"),
        "check.failed_frac": (failed_frac, "ratio"),
    }
    return metrics


def run(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False, reference: dict | None = None):
    """Run one workload; returns (result line, environment block)."""
    load_start = os.getloadavg()
    probe_start = speed_probe_s()
    workload = MAKERS[name](seed, tiny)
    if reference is None:
        reference = load_reference(workload, seed, tiny)
    tracer = Tracer()
    try:
        outcome = _traced(workload, tracer) if trace else _timed(workload, seconds)
        evaluations = outcome["evaluations"]
        sampler = np.random.default_rng([seed, 1])
        visited = sorted({e.cell for e in evaluations}, key=str)
        picks = sampler.choice(len(visited), size=min(workload.oracle_cells, len(visited)), replace=False)
        oracle = workload.oracle([visited[i] for i in picks])
        verdicts, max_err = check(evaluations, reference, oracle)
    finally:
        workload.close()
    failed = verdicts.count(False)
    attempted = len(verdicts)
    if trace:
        metrics = _layer_metrics(workload, tracer, outcome, max_err, failed / attempted)
    else:
        metrics = outcome["metrics"]
        metrics["ok_frac"] = (1.0 - failed / attempted, "ratio")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    env = environment(workload, load_start, probe_start)
    if trace and not tiny:
        tracer.write(
            OUT_DIR / f"trace-{name}-seed{seed}.json",
            {"workload": name, "seed": seed, "environment": env, "result": result},
        )
    return result, env
