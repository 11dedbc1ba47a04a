import multiprocessing
import os
import signal
import subprocess
import sys
import textwrap
import threading
import time
from concurrent.futures.process import BrokenProcessPool
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from floquet_ising import quasienergy, sweep
from floquet_ising.dynamics import magnetization_series, total_magnetization
from floquet_ising.errors import NumericalError
from floquet_ising.metrology import curvature_fit, qfi_series, quadratic_fits, tail_window
from floquet_ising.model import CHAIN, FIELD_THEN_ISING, ISING_THEN_FIELD, RING, TARGET_HX, TARGET_J
from floquet_ising.quasienergy import analyze
from floquet_ising.spectral import subharmonic_weight, subharmonic_weights
from floquet_ising.states import all_zero_state
from floquet_ising.sweep import AnalysisSettings, GridSpec, SweepSettings, classify_pd, sweep_diagnostic

from conftest import eigenspace_weights, reference_qfi, reference_trajectory, sorted_from_cut, tie_fragile

KAPPA_HX, KAPPA_J = "kappa_hx", "kappa_j"


@pytest.fixture(scope="module")
def toy_grid():
    # a 5x4 grid around the reference points keeps sweeps fast
    return GridSpec(h_range=(0.0, np.pi, 5), j_range=(0.0, np.pi, 4))


class TestGridSpec:
    def test_values(self):
        grid = GridSpec(h_range=(0.0, 2.0, 5), j_range=(1.0, 2.0, 3))
        assert np.allclose(grid.h_values(), [0, 0.5, 1.0, 1.5, 2.0])
        assert np.allclose(grid.j_values(), [1.0, 1.5, 2.0])

    def test_boundary_defaults(self):
        assert GridSpec(n_qubits=3).model_at(1.0, 1.0).boundary == RING
        assert GridSpec(n_qubits=5).model_at(1.0, 1.0).boundary == CHAIN

    def test_count_validation(self):
        with pytest.raises(ValueError, match="at least 2"):
            GridSpec(h_range=(0.0, 1.0, 1))

    def test_unknown_diagnostic(self, toy_grid):
        with pytest.raises(ValueError, match="diagnostic"):
            sweep_diagnostic(toy_grid, "bogus")


class TestWeightSweep:
    def test_known_cells(self, toy_grid):
        diagram = sweep_diagnostic(toy_grid, "weight")
        h, j = toy_grid.h_values(), toy_grid.j_values()
        # (pi, pi) corner: exact alternation
        assert diagram.values[4, 3] == pytest.approx(1.0, abs=1e-10)
        # h = 0 column: static signal
        assert np.all(diagram.values[0, :] == 0.0)
        # free qubits at an incommensurate field: no subharmonic weight
        assert diagram.values[2, 0] < 0.1  # (pi/2, 0)
        assert 0.0 <= diagram.values.min() and diagram.values.max() <= 1.0

    def test_free_row_perfect_flip_only(self):
        grid = GridSpec(h_range=(2.6, np.pi, 2), j_range=(0.0, 1.0, 2))
        diagram = sweep_diagnostic(grid, "weight")
        assert diagram.values[1, 0] == pytest.approx(1.0, abs=1e-10)  # (pi, 0)
        assert diagram.values[0, 0] < 0.1  # (2.6, 0)

    def test_anchor_point_classification(self):
        # the four reference points classify consistently with their roles:
        # both strong-PD points flagged, both weak-response points not
        grid = GridSpec(h_range=(0.1, 2.6, 2), j_range=(0.1, 1.57, 2))
        diagram = sweep_diagnostic(grid, "weight")
        flags = classify_pd(diagram, threshold=0.8)
        assert flags[1, 1]  # (2.6, 1.57)
        assert not flags[1, 0]  # (2.6, 0.1)
        assert not flags[0, 1]  # (0.1, 1.57)
        corner = sweep_diagnostic(
            GridSpec(h_range=(np.pi / 2, np.pi, 2), j_range=(np.pi / 2, np.pi, 2)), "weight"
        )
        assert classify_pd(corner, threshold=0.8)[1, 1]  # (pi, pi)


class TestClassification:
    def test_all_zero_diagram(self, toy_grid):
        diagram = sweep_diagnostic(toy_grid, "weight")
        diagram.values = np.zeros_like(diagram.values)
        assert not classify_pd(diagram).any()

    def test_pd_corner_flagged_at_any_threshold(self, toy_grid):
        diagram = sweep_diagnostic(toy_grid, "weight")
        for threshold in (0.6, 0.8, 0.9, 0.99):
            flags = classify_pd(diagram, threshold)
            assert flags[4, 3]

    def test_threshold_validation(self, toy_grid):
        diagram = sweep_diagnostic(toy_grid, "weight")
        with pytest.raises(ValueError, match="threshold"):
            classify_pd(diagram, 1.5)

    def test_needs_weight_diagram(self, toy_grid):
        diagram = sweep_diagnostic(toy_grid, "pi_fraction")
        with pytest.raises(ValueError, match="weight"):
            classify_pd(diagram)


class TestQuasienergySweeps:
    def test_fraction_and_overlap_bounds(self, toy_grid):
        for name in ("pi_fraction", "overlap"):
            diagram = sweep_diagnostic(toy_grid, name)
            assert np.all(diagram.values >= 0.0)
            assert np.all(diagram.values <= 1.0 + 1e-12)

    def test_pi_pi_corner_fully_paired(self, toy_grid):
        fractions = sweep_diagnostic(toy_grid, "pi_fraction")
        overlaps = sweep_diagnostic(toy_grid, "overlap")
        assert fractions.values[4, 3] == 1.0
        assert overlaps.values[4, 3] == pytest.approx(1.0, abs=1e-10)


class TestCurvatureMaps:
    def test_free_row_closed_form(self):
        # J = 0: F_Q(h_x) = 4 N T1^2 t^2, so the fitted a is 8 N T1^2 = 2N
        grid = GridSpec(h_range=(0.8, 2.4, 3), j_range=(0.0, 1.0, 2), n_qubits=3)
        diagram = sweep_diagnostic(grid, KAPPA_HX, SweepSettings(AnalysisSettings(n_max=60)))
        assert np.abs(diagram.values[:, 0] - 6.0).max() < 1e-9

    def test_zero_field_column_is_insensitive(self):
        grid = GridSpec(h_range=(0.0, 1.0, 2), j_range=(0.5, 1.5, 3), n_qubits=3)
        diagram = sweep_diagnostic(grid, KAPPA_J, SweepSettings(AnalysisSettings(n_max=60)))
        assert np.abs(diagram.values[0, :]).max() < 1e-9


class TestMirrorSymmetry:
    """The drive's mirror symmetries, checked against direct evaluation.

    With a = h_x T1, U_F(pi/2 - a) = c P Z U_F(a) Z (c a global phase, P and
    Z the products of sigma_x and sigma_z), and I(J) commutes with P and Z,
    so at T1 = T/2 the reflection h_x T -> pi - h_x T leaves every QFI
    series unchanged, signs <M_z>(n) by (-1)^n and maps the spectrum to
    i^N p lambda, for any N, boundary and step order. The sweep evaluates
    one row per mirror pair and fills the other, so these tests compare
    every filled cell with a direct evaluation at its own (h_x T, J T). On a
    ring every site sits on two bonds, so J T -> pi - J T is an exact
    symmetry too; on a chain it is not (the maps below miss it by 1.2-2.9
    relative). A sign error in a field factor or a generator would break
    either mirror.
    """

    # agreement within TOL * (1 + |value|); about 6e-14 is seen
    TOL = 1e-12

    @pytest.mark.parametrize("diagnostic", [KAPPA_HX, KAPPA_J])
    @pytest.mark.parametrize(
        "n, boundary, order",
        [(3, RING, FIELD_THEN_ISING), (4, CHAIN, FIELD_THEN_ISING), (4, RING, FIELD_THEN_ISING),
         (5, CHAIN, ISING_THEN_FIELD)],
    )
    def test_kappa_maps_are_mirror_symmetric(self, n, boundary, order, diagnostic):
        grid = GridSpec(h_range=(0.0, np.pi, 13), j_range=(0.0, np.pi, 13), n_qubits=n,
                        boundary=boundary, step_order=order)
        assert sweep._mirror_rows(grid) == {row: 12 - row for row in range(6)}
        values = sweep_diagnostic(grid, diagnostic).values
        assert np.ptp(values) > 1  # a flat map would hold any mirror
        bound = self.TOL * (1 + np.abs(values))
        # the filled rows 7..12 against a grid of the same rows, which has no
        # mirror pairs and so evaluates every cell
        h = grid.h_values()
        upper = GridSpec(h_range=(h[7], h[12], 6), j_range=grid.j_range, n_qubits=n, boundary=boundary,
                         step_order=order)
        assert sweep._mirror_rows(upper) == {}
        direct = sweep_diagnostic(upper, diagnostic).values
        assert np.all(np.abs(values[7:] - direct) <= bound[7:]), np.abs(values[7:] - direct).max()
        if boundary == RING:
            assert np.all(np.abs(values[:, ::-1] - values) <= bound), np.abs(values[:, ::-1] - values).max()

    @pytest.mark.parametrize("order", [FIELD_THEN_ISING, ISING_THEN_FIELD])
    @pytest.mark.parametrize("boundary", [CHAIN, RING])
    @pytest.mark.parametrize("n", range(3, 8))
    def test_filled_cells_match_per_cell_path(self, monkeypatch, n, boundary, order):
        # rows 3 and 2 are filled from rows 0 and 1; J T = 0 is degenerate
        grid = GridSpec(h_range=(0.2, np.pi - 0.2, 4), j_range=(0.0, 2.6, 4), n_qubits=n,
                        boundary=boundary, step_order=order)
        assert sweep._mirror_rows(grid) == {0: 3, 1: 2}
        filled = [(row, b) for row in (3, 2) for b in range(4)]  # the sweep's fill order
        settings = SweepSettings(AnalysisSettings(n_max=60, transient_discard=10, spectrum_samples=64))
        psi0 = all_zero_state(n)
        specs = {(a, b): grid.model_at(h, j) for a, h in enumerate(grid.h_values())
                 for b, j in enumerate(grid.j_values())}

        for diagnostic in ("weight", KAPPA_HX, KAPPA_J):
            values = sweep_diagnostic(grid, diagnostic, settings).values
            for cell in filled:
                if diagnostic == "weight":
                    series = magnetization_series(specs[cell], psi0, 74)
                    expected = subharmonic_weight(series, 10, 64).weight
                else:
                    target = TARGET_HX if diagnostic == KAPPA_HX else TARGET_J
                    expected = curvature_fit(qfi_series(specs[cell], target, psi0, 60)).a
                assert abs(values[cell] - expected) <= self.TOL * (1 + abs(expected)), (diagnostic, cell)

        # the derived spectra and weights the sweep hands to paired_weight
        derived = []
        real = quasienergy.paired_weight

        def spy(analysis, weights):
            if analysis.eigenvectors is None:
                derived.append((analysis, weights))
            return real(analysis, weights)

        monkeypatch.setattr(quasienergy, "paired_weight", spy)
        overlaps = sweep_diagnostic(grid, "overlap").values
        fractions = sweep_diagnostic(grid, "pi_fraction").values
        assert len(derived) == len(filled)
        fragile = 0
        for cell, (mirror, weights) in zip(filled, derived):
            direct, overlap = analyze(specs[cell], psi0)
            assert np.abs(sorted_from_cut(mirror.epsilons, direct.epsilons)
                          - sorted_from_cut(direct.epsilons, direct.epsilons)).max() <= 1e-12, cell
            eigenvalues = np.exp(-1j * direct.epsilons)
            assert np.abs(eigenspace_weights(mirror, eigenvalues, weights)
                          - eigenspace_weights(direct, eigenvalues, np.abs(direct.eigenvectors[0]) ** 2)
                          ).max() <= 1e-10, cell
            if tie_fragile(direct.epsilons) or tie_fragile(mirror.epsilons):
                fragile += 1
                continue
            assert fractions[cell] == direct.pair_fraction, cell
            assert abs(overlaps[cell] - overlap) <= 1e-10, cell
        print(f"N={n} {boundary} {order}: {fragile} of {len(filled)} filled eigen cells tie-fragile")


class TestDiagnosticTable:
    """A map diagnostic is one sweep.DIAGNOSTICS entry: a test-only entry sweeps with no other edit."""

    @staticmethod
    def pi_splitting(spectrum) -> float:
        """Smallest |gap - pi/T| of the spectrum's pi-pairs; inf without pairs."""
        return float(np.min(np.abs(spectrum.gaps - np.pi / spectrum.period), initial=np.inf))

    @pytest.mark.parametrize(
        "n, boundary, order", [(3, RING, FIELD_THEN_ISING), (4, RING, ISING_THEN_FIELD), (5, CHAIN, FIELD_THEN_ISING)]
    )
    def test_added_eigen_entry_matches_per_cell_path(self, monkeypatch, n, boundary, order):
        seen = []  # every spectrum the reader gets, in the sweep's order

        def reader(spectrum, weights):
            seen.append(spectrum)
            return self.pi_splitting(spectrum)

        entry = ("pi-splitting", None, partial(sweep._eigen_values, reader))
        monkeypatch.setitem(sweep.DIAGNOSTICS, "pi_splitting", entry)
        # rows 0 and 1 are evaluated and fill rows 3 and 2; run serially, since
        # a patched entry does not reach running pool workers
        grid = GridSpec(h_range=(0.2, np.pi - 0.2, 4), j_range=(0.0, 2.6, 4), n_qubits=n,
                        boundary=boundary, step_order=order)
        assert sweep._mirror_rows(grid) == {0: 3, 1: 2}
        values = sweep_diagnostic(grid, "pi_splitting").values
        evaluated = [(row, b) for row in (0, 1) for b in range(4)]
        filled = [(3 - row, b) for row, b in evaluated]
        assert len(seen) == 2 * len(evaluated)  # each cell's spectrum, then its mirror's
        fragile = 0
        for (a, b), spectrum in zip(evaluated + filled, seen[::2] + seen[1::2]):
            direct, _ = analyze(grid.model_at(grid.h_values()[a], grid.j_values()[b]), all_zero_state(n))
            if tie_fragile(direct.epsilons) or tie_fragile(spectrum.epsilons):
                fragile += 1
                continue
            expected = self.pi_splitting(direct)
            # an evaluated cell is the per-cell path itself; a filled one reads the
            # derived spectrum, within 1e-12 of the direct one
            assert values[a, b] == expected or (a > 1 and abs(values[a, b] - expected) <= 1e-11), (a, b)
        print(f"N={n} {boundary} {order}: {fragile} of {len(seen)} pi_splitting cells tie-fragile")


class TestBatchedOracle:
    """Blocked sweeps against the per-cell public functions."""

    # agreement within TOL * (1 + |value|); the two paths share one loop, so
    # only a cell mix-up or a block-dependent reduction could exceed it
    TOL = 1e-12

    @pytest.mark.parametrize("order", [FIELD_THEN_ISING, ISING_THEN_FIELD])
    @pytest.mark.parametrize("n, boundary", [(3, RING), (3, CHAIN), (4, CHAIN), (4, RING), (7, CHAIN), (7, RING)])
    def test_matches_per_cell_functions(self, n, boundary, order):
        grid = GridSpec(h_range=(0.4, 2.6, 2), j_range=(0.3, 1.57, 3), n_qubits=n,
                        boundary=boundary, step_order=order)
        settings = SweepSettings(AnalysisSettings(n_max=120))
        psi0 = all_zero_state(n)
        for diagnostic in ("weight", KAPPA_HX, KAPPA_J):
            values = sweep_diagnostic(grid, diagnostic, settings).values
            for a, h in enumerate(grid.h_values()):
                for b, j in enumerate(grid.j_values()):
                    spec = grid.model_at(h, j)
                    if diagnostic == "weight":
                        expected = subharmonic_weight(magnetization_series(spec, psi0, 562)).weight
                    else:
                        target = TARGET_HX if diagnostic == KAPPA_HX else TARGET_J
                        expected = curvature_fit(qfi_series(spec, target, psi0, settings.analysis.n_max)).a
                    assert abs(values[a, b] - expected) <= self.TOL * (1 + abs(expected))


class TestExtendedPrecisionOracle:
    """Criterion-11 cells against a recurrence of U_F and dU_F in extended
    precision (np.clongdouble), reduced by the same spectral and fit code.

    The weight at (h_x T, J T) = (pi/60, pi/2), N = 5, is ill-conditioned:
    a one-ulp change of h_x or J moves it by up to 3e-12, and double
    recurrences land about 4.5e-12 off the reference there, so its bound is
    WEIGHT_TOL; about 1e-15 elsewhere. Curvatures at N = 7 (|kappa| up to
    about 14) land within about 6e-13; their bound is KAPPA_TOL.
    """

    WEIGHT_TOL = 1e-11
    KAPPA_TOL = 1e-12
    AXIS = np.linspace(0.0, np.pi, 61)  # criterion 11's grid axis

    def cells(self, n, h_index, j_index):
        h, j = self.AXIS[list(h_index)], self.AXIS[list(j_index)]
        grid = GridSpec(h_range=(h[0], h[1], 2), j_range=(j[0], j[1], 2), n_qubits=n)
        assert np.array_equal(grid.h_values(), h) and np.array_equal(grid.j_values(), j)
        specs = [grid.model_at(a, b) for a in h for b in j]
        return grid, specs, all_zero_state(n)

    def test_weight_n5(self):
        grid, specs, psi0 = self.cells(5, (1, 40), (12, 30))
        settings = AnalysisSettings()
        n_max = settings.transient_discard + settings.spectrum_samples
        psi, _ = reference_trajectory(specs, psi0, n_max, dtype=np.clongdouble)
        mz = (np.abs(psi) ** 2 @ total_magnetization(5).diag.astype(np.longdouble)).astype(float)
        expected = subharmonic_weights(mz, settings.transient_discard, settings.spectrum_samples)[0]
        values = sweep_diagnostic(grid, "weight", SweepSettings(settings)).values.ravel()
        assert np.abs(values - expected).max() <= self.WEIGHT_TOL

    @pytest.mark.parametrize("diagnostic", [KAPPA_HX, KAPPA_J])
    def test_kappa_n7(self, diagnostic):
        grid, specs, psi0 = self.cells(7, (1, 44), (23, 30))
        settings = AnalysisSettings()
        target = TARGET_HX if diagnostic == KAPPA_HX else TARGET_J
        psi, dpsi = reference_trajectory(specs, psi0, settings.n_max, target, dtype=np.clongdouble)
        qfi = reference_qfi(psi, dpsi).astype(float)
        window = tail_window(settings.n_max + 1, settings.fit_window)
        expected = quadratic_fits(np.arange(settings.n_max + 1)[window] * grid.period, qfi[:, window])[0][:, 0]
        values = sweep_diagnostic(grid, diagnostic, SweepSettings(settings)).values.ravel()
        assert np.abs(values - expected).max() <= self.KAPPA_TOL


class TestDeterminismAndIsolation:
    @pytest.mark.parametrize("diagnostic", sweep.DIAGNOSTICS)
    def test_worker_counts_agree(self, diagnostic):
        # 30 evaluated cells in four mirror pairs of rows and a self-mirrored
        # row; the eigen diagnostics split them into 8, 16 and 24 blocks
        grid = GridSpec(h_range=(0.0, np.pi, 9), j_range=(0.0, np.pi, 6))
        serial, *pooled = (sweep_diagnostic(grid, diagnostic, SweepSettings(workers=w)).values for w in (1, 2, 3))
        for values in pooled:
            assert np.array_equal(values, serial, equal_nan=True)

    @pytest.mark.parametrize("diagnostic", ["weight", KAPPA_HX, KAPPA_J])
    def test_block_size_independent(self, monkeypatch, diagnostic):
        # block sizes 1, 7 and the whole grid, on 1 and 2 workers
        grid = GridSpec(h_range=(0.0, np.pi, 9), j_range=(0.0, np.pi, 5))
        rows = 1 if diagnostic == "weight" else 2
        diagrams = []
        for size in (1, 7, 45):
            monkeypatch.setattr(sweep, "BLOCK_BYTES", size * rows * 16 << grid.n_qubits)
            for workers in (1, 2):
                settings = SweepSettings(AnalysisSettings(n_max=60), workers)
                diagrams.append(sweep_diagnostic(grid, diagnostic, settings).values)
        for values in diagrams[1:]:
            assert np.abs(values - diagrams[0]).max() <= 1e-12

    def test_repeated_runs_identical(self, toy_grid):
        a = sweep_diagnostic(toy_grid, "pi_fraction")
        b = sweep_diagnostic(toy_grid, "pi_fraction")
        assert np.array_equal(a.values, b.values)

    @staticmethod
    def poison_row(monkeypatch, error, hx_t=np.pi / 4):
        """Make the eigensystem of every cell of the h_x T = hx_t row raise error.

        Eigen blocks solve cell by cell, and a failure stays in its mirror
        orbit: on toy_grid, h_x T = pi/4 (row 1) fills row 3, and pi/2
        (row 2) is its own mirror. Recurrence blocks raise no numerical
        errors.
        """
        real = quasienergy.floquet_eigensystem

        def poisoned(model):
            if abs(model.h_x - hx_t) < 1e-9:
                raise error
            return real(model)

        monkeypatch.setattr(quasienergy, "floquet_eigensystem", poisoned)

    def test_cell_failure_is_isolated(self, toy_grid, monkeypatch):
        # an orbit with failed numerics must not abort the sweep; both of its
        # rows become nan
        self.poison_row(monkeypatch, NumericalError("injected failure"))
        diagram = sweep_diagnostic(toy_grid, "pi_fraction")
        assert np.isnan(diagram.values[[1, 3], :]).all()
        assert np.isfinite(diagram.values[[0, 2, 4], :]).all()

    def test_self_mirrored_row_failure_is_isolated(self, toy_grid, monkeypatch):
        self.poison_row(monkeypatch, NumericalError("injected failure"), np.pi / 2)
        diagram = sweep_diagnostic(toy_grid, "overlap")
        assert np.isnan(diagram.values[2, :]).all()
        assert np.isfinite(diagram.values[[0, 1, 3, 4], :]).all()

    def test_programming_error_propagates(self, toy_grid, monkeypatch):
        # anything but a numerical failure is a bug and must not become nan
        self.poison_row(monkeypatch, RuntimeError("injected bug"))
        with pytest.raises(RuntimeError, match="injected bug"):
            sweep_diagnostic(toy_grid, "pi_fraction")

    def test_block_error_propagates(self, toy_grid, monkeypatch):
        # a recurrence block fails as a whole: no error becomes nan there
        from floquet_ising import spectral

        def failing(*args):
            raise NumericalError("injected block failure")

        monkeypatch.setattr(spectral, "subharmonic_weights", failing)
        with pytest.raises(NumericalError, match="injected block failure"):
            sweep_diagnostic(toy_grid, "weight")


class TestPool:
    """One pool per process: reused across pooled sweeps, replaced when the worker count changes or a worker dies."""

    GRID = GridSpec(h_range=(0.3, 2.8, 3), j_range=(0.2, 1.5, 2))
    ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(Path(sweep.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]))}

    @staticmethod
    def worker_pids() -> set:
        return {p.pid for p in multiprocessing.active_children()}

    @staticmethod
    def alive(pid: int, wait: float = 10.0) -> bool:
        """Whether pid still exists after up to `wait` seconds."""
        deadline = time.monotonic() + wait
        while True:
            try:
                os.kill(pid, 0)
            except ProcessLookupError:
                return False
            if time.monotonic() >= deadline:
                return True
            time.sleep(0.05)

    @pytest.fixture
    def fork_threads(self, monkeypatch) -> list:
        """The thread count at each fork of this process: a new pool must not fork beside an old pool's threads."""
        counts, fork = [], os.fork
        monkeypatch.setattr(os, "fork", lambda: counts.append(threading.active_count()) or fork())
        return counts

    def test_reused_until_worker_count_changes(self, fork_threads):
        first = sweep_diagnostic(self.GRID, "pi_fraction", SweepSettings(workers=2)).values
        pids = self.worker_pids()
        assert len(pids) == 2
        second = sweep_diagnostic(self.GRID, "pi_fraction", SweepSettings(workers=2)).values
        assert self.worker_pids() == pids
        assert np.array_equal(first, second)
        sweep_diagnostic(self.GRID, "pi_fraction", SweepSettings(workers=3))
        assert len(self.worker_pids()) == 3 and not self.worker_pids() & pids
        # joined before the new pool forked, not merely abandoned
        assert not any(self.alive(pid, wait=0) for pid in pids)
        assert len(fork_threads) >= 3 and set(fork_threads) == {1}

    def test_killed_worker_fails_one_call(self, fork_threads):
        settings = SweepSettings(workers=2)
        sweep_diagnostic(self.GRID, "pi_fraction", settings)
        victim = min(self.worker_pids())
        os.kill(victim, signal.SIGKILL)
        assert not self.alive(victim)
        with pytest.raises(BrokenProcessPool):
            sweep_diagnostic(self.GRID, "pi_fraction", settings)
        values = sweep_diagnostic(self.GRID, "pi_fraction", settings).values
        assert np.array_equal(values, sweep_diagnostic(self.GRID, "pi_fraction").values)
        assert len(fork_threads) >= 2 and set(fork_threads) == {1}

    def test_task_error_propagates_and_pool_survives(self):
        # a patch cannot reach running workers, so the fault rides in the
        # task: ModelSpec rejects the step order inside the worker
        settings = SweepSettings(AnalysisSettings(n_max=20), workers=2)
        sweep_diagnostic(self.GRID, "pi_fraction", settings)
        pids = self.worker_pids()
        bad = GridSpec(h_range=self.GRID.h_range, j_range=self.GRID.j_range, step_order="bogus")
        for diagnostic in ("pi_fraction", KAPPA_J):
            with pytest.raises(ValueError, match="step_order"):
                sweep_diagnostic(bad, diagnostic, settings)
            values = sweep_diagnostic(self.GRID, diagnostic, settings).values
            serial = SweepSettings(AnalysisSettings(n_max=20))
            assert np.array_equal(values, sweep_diagnostic(self.GRID, diagnostic, serial).values)
        assert self.worker_pids() == pids

    def test_forked_child_starts_its_own_pool(self):
        # in a subprocess: the fork happens while the pool's threads run,
        # which Python 3.12 warns about and -W error would fail
        script = textwrap.dedent("""
            import os, sys
            import numpy as np
            from floquet_ising import sweep
            grid = sweep.GridSpec(h_range=(0.3, 2.8, 3), j_range=(0.2, 1.5, 2))
            settings = sweep.SweepSettings(workers=2)
            parent = sweep.sweep_diagnostic(grid, "pi_fraction", settings).values
            pid = os.fork()
            if pid == 0:
                child = sweep.sweep_diagnostic(grid, "pi_fraction", settings).values
                sys.exit(0 if np.array_equal(child, parent) else 3)
            sys.exit(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
        """)
        proc = subprocess.run([sys.executable, "-c", script], env=self.ENV, capture_output=True, text=True,
                              timeout=60)
        assert proc.returncode == 0, proc.stderr

    def test_exit_ends_the_pool_quietly(self, tmp_path):
        # under pytest with the CLI imported, a pool left alive at exit is
        # collected after concurrent.futures is torn down, which prints an
        # ignored AttributeError; the exit hook shuts it down first
        pid_file = tmp_path / "pids.txt"
        (tmp_path / "test_pooled.py").write_text(textwrap.dedent(f"""
            import multiprocessing
            from pathlib import Path
            import floquet_ising.cli
            from floquet_ising import sweep

            def test_pooled():
                grid = sweep.GridSpec(h_range=(0.3, 2.8, 3), j_range=(0.2, 1.5, 2))
                pids = set()
                for workers in (2, 3, 2):
                    sweep.sweep_diagnostic(grid, "pi_fraction", sweep.SweepSettings(workers=workers))
                    pids |= {{p.pid for p in multiprocessing.active_children()}}
                Path({str(pid_file)!r}).write_text(" ".join(map(str, pids)))
        """))
        proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "test_pooled.py"],
                              cwd=tmp_path, env=self.ENV, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stdout
        pids = [int(pid) for pid in pid_file.read_text().split()]
        assert len(pids) == 7
        assert not any(self.alive(pid) for pid in pids)
        assert proc.stderr == ""
