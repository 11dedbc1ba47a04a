import numpy as np
import pytest

from floquet_ising import states
from floquet_ising.dynamics import expectation_records, pair_correlation, total_magnetization
from floquet_ising.metrology import (
    FLAG_UNDEFINED,
    FisherSeries,
    cfi_series,
    curvature_fit,
    qfi_records,
    qfi_series,
    qfi_value,
)
from floquet_ising.model import FIELD_THEN_ISING, ISING_THEN_FIELD, TARGET_HX, TARGET_J, FloquetOperator, ModelSpec

from conftest import (
    cfi_finite_difference,
    qfi_finite_difference,
    random_state,
    reference_qfi,
    reference_trajectory,
    shifted_spec,
)


class TestRandomStartState:
    """Every reader against repeated dense products from a random start state.

    The loop runs in the frame L^-1 psi, L = diag((-i)^popcount), and its
    states are compared after frame_phase takes them back out of it; from
    |0..0>, where L is 1, a missing entry into the frame would go unseen. Agreement within 1e-12
    relative to the largest reference entry, after 25 periods.
    """

    N_MAX = 25
    TOL = 1e-12

    @pytest.mark.parametrize("target", [None, TARGET_HX, TARGET_J])
    @pytest.mark.parametrize("order", [FIELD_THEN_ISING, ISING_THEN_FIELD])
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
    def test_readers_match_dense_products(self, rng, n, order, target):
        specs = [
            ModelSpec.dimensionless(n, h, j if n > 1 else 0.0, step_order=order)
            for h, j in rng.uniform(0.2, 3.0, size=(2, 2))
        ]
        op = FloquetOperator(specs)
        psi0 = random_state(n, rng)
        psi, dpsi = reference_trajectory(specs, psi0, self.N_MAX, target)

        def close(got, expected):
            return np.abs(got - expected).max() <= self.TOL * np.abs(expected).max()

        for k, block in enumerate(op.frame_trajectory(psi0, self.N_MAX, target)):
            rows = block * op.frame_phase
            assert close(rows[:, 0], psi[:, k]), k
            assert len(rows[0]) == 1 if target is None else close(rows[:, 1], dpsi[:, k]), k

        observables = [total_magnetization(n)] + ([pair_correlation(n)] if n > 1 else [])
        probs = np.abs(psi) ** 2
        expected = np.stack([probs @ obs.diag for obs in observables], axis=1)
        records = expectation_records(op, psi0, self.N_MAX, observables, target)
        assert close(records[:, 0], expected)
        if target is None:
            assert records.shape[1] == 1
            return

        # the derivative row, 2 Re <dpsi|X|psi>, of both cells and every observable
        gradients = np.stack([2.0 * np.sum(dpsi.conj() * obs.diag * psi, axis=-1).real for obs in observables], axis=1)
        assert close(records[:, 1], gradients)

        assert close(qfi_records(op, target, psi0, self.N_MAX), reference_qfi(psi, dpsi))

        # the one-cell CFI of the last observable, from the first cell's rows
        diag = observables[-1].diag
        mean = probs[0] @ diag
        gradient = 2.0 * np.sum(dpsi[0].conj() * diag * psi[0], axis=-1).real
        cfi = gradient**2 / (probs[0] @ (diag * diag) - mean**2)
        series = cfi_series(specs[0], target, observables[-1], psi0, self.N_MAX)
        assert series.defined().all()
        assert close(series.values, cfi)


class TestDerivativeEvolution:
    def test_diagonal_closed_form(self):
        # h_x = 0 ring: d psi_n = -i 3 T2 n e^{-i 3 J T2 n} |000>
        j = 0.8
        spec = ModelSpec(n_qubits=3, h_x=0.0, couplings=j, boundary="ring")
        steps = FloquetOperator(spec).frame_trajectory(states.all_zero_state(3), 20, TARGET_J)
        for n, ((_, dchi),) in enumerate(steps):
            # the frame phase is 1 on |000>
            expected = -1.5j * n * np.exp(-1.5j * j * n)
            assert dchi[0] == pytest.approx(expected, abs=1e-12)
            assert np.abs(dchi[1:]).max() < 1e-15

    def test_free_field_derivative_norm(self):
        # J = 0: <d psi|d psi> = n^2 T1^2 N
        spec = ModelSpec.dimensionless(3, 1.9, 0.0)
        t1 = spec.protocol.t1
        steps = FloquetOperator(spec).frame_trajectory(states.all_zero_state(3), 30, TARGET_HX)
        for n, ((_, dchi),) in enumerate(steps):
            expected = 3 * (n * t1) ** 2
            assert np.vdot(dchi, dchi).real == pytest.approx(expected, abs=1e-9)

    def test_matches_finite_difference_trajectory(self, pd_spec):
        # d psi_30 against central differences of the evolved state
        delta = 1e-5
        op = FloquetOperator(pd_spec)
        *_, ((_, dchi),) = op.frame_trajectory(states.all_zero_state(3), 30, TARGET_J)
        dpsi = dchi * op.frame_phase
        up = FloquetOperator(shifted_spec(pd_spec, TARGET_J, delta))
        down = FloquetOperator(shifted_spec(pd_spec, TARGET_J, -delta))
        psi_up = states.all_zero_state(3)
        psi_down = states.all_zero_state(3)
        for _ in range(30):
            psi_up = up.apply(psi_up)
            psi_down = down.apply(psi_down)
        numeric = (psi_up - psi_down) / (2 * delta)
        assert np.linalg.norm(dpsi - numeric) / np.linalg.norm(numeric) < 1e-6

    def test_norm_derivative_orthogonality(self, rng):
        # unitarity makes Re<psi|d psi> vanish identically
        for _ in range(5):
            h, j = rng.uniform(0.3, 3.0, size=2)
            spec = ModelSpec.dimensionless(3, h, j)
            for target in (TARGET_HX, TARGET_J):
                steps = FloquetOperator(spec).frame_trajectory(states.all_zero_state(3), 60, target)
                for ((chi, dchi),) in steps:
                    assert abs(np.vdot(chi, dchi).real) < 1e-9

    def test_per_bond_couplings_rejected_for_j_target(self):
        spec = ModelSpec.dimensionless(3, 1.0, [0.4, 0.5, 0.6])
        with pytest.raises(ValueError, match="uniform"):
            FloquetOperator(spec).frame_trajectory(states.all_zero_state(3), 5, TARGET_J)


class TestQfiSeries:
    def test_pure_phase_carries_no_information(self):
        spec = ModelSpec(n_qubits=3, h_x=0.0, couplings=1.1, boundary="ring")
        series = qfi_series(spec, TARGET_J, states.all_zero_state(3), 100)
        assert np.abs(series.values).max() < 1e-9

    def test_free_field_quadratic_law(self):
        # J = 0, N = 3, T1 = 0.5: F_Q(n) = 4 N T1^2 n^2 = 3 n^2
        spec = ModelSpec.dimensionless(3, 2.6, 0.0)
        series = qfi_series(spec, TARGET_HX, states.all_zero_state(3), 100)
        n = np.arange(101)
        assert series.values[10] == pytest.approx(300.0, rel=1e-9)
        rel = np.abs(series.values[1:] - 3.0 * n[1:] ** 2) / (3.0 * n[1:] ** 2)
        assert rel.max() < 1e-9

    def test_normalized_series_is_constant_without_coupling(self):
        spec = ModelSpec.dimensionless(3, 1.3, 0.0)
        series = qfi_series(spec, TARGET_HX, states.all_zero_state(3), 100)
        n = np.arange(1, 101)
        ratios = series.values[1:] / n**2
        assert np.abs(ratios - 3.0).max() < 1e-9

    def test_pd_suppresses_field_sensitivity(self, pd_spec, non_pd_spec):
        psi0 = states.all_zero_state(3)
        pd = qfi_series(pd_spec, TARGET_HX, psi0, 200)
        npd = qfi_series(non_pd_spec, TARGET_HX, psi0, 200)
        assert np.all(npd.values[50:] > pd.values[50:])

    def test_value_is_non_negative_by_construction(self, rng):
        for _ in range(50):
            psi = rng.normal(size=4) + 1j * rng.normal(size=4)
            psi /= np.linalg.norm(psi)
            dpsi = rng.normal(size=4) + 1j * rng.normal(size=4)
            assert qfi_value(psi, dpsi) >= 0.0


class TestFiniteDifferenceOracle:
    def test_free_field_closed_form(self):
        spec = ModelSpec.dimensionless(3, 2.6, 0.0)
        estimate = qfi_finite_difference(spec, TARGET_HX, states.all_zero_state(3), 10, delta=1e-4)
        assert estimate == pytest.approx(300.0, rel=1e-3)

    def test_null_sensitivity(self):
        spec = ModelSpec(n_qubits=3, h_x=0.0, couplings=1.1, boundary="ring")
        estimate = qfi_finite_difference(spec, TARGET_J, states.all_zero_state(3), 20)
        assert abs(estimate) < 1e-4

    def test_cross_validates_exact_path(self, pd_spec):
        psi0 = states.all_zero_state(3)
        series = qfi_series(pd_spec, TARGET_J, psi0, 50)
        oracle = qfi_finite_difference(pd_spec, TARGET_J, psi0, 50, delta=1e-4)
        assert abs(series.values[50] - oracle) / oracle < 1e-3

    def test_richardson_consistency(self, pd_spec):
        # halving delta must not move the estimate at the oracle's accuracy
        psi0 = states.all_zero_state(3)
        a = qfi_finite_difference(pd_spec, TARGET_HX, psi0, 40, delta=1e-4)
        b = qfi_finite_difference(pd_spec, TARGET_HX, psi0, 40, delta=5e-5)
        assert abs(a - b) / b < 1e-3

    def test_delta_bounds(self, pd_spec):
        with pytest.raises(ValueError, match="delta"):
            qfi_finite_difference(pd_spec, TARGET_HX, states.all_zero_state(3), 5, delta=1e-2)


class TestCfiSeries:
    def test_magnetization_saturates_free_field_qfi(self):
        # J = 0: F_C with M_z equals 3 n^2 away from sin-zero times
        spec = ModelSpec.dimensionless(3, 2.6, 0.0)
        psi0 = states.all_zero_state(3)
        series = cfi_series(spec, TARGET_HX, total_magnetization(3), psi0, 100)
        n = np.arange(101)
        phase = np.sin(2 * n * spec.h_x * spec.protocol.t1)
        generic = (np.abs(phase) > 1e-3) & (n > 0) & series.defined()
        rel = np.abs(series.values[generic] - 3.0 * n[generic] ** 2) / (3.0 * n[generic] ** 2)
        assert rel.max() < 1e-8

    def test_static_correlations_are_uninformative(self):
        # h_x = 0: <C_zz> never moves with J -> 0/0 at every n
        spec = ModelSpec(n_qubits=3, h_x=0.0, couplings=1.3, boundary="ring")
        series = cfi_series(spec, TARGET_J, pair_correlation(3), states.all_zero_state(3), 50)
        assert np.all(series.flags == FLAG_UNDEFINED)
        assert np.all(np.isnan(series.values))

    def test_reference_point_orderings(self, pd_spec, non_pd_spec):
        psi0 = states.all_zero_state(3)
        mz = total_magnetization(3)
        czz = pair_correlation(3)
        pd_hx = cfi_series(pd_spec, TARGET_HX, mz, psi0, 200)
        npd_hx = cfi_series(non_pd_spec, TARGET_HX, mz, psi0, 200)
        assert npd_hx.values[npd_hx.defined()][20:].mean() > pd_hx.values[pd_hx.defined()][20:].mean()
        pd_j = cfi_series(pd_spec, TARGET_J, czz, psi0, 200)
        npd_j = cfi_series(
            ModelSpec.dimensionless(3, 0.1, 1.57), TARGET_J, czz, psi0, 200
        )
        assert pd_j.values[pd_j.defined()][20:].mean() > npd_j.values[npd_j.defined()][20:].mean()

    def test_finite_difference_mode_agrees(self, pd_spec):
        psi0 = states.all_zero_state(3)
        mz = total_magnetization(3)
        exact = cfi_series(pd_spec, TARGET_HX, mz, psi0, 40)
        numeric = cfi_finite_difference(pd_spec, TARGET_HX, mz, psi0, 40)
        both = exact.defined() & np.isfinite(numeric) & (exact.values > 1e-3)
        rel = np.abs(exact.values[both] - numeric[both]) / exact.values[both]
        assert rel.max() < 1e-4

    def test_cramer_rao_ordering(self, rng):
        # CFI <= QFI at every defined point, both targets, both observables
        psi0 = states.all_zero_state(3)
        observables = [total_magnetization(3), pair_correlation(3)]
        for _ in range(10):
            h, j = rng.uniform(0.2, 3.0, size=2)
            spec = ModelSpec.dimensionless(3, h, j)
            for target in (TARGET_HX, TARGET_J):
                qfi = qfi_series(spec, target, psi0, 100)
                for obs in observables:
                    cfi = cfi_series(spec, target, obs, psi0, 100)
                    mask = cfi.defined()
                    bound = qfi.values[mask] + 1e-6 * (1.0 + qfi.values[mask])
                    assert np.all(cfi.values[mask] <= bound)


class TestCurvatureFit:
    def make_series(self, values):
        values = np.asarray(values, dtype=float)
        return FisherSeries(
            kind="qfi", target=TARGET_HX, times=np.arange(len(values)),
            values=values, period=1.0,
        )

    def test_exact_on_quadratic(self):
        n = np.arange(101)
        fit = curvature_fit(self.make_series(n**2))
        assert fit.a == pytest.approx(2.0, abs=1e-9)
        assert fit.b == pytest.approx(0.0, abs=1e-9)
        assert fit.c == pytest.approx(0.0, abs=1e-7)
        assert fit.rms_residual < 1e-9

    def test_exact_on_linear(self):
        n = np.arange(60)
        fit = curvature_fit(self.make_series(5.0 * n))
        assert fit.a == pytest.approx(0.0, abs=1e-9)
        assert fit.b == pytest.approx(5.0, abs=1e-9)

    def test_window_covers_tail(self):
        fit = curvature_fit(self.make_series(np.arange(100)), window_fraction=0.5)
        assert fit.window == (50, 99)

    def test_skips_undefined_points(self):
        n = np.arange(101).astype(float)
        series = self.make_series(n**2)
        series.flags[::7] = FLAG_UNDEFINED
        series.values[::7] = np.nan
        fit = curvature_fit(series)
        assert fit.a == pytest.approx(2.0, abs=1e-9)

    def test_insufficient_points(self):
        with pytest.raises(ValueError, match="at least 8"):
            curvature_fit(self.make_series(np.arange(10.0)), window_fraction=0.5)

    def test_reference_point_values(self, pd_spec, non_pd_spec):
        # the field-estimation curvature contrast between the reference
        # points (regression values from this implementation)
        psi0 = states.all_zero_state(3)
        a_pd = curvature_fit(qfi_series(pd_spec, TARGET_HX, psi0, 200)).a
        a_npd = curvature_fit(qfi_series(non_pd_spec, TARGET_HX, psi0, 200)).a
        assert a_pd == pytest.approx(0.4258, abs=1e-3)
        assert a_npd == pytest.approx(5.8404, abs=1e-3)
