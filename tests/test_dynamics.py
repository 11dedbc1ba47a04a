import numpy as np
import pytest

from floquet_ising import states
from floquet_ising.dynamics import (
    pair_correlation,
    pair_correlation_series,
    stroboscopic_trajectory,
    total_magnetization,
)
from floquet_ising.model import CHAIN, ModelSpec

from test_model import dense_oracle


class TestObservables:
    def test_magnetization_diagonal(self):
        diag = total_magnetization(3).diag
        assert np.array_equal(diag, [3, 1, 1, -1, 1, -1, -1, -3])

    def test_pair_correlation_uses_chain_pairs(self):
        # the pairs for N=3 are (1,2) and (2,3); |000> gives 2
        diag = pair_correlation(3).diag
        assert diag[0] == 2.0
        assert diag[0b101] == -2.0  # both pairs anti-aligned
        assert diag[0b100] == 0.0


class TestTrajectory:
    def test_exact_alternation_at_pi_pi(self):
        # h_x T1 = pi/2 makes the field step a perfect global spin flip
        spec = ModelSpec.dimensionless(3, np.pi, np.pi)
        series = stroboscopic_trajectory(
            spec, states.all_zero_state(3), 100, [total_magnetization(3)]
        )[0]
        expected = 3.0 * (-1.0) ** np.arange(101)
        assert np.abs(series.values - expected).max() < 1e-10

    def test_free_qubit_cosine_law(self):
        spec = ModelSpec.dimensionless(3, 2.3, 0.0)
        series = stroboscopic_trajectory(
            spec, states.all_zero_state(3), 150, [total_magnetization(3)]
        )[0]
        n = np.arange(151)
        expected = 3.0 * np.cos(2 * n * spec.h_x * spec.protocol.t1)
        assert np.abs(series.values - expected).max() < 1e-10

    def test_pd_point_alternates_after_transient(self, pd_spec):
        series = stroboscopic_trajectory(
            pd_spec, states.all_zero_state(3), 562, [total_magnetization(3)]
        )[0]
        tail = series.values[50:]
        signal = tail - tail.mean()
        flips = np.sign(signal[1:]) != np.sign(signal[:-1])
        assert flips.mean() > 0.9

    def test_operator_norm_bound(self, rng, pd_spec):
        series = stroboscopic_trajectory(
            pd_spec, states.all_zero_state(3), 300,
            [total_magnetization(3), pair_correlation(3)],
        )
        assert np.abs(series[0].values).max() <= 3.0 + 1e-12
        assert np.abs(series[1].values).max() <= 2.0 + 1e-12

    def test_matches_dense_matrix_powers(self, rng):
        # fast path vs explicit matrix-power evolution for N <= 4
        for n_qubits in (2, 3, 4):
            h, j = rng.uniform(0.3, 2.8, size=2)
            spec = ModelSpec.dimensionless(n_qubits, h, j, boundary=CHAIN)
            obs = total_magnetization(n_qubits)
            series = stroboscopic_trajectory(
                spec, states.all_zero_state(n_qubits), 200, [obs]
            )[0]
            u = dense_oracle(spec)
            psi = states.all_zero_state(n_qubits)
            expected = []
            for _ in range(201):
                expected.append(np.vdot(psi, obs.diag * psi).real)
                psi = u @ psi
            assert np.abs(series.values - expected).max() < 1e-9

    def test_static_observables_without_field(self):
        spec = ModelSpec(n_qubits=3, h_x=0.0, couplings=1.2, boundary="ring")
        series = stroboscopic_trajectory(
            spec, states.all_zero_state(3), 50,
            [total_magnetization(3), pair_correlation(3)],
        )
        for s in series:
            assert np.abs(s.values - s.values[0]).max() < 1e-12

    def test_n_max_validation(self, pd_spec):
        with pytest.raises(ValueError, match="n_max"):
            stroboscopic_trajectory(pd_spec, states.all_zero_state(3), 0, [total_magnetization(3)])


class TestPairCorrelationSeries:
    def test_initial_value(self, pd_spec):
        series = pair_correlation_series(pd_spec, states.all_zero_state(3), 10)
        assert series.values[0] == 2.0

    def test_constant_under_diagonal_evolution(self):
        spec = ModelSpec(n_qubits=3, h_x=0.0, couplings=0.7, boundary="ring")
        series = pair_correlation_series(spec, states.all_zero_state(3), 40)
        assert np.abs(series.values - 2.0).max() < 1e-12

    def test_matches_dense_oracle_at_pd_point(self, pd_spec):
        series = pair_correlation_series(pd_spec, states.all_zero_state(3), 100)
        u = dense_oracle(pd_spec)
        diag = pair_correlation(3).diag
        psi = states.all_zero_state(3)
        expected = []
        for _ in range(101):
            expected.append(np.vdot(psi, diag * psi).real)
            psi = u @ psi
        assert np.abs(series.values - expected).max() < 1e-10
