import numpy as np
import pytest

from floquet_ising import states
from floquet_ising.dynamics import DiagonalObservable, expectation_records
from floquet_ising.model import FloquetOperator, ModelSpec

from conftest import random_state


class TestAllZeroState:
    def test_three_qubits(self):
        psi = states.all_zero_state(3)
        assert psi[0] == 1.0
        assert np.all(psi[1:] == 0.0)

    def test_single_qubit(self):
        assert np.array_equal(states.all_zero_state(1), [1.0, 0.0])

    def test_seven_qubits(self):
        psi = states.all_zero_state(7)
        assert len(psi) == 128
        assert np.linalg.norm(psi) == 1.0

    @pytest.mark.parametrize("n", [0, -1, 13])
    def test_out_of_range(self, n):
        with pytest.raises(ValueError):
            states.all_zero_state(n)


class TestBasisConvention:
    def test_qubit_one_is_most_significant_bit(self):
        # |100> has qubit 1 flipped: index 4 for N=3
        assert np.array_equal(states.z_values(3, 1), [1, 1, 1, 1, -1, -1, -1, -1])
        assert np.array_equal(states.z_values(3, 3), [1, -1, 1, -1, 1, -1, 1, -1])
        for qubit in (0, 4):
            with pytest.raises(ValueError, match="out of range"):
                states.z_values(3, qubit)

    def test_z_values_roundtrip(self):
        # sign pattern of qubit 2 for N=3 follows bit 1 of the index
        z = states.z_values(3, 2)
        expected = [1.0 - 2.0 * ((s >> 1) & 1) for s in range(8)]
        assert np.array_equal(z, expected)

    def test_popcounts(self):
        assert np.array_equal(states.popcounts(2), [0, 1, 1, 2])


class TestExpectation:
    """<psi|O|psi> of a diagonal observable, as expectation_records takes it at n = 0."""

    def expectation(self, psi, diag):
        n_qubits = len(diag).bit_length() - 1
        op = FloquetOperator(ModelSpec.dimensionless(n_qubits, 1.0, 0.0, boundary="chain"))
        return expectation_records(op, psi, 1, [DiagonalObservable("x", diag)])[0, 0, 0, 0]

    def mz_diag(self, n):
        return (n - 2 * states.popcounts(n)).astype(float)

    def test_polarized(self):
        assert self.expectation(states.all_zero_state(3), self.mz_diag(3)) == 3.0

    def test_anti_polarized(self):
        psi = np.zeros(8, dtype=complex)
        psi[7] = 1.0
        assert self.expectation(psi, self.mz_diag(3)) == -3.0

    def test_uniform_superposition(self):
        psi = np.full(8, 1 / np.sqrt(8), dtype=complex)
        assert self.expectation(psi, self.mz_diag(3)) == pytest.approx(0.0, abs=1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            self.expectation(states.all_zero_state(2), self.mz_diag(3))

    def test_matches_dense_matrix_oracle(self, rng):
        # <psi|O|psi> against an explicit matrix-vector product
        for n in range(1, 5):
            diag = rng.normal(size=1 << n)
            dense = np.diag(diag)
            for _ in range(25):
                psi = random_state(n, rng)
                direct = self.expectation(psi, diag)
                oracle = np.vdot(psi, dense @ psi).real
                assert direct == pytest.approx(oracle, abs=1e-12)


def test_norm_preserved_by_unitary_operations(rng):
    spec = ModelSpec.dimensionless(4, 1.9, 0.7, boundary="chain")
    op = FloquetOperator(spec)
    psi = random_state(4, rng)
    for _ in range(50):
        psi = op.apply(psi)
    assert abs(np.linalg.norm(psi) - 1.0) < 1e-10
