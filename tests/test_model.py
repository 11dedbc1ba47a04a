import numpy as np
import pytest
from scipy.linalg import expm

from floquet_ising import states
from floquet_ising.model import (
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

from conftest import (
    apply_with_derivative,
    dense,
    dense_by_kronecker,
    hadamard_matrix,
    random_state,
    shifted_spec,
    walsh_hadamard_period,
)

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SZ = np.diag([1.0, -1.0]).astype(complex)


def site_operator(op, i, n):
    mats = [np.eye(2, dtype=complex)] * n
    mats[i - 1] = op  # qubit 1 = leftmost Kronecker factor
    out = mats[0]
    for m in mats[1:]:
        out = np.kron(out, m)
    return out


def dense_hamiltonians(spec: ModelSpec):
    n = spec.n_qubits
    hx = spec.h_x * sum(site_operator(SX, i, n) for i in range(1, n + 1))
    hz = np.zeros((1 << n, 1 << n), dtype=complex)
    for (i, j), j_b in zip(spec.bonds(), spec.bond_values()):
        hz += j_b * site_operator(SZ, i, n) @ site_operator(SZ, j, n)
    return hx, hz


def dense_oracle(spec: ModelSpec) -> np.ndarray:
    """Independent propagator from explicit matrix exponentials."""
    hx, hz = dense_hamiltonians(spec)
    u_field = expm(-1j * hx * spec.protocol.t1)
    u_ising = expm(-1j * hz * spec.protocol.t2)
    if spec.protocol.step_order == FIELD_THEN_ISING:
        return u_ising @ u_field
    return u_field @ u_ising


class TestSpecValidation:
    def test_default_boundaries(self):
        assert default_boundary(3) == RING
        assert default_boundary(4) == CHAIN
        assert default_boundary(2) == CHAIN

    def test_ring_bonds_close_the_loop(self):
        spec = ModelSpec.dimensionless(3, 1.0, 1.0)
        assert spec.bonds() == [(1, 2), (2, 3), (3, 1)]

    def test_chain_bonds(self):
        spec = ModelSpec.dimensionless(4, 1.0, 1.0)
        assert spec.bonds() == [(1, 2), (2, 3), (3, 4)]

    def test_per_bond_ring_needs_n_values(self):
        ModelSpec.dimensionless(3, 1.0, [0.5, 0.6, 0.7])
        with pytest.raises(ValueError, match="3 bonds"):
            ModelSpec.dimensionless(3, 1.0, [0.5, 0.6])

    def test_per_bond_chain_needs_n_minus_one(self):
        ModelSpec.dimensionless(4, 1.0, [0.5, 0.6, 0.7], boundary=CHAIN)
        with pytest.raises(ValueError, match="3 bonds"):
            ModelSpec.dimensionless(4, 1.0, [0.5, 0.6], boundary=CHAIN)

    def test_ring_needs_three_qubits(self):
        with pytest.raises(ValueError, match="at least 3"):
            ModelSpec.dimensionless(2, 1.0, 1.0, boundary=RING)

    def test_single_qubit_interaction_rejected(self):
        with pytest.raises(ValueError, match="at least 2"):
            ModelSpec.dimensionless(1, 1.0, 0.5, boundary=CHAIN)
        ModelSpec.dimensionless(1, 1.0, 0.0, boundary=CHAIN)  # field-only is fine

    def test_protocol_timing(self):
        protocol = DriveProtocol(period=2.0, t1=0.5)
        assert protocol.t2 == 1.5
        with pytest.raises(ValueError):
            DriveProtocol(period=1.0, t1=1.0)
        with pytest.raises(ValueError):
            DriveProtocol(step_order="bogus")

    @pytest.mark.parametrize("value", [np.int64(1), np.float32(0.5), np.array(0.5)])
    def test_numpy_scalar_coupling_is_uniform(self, value):
        # a 0-d numpy value is one coupling for every bond, like its Python float
        for build in (lambda j: ModelSpec(3, 1.0, j, RING), lambda j: ModelSpec.dimensionless(3, 1.0, j)):
            spec = build(value)
            assert spec == build(float(value)) and type(spec.couplings) is float

    @pytest.mark.parametrize("value", [np.int64(1), np.float32(0.5), np.array(0.5)])
    def test_numpy_scalar_field_is_a_float(self, value):
        # a 0-d numpy h_x is stored as its Python float, so the spec stays hashable
        spec = ModelSpec(3, value, 1.0, RING)
        assert spec == ModelSpec(3, float(value), 1.0, RING) and type(spec.h_x) is float
        assert hash(spec) == hash(ModelSpec(3, float(value), 1.0, RING))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_field_and_couplings_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            ModelSpec(n_qubits=3, h_x=bad, couplings=1.0, boundary=RING)
        with pytest.raises(ValueError, match="finite"):
            ModelSpec(n_qubits=3, h_x=1.0, couplings=bad, boundary=RING)
        with pytest.raises(ValueError, match="finite"):
            ModelSpec.dimensionless(4, 1.0, [0.5, bad, 0.7], boundary=CHAIN)

    def test_non_finite_protocol_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            DriveProtocol(period=np.inf, t1=1.0)
        with pytest.raises(ValueError, match="finite"):
            DriveProtocol(period=np.nan, t1=0.5)
        with pytest.raises(ValueError, match="finite"):
            DriveProtocol(period=1.0, t1=np.nan)


class TestBlockOperator:
    """A multi-spec operator evolves each cell as its own single-spec operator would."""

    @pytest.mark.parametrize("order", [FIELD_THEN_ISING, ISING_THEN_FIELD])
    @pytest.mark.parametrize("n, boundary", [(3, RING), (4, CHAIN), (5, RING)])
    def test_rows_match_single_spec_operators(self, rng, n, boundary, order):
        bonds = n if boundary == RING else n - 1
        specs = [
            ModelSpec.dimensionless(n, 0.3, 1.1, boundary=boundary, step_order=order),
            ModelSpec.dimensionless(n, 2.6, rng.uniform(0, 3, bonds), boundary=boundary, step_order=order),
            ModelSpec.dimensionless(n, 0.0, 0.0, boundary=boundary, step_order=order),
            ModelSpec.dimensionless(n, 1.9, rng.uniform(0, 3, bonds), boundary=boundary, step_order=order),
        ]
        block = FloquetOperator(specs)
        psi = np.array([random_state(n, rng) for _ in specs])
        dpsi = np.array([random_state(n, rng) for _ in specs])
        evolved = block.apply(psi)
        moved, derivative = apply_with_derivative(block, TARGET_HX, psi, dpsi)
        for c, spec in enumerate(specs):
            single = FloquetOperator(spec)
            assert np.abs(evolved[c] - single.apply(psi[c])).max() <= 1e-15
            one_psi, one_dpsi = apply_with_derivative(single, TARGET_HX, psi[c], dpsi[c])
            assert np.abs(moved[c] - one_psi).max() <= 1e-15
            assert np.abs(derivative[c] - one_dpsi).max() <= 1e-15

    def test_coupling_derivative_rows(self, rng):
        specs = [ModelSpec.dimensionless(4, h, j) for h, j in ((0.4, 2.0), (2.6, 1.57), (1.0, 0.0))]
        psi = np.array([random_state(4, rng) for _ in specs])
        dpsi = np.array([random_state(4, rng) for _ in specs])
        moved, derivative = apply_with_derivative(FloquetOperator(specs), TARGET_J, psi, dpsi)
        for c, spec in enumerate(specs):
            one_psi, one_dpsi = apply_with_derivative(FloquetOperator(spec), TARGET_J, psi[c], dpsi[c])
            assert np.abs(moved[c] - one_psi).max() <= 1e-15
            assert np.abs(derivative[c] - one_dpsi).max() <= 1e-15

    def test_factors_match_one_cell_operators(self, rng):
        # a cell's stored factors and phase do not depend on the block around it
        for n in (1, 2, 5, 7, 12):
            specs = [ModelSpec.dimensionless(n, h, j if n > 1 else 0.0) for h, j in rng.uniform(0, np.pi, (5, 2))]
            block = FloquetOperator(specs)
            for c, spec in enumerate(specs):
                single = FloquetOperator(spec)
                for i, (ours, theirs) in enumerate(zip(block._factors, single._factors, strict=True)):
                    assert np.array_equal(ours[c], theirs[0]), (n, c, i)
                assert np.array_equal(block._ising_phases[c], single._ising_phases[0]), (n, c)

    def test_mixed_blocks_rejected(self):
        base = ModelSpec.dimensionless(4, 1.0, 1.0)
        with pytest.raises(ValueError, match="share"):
            FloquetOperator([base, ModelSpec.dimensionless(5, 1.0, 1.0)])
        with pytest.raises(ValueError, match="share"):
            FloquetOperator([base, ModelSpec.dimensionless(4, 1.0, 1.0, step_order=ISING_THEN_FIELD)])
        with pytest.raises(ValueError, match="share"):
            FloquetOperator([base, ModelSpec.dimensionless(4, 1.0, 1.0, period=2.0)])
        with pytest.raises(ValueError, match="share"):
            FloquetOperator([base, ModelSpec.dimensionless(4, 1.0, 1.0, boundary=RING)])
        with pytest.raises(ValueError, match="at least one"):
            FloquetOperator([])

    def test_block_has_no_single_spec(self, rng):
        block = FloquetOperator([ModelSpec.dimensionless(3, 1.0, 1.0)] * 2)
        for read in (lambda: block.ising_phase, lambda: dense(block)):
            with pytest.raises(ValueError, match="2 cells"):
                read()
        with pytest.raises(ValueError, match="dimension mismatch"):
            block.apply(random_state(3, rng))


class TestApplyFloquet:
    def test_diagonal_action_on_aligned_state(self):
        # h_x = 0: U_F reduces to Ising phases; H_z|000> = 3J|000> on the ring
        j = 0.8
        spec = ModelSpec(n_qubits=3, h_x=0.0, couplings=j, boundary=RING)
        out = FloquetOperator(spec).apply(states.all_zero_state(3))
        assert out[0] == pytest.approx(np.exp(-1.5j * j), abs=1e-15)
        assert np.all(out[1:] == 0.0)

    def test_single_qubit_pi_rotation(self):
        # J = 0, h_x T1 = pi/2: exact X rotation sending |0> to -i|1>
        spec = ModelSpec.dimensionless(1, np.pi, 0.0, boundary=CHAIN)
        out = FloquetOperator(spec).apply(states.all_zero_state(1))
        assert out[0] == pytest.approx(0.0, abs=1e-15)
        assert out[1] == pytest.approx(-1j, abs=1e-15)

    def test_matches_dense_exponential_oracle(self, pd_spec):
        op = FloquetOperator(pd_spec)
        oracle = dense_oracle(pd_spec)
        psi = states.all_zero_state(3)
        assert np.abs(op.apply(psi) - oracle @ psi).max() < 1e-12

    def test_oracle_agreement_generic_states(self, rng):
        for _ in range(5):
            h, j = rng.uniform(0, np.pi, size=2)
            spec = ModelSpec.dimensionless(4, h, j)
            op = FloquetOperator(spec)
            oracle = dense_oracle(spec)
            psi = random_state(4, rng)
            assert np.abs(op.apply(psi) - oracle @ psi).max() < 1e-12

    def test_dimension_mismatch(self, pd_spec):
        with pytest.raises(ValueError, match="dimension mismatch"):
            FloquetOperator(pd_spec).apply(states.all_zero_state(2))

    def test_unitarity_random_parameters(self, rng):
        for _ in range(50):
            h, j = rng.uniform(0, np.pi, size=2)
            op = FloquetOperator(ModelSpec.dimensionless(3, h, j))
            psi = random_state(3, rng)
            assert abs(np.linalg.norm(op.apply(psi)) - 1.0) < 1e-12

    def test_commuting_step_identity_at_zero_coupling(self):
        # J = 0 keeps a product state a product state; the single-qubit
        # marginal follows cos(2 n h_x T1) exactly
        spec = ModelSpec.dimensionless(3, 1.3, 0.0)
        op = FloquetOperator(spec)
        psi = states.all_zero_state(3)
        z1 = states.z_values(3, 1)
        for n in range(1, 120):
            psi = op.apply(psi)
            expected = np.cos(2 * n * spec.h_x * spec.protocol.t1)
            assert np.abs(psi) ** 2 @ z1 == pytest.approx(expected, abs=1e-10)


class TestDenseUnitary:
    def test_identity_at_zero_parameters(self):
        spec = ModelSpec(n_qubits=2, h_x=0.0, couplings=0.0, boundary=CHAIN)
        assert np.abs(dense(FloquetOperator(spec)) - np.eye(4)).max() == 0.0

    def test_single_qubit_closed_form(self):
        spec = ModelSpec.dimensionless(1, np.pi / 2, 0.0, boundary=CHAIN)  # h_x T1 = pi/4
        angle = np.pi / 4
        expected = np.array(
            [[np.cos(angle), -1j * np.sin(angle)], [-1j * np.sin(angle), np.cos(angle)]]
        )
        assert np.abs(dense(FloquetOperator(spec)) - expected).max() < 1e-15

    def test_unitary_at_pd_point(self, pd_spec):
        u = dense(FloquetOperator(pd_spec))
        assert np.abs(u.conj().T @ u - np.eye(8)).max() < 1e-12

    def test_step_order_exchanges_exponential_factors(self, rng):
        h, j = 1.1, 0.6
        for order in (FIELD_THEN_ISING, ISING_THEN_FIELD):
            spec = ModelSpec.dimensionless(2, h, j, step_order=order)
            assert np.abs(dense(FloquetOperator(spec)) - dense_oracle(spec)).max() < 1e-13

    @pytest.mark.parametrize("order", [FIELD_THEN_ISING, ISING_THEN_FIELD])
    @pytest.mark.parametrize("n", range(1, 9))
    def test_kronecker_form_matches_column_construction(self, rng, n, order):
        # dense, one period on every basis state, against the closed-form
        # Kronecker product
        for boundary in [CHAIN] + ([RING] if n >= 3 else []):
            n_bonds = len(ModelSpec.dimensionless(n, 0.0, 0.0, boundary=boundary).bonds())
            uniform = 0.0 if n == 1 else rng.uniform(0, np.pi)
            for j in (uniform, rng.uniform(0, np.pi, size=n_bonds)):
                spec = ModelSpec.dimensionless(
                    n, rng.uniform(0, np.pi), j, boundary=boundary, step_order=order
                )
                op = FloquetOperator(spec)
                assert np.abs(dense(op) - dense_by_kronecker(op)).max() <= 1e-15


def real_factors(op: FloquetOperator) -> list[tuple[np.ndarray, np.ndarray]]:
    """(field factor, generator factor) pairs of an operator, top qubits first, the last one untransposed and real."""
    factors = [*op._factors[:-1], op._factors[-1].transpose(0, 2, 1).real]
    generators = [*op._generators[:-1], op._generators[-1].T.real]
    return list(zip(factors, generators))


class TestFactoredPeriod:
    """The factored period in the frame (Kronecker field factors on each row's
    grid) against the Walsh-Hadamard period kept in conftest as an oracle,
    taken into the frame by the exact phases (-i)^popcount."""

    # agreement within TOL relative to the largest entry of the oracle's
    # block; the two periods round differently, at about 1e-15
    TOL = 1e-13

    @pytest.mark.parametrize("order", [FIELD_THEN_ISING, ISING_THEN_FIELD])
    @pytest.mark.parametrize("n", range(1, 13))
    def test_matches_walsh_hadamard_period(self, rng, n, order):
        for boundary in [CHAIN] + ([RING] if n >= 3 else []):
            n_bonds = len(ModelSpec.dimensionless(n, 0.0, 0.0, boundary=boundary).bonds())
            for per_bond in (False, True):
                if per_bond and n_bonds == 0:
                    continue
                def couplings():
                    if per_bond:
                        return rng.uniform(0, np.pi, size=n_bonds)
                    return rng.uniform(0, np.pi) if n > 1 else 0.0

                specs = [
                    ModelSpec.dimensionless(
                        n, rng.uniform(0, np.pi), couplings(), boundary=boundary, step_order=order
                    )
                    for _ in range(2)
                ]
                op = FloquetOperator(specs)
                block = rng.normal(size=(2, 2, op.dim)) + 1j * rng.normal(size=(2, 2, op.dim))
                targets = [None, TARGET_HX] + ([] if per_bond else [TARGET_J])
                for target in targets:
                    rows = block if target else block[:, :1]
                    expected = walsh_hadamard_period(op, rows * op.frame_phase, target) * op.frame_phase.conj()
                    error = np.abs(op._frame_period(rows, target) - expected).max()
                    assert error <= self.TOL * np.abs(expected).max(), (boundary, per_bond, target, error)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_factor_rule(self, n):
        # max(2, ceil(N/4)) factors of at most 4 qubits, balanced and smaller
        # first; N <= 8 keeps the split into N//2 and N - N//2 qubits
        op = FloquetOperator(ModelSpec.dimensionless(n, 1.0, 0.0))
        sizes = [factor.shape[-1].bit_length() - 1 for factor in op._factors]
        assert len(sizes) == max(2, -(-n // 4)) and sum(sizes) == n, sizes
        assert max(sizes) <= 4 and sizes == sorted(sizes) and sizes[-1] - sizes[0] <= 1, sizes
        if n <= 8:
            assert sizes == [n // 2, n - n // 2]
        assert [len(generator) for generator in op._generators] == [1 << k for k in sizes]

    @pytest.mark.parametrize("n", [9, 10, 12])
    def test_long_run_norm_drift_with_three_factors(self, n):
        # the state row of 2000 h_x-derivative periods keeps its norm within
        # 1e-12 of 1; about 7e-14 is seen at N = 9 to 12
        points = (0.4, 2.0), (2.6, 1.57), (1.9, 0.3), (np.pi / 2, np.pi / 4)
        specs = [ModelSpec.dimensionless(n, h, j) for h, j in points]
        blocks = FloquetOperator(specs).frame_trajectory(states.all_zero_state(n), 2000, TARGET_HX)
        drift = max(np.abs(np.linalg.norm(block[:, 0], axis=-1) - 1).max() for block in blocks)
        assert drift <= 1e-12, (n, drift)

    def test_field_factors_stay_unitary(self, rng):
        # the eigenvalues of the factors' Kronecker product, the field step in
        # the Hadamard basis, lie within 2e-16 of the unit circle; rounding
        # each entry to the nearest double instead leaves up to 6e-16 at
        # N = 12, and a state's norm accumulates that error every period
        for n in range(1, 13):
            op = FloquetOperator([ModelSpec.dimensionless(n, h, 0.0) for h in rng.uniform(0, 2 * np.pi, 20)])
            error = np.zeros((20, 1))
            for real_factor, _ in real_factors(op):
                # the stored real factor taken back out of the frame, exactly:
                # the frame phase of a factor's index j is (-i)^popcount(j)
                phase = op.frame_phase[: real_factor.shape[-1]].astype(np.clongdouble)
                factor = phase[:, np.newaxis] * real_factor.astype(np.longdouble) * phase.conj()
                w = hadamard_matrix(factor.shape[-1].bit_length() - 1).astype(np.longdouble)
                eigenvalues = np.einsum("ij,cjk,ki->ci", w, factor, w) / len(w)
                # the product's moduli miss 1 by the sum of the factors' misses
                error = (error[:, :, np.newaxis] + (np.abs(eigenvalues) - 1)[:, np.newaxis]).reshape(20, -1)
            assert np.abs(error).max() <= 2e-16, (n, np.abs(error).max())

    @pytest.mark.parametrize("n", range(1, 13))
    def test_factors_are_sign_times_class_value(self, rng, n):
        # entry (a, b) of a factor on k qubits is sign * m_d, with
        # d = popcount(a ^ b), sign = (-1)^popcount(b & ~a) and m_d within an
        # ulp or so of cos(h_x T1)^(k - d) sin(h_x T1)^d; at the first two
        # h_x T values, entries of one class that are each built and rounded
        # apart, in their own product order, round to different doubles
        # (N = 7 to 11)
        hx_t = np.concatenate(([0.3681567234411559, 5.514269118166694], rng.uniform(0, 2 * np.pi, 40)))
        op = FloquetOperator([ModelSpec.dimensionless(n, h, 0.0) for h in hx_t])
        t1 = op.specs[0].protocol.t1
        angle = np.array([spec.h_x for spec in op.specs], dtype=np.longdouble)[:, np.newaxis] * t1
        for factor, generator in real_factors(op):
            size = factor.shape[-1]
            k = size.bit_length() - 1
            counts = np.array([bin(i).count("1") for i in range(size)])
            a, b = np.arange(size)[:, np.newaxis], np.arange(size)
            distance, sign = counts[a ^ b], (-1.0) ** counts[b & ~a]
            weights = np.arange(k + 1)
            classes = factor[:, 0, (1 << weights) - 1] * (-1.0) ** weights
            assert np.array_equal(factor, sign * classes[:, distance]), n
            closed = (np.cos(angle) ** (k - weights) * np.sin(angle) ** weights).astype(float)
            assert (np.abs(classes - closed) <= 2 * np.spacing(np.abs(closed))).all(), n
            assert np.array_equal(generator, t1 * sign * (distance == 1)), n


def derivative(op: FloquetOperator, target: str, psi: np.ndarray) -> np.ndarray:
    """(dU_F / d theta)|psi>, the derivative row of a stacked pass with dpsi = 0."""
    return apply_with_derivative(op, target, psi, np.zeros_like(psi))[1]


class TestDerivative:
    @pytest.mark.parametrize("order", [FIELD_THEN_ISING, ISING_THEN_FIELD])
    @pytest.mark.parametrize("target", [TARGET_HX, TARGET_J])
    def test_stacked_pass_is_apply_plus_product_rule(self, rng, order, target):
        # (psi, dpsi) -> (U psi, U dpsi + dU psi)
        op = FloquetOperator(ModelSpec.dimensionless(4, 1.3, 0.7, step_order=order))
        psi, dpsi = random_state(4, rng), random_state(4, rng)
        new_psi, new_dpsi = apply_with_derivative(op, target, psi, dpsi)
        assert np.abs(new_psi - op.apply(psi)).max() <= 1e-15
        assert np.abs(new_dpsi - op.apply(dpsi) - derivative(op, target, psi)).max() <= 1e-15

    def test_target_and_dimension_validation(self, pd_spec):
        # the evolution loop checks its arguments when called, before any period
        op = FloquetOperator(pd_spec)
        psi = states.all_zero_state(3)
        with pytest.raises(ValueError, match="target"):
            op.frame_trajectory(psi, 1, "bogus")
        with pytest.raises(ValueError, match="dimension mismatch"):
            op.frame_trajectory(states.all_zero_state(2), 1, TARGET_HX)

    def test_diagonal_closed_form_for_coupling(self):
        # h_x = 0, ring: (dU/dJ)|000> = -i 3 T2 e^{-i 3 J T2}|000>
        j = 0.9
        spec = ModelSpec(n_qubits=3, h_x=0.0, couplings=j, boundary=RING)
        op = FloquetOperator(spec)
        out = derivative(op, TARGET_J, states.all_zero_state(3))
        expected = -1.5j * np.exp(-1.5j * j)
        assert out[0] == pytest.approx(expected, abs=1e-15)

    def test_single_qubit_field_closed_form(self):
        spec = ModelSpec.dimensionless(1, 1.7, 0.0, boundary=CHAIN)
        op = FloquetOperator(spec)
        out = derivative(op, TARGET_HX, states.all_zero_state(1))
        theta = spec.h_x * spec.protocol.t1
        expected = -1j * spec.protocol.t1 * (SX @ expm(-1j * theta * SX))[:, 0]
        assert np.abs(out - expected).max() < 1e-15

    def test_j_target_requires_uniform_couplings(self):
        spec = ModelSpec.dimensionless(3, 1.0, [0.4, 0.5, 0.6])
        op = FloquetOperator(spec)
        with pytest.raises(ValueError, match="uniform"):
            derivative(op, TARGET_J, states.all_zero_state(3))
        derivative(op, TARGET_HX, states.all_zero_state(3))  # field target still fine

    @pytest.mark.parametrize("target", [TARGET_HX, TARGET_J])
    def test_matches_finite_difference_at_pd_point(self, pd_spec, target):
        op = FloquetOperator(pd_spec)
        psi = states.all_zero_state(3)
        delta = 1e-6
        exact = derivative(op, target, psi)
        up = FloquetOperator(shifted_spec(pd_spec, target, delta))
        down = FloquetOperator(shifted_spec(pd_spec, target, -delta))
        numeric = (up.apply(psi) - down.apply(psi)) / (2 * delta)
        assert np.linalg.norm(exact - numeric) / np.linalg.norm(exact) < 1e-6

    @pytest.mark.parametrize("order", [FIELD_THEN_ISING, ISING_THEN_FIELD])
    @pytest.mark.parametrize("target", [TARGET_HX, TARGET_J])
    def test_matches_finite_difference_random_points(self, rng, order, target):
        # relative error <= 10*delta across parameter space, both step orders
        delta = 1e-5
        for _ in range(5):
            h, j = rng.uniform(0.2, np.pi, size=2)
            spec = ModelSpec.dimensionless(3, h, j, step_order=order)
            op = FloquetOperator(spec)
            psi = random_state(3, rng)
            exact = derivative(op, target, psi)
            up = FloquetOperator(shifted_spec(spec, target, delta))
            down = FloquetOperator(shifted_spec(spec, target, -delta))
            numeric = (up.apply(psi) - down.apply(psi)) / (2 * delta)
            assert np.linalg.norm(exact - numeric) <= 10 * delta * max(np.linalg.norm(exact), 1.0)
