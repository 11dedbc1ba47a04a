import itertools

import numpy as np
import pytest

from floquet_ising import states
from floquet_ising.errors import NumericalError
from floquet_ising.model import CHAIN, ISING_THEN_FIELD, RING, STEP_ORDERS, FloquetOperator, ModelSpec
from floquet_ising.quasienergy import (
    QuasienergyAnalysis,
    _sector_blocks,
    _symmetric_unitary_eig,
    default_pair_tolerance,
    detect_pi_pairs,
    floquet_eigensystem,
    overlap_weight,
)

from conftest import (
    circle_distance,
    dense,
    detect_pi_pairs_dense,
    eigenspace_weights,
    full_eig_eigensystem,
    overlap_weight_loop,
    random_state,
    sorted_from_cut,
    symmetric_unitary_eig_split,
)


class TestEigensystem:
    def test_identity_point_is_fully_degenerate(self):
        spec = ModelSpec(n_qubits=3, h_x=0.0, couplings=0.0, boundary="ring")
        analysis = floquet_eigensystem(spec)
        assert np.abs(analysis.epsilons).max() < 1e-12
        # re-orthonormalized eigenvectors still span the computational basis
        overlap = analysis.eigenvectors.conj().T @ analysis.eigenvectors
        assert np.abs(overlap - np.eye(8)).max() < 1e-12

    def test_single_qubit_closed_form(self):
        # h_x T1 = pi/2: eigenphases of exp(-i pi/2 sigma_x) are -+pi/2
        spec = ModelSpec.dimensionless(1, np.pi, 0.0, boundary=CHAIN)
        analysis = floquet_eigensystem(spec)
        assert np.allclose(np.sort(analysis.epsilons), [-np.pi / 2, np.pi / 2], atol=1e-12)

    def test_residuals_at_pd_point(self, pd_spec):
        analysis = floquet_eigensystem(pd_spec)
        u = dense(FloquetOperator(pd_spec))
        phases = np.exp(-1j * analysis.epsilons * analysis.period)
        residual = u @ analysis.eigenvectors - analysis.eigenvectors * phases[np.newaxis, :]
        assert np.linalg.norm(residual, axis=0).max() < 1e-9

    def test_folding_into_principal_zone(self, rng):
        for _ in range(15):
            h, j = rng.uniform(0, np.pi, size=2)
            analysis = floquet_eigensystem(ModelSpec.dimensionless(3, h, j))
            assert np.all(analysis.epsilons > -np.pi - 1e-15)
            assert np.all(analysis.epsilons <= np.pi + 1e-15)

    def test_eigenvectors_orthonormal_on_grid(self):
        # degenerate clusters appear at symmetric points; the basis must
        # stay orthonormal everywhere
        for h in np.linspace(0, np.pi, 7):
            for j in np.linspace(0, np.pi, 7):
                analysis = floquet_eigensystem(ModelSpec.dimensionless(3, h, j))
                gram = analysis.eigenvectors.conj().T @ analysis.eigenvectors
                assert np.abs(gram - np.eye(8)).max() < 1e-8


class TestParityBlocks:
    LINE = np.linspace(0.0, np.pi, 5)[1:]
    POINTS = (
        [(0.0, 0.0), (np.pi, np.pi), (2.6, 1.57), (1.1, 2.3)]
        + [(0.0, j) for j in LINE]
        + [(h, 0.0) for h in LINE]
    )
    # (h_x T, J T) with per-bond couplings J_b T = J T (1 + 0.25 b)
    PER_BOND_POINTS = [(2.6, 1.57), (1.1, 2.3), (0.0, 1.1)]

    @pytest.mark.parametrize("n", range(3, 10))
    def test_block_eig_matches_split_loop(self, n):
        # visiting only the eigh runs longer than one leaves every eigenpair
        # bitwise unchanged, the fully degenerate h_x = J = 0 point included
        for h, j in self.POINTS:
            spec = ModelSpec.dimensionless(n, h, j)
            for block in _sector_blocks(spec, FloquetOperator(spec).ising_phase):
                for got, expected in zip(_symmetric_unitary_eig(block), symmetric_unitary_eig_split(block)):
                    assert np.array_equal(got, expected), (h, j)

    @pytest.mark.parametrize("n", range(3, 9))
    def test_matches_full_eig_oracle(self, n):
        psi0 = states.all_zero_state(n)
        for boundary, step_order in itertools.product((RING, CHAIN), STEP_ORDERS):
            n_bonds = len(ModelSpec.dimensionless(n, 0.0, 0.0, boundary=boundary).bonds())
            specs = [
                ModelSpec.dimensionless(n, h, j, boundary=boundary, step_order=step_order)
                for h, j in self.POINTS
            ] + [
                ModelSpec.dimensionless(
                    n, h, [j * (1 + 0.25 * b) for b in range(n_bonds)],
                    boundary=boundary, step_order=step_order,
                )
                for h, j in self.PER_BOND_POINTS
            ]
            for spec in specs:
                blocks = detect_pi_pairs(floquet_eigensystem(spec))
                oracle = detect_pi_pairs(full_eig_eigensystem(spec))
                assert np.abs(
                    sorted_from_cut(blocks.epsilons, oracle.epsilons)
                    - sorted_from_cut(oracle.epsilons, oracle.epsilons)
                ).max() <= 1e-12
                assert abs(blocks.pair_fraction - oracle.pair_fraction) <= 1e-10
                eigenvalues = np.exp(-1j * blocks.epsilons)
                assert np.abs(
                    eigenspace_weights(blocks, eigenvalues, np.abs(blocks.eigenvectors.conj().T @ psi0) ** 2)
                    - eigenspace_weights(oracle, eigenvalues, np.abs(oracle.eigenvectors.conj().T @ psi0) ** 2)
                ).max() <= 1e-10
                assert abs(overlap_weight(blocks, psi0) - overlap_weight(oracle, psi0)) <= 1e-10

    @pytest.mark.parametrize("n", range(1, 10))
    def test_closed_form_blocks_match_dense_slices(self, n):
        # the sector blocks sliced from the dense U_F, A +- B with
        # A = U[:h, :h] and B = U[:h, h:] reversed, scaled by D^-1 on the
        # rows and D on the columns; h_x T1 = pi/2 puts cos near 0 and
        # h_x T = 0 makes sin exactly 0, where 0**0 = 1 matters
        boundaries = (RING, CHAIN) if n >= 3 else (CHAIN,)
        for boundary, step_order in itertools.product(boundaries, STEP_ORDERS):
            n_bonds = len(ModelSpec.dimensionless(n, 0.0, 0.0, boundary=boundary).bonds())
            couplings = [1.57, 0.0, [0.3 + 0.4 * b for b in range(n_bonds)]] if n > 1 else [0.0]
            for h, j in itertools.product((np.pi, 0.0, 2.6, 1.1), couplings):
                spec = ModelSpec.dimensionless(n, h, j, boundary=boundary, step_order=step_order)
                op = FloquetOperator(spec)
                half = op.dim // 2
                scale = np.sqrt(op.ising_phase[:half])
                if step_order == ISING_THEN_FIELD:
                    scale = scale.conj()
                u = dense(op)
                for sign, block in zip((1.0, -1.0), _sector_blocks(spec, op.ising_phase)):
                    sliced = u[:half, :half] + sign * u[:half, half:][:, ::-1]
                    sliced = scale.conj()[:, np.newaxis] * sliced * scale[np.newaxis, :]
                    assert np.abs(block - sliced).max() <= 1e-14

    @pytest.mark.parametrize("step_order", STEP_ORDERS)
    def test_symmetrised_propagator_is_symmetric(self, step_order):
        # S = D^-1 U_F D (field first) or D U_F D^-1 (Ising first), with
        # D^2 the Ising phase, is complex symmetric
        per_bond = [0.4, 0.9, 1.3, 2.0, 2.2, 2.9, 3.1]
        for n, boundary, j in [(3, RING, 1.57), (6, CHAIN, 2.3), (7, RING, per_bond)]:
            op = FloquetOperator(
                ModelSpec.dimensionless(n, 2.6, j, boundary=boundary, step_order=step_order)
            )
            d = np.sqrt(op.ising_phase)
            if step_order == ISING_THEN_FIELD:
                d = d.conj()
            s = d.conj()[:, np.newaxis] * dense(op) * d[np.newaxis, :]
            assert np.abs(s - s.T).max() <= 1e-14

    @pytest.mark.parametrize("h, j, resolves", [(0.0, 1.1, True), (1.1, 2.3, False), (2.6, 1.57, False)])
    def test_close_runs_resolved_only_where_eigh_merges(self, monkeypatch, h, j, resolves):
        # on the h_x T = 0 line the real combination of the symmetric
        # blocks has exact multiplets; at generic points it has none
        sizes = []
        full_eig = np.linalg.eig

        def spy(matrix):
            sizes.append(len(matrix))
            return full_eig(matrix)

        monkeypatch.setattr(np.linalg, "eig", spy)
        floquet_eigensystem(ModelSpec.dimensionless(7, h, j))
        assert bool(sizes) == resolves
        assert all(size < 64 for size in sizes)

    @pytest.mark.parametrize("n, h, j", [(3, 2.6, 1.57), (7, 0.8 * np.pi, 0.65 * np.pi)])
    def test_eigenvectors_have_parity_and_pairs_join_sectors(self, n, h, j):
        # non-degenerate period-doubling points; (0.8 pi, 0.65 pi) is cell
        # (48, 39) of the 61 x 61 production grid
        analysis = detect_pi_pairs(floquet_eigensystem(ModelSpec.dimensionless(n, h, j)))
        v = analysis.eigenvectors
        # the global flip P reverses the basis order; sign = <v|P v>
        sign = np.sign(np.sum(v[::-1].conj() * v, axis=0).real)
        assert np.abs(v[::-1] - sign[np.newaxis, :] * v).max() <= 1e-12
        assert np.array_equal(analysis.parities, sign)
        assert analysis.pairs
        assert all(sign[a] == -sign[b] for a, b in analysis.pairs)


class TestCircleDistance:
    def test_plain_gap(self):
        assert circle_distance(0.3, -0.2) == pytest.approx(0.5)

    def test_wraps_around_zone(self):
        # eps near +pi and -pi are neighbours on the circle
        assert circle_distance(3.1, -3.1) == pytest.approx(2 * np.pi - 6.2)

    def test_symmetry(self, rng):
        for _ in range(20):
            a, b = rng.uniform(-np.pi, np.pi, size=2)
            assert circle_distance(a, b) == pytest.approx(circle_distance(b, a), abs=1e-12)


class TestPiPairs:
    def test_no_pairs_at_identity(self):
        spec = ModelSpec(n_qubits=3, h_x=0.0, couplings=0.0, boundary="ring")
        analysis = detect_pi_pairs(floquet_eigensystem(spec))
        assert analysis.pairs == []
        assert analysis.pair_fraction == 0.0

    def test_exact_pairing_at_pi_pi(self):
        # U_F at (pi, pi) is -X X X up to rounding: four states at eps = 0,
        # four at eps = pi/T, every state pi-paired
        analysis = detect_pi_pairs(floquet_eigensystem(ModelSpec.dimensionless(3, np.pi, np.pi)))
        assert analysis.pair_fraction == 1.0
        assert np.abs(analysis.gaps - np.pi).max() < 1e-10
        # independent spectrum check: eigenvalues of -XXX are +-1
        sx = np.array([[0, 1], [1, 0]])
        xxx = -np.kron(np.kron(sx, sx), sx)
        expected = np.sort(np.linalg.eigvalsh(xxx))
        u_eigs = np.sort(np.cos(analysis.epsilons))
        assert np.allclose(u_eigs, expected, atol=1e-10)

    def test_pd_point_regression(self, pd_spec):
        # frozen from this implementation: one dominant near-pi pair
        analysis = detect_pi_pairs(floquet_eigensystem(pd_spec))
        assert analysis.pair_fraction == pytest.approx(0.25)
        assert len(analysis.pairs) == 1
        assert abs(analysis.gaps[0] - np.pi) < default_pair_tolerance()

    def test_matching_is_exclusive(self, rng):
        for _ in range(10):
            h, j = rng.uniform(0, np.pi, size=2)
            analysis = detect_pi_pairs(
                floquet_eigensystem(ModelSpec.dimensionless(3, h, j)), tolerance=0.5
            )
            indices = [k for pair in analysis.pairs for k in pair]
            assert len(indices) == len(set(indices))

    @pytest.mark.parametrize(
        "n, h, j",
        [(3, 2.6, 1.57), (5, 2.6, 1.57), (5, 1.9, 2.8), (7, 0.8 * np.pi, 0.65 * np.pi), (8, 2.9, 0.9)],
    )
    def test_greedy_count_is_maximum_parity_matching(self, n, h, j):
        # period-doubled points, where every pi-pair joins opposite parity;
        # elsewhere the greedy count can differ from this matching (it also
        # pairs states of equal parity), so this is no identity of the method
        from scipy.sparse import csr_matrix
        from scipy.sparse.csgraph import maximum_bipartite_matching

        analysis = detect_pi_pairs(floquet_eigensystem(ModelSpec.dimensionless(n, h, j)))
        v = analysis.eigenvectors
        sign = np.sign(np.sum(v[::-1].conj() * v, axis=0).real)
        assert np.abs(v[::-1] - sign[np.newaxis, :] * v).max() <= 1e-12
        assert np.array_equal(analysis.parities, sign)
        plus, minus = analysis.epsilons[sign > 0], analysis.epsilons[sign < 0]
        diff = (plus[:, np.newaxis] - minus[np.newaxis, :]) % (2 * np.pi)
        gap = np.minimum(diff, 2 * np.pi - diff)
        candidates = csr_matrix((np.abs(gap - np.pi) <= analysis.tolerance).astype(np.int8))
        matched = maximum_bipartite_matching(candidates, perm_type="column")
        assert np.count_nonzero(matched >= 0) == len(analysis.pairs)

    @pytest.mark.parametrize("n", range(3, 9))
    def test_windowed_search_matches_dense_oracle(self, n, rng):
        # (pi, pi) puts half the spectrum on the +pi/T fold; (pi/2, pi/4)
        # is heavily degenerate, so ties are broken by index
        points = [(np.pi, np.pi), (2.6, 1.57), (np.pi / 2, np.pi / 4), (0.8 * np.pi, 0.65 * np.pi), (0.0, 1.1)]
        psi_random = random_state(n, rng)
        for (h, j), step_order, period in itertools.product(points, STEP_ORDERS, (1.0, 2.5)):
            spec = ModelSpec.dimensionless(n, h, j, period=period, step_order=step_order)
            eigensystem = floquet_eigensystem(spec)
            for tolerance in (None, 0.3):
                analysis = detect_pi_pairs(eigensystem, tolerance)
                pairs, gaps, used = detect_pi_pairs_dense(eigensystem, tolerance)
                assert analysis.pairs == pairs
                assert np.array_equal(analysis.gaps, gaps)
                assert analysis.tolerance == used
                for psi0 in (states.all_zero_state(n), psi_random):
                    assert abs(overlap_weight(analysis, psi0) - overlap_weight_loop(analysis, psi0)) <= 1e-14

    @pytest.mark.parametrize("period", [1.0, 2.5])
    def test_windowed_search_on_hand_built_unsorted_spectrum(self, period, rng):
        # lattice values in (-pi/T, pi/T], unsorted, with exact pi/T gaps,
        # repeats, the +pi/T fold and a value just inside -pi/T
        zone = 2 * np.pi / period
        lattice = (rng.integers(-7, 9, size=40) * zone / 16).astype(float)
        epsilons = np.concatenate((lattice, [np.pi / period, -np.pi / period + 1e-12, 0.5 * np.pi / period]))
        spread = rng.permutation(np.concatenate((epsilons, epsilons[:10] + 1e-3)))
        # 1.5 / T lies near the largest tolerance, pi / (2T), where the windows are widest
        for tolerance in (None, 0.3 / period, 1e-3 / period, 1.5 / period):
            analysis = QuasienergyAnalysis(
                epsilons=spread, eigenvectors=np.eye(len(spread)), period=period
            )
            paired = detect_pi_pairs(analysis, tolerance)
            pairs, gaps, used = detect_pi_pairs_dense(analysis, tolerance)
            assert pairs and paired.pairs == pairs
            assert np.array_equal(paired.gaps, gaps)
            assert paired.tolerance == used

    def test_tolerance_validation(self, pd_spec):
        analysis = floquet_eigensystem(pd_spec)
        with pytest.raises(ValueError, match="positive"):
            detect_pi_pairs(analysis, tolerance=0.0)
        # from pi/(2T) on, degenerate states would pair: at the identity every state does
        identity = floquet_eigensystem(ModelSpec.dimensionless(3, 0.0, 0.0))
        for tolerance in (np.pi / 2, 3.2):
            with pytest.raises(ValueError, match="positive"):
                detect_pi_pairs(identity, tolerance)
        assert detect_pi_pairs(identity, 1.5).pairs == []


class TestOverlapWeight:
    def test_zero_without_pairs(self):
        spec = ModelSpec(n_qubits=3, h_x=0.0, couplings=0.0, boundary="ring")
        analysis = detect_pi_pairs(floquet_eigensystem(spec))
        assert overlap_weight(analysis, states.all_zero_state(3)) == 0.0

    def test_one_when_everything_is_paired(self):
        analysis = detect_pi_pairs(floquet_eigensystem(ModelSpec.dimensionless(3, np.pi, np.pi)))
        w = overlap_weight(analysis, states.all_zero_state(3))
        assert w == pytest.approx(1.0, abs=1e-10)

    def test_complement_identity(self, pd_spec):
        analysis = detect_pi_pairs(floquet_eigensystem(pd_spec))
        psi0 = states.all_zero_state(3)
        w = overlap_weight(analysis, psi0)
        amplitudes = analysis.eigenvectors.conj().T @ psi0
        weights = np.abs(amplitudes) ** 2
        unpaired = [k for k in range(8) if k not in {i for p in analysis.pairs for i in p}]
        assert w == pytest.approx(1.0 - weights[unpaired].sum(), abs=1e-10)

    def test_pd_point_regression(self, pd_spec):
        # frozen: |000> sits almost entirely on the single near-pi pair
        analysis = detect_pi_pairs(floquet_eigensystem(pd_spec))
        w = overlap_weight(analysis, states.all_zero_state(3))
        assert w == pytest.approx(0.9443, abs=2e-3)

    def test_rejects_bad_eigenbasis(self, pd_spec):
        analysis = detect_pi_pairs(floquet_eigensystem(pd_spec))
        broken = QuasienergyAnalysis(
            epsilons=analysis.epsilons,
            eigenvectors=analysis.eigenvectors * 0.5,
            period=analysis.period,
            pairs=analysis.pairs,
            gaps=analysis.gaps,
        )
        with pytest.raises(NumericalError, match="overlap weights"):
            overlap_weight(broken, states.all_zero_state(3))

    def test_dimension_mismatch(self, pd_spec):
        analysis = detect_pi_pairs(floquet_eigensystem(pd_spec))
        with pytest.raises(ValueError, match="dimension mismatch"):
            overlap_weight(analysis, states.all_zero_state(2))
