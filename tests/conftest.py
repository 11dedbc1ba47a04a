from dataclasses import replace
from functools import reduce

import numpy as np
import pytest

from floquet_ising import ModelSpec, states
from floquet_ising.metrology import VARIANCE_CUTOFF
from floquet_ising.model import FIELD_THEN_ISING, TARGET_HX, TARGET_J, FloquetOperator
from floquet_ising.quasienergy import (
    DEGENERACY_CLUSTER_TOL,
    MIX_ANGLE,
    SPLIT_TOL,
    QuasienergyAnalysis,
    default_pair_tolerance,
)

# rounding margin of the tie-fragility test below
TIE_MARGIN = 1e-12


def random_state(n_qubits: int, rng: np.random.Generator) -> np.ndarray:
    dim = 1 << n_qubits
    psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return psi / np.linalg.norm(psi)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def pd_spec():
    """The period-doubling reference point of the three-qubit ring."""
    return ModelSpec.dimensionless(3, 2.6, 1.57)


@pytest.fixture
def non_pd_spec():
    """The weak-coupling reference point with the same field."""
    return ModelSpec.dimensionless(3, 2.6, 0.1)


def dense(op: FloquetOperator) -> np.ndarray:
    """Reference dense propagator of a one-cell operator, column k = U_F |k>,
    from one period on every basis row, taken into the frame and back."""
    op._require_one_cell()
    return (op._frame_period(np.diag(op.frame_phase.conj())[np.newaxis])[0] * op.frame_phase).T


def apply_with_derivative(op: FloquetOperator, target: str, psi: np.ndarray, dpsi: np.ndarray):
    """(U_F psi, U_F dpsi + (dU_F / d theta) psi) from one period of the
    stacked rows (psi, dpsi), shaped as for op.apply."""
    op._require_target(target)
    rows = np.stack([np.reshape(x, (op.cells, op.dim)) for x in (psi, dpsi)], axis=1)
    new_psi, new_dpsi = (op._frame_period(rows * op.frame_phase.conj(), target) * op.frame_phase).transpose(1, 0, 2)
    return new_psi.reshape(np.shape(psi)), new_dpsi.reshape(np.shape(psi))


def shifted_spec(spec: ModelSpec, target: str, delta: float) -> ModelSpec:
    """spec with h_x or the uniform coupling J moved by delta."""
    if target == TARGET_HX:
        return replace(spec, h_x=spec.h_x + delta)
    if target == TARGET_J:
        if not spec.uniform:
            raise ValueError("per-bond couplings cannot be shifted uniformly")
        return replace(spec, couplings=spec.couplings + delta)
    raise ValueError(f"unknown derivative target {target!r}")


def qfi_finite_difference(spec, target, psi0, n, delta=1e-4) -> float:
    """Fidelity-susceptibility oracle, 8 (1 - |<psi(theta)|psi(theta+delta)>|) / delta^2.

    O(delta^2) accurate; independent of the exact-derivative path so the
    two can cross-validate each other. Both states come from one two-cell
    evolution, in the operator's frame, which leaves the overlap unchanged.
    """
    if not 1e-7 <= delta <= 1e-3:
        raise ValueError(f"delta must lie in [1e-7, 1e-3], got {delta}")
    pair = FloquetOperator([spec, shifted_spec(spec, target, delta)])
    *_, ((chi,), (chi_shifted,)) = pair.frame_trajectory(psi0, n)
    fidelity = abs(np.vdot(chi, chi_shifted))
    return 8.0 * (1.0 - fidelity) / delta**2


def circle_distance(eps_i: float, eps_j: float, period: float = 1.0) -> float:
    """min_k |eps_i - eps_j + 2 pi k / T|, the quasienergy circle metric."""
    zone = 2.0 * np.pi / period
    raw = (eps_i - eps_j) % zone
    return float(min(raw, zone - raw))


def dense_by_kronecker(op: FloquetOperator) -> np.ndarray:
    """Reference dense propagator of a one-cell operator in closed form (dense_with_derivative)."""
    (spec,) = op.specs
    return dense_with_derivative(spec)[0]


def dense_with_derivative(spec: ModelSpec, target: str | None = None, dtype=np.complex128):
    """Reference (U_F, dU_F / d theta) of one spec in closed form, in `dtype`.

    U_F is the Kronecker power of the one-qubit rotation times the Ising
    phase, taken in `dtype` (np.clongdouble for an extended-precision
    reference) from the spec's double parameters. Each step's generator
    commutes with its step, so dU_F = U_F G when the target's step comes
    first and G U_F when it comes last, with G = -i T1 sum_i sigma_x^i for
    h_x and -i T2 sum_bonds z_i z_j for the uniform J. dU_F is None
    without a target.
    """
    real = np.longdouble if dtype == np.clongdouble else np.float64
    n, p = spec.n_qubits, spec.protocol
    angle = real(spec.h_x) * real(p.t1)
    c, s = np.cos(angle), np.sin(angle)
    rotation = np.array([[c, -1j * s], [-1j * s, c]], dtype=dtype)
    field = reduce(np.kron, [rotation] * n)
    zz_weighted = np.zeros(1 << n, dtype=real)
    zz_plain = np.zeros(1 << n, dtype=real)
    for (i, j), j_b in zip(spec.bonds(), spec.bond_values()):
        pair = (states.z_values(n, i) * states.z_values(n, j)).astype(real)
        zz_weighted += real(j_b) * pair
        zz_plain += pair
    ising = np.exp(-1j * real(p.t2) * zz_weighted).astype(dtype)
    field_first = p.step_order == FIELD_THEN_ISING
    u = ising[:, np.newaxis] * field if field_first else field * ising[np.newaxis, :]
    if target is None:
        return u, None
    if target == TARGET_HX:
        identity, sigma_x = np.eye(2, dtype=dtype), np.array([[0, 1], [1, 0]], dtype=dtype)
        x_sum = sum(reduce(np.kron, [sigma_x if k == q else identity for k in range(n)]) for q in range(n))
        generator, first = -1j * real(p.t1) * x_sum, field_first
    else:
        generator, first = np.diag(-1j * real(p.t2) * zz_plain).astype(dtype), not field_first
    return u, (u @ generator if first else generator @ u)


def reference_trajectory(specs, psi0: np.ndarray, n_max: int, target: str | None = None, dtype=np.complex128):
    """Reference (psi_n, dpsi_n) of every spec for n = 0..n_max, as (specs, n_max + 1, dim) arrays
    (dpsi None without a target), by repeated products with dense_with_derivative's matrices in `dtype`."""
    pairs = [dense_with_derivative(spec, target, dtype) for spec in specs]
    u = np.array([pair[0] for pair in pairs])
    psi = np.repeat(np.asarray(psi0, dtype=dtype)[np.newaxis, :, np.newaxis], len(specs), axis=0)
    psis = [psi]
    if target is None:
        for _ in range(n_max):
            psis.append(u @ psis[-1])
        return np.concatenate(psis, axis=-1).transpose(0, 2, 1), None
    du = np.array([pair[1] for pair in pairs])
    dpsis = [np.zeros_like(psi)]
    for _ in range(n_max):
        psis.append(u @ psis[-1])
        dpsis.append(u @ dpsis[-1] + du @ psis[-2])
    return tuple(np.concatenate(x, axis=-1).transpose(0, 2, 1) for x in (psis, dpsis))


def reference_qfi(psi: np.ndarray, dpsi: np.ndarray) -> np.ndarray:
    """4 (<dpsi|dpsi> - |<psi|dpsi>|^2) along the last axis, in the arrays' own precision."""
    overlap = np.sum(psi.conj() * dpsi, axis=-1)
    return 4 * (np.sum(np.abs(dpsi) ** 2, axis=-1) - np.abs(overlap) ** 2)


def hadamard_matrix(bits: int) -> np.ndarray:
    """Unnormalised Walsh-Hadamard matrix on `bits` qubits, entry (a, b) = (-1)^popcount(a & b)."""
    index = np.arange(1 << bits)
    both = index[:, np.newaxis] & index[np.newaxis, :]
    parity = np.zeros_like(both)
    for pos in range(bits):
        parity ^= (both >> pos) & 1
    return 1.0 - 2.0 * parity


def walsh_hadamard_period(op: FloquetOperator, block: np.ndarray, target: str | None = None) -> np.ndarray:
    """Reference period on a (cells, rows, dim) block: the field step as a
    diagonal phase in the Hadamard basis, entered and left by the
    unnormalised transform W = W_hi (x) W_lo, and the Ising step as a
    Z-basis phase. On the step that carries target, row 1 gains the step's
    diagonal generator times row 0."""
    first = op.specs[0]
    n, p = first.n_qubits, first.protocol
    x_sum = (n - 2 * states.popcounts(n)).astype(float)
    h_x = np.array([spec.h_x for spec in op.specs])[:, np.newaxis, np.newaxis]
    zz_weighted = np.zeros((op.cells, 1, op.dim))
    zz_plain = np.zeros(op.dim)
    for bond, (i, j) in enumerate(first.bonds()):
        pair = states.z_values(n, i) * states.z_values(n, j)
        zz_weighted += np.array([spec.bond_values()[bond] for spec in op.specs])[:, np.newaxis, np.newaxis] * pair
        zz_plain += pair
    w_hi, w_lo = hadamard_matrix(n // 2), hadamard_matrix(n - n // 2)

    def transform(rows):
        grid = rows.reshape(len(rows), -1, len(w_hi), len(w_lo))
        return (w_hi @ grid @ w_lo).reshape(rows.shape)

    field = (True, np.exp(-1j * h_x * p.t1 * x_sum) / op.dim, -1j * p.t1 * x_sum, TARGET_HX)
    ising = (False, np.exp(-1j * p.t2 * zz_weighted), -1j * p.t2 * zz_plain, TARGET_J)
    block = np.array(block, dtype=np.complex128)
    steps = (field, ising) if p.step_order == FIELD_THEN_ISING else (ising, field)
    for in_hadamard, phases, generator, step_target in steps:
        block = (transform(block) if in_hadamard else block) * phases
        if step_target == target:
            block[:, 1] += generator * block[:, 0]
        if in_hadamard:
            block = transform(block)
    return block


def cfi_finite_difference(spec, target, observable, psi0, n_max, delta=1e-5) -> np.ndarray:
    """Reference CFI values with the gradient d<X>/d theta taken from
    trajectories at theta +- delta; nan where Var(X) is degenerate."""
    ops = [FloquetOperator(spec)] + [
        FloquetOperator(shifted_spec(spec, target, shift)) for shift in (delta, -delta)
    ]
    psis = [np.asarray(psi0, dtype=np.complex128)] * 3
    diag = np.asarray(observable.diag, dtype=float)

    def expectation(psi, d):
        return float((psi.real * psi.real + psi.imag * psi.imag) @ d)

    values = np.full(n_max + 1, np.nan)
    for n in range(n_max + 1):
        psi, psi_p, psi_m = psis
        mean = expectation(psi, diag)
        variance = expectation(psi, diag * diag) - mean**2
        gradient = (expectation(psi_p, diag) - expectation(psi_m, diag)) / (2.0 * delta)
        if variance >= VARIANCE_CUTOFF:
            values[n] = gradient**2 / variance
        psis = [op.apply(p) for op, p in zip(ops, psis)]
    return values


def full_eig_eigensystem(spec: ModelSpec) -> QuasienergyAnalysis:
    """Reference eigensystem from one general eig of the full propagator,
    ignoring the parity symmetry; same folding, ordering and cluster
    re-orthonormalization as the package."""
    period = spec.protocol.period
    eigenvalues, eigenvectors = np.linalg.eig(dense_by_kronecker(FloquetOperator(spec)))
    epsilons = -np.angle(eigenvalues) / period
    epsilons[epsilons <= -np.pi / period] += 2.0 * np.pi / period
    order = np.argsort(epsilons, kind="stable")
    eigenvalues, epsilons, eigenvectors = eigenvalues[order], epsilons[order], eigenvectors[:, order]
    for cluster in cluster_indices_loop(eigenvalues):
        if len(cluster) > 1:
            eigenvectors[:, cluster] = np.linalg.qr(eigenvectors[:, cluster])[0]
    eigenvectors /= np.linalg.norm(eigenvectors, axis=0, keepdims=True)
    return QuasienergyAnalysis(epsilons=epsilons, eigenvectors=eigenvectors, period=period)


def symmetric_unitary_eig_split(block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Reference for quasienergy._symmetric_unitary_eig that visits every eigh
    run, single ones included, as np.split makes them, and re-solves the
    longer ones with a small eig."""
    real, imag = block.real, block.imag
    combined, q = np.linalg.eigh(np.cos(MIX_ANGLE) * real + np.sin(MIX_ANGLE) * imag)
    eigenvalues = np.einsum("ij,ij->j", q, real @ q) + 1j * np.einsum("ij,ij->j", q, imag @ q)
    vectors = q.astype(np.complex128)
    starts = np.flatnonzero(np.diff(combined) >= SPLIT_TOL) + 1
    for run in np.split(np.arange(len(combined)), starts):
        if len(run) > 1:
            basis = q[:, run]
            eigenvalues[run], rotation = np.linalg.eig(basis.T @ block @ basis)
            vectors[:, run] = basis @ rotation
    return eigenvalues, vectors


def cluster_indices_loop(eigenvalues: np.ndarray) -> list[list[int]]:
    """Reference clustering, one element at a time: (sorted-by-angle)
    neighbours closer than DEGENERACY_CLUSTER_TOL share a cluster, and a
    last cluster that wraps through angle +-pi joins the first."""
    clusters: list[list[int]] = [[0]]
    for k in range(1, len(eigenvalues)):
        if abs(eigenvalues[k] - eigenvalues[k - 1]) < DEGENERACY_CLUSTER_TOL:
            clusters[-1].append(k)
        else:
            clusters.append([k])
    if len(clusters) > 1 and abs(eigenvalues[0] - eigenvalues[-1]) < DEGENERACY_CLUSTER_TOL:
        clusters[0] = clusters.pop() + clusters[0]
    return clusters


def detect_pi_pairs_dense(analysis: QuasienergyAnalysis, tolerance: float | None = None):
    """Reference greedy pi-pair matching over the full n x n table of gaps:
    candidates (error, i, j) with i < j and error = |gap - pi/T| <= tolerance,
    taken in sorted order, each state used at most once. Returns
    (pairs, gaps, tolerance)."""
    period = analysis.period
    if tolerance is None:
        tolerance = default_pair_tolerance(period)
    target = np.pi / period
    eps = analysis.epsilons
    zone = 2.0 * np.pi / period
    diff = (eps[:, None] - eps[None, :]) % zone
    gap = np.minimum(diff, zone - diff)
    error = np.abs(gap - target)
    ii, jj = np.nonzero(np.triu(error <= tolerance, k=1))
    used = np.zeros(analysis.dim, dtype=bool)
    pairs, pair_gaps = [], []
    for _, i, j in sorted(zip(error[ii, jj], ii, jj)):
        if not used[i] and not used[j]:
            used[i] = used[j] = True
            pairs.append((int(i), int(j)))
            pair_gaps.append(float(gap[i, j]))
    return pairs, np.asarray(pair_gaps), float(tolerance)


def overlap_weight_loop(analysis: QuasienergyAnalysis, psi0: np.ndarray) -> float:
    """Reference overlap weight, one degenerate cluster at a time: each
    cluster adds its |psi0|^2 weight times the share of its pi-paired states."""
    weights = np.abs(analysis.eigenvectors.conj().T @ psi0) ** 2
    paired = np.zeros(analysis.dim, dtype=bool)
    paired[[k for pair in analysis.pairs for k in pair]] = True
    order = np.argsort(analysis.epsilons, kind="stable")
    eigenvalues = np.exp(-1j * analysis.epsilons[order] * analysis.period)
    weight = 0.0
    for cluster in cluster_indices_loop(eigenvalues):
        members = order[cluster]
        weight += weights[members].sum() * paired[members].mean()
    return float(weight / weights.sum())


def sorted_from_cut(epsilons, reference):
    """Quasienergies (T = 1) sorted from a cut in the widest gap of reference,
    so a value at the +-pi fold cannot change its rank."""
    zone = 2.0 * np.pi
    ref = np.sort(reference % zone)
    gaps = np.diff(ref, append=ref[0] + zone)
    cut = ref[np.argmax(gaps)] + gaps.max() / 2
    return np.sort((epsilons - cut) % zone)


def eigenspace_weights(analysis: QuasienergyAnalysis, eigenvalues: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Summed weights (one per state of analysis) of the eigenspace of each
    given eigenvalue: the states within 1e-8 of it, so the sum is basis-free."""
    own = np.exp(-1j * analysis.epsilons * analysis.period)
    same = np.abs(eigenvalues[:, np.newaxis] - own[np.newaxis, :]) < 1e-8
    return same @ weights


def tie_fragile(epsilons: np.ndarray, period: float = 1.0, tolerance: float | None = None) -> bool:
    """Whether rounding at TIE_MARGIN could change the greedy pi-pair count or
    the degenerate clusters of this spectrum.

    True when two candidate pairs that share a state have |gap - pi/T|
    within TIE_MARGIN of each other (the greedy order follows the tie), when
    a pair's |gap - pi/T| lies within TIE_MARGIN of the tolerance, or when
    two neighbouring eigenvalues are within TIE_MARGIN of
    DEGENERACY_CLUSTER_TOL apart.
    """
    tolerance = default_pair_tolerance(period) if tolerance is None else tolerance
    zone = 2.0 * np.pi / period
    diff = (epsilons[:, np.newaxis] - epsilons[np.newaxis, :]) % zone
    error = np.abs(np.minimum(diff, zone - diff) - np.pi / period)
    np.fill_diagonal(error, np.inf)
    if np.any(np.abs(error - tolerance) <= TIE_MARGIN):
        return True
    # a state's candidate errors, sorted; non-candidates get distinct values far above them
    candidates = np.sort(np.where(error <= tolerance, error, 4 * zone + np.arange(len(epsilons))), axis=1)
    if np.any(np.diff(candidates, axis=1) <= TIE_MARGIN):
        return True
    eigenvalues = np.exp(-1j * period * np.sort(epsilons))
    steps = np.abs(np.diff(eigenvalues, append=eigenvalues[:1]))
    return bool(np.any(np.abs(steps - DEGENERACY_CLUSTER_TOL) <= TIE_MARGIN))
