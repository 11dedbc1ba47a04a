"""Floquet eigenproblem: quasienergies, pi-pairs and initial-state overlap.

Quasienergies are the folded eigenphases of the one-period propagator,
eps_alpha = -arg(lambda_alpha)/T in (-pi/T, pi/T]. Two eigenstates form a
pi-pair when their quasienergies differ by approximately pi/T on the
circle; a superposition of such a pair returns to itself only after two
periods, which is the mechanism behind period doubling.

The eigensystem is solved one sector of the global flip P = prod_i sigma_x^i
at a time. P commutes with both drive steps, so U_F is exactly block
diagonal in the P = +1 and P = -1 eigenbases. Moving half of the Ising
step to the other end of the period turns U_F into a complex symmetric
unitary S (the drive is time-reversal invariant; Haake, Quantum
Signatures of Chaos, ch. 4), whose eigenvectors can be chosen real, so
each half-size parity block is solved by one real symmetric eigh. In the
period-doubled phase a pi-pair joins states of opposite parity (Khemani
et al., PRL 116, 250401 (2016); Else, Bauer & Nayak, PRL 117, 090402
(2016)).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import NumericalError
from .model import ISING_THEN_FIELD, FloquetOperator, ModelSpec, as_operator

UNIT_MODULUS_TOL = 1e-8
RESIDUAL_TOL = 1e-8
DEGENERACY_CLUSTER_TOL = 1e-9
# eigh eigenvalues closer than this are re-solved together: beyond it the
# eigh vectors err by about eps * ||mixed|| / gap ~ 2e-10, so their residual
# stays far below RESIDUAL_TOL
SPLIT_TOL = 1e-6
# angle a of the real combination cos(a) Re S + sin(a) Im S; it maps
# exp(i theta) to cos(theta - a), which merges two distinct eigenvalues only
# where their phases sum to 2a (mod 2 pi), and 2a = 2 is no rational
# multiple of pi
MIX_ANGLE = 1.0


def default_pair_tolerance(period: float = 1.0) -> float:
    """5% of the pi/T gap; exposed as a flag since only 'approximately
    pi/T' is physically defined."""
    return 0.05 * np.pi / period


@dataclass
class QuasienergyAnalysis:
    """Eigensystem of a Floquet operator plus pi-pairing summary.

    eigenvectors holds one normalized eigenvector per column, matching
    epsilons. pairs is a matching (each index used at most once); gaps
    holds the circle distance of each pair. modulus_error and residual are
    the solver's health checks: the largest ||lambda| - 1| and the largest
    eigen-residual norm against the dense propagator.
    """

    epsilons: np.ndarray
    eigenvectors: np.ndarray
    period: float
    spec: ModelSpec | None = field(default=None, repr=False)
    pairs: list[tuple[int, int]] = field(default_factory=list)
    gaps: np.ndarray = field(default_factory=lambda: np.empty(0))
    tolerance: float | None = None
    modulus_error: float | None = None
    residual: float | None = None

    @property
    def dim(self) -> int:
        return len(self.epsilons)

    @property
    def pair_fraction(self) -> float:
        return 2.0 * len(self.pairs) / self.dim


def _cluster_indices(eigenvalues: np.ndarray) -> list[list[int]]:
    """Group (sorted-by-angle) indices whose eigenvalues nearly coincide.

    The eigenvalues live on the unit circle, so the first and last groups
    may wrap around through angle +-pi and must then be merged.
    """
    n = len(eigenvalues)
    clusters: list[list[int]] = [[0]]
    for k in range(1, n):
        if abs(eigenvalues[k] - eigenvalues[k - 1]) < DEGENERACY_CLUSTER_TOL:
            clusters[-1].append(k)
        else:
            clusters.append([k])
    if len(clusters) > 1 and abs(eigenvalues[0] - eigenvalues[-1]) < DEGENERACY_CLUSTER_TOL:
        clusters[0] = clusters.pop() + clusters[0]
    return clusters


def _symmetric_unitary_eig(block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs of a complex symmetric unitary matrix from one real eigh.

    Such a matrix is X + iY with X, Y real symmetric, and unitarity gives
    XY = YX, so one real orthonormal basis diagonalizes both. It comes
    from eigh of cos(a) X + sin(a) Y, whose eigenvalue for lambda is
    Re(exp(-ia) lambda); the eigenvalues are the Rayleigh quotients
    q^T block q. Two distinct unit-circle eigenvalues can share that real
    value, so each run of eigh eigenvalues closer than SPLIT_TOL is
    re-solved with a small eig of the block projected onto the run.
    """
    mixed = np.cos(MIX_ANGLE) * block.real + np.sin(MIX_ANGLE) * block.imag
    combined, q = np.linalg.eigh(mixed)
    eigenvalues = np.einsum("ij,ij->j", q, block @ q)
    vectors = q.astype(np.complex128)
    starts = np.flatnonzero(np.diff(combined) >= SPLIT_TOL) + 1
    for run in np.split(np.arange(len(combined)), starts):
        if len(run) > 1:
            basis = q[:, run]
            eigenvalues[run], rotation = np.linalg.eig(basis.T @ block @ basis)
            vectors[:, run] = basis @ rotation
    return eigenvalues, vectors


def floquet_eigensystem(model: ModelSpec | FloquetOperator) -> QuasienergyAnalysis:
    """Diagonalize the dense propagator as two real symmetric eigenproblems (pairs left empty).

    With D the principal square root of the diagonal Ising phase,
    S = D^-1 U_F D (field_then_ising) or D U_F D^-1 (ising_then_field)
    equals D F D, where F is the field step, the exponential of the real
    symmetric sum_i sigma_x^i; so S is complex symmetric and unitary.

    U_F and S commute with the global flip P = prod_i sigma_x^i: the field
    step is built from sigma_x alone, and every sigma_z^i sigma_z^j bond
    term is invariant under flipping all spins. P sends basis index s to
    dim-1-s, so with h = dim/2 the propagator has the block form
    [[A, C], [R C R, R A R]] (R reverses h entries), and B = C R gives the
    exact sector blocks A + B (P = +1) and A - B (P = -1). D is P-invariant,
    so the sector blocks of S are those of U_F scaled by the first half of
    D, each solved by _symmetric_unitary_eig. An eigenvector v of a block
    lifts to the eigenvector [v; +-R v] / sqrt(2) of S, and scaling its
    rows by D (or D^-1) gives that of U_F.

    Eigenvectors inside a degenerate eigenvalue cluster are re-orthonormalized:
    the small eig on a degenerate run does not guarantee orthogonality, and
    the h_x = J = 0 identity point is fully degenerate. The eigen-residual is
    taken against the full dense U_F, so any error in D or in the block map
    fails the residual check.
    """
    op = as_operator(model)
    period = op.spec.protocol.period
    matrix = op.dense()
    half = op.dim // 2
    # S = scale^-1 U_F scale; |scale| = 1, so scale^-1 = conj(scale)
    scale = np.sqrt(op.ising_phase)
    if op.spec.protocol.step_order == ISING_THEN_FIELD:
        scale = scale.conj()
    upper_left = matrix[:half, :half]
    upper_right = matrix[:half, half:][:, ::-1]
    # sector eigenvectors are lifted into one preallocated array (the
    # normalization below supplies the 1/sqrt(2)); the block vectors are
    # dropped before the residual, which is the peak of this function
    eigenvalues = np.empty(op.dim, dtype=np.complex128)
    eigenvectors = np.empty((op.dim, op.dim), dtype=np.complex128)
    for sign, sector in ((1.0, slice(None, half)), (-1.0, slice(half, None))):
        block = upper_left + sign * upper_right
        block *= scale[:half].conj()[:, np.newaxis]
        block *= scale[:half]
        eigenvalues[sector], vectors = _symmetric_unitary_eig(block)
        eigenvectors[:half, sector] = vectors
        eigenvectors[half:, sector] = sign * vectors[::-1]
    del block, vectors
    eigenvectors *= scale[:, np.newaxis]

    modulus_error = float(np.max(np.abs(np.abs(eigenvalues) - 1.0)))
    if modulus_error > UNIT_MODULUS_TOL:
        raise NumericalError(
            f"eigenvalues deviate from unit modulus by {modulus_error:.3e} "
            f"(h_x={op.spec.h_x}, couplings={op.spec.couplings}, n={op.spec.n_qubits})"
        )

    epsilons = -np.angle(eigenvalues) / period
    # fold the arg = pi boundary onto +pi/T so every value is in (-pi/T, pi/T]
    epsilons[epsilons <= -np.pi / period] += 2.0 * np.pi / period

    order = np.argsort(epsilons, kind="stable")
    eigenvalues = eigenvalues[order]
    epsilons = epsilons[order]
    eigenvectors = eigenvectors[:, order]

    for cluster in _cluster_indices(eigenvalues):
        if len(cluster) > 1:
            q, _ = np.linalg.qr(eigenvectors[:, cluster])
            eigenvectors[:, cluster] = q
    eigenvectors /= np.linalg.norm(eigenvectors, axis=0, keepdims=True)

    residuals = matrix @ eigenvectors
    residuals -= eigenvectors * eigenvalues[np.newaxis, :]
    residual = float(np.max(np.linalg.norm(residuals, axis=0)))
    if residual > RESIDUAL_TOL:
        raise NumericalError(
            f"eigen-residual {residual:.3e} exceeds {RESIDUAL_TOL} "
            f"(h_x={op.spec.h_x}, couplings={op.spec.couplings}, n={op.spec.n_qubits})"
        )

    return QuasienergyAnalysis(
        epsilons=epsilons, eigenvectors=eigenvectors, period=period, spec=op.spec,
        modulus_error=modulus_error, residual=residual,
    )


def circle_distance(eps_i: float, eps_j: float, period: float = 1.0) -> float:
    """min_k |eps_i - eps_j + 2 pi k / T|, the quasienergy circle metric."""
    zone = 2.0 * np.pi / period
    raw = (eps_i - eps_j) % zone
    return float(min(raw, zone - raw))


def detect_pi_pairs(
    analysis: QuasienergyAnalysis, tolerance: float | None = None
) -> QuasienergyAnalysis:
    """Greedy matching of quasienergy pairs with gap within tolerance of pi/T.

    Candidates are sorted by |gap - pi/T| (ties by lower indices) and each
    state is used at most once, so the pair list is a deterministic matching.
    """
    period = analysis.period
    if tolerance is None:
        tolerance = default_pair_tolerance(period)
    if tolerance <= 0:
        raise ValueError(f"tolerance must be positive, got {tolerance}")
    target = np.pi / period

    eps = analysis.epsilons
    zone = 2.0 * np.pi / period
    diff = (eps[:, None] - eps[None, :]) % zone
    gap = np.minimum(diff, zone - diff)
    error = np.abs(gap - target)

    ii, jj = np.nonzero(np.triu(error <= tolerance, k=1))
    candidates = sorted(zip(error[ii, jj], ii, jj))
    used = np.zeros(analysis.dim, dtype=bool)
    pairs: list[tuple[int, int]] = []
    pair_gaps: list[float] = []
    for err, i, j in candidates:
        if not used[i] and not used[j]:
            used[i] = used[j] = True
            pairs.append((int(i), int(j)))
            pair_gaps.append(float(gap[i, j]))
    return replace(
        analysis, pairs=pairs, gaps=np.asarray(pair_gaps), tolerance=float(tolerance)
    )


def overlap_weight(analysis: QuasienergyAnalysis, psi0: np.ndarray) -> float:
    """Share of the initial state's eigenbasis weight held by pi-paired states.

    Each degenerate eigenspace contributes its |psi0|^2 weight times the
    share of its states that are pi-paired, so the result does not depend
    on the basis the eigensolver picked inside a degenerate eigenspace.
    The denominator sums |<phi_gamma|psi0>|^2 over the full eigenbasis and
    must come out as 1 for a complete orthonormal basis; a deviation beyond
    1e-6 signals a bad eigenbasis and raises.
    """
    if len(psi0) != analysis.dim:
        raise ValueError(f"dimension mismatch: state has {len(psi0)}, eigenbasis has {analysis.dim}")
    amplitudes = analysis.eigenvectors.conj().T @ np.asarray(psi0, dtype=np.complex128)
    weights = np.abs(amplitudes) ** 2
    denominator = float(weights.sum())
    if abs(denominator - 1.0) > 1e-6:
        raise NumericalError(
            f"eigenbasis overlap weights sum to {denominator!r}, expected 1 "
            "(non-orthonormal eigenbasis?)"
        )
    paired = np.zeros(analysis.dim, dtype=bool)
    paired[[k for pair in analysis.pairs for k in pair]] = True
    order = np.argsort(analysis.epsilons, kind="stable")
    eigenvalues = np.exp(-1j * analysis.epsilons[order] * analysis.period)
    weight = 0.0
    for cluster in _cluster_indices(eigenvalues):
        members = order[cluster]
        weight += weights[members].sum() * paired[members].mean()
    return float(weight / denominator)


def analyze(
    model: ModelSpec | FloquetOperator,
    psi0: np.ndarray | None = None,
    tolerance: float | None = None,
) -> tuple[QuasienergyAnalysis, float | None]:
    """Full pipeline: eigensystem, pair detection, optional overlap weight."""
    op = as_operator(model)
    analysis = detect_pi_pairs(floquet_eigensystem(op), tolerance)
    weight = overlap_weight(analysis, psi0) if psi0 is not None else None
    return analysis, weight
