"""Floquet eigenproblem: quasienergies, pi-pairs and initial-state overlap.

Quasienergies are the folded eigenphases of the one-period propagator,
eps_alpha = -arg(lambda_alpha)/T in (-pi/T, pi/T]. Two eigenstates form a
pi-pair when their quasienergies differ by approximately pi/T on the
circle; a superposition of such a pair returns to itself only after two
periods, which is the mechanism behind period doubling.

The eigensystem is solved one sector of the global flip P = prod_i sigma_x^i
at a time, with no dense propagator. P commutes with both drive steps, so
U_F is exactly block diagonal in the P = +1 and P = -1 eigenbases. Moving
half of the Ising step to the other end of the period turns U_F into a
complex symmetric unitary S = D F D (the drive is time-reversal invariant;
Haake, Quantum Signatures of Chaos, ch. 4): D is diagonal and the field
step F has a closed form in the Hamming distance of two basis states, so
both half-size sector blocks of S are written down directly, and each is
solved by one real symmetric eigh. The eigen-residual is then taken against
the full U_F by running one period of the operator on the eigenvectors, in
its frame L^-1 psi: L is a diagonal phase, so the residual's norm is the
same in and out of the frame. The operator's field factors come from the
same Hamming classes, but on groups of at most four qubits, in the real
frame and rounded from extended precision, with no square root of the
Ising phase and no parity map, so a slip in either shows up in the
residual. In the period-doubled phase a pi-pair joins states of opposite
parity (Khemani et al., PRL 116, 250401 (2016); Else, Bauer & Nayak,
PRL 117, 090402 (2016)).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import NumericalError
from .model import ISING_THEN_FIELD, FloquetOperator, ModelSpec, _class_table

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
# widening of the pi-pair search window, as a fraction of the zone 2 pi / T;
# it only has to exceed the rounding of the window arithmetic, since every
# candidate inside is tested with the exact gap expression
PAIR_WINDOW_SLACK = 1e-9


def default_pair_tolerance(period: float = 1.0) -> float:
    """5% of the pi/T gap; exposed as a flag since only 'approximately
    pi/T' is physically defined."""
    return 0.05 * np.pi / period


@dataclass
class QuasienergyAnalysis:
    """Eigensystem of a Floquet operator plus pi-pairing summary.

    eigenvectors holds one normalized eigenvector per column, matching
    epsilons (None for a spectrum derived without them), and parities each
    state's sector of P = prod_i sigma_x^i (+1 or -1). pairs is a matching
    (each index used at most once); gaps holds the circle distance of each
    pair. modulus_error and residual are the solver's health checks: the
    largest ||lambda| - 1| and the largest eigen-residual norm against the
    full propagator.
    """

    epsilons: np.ndarray
    eigenvectors: np.ndarray | None
    period: float
    parities: np.ndarray | None = None
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


def _cluster_labels(eigenvalues: np.ndarray) -> np.ndarray:
    """Cluster number of each (sorted-by-angle) eigenvalue.

    Neighbours closer than DEGENERACY_CLUSTER_TOL share a cluster. The
    eigenvalues live on the unit circle, so the last cluster may wrap
    around through angle +-pi into the first and is then merged with it.
    """
    breaks = ~(np.abs(np.diff(eigenvalues)) < DEGENERACY_CLUSTER_TOL)
    labels = np.concatenate(([0], np.cumsum(breaks)))
    if labels[-1] > 0 and abs(eigenvalues[0] - eigenvalues[-1]) < DEGENERACY_CLUSTER_TOL:
        labels[labels == labels[-1]] = 0
    return labels


def _column_norms(columns: np.ndarray) -> np.ndarray:
    """2-norm of every column, without the conjugate copy np.linalg.norm makes."""
    real, imag = columns.real, columns.imag
    return np.sqrt(np.einsum("ij,ij->j", real, real) + np.einsum("ij,ij->j", imag, imag))


def _sector_blocks(spec: ModelSpec, ising_phase: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The P = +1 and P = -1 blocks of S = D F D in closed form, D the square root of the Ising phase.

    The field step is the N-fold Kronecker power of
    [[cos t, -i sin t], [-i sin t, cos t]], t = h_x T1, so
    F[a, b] = g[w] = cos(t)^(N - w) (-i sin t)^w with w = popcount(a XOR b).
    P sends b to dim-1-b, which flips every bit, so for a, b < dim/2 the
    partner entry F[a, dim-1-b] is g[N - w], and D is P-invariant; the
    sector blocks are therefore D_a D_b (g[w] +- g[N - w]), with w read
    from the cached Hamming table of the first N - 1 qubits.
    """
    n = spec.n_qubits
    half = len(ising_phase) // 2
    angle = spec.h_x * spec.protocol.t1
    flips = np.arange(n + 1)
    # real powers keep 0**0 = 1 where cos or sin vanishes; (-i)^w by table
    g = np.cos(angle) ** (n - flips) * np.sin(angle) ** flips * np.array([1, -1j, -1, 1j])[flips % 4]
    distance = _class_table(n - 1)[0]
    d = np.sqrt(ising_phase[:half])
    outer = d[:, np.newaxis] * d[np.newaxis, :]
    return (g + g[::-1])[distance] * outer, (g - g[::-1])[distance] * outer


def _symmetric_unitary_eig(block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs of a complex symmetric unitary matrix from one real eigh.

    Such a matrix is X + iY with X, Y real symmetric, and unitarity gives
    XY = YX, so one real orthonormal basis diagonalizes both. It comes
    from eigh of cos(a) X + sin(a) Y, whose eigenvalue for lambda is
    Re(exp(-ia) lambda); the eigenvalues are the Rayleigh quotients
    q^T X q + i q^T Y q. Two distinct unit-circle eigenvalues can share
    that real value, so each run of eigh eigenvalues closer than SPLIT_TOL
    is re-solved with a small eig of the block projected onto the run.
    """
    real, imag = block.real, block.imag
    combined, q = np.linalg.eigh(np.cos(MIX_ANGLE) * real + np.sin(MIX_ANGLE) * imag)
    eigenvalues = np.einsum("ij,ij->j", q, real @ q) + 1j * np.einsum("ij,ij->j", q, imag @ q)
    vectors = q.astype(np.complex128)
    bounds = np.concatenate(([0], np.flatnonzero(np.diff(combined) >= SPLIT_TOL) + 1, [len(combined)]))
    longer = np.flatnonzero(np.diff(bounds) > 1)
    for start, stop in zip(bounds[longer], bounds[longer + 1]):
        run = np.arange(start, stop)
        basis = q[:, run]
        eigenvalues[run], rotation = np.linalg.eig(basis.T @ block @ basis)
        vectors[:, run] = basis @ rotation
    return eigenvalues, vectors


def fold_quasienergies(eigenvalues: np.ndarray, period: float) -> np.ndarray:
    """Quasienergies -arg(lambda)/T, the arg = pi boundary folded onto +pi/T: every value in (-pi/T, pi/T]."""
    epsilons = -np.angle(eigenvalues) / period
    epsilons[epsilons <= -np.pi / period] += 2.0 * np.pi / period
    return epsilons


def floquet_eigensystem(spec: ModelSpec) -> QuasienergyAnalysis:
    """Diagonalize U_F as two closed-form real symmetric eigenproblems (pairs left empty).

    With D the principal square root of the diagonal Ising phase,
    S = D^-1 U_F D (field_then_ising) or D U_F D^-1 (ising_then_field)
    equals D F D, where F is the field step, the exponential of the real
    symmetric sum_i sigma_x^i; so S is complex symmetric and unitary.

    U_F and S commute with the global flip P = prod_i sigma_x^i: the field
    step is built from sigma_x alone, and every sigma_z^i sigma_z^j bond
    term is invariant under flipping all spins. P sends basis index s to
    dim-1-s, so the exact P = +1 and P = -1 blocks of S are half-size, and
    _sector_blocks writes them down from the Hamming distances of the
    first half of the basis. Each is solved by _symmetric_unitary_eig.
    The eigenvalues are sorted before lifting: an eigenvector v of a block
    goes straight to its sorted column as [v; +-R v] / sqrt(2) (R reverses
    dim/2 entries), an eigenvector of S, with its rows scaled by D (or
    D^-1) to give that of U_F; the sign is its parity, returned as parities.

    Eigenvectors inside a degenerate eigenvalue cluster are re-orthonormalized:
    the small eig on a degenerate run does not guarantee orthogonality, and
    the h_x = J = 0 identity point is fully degenerate. The eigen-residual is
    taken against the full U_F, by one period of the operator on a quarter
    of the eigenvectors at a time, so any error in D, in the block map or in
    a sign fails the residual check. The period runs in the operator's frame
    L^-1 psi, on eigenvector rows times L^-1: L is a diagonal phase, so
    ||L^-1 (U_F v - lambda v)|| = ||U_F v - lambda v||.
    """
    op = FloquetOperator(spec)
    period = spec.protocol.period
    half = op.dim // 2
    halves = (slice(None, half), slice(half, None))
    # U_F = scale S scale^-1, so scale times an eigenvector of S is one of U_F
    scale = np.sqrt(op.ising_phase[:half])
    if spec.protocol.step_order == ISING_THEN_FIELD:
        scale = scale.conj()
    eigenvalues = np.empty(op.dim, dtype=np.complex128)
    sector_vectors = []
    for sector, block in zip(halves, _sector_blocks(spec, op.ising_phase)):
        eigenvalues[sector], vectors = _symmetric_unitary_eig(block)
        sector_vectors.append(vectors)

    modulus_error = float(np.max(np.abs(np.abs(eigenvalues) - 1.0)))
    if modulus_error > UNIT_MODULUS_TOL:
        raise NumericalError(
            f"eigenvalues deviate from unit modulus by {modulus_error:.3e} "
            f"(h_x={spec.h_x}, couplings={spec.couplings}, n={spec.n_qubits})"
        )

    epsilons = fold_quasienergies(eigenvalues, period)
    order = np.argsort(epsilons, kind="stable")
    eigenvalues = eigenvalues[order]
    epsilons = epsilons[order]
    column = np.empty(op.dim, dtype=np.intp)
    column[order] = np.arange(op.dim)
    # the normalization below supplies the 1/sqrt(2) of the lift; column
    # major, so every lifted column is one contiguous write
    eigenvectors = np.empty((op.dim, op.dim), dtype=np.complex128, order="F")
    parities = np.empty(op.dim, dtype=int)
    for sign, sector, vectors in zip((1, -1), halves, sector_vectors):
        parities[column[sector]] = sign
        vectors *= scale[:, np.newaxis]
        eigenvectors[:half, column[sector]] = vectors
        eigenvectors[half:, column[sector]] = sign * vectors[::-1]
    del sector_vectors, vectors

    labels = _cluster_labels(eigenvalues)
    for label in np.flatnonzero(np.bincount(labels) > 1):
        cluster = np.flatnonzero(labels == label)
        eigenvectors[:, cluster] = np.linalg.qr(eigenvectors[:, cluster])[0]
    eigenvectors *= 1.0 / _column_norms(eigenvectors)

    # passes of dim/4 rows keep the period's work arrays small
    residual = 0.0
    step = max(op.dim // 4, 1)
    for start in range(0, op.dim, step):
        columns = slice(start, start + step)
        rows = eigenvectors[:, columns].T * op.frame_phase.conj()
        residuals = op._frame_period(rows[np.newaxis])[0]
        residuals -= rows * eigenvalues[columns, np.newaxis]
        residual = max(residual, float(np.max(_column_norms(residuals.T))))
    if residual > RESIDUAL_TOL:
        raise NumericalError(
            f"eigen-residual {residual:.3e} exceeds {RESIDUAL_TOL} "
            f"(h_x={spec.h_x}, couplings={spec.couplings}, n={spec.n_qubits})"
        )

    return QuasienergyAnalysis(
        epsilons=epsilons, eigenvectors=eigenvectors, period=period, parities=parities,
        modulus_error=modulus_error, residual=residual,
    )


def detect_pi_pairs(
    analysis: QuasienergyAnalysis, tolerance: float | None = None
) -> QuasienergyAnalysis:
    """Greedy matching of quasienergy pairs with gap within tolerance of pi/T.

    Candidates are sorted by |gap - pi/T| (ties by lower indices) and each
    state is used at most once, so the pair list is a deterministic matching.
    A pair is a candidate only if its circle distance is at least
    pi/T - tolerance, so each state's partners lie on the arc opposite it:
    on the sorted circle they are one searchsorted window per state, and
    only those pairs are tested.
    """
    period = analysis.period
    if tolerance is None:
        tolerance = default_pair_tolerance(period)
    target = np.pi / period
    # from pi/(2T) on, a gap nearer 0 than pi/T pairs: degenerate states count as pi-pairs
    if not 0 < tolerance < target / 2:
        raise ValueError(f"tolerance must be positive and below pi/(2T) = {target / 2}, got {tolerance}")

    eps = analysis.epsilons
    n = len(eps)
    zone = 2.0 * np.pi / period
    folded = eps % zone
    order = np.argsort(folded, kind="stable")
    circle = np.concatenate((folded[order], folded[order] + zone))
    # on the circle unrolled twice, the window of a state at x is
    # [x + reach, x + zone - reach): every other state at most once
    reach = target - tolerance - PAIR_WINDOW_SLACK * zone
    start = np.searchsorted(circle, circle[:n] + reach)
    counts = np.searchsorted(circle, circle[:n] + (zone - reach)) - start
    first = np.repeat(np.arange(n), counts)
    second = np.arange(counts.sum()) + np.repeat(start - (np.cumsum(counts) - counts), counts)
    ii, jj = order[first], order[second % n]
    canonical = ii < jj
    ii, jj = ii[canonical], jj[canonical]

    diff = (eps[ii] - eps[jj]) % zone
    gap = np.minimum(diff, zone - diff)
    error = np.abs(gap - target)
    keep = error <= tolerance
    ii, jj, gap, error = ii[keep], jj[keep], gap[keep], error[keep]
    ranked = np.lexsort((jj, ii, error))

    used = [False] * n
    pairs: list[tuple[int, int]] = []
    pair_gaps: list[float] = []
    for i, j, g in zip(ii[ranked].tolist(), jj[ranked].tolist(), gap[ranked].tolist()):
        if not used[i] and not used[j]:
            used[i] = used[j] = True
            pairs.append((i, j))
            pair_gaps.append(g)
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
    # |<phi|psi0>|^2 = |<psi0|phi>|^2, so no conjugate copy of the eigenvectors
    weights = np.abs(np.asarray(psi0, dtype=np.complex128).conj() @ analysis.eigenvectors) ** 2
    return paired_weight(analysis, weights)


def paired_weight(analysis: QuasienergyAnalysis, weights: np.ndarray) -> float:
    """overlap_weight from the eigenstates' weights |<phi_gamma|psi0>|^2, ordered like epsilons."""
    denominator = float(weights.sum())
    if abs(denominator - 1.0) > 1e-6:
        raise NumericalError(
            f"eigenbasis overlap weights sum to {denominator!r}, expected 1 "
            "(non-orthonormal eigenbasis?)"
        )
    paired = np.zeros(analysis.dim)
    paired[np.asarray(analysis.pairs, dtype=np.intp).reshape(-1)] = 1.0
    order = np.argsort(analysis.epsilons, kind="stable")
    labels = _cluster_labels(np.exp(-1j * analysis.epsilons[order] * analysis.period))
    share = np.bincount(labels, paired[order]) / np.bincount(labels)
    return float(np.bincount(labels, weights[order]) @ share / denominator)


def analyze(
    spec: ModelSpec, psi0: np.ndarray, tolerance: float | None = None
) -> tuple[QuasienergyAnalysis, float]:
    """Full pipeline: eigensystem, pair detection and psi0's overlap weight."""
    analysis = detect_pi_pairs(floquet_eigensystem(spec), tolerance)
    return analysis, overlap_weight(analysis, psi0)
