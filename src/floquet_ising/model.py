"""Driven transverse-field Ising model and its exact one-period propagator.

Each driving period of length T alternates two steps: a global x-field
pulse, exp(-i h_x T1 sum_i sigma_x^i), and an Ising interaction step,
exp(-i T2 sum_bonds J_b sigma_z^i sigma_z^j). The field pulse is the
N-fold Kronecker power of the one-qubit rotation exp(-i h_x T1 sigma_x),
so it splits into max(2, ceil(N/4)) factors F_i on k_i <= 4 consecutive
qubits, balanced and smaller first (N//2 and N - N//2 for N <= 8), each
applied to its axis of a state's amplitudes read as a grid with one axis
per factor. With the Z-basis Ising phase, a period is O(2^N sum_i 2^k_i).

The recurrence runs in the frame chi = L^-1 psi, L = diag((-i)^popcount),
the phase gate diag(1, i) on every qubit undone. There the field pulse is
the real rotation exp(-i h_x T1 sum_i sigma_y^i), so its factors O_i are
real, and the h_x derivative of the step is the real generator
T1 sum_i (-i sigma_y^i) applied to its output. L commutes with the Ising
phase and with every Z-basis observable and does not depend on h_x or J,
so probabilities, the QFI and the CFI of a diagonal observable read the
same on frame states; only apply takes states back out of the frame. The
J derivative of the Ising step is the same phase times a diagonal
generator.

An entry (a, b) of a factor on k qubits depends on its Hamming class
d = popcount(a ^ b) alone: it is sign * m_d, with the real class value
m_d = cos(h_x T1)^(k - d) sin(h_x T1)^d and sign = (-1)^popcount(b & ~a).
The k + 1 class values are taken in extended precision and rounded to
doubles together, so that the factors' product stays unitary to about one
rounding, which keeps a state's norm from drifting over long runs; each
factor is then gathered from them through its (distance, sign) table.

An operator may hold a block of cells, one ModelSpec each, that share N,
boundary and protocol: the field factors and the Ising phase are stored
with a leading cell axis, and one period advances every cell at once. One
spec is the block of one cell.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial, reduce
from itertools import accumulate
from typing import Iterator, Sequence

import numpy as np

from . import states

FIELD_THEN_ISING = "field_then_ising"
ISING_THEN_FIELD = "ising_then_field"
STEP_ORDERS = (FIELD_THEN_ISING, ISING_THEN_FIELD)

RING = "ring"
CHAIN = "chain"
BOUNDARIES = (RING, CHAIN)

TARGET_HX = "hx"
TARGET_J = "j"
TARGETS = (TARGET_HX, TARGET_J)


def default_boundary(n_qubits: int) -> str:
    """Ring for the three-qubit system, open chain otherwise."""
    return RING if n_qubits == 3 else CHAIN


@dataclass(frozen=True)
class DriveProtocol:
    """Two-step drive timing: T1 + T2 = period exactly (T2 is derived)."""

    period: float = 1.0
    t1: float = 0.5
    step_order: str = FIELD_THEN_ISING

    def __post_init__(self):
        if not (np.isfinite(self.period) and np.isfinite(self.t1)):
            raise ValueError(f"period and t1 must be finite, got period={self.period}, t1={self.t1}")
        if self.period <= 0:
            raise ValueError(f"period must be positive, got {self.period}")
        if not 0 < self.t1 < self.period:
            raise ValueError(
                f"t1 must lie strictly inside (0, period), got t1={self.t1}, period={self.period}"
            )
        if self.step_order not in STEP_ORDERS:
            raise ValueError(f"step_order must be one of {STEP_ORDERS}, got {self.step_order!r}")

    @property
    def t2(self) -> float:
        return self.period - self.t1


def _bond_list(n_qubits: int, boundary: str) -> list[tuple[int, int]]:
    if boundary not in BOUNDARIES:
        raise ValueError(f"boundary must be one of {BOUNDARIES}, got {boundary!r}")
    if n_qubits < 2:
        return []
    bonds = [(i, i + 1) for i in range(1, n_qubits)]
    if boundary == RING:
        if n_qubits < 3:
            raise ValueError("ring boundary requires at least 3 qubits")
        bonds.append((n_qubits, 1))
    return bonds


@dataclass(frozen=True)
class ModelSpec:
    """Full parameterization of the driven Ising system.

    h_x is one real value, 0-d numpy values included. couplings is either
    one such value (uniform J on every bond), or a sequence of per-bond
    values ordered like bonds(): (1,2), (2,3), ..., plus the closing (N,1)
    bond for a ring.
    """

    n_qubits: int
    h_x: float
    couplings: float | tuple[float, ...]
    boundary: str
    protocol: DriveProtocol = DriveProtocol()

    def __post_init__(self):
        states.validate_qubit_count(self.n_qubits)
        bonds = _bond_list(self.n_qubits, self.boundary)
        if np.ndim(self.h_x) == 0:
            object.__setattr__(self, "h_x", float(self.h_x))
        if np.ndim(self.couplings) == 0:
            object.__setattr__(self, "couplings", float(self.couplings))
            if self.n_qubits == 1 and self.couplings != 0.0:
                raise ValueError("interaction terms require at least 2 qubits")
        else:
            values = tuple(float(j) for j in self.couplings)
            if len(values) != len(bonds):
                raise ValueError(
                    f"{self.boundary} with {self.n_qubits} qubits has {len(bonds)} bonds, "
                    f"got {len(values)} coupling values"
                )
            object.__setattr__(self, "couplings", values)
        if not np.isfinite([self.h_x, *np.atleast_1d(self.couplings)]).all():
            raise ValueError(f"h_x and couplings must be finite, got h_x={self.h_x}, couplings={self.couplings}")

    @classmethod
    def dimensionless(
        cls,
        n_qubits: int,
        hx_t: float,
        j_t: float | Sequence[float],
        *,
        period: float = 1.0,
        t1_fraction: float = 0.5,
        boundary: str | None = None,
        step_order: str = FIELD_THEN_ISING,
    ) -> "ModelSpec":
        """Build a spec from the dimensionless products h_x*T and J*T."""
        protocol = DriveProtocol(period=period, t1=t1_fraction * period, step_order=step_order)
        if np.ndim(j_t) == 0:
            couplings: float | tuple[float, ...] = float(j_t) / period
        else:
            couplings = tuple(float(j) / period for j in j_t)
        return cls(
            n_qubits=n_qubits,
            h_x=float(hx_t) / period,
            couplings=couplings,
            boundary=boundary if boundary is not None else default_boundary(n_qubits),
            protocol=protocol,
        )

    def bonds(self) -> list[tuple[int, int]]:
        return _bond_list(self.n_qubits, self.boundary)

    @property
    def uniform(self) -> bool:
        return isinstance(self.couplings, float)

    def bond_values(self) -> np.ndarray:
        n_bonds = len(self.bonds())
        if self.uniform:
            return np.full(n_bonds, self.couplings)
        return np.asarray(self.couplings)


def _other_double(exact: np.ndarray, nearest: np.ndarray) -> np.ndarray:
    """The double next to `nearest` on the side of `exact`; `nearest` itself where it is exact."""
    return np.nextafter(nearest, np.where(nearest < exact, np.inf, np.where(nearest > exact, -np.inf, nearest)))


@lru_cache
def _krawtchouk(k: int) -> np.ndarray:
    """K[w, d], the coefficient of z^d in (1 + z)^(k - w) (1 - z)^w."""
    return np.array([reduce(np.convolve, [[1, 1]] * (k - w) + [[1, -1]] * w, [1]) for w in range(k + 1)])


@lru_cache
def _class_table(k: int) -> tuple[np.ndarray, np.ndarray]:
    """(distance, sign) of the entries (a, b) of a factor on k qubits: popcount(a ^ b) and (-1)^popcount(b & ~a)."""
    index = np.arange(1 << k)
    counts = sum(((index >> bit) & 1 for bit in range(k)), np.zeros_like(index))
    a, b = index[:, np.newaxis], index
    return counts[a ^ b], 1 - 2 * (counts[b & ~a] & 1)


def _class_values(c: np.ndarray, s: np.ndarray, k: int) -> np.ndarray:
    """m_d = c^(k - d) s^d for d = 0..k and every cell, folded from the lowest qubit up with s on the first d.

    The fold order fixes how each value rounds in extended precision, and so
    which double the rounding pick starts from.
    """
    weights = np.arange(k + 1)
    return reduce(lambda value, j: np.where(j < weights, s, c) * value, range(k), np.ones((len(c), k + 1), c.dtype))


def _rounded_field_factors(angle: np.ndarray, classes: list[np.ndarray]) -> list[np.ndarray]:
    """The extended-precision class values of the field factors, rounded to doubles so that their product stays unitary.

    An entry of a factor F on k qubits is (-i)^d m_d, and so is its rounding
    error, with d the distance of row and column, so both are diagonal in
    the Hadamard basis: with w minus signs, F's eigenvalue is
    lambda_w = exp(-i angle (k - 2w)) and the error's is
    sum_d K[w, d] (-i)^d eps_d, eps_d the error of m_d. Rounded to the
    nearest double, the moduli miss 1 by up to a few ulps, the same way
    every period, and a state's norm drifts. So each class goes to the
    nearest double or to the other neighbour, as bit d of a choice says, and
    each cell takes the choices, one per factor, whose product eigenvalues
    have the smallest largest modulus error, to first order.
    """
    neighbours, highs, lows = [], [], []
    for exact in classes:
        k = exact.shape[-1] - 1
        weights = np.arange(k + 1)
        nearest = exact.astype(np.float64)
        choices = np.stack((nearest, _other_double(exact, nearest)))
        errors = (choices - exact).astype(np.float64) * np.array([1, -1j, -1, 1j])[weights % 4]
        # shares[r, cell, d, w]: class d's share of |lambda_w| - 1 under rounding r
        conj_eigenvalues = np.exp(1j * (k - 2 * weights) * angle)
        shares = (errors[..., np.newaxis] * _krawtchouk(k).T * conj_eigenvalues[:, np.newaxis]).real
        # moduli[cell, w, i]: |lambda_w| - 1 under choice i
        moduli = shares[0].sum(axis=1)[..., np.newaxis]
        for d in weights:
            moduli = np.concatenate((moduli, moduli + (shares[1] - shares[0])[:, d, :, np.newaxis]), axis=-1)
        neighbours.append(choices)
        highs.append(moduli.max(axis=1))
        lows.append(moduli.min(axis=1))
    # worst[cell, (i_0, i_1, ...)]: the largest |sum of modulus errors| over the product's eigenvalues
    outer_sum = partial(reduce, lambda a, b: (a[:, :, np.newaxis] + b[:, np.newaxis]).reshape(len(a), -1))
    worst = np.maximum(outer_sum(highs), -outer_sum(lows))
    picks = np.unravel_index(np.argmin(worst, axis=1), [high.shape[1] for high in highs])
    return [
        np.where((pick[:, np.newaxis] >> np.arange(nearest.shape[-1])) & 1, other, nearest)
        for pick, (nearest, other) in zip(picks, neighbours)
    ]


class FloquetOperator:
    """Exact stroboscopic propagator for one driving period, over a block of cells.

    A cell is one ModelSpec; the cells of a block share n_qubits, boundary
    and protocol, and their field factors and Ising phases carry a leading
    cell axis. The factors are stored in the frame chi = L^-1 psi, where
    they are real, each gathered from its cell's rounded class values:
    O = sign * m[distance], and the generator factors are
    Y = T1 * sign * (distance == 1). frame_phase is the diagonal of L,
    (-i)^popcount, and frame_trajectory yields frame states. L is a Z-basis
    phase independent of h_x and J, so no Z-basis probability, QFI or CFI
    can see it; apply alone enters and leaves the frame, so it acts as U_F
    itself. Immutable after construction; safe to share across workers.
    """

    def __init__(self, specs: ModelSpec | Sequence[ModelSpec]):
        self.specs = (specs,) if isinstance(specs, ModelSpec) else tuple(specs)
        if not self.specs:
            raise ValueError("an operator needs at least one spec")
        first = self.specs[0]
        for spec in self.specs[1:]:
            if (spec.n_qubits, spec.boundary, spec.protocol) != (first.n_qubits, first.boundary, first.protocol):
                raise ValueError("the specs of one operator must share n_qubits, boundary and protocol")
        n = first.n_qubits
        p = first.protocol
        self.cells = len(self.specs)
        self.dim = 1 << n

        # each cell's diagonal of sum_bonds J_b z_i z_j, as (cells, 1, dim)
        # to broadcast over the rows of that cell's block, and the
        # unweighted sum (the J-derivative generator for uniform couplings)
        couplings = np.array([spec.bond_values() for spec in self.specs])
        zz_weighted = np.zeros((self.cells, 1, self.dim))
        zz_plain = np.zeros(self.dim)
        for bond, (i, j) in enumerate(first.bonds()):
            pair = states.z_values(n, i) * states.z_values(n, j)
            zz_weighted += couplings[:, bond, np.newaxis, np.newaxis] * pair
            zz_plain += pair
        # Z-basis diagonal of the Ising step, exp(-i T2 sum_bonds J_b z_i z_j)
        self._ising_phases = np.exp(-1j * p.t2 * zz_weighted)
        self._ising_generator = -1j * p.t2 * zz_plain

        # the real field factors O = sign * m[distance] in the frame, top
        # qubits first, from the rounded class values (module docstring), and
        # the h_x generator factors T1 * sign on distance 1, the frame's
        # -i T1 L^-1 sum_i sigma_x^i L. The last ones multiply the complex
        # minor axis, so they are stored transposed and as complex.
        angle = np.array([spec.h_x for spec in self.specs], dtype=np.longdouble)[:, np.newaxis] * p.t1
        c, s = np.cos(angle), np.sin(angle)
        count = max(2, -(-n // 4))  # the factors' qubit counts, top first (module docstring)
        sizes = [n // count + (i >= count - n % count) for i in range(count)]
        values = _rounded_field_factors(angle.astype(float), [_class_values(c, s, k) for k in sizes])
        self._factors = [sign * np.take(m, d, axis=1) for m, (d, sign) in zip(values, map(_class_table, sizes))]
        self._generators = [p.t1 * sign * (d == 1) for d, sign in map(_class_table, sizes)]
        for stored in (self._factors, self._generators):
            stored[-1] = stored[-1].swapaxes(-1, -2).astype(np.complex128)
        self.frame_phase = np.array([1, -1j, -1, 1j])[states.popcounts(n) % 4]
        # each non-minor axis of a row's grid as (length, floats after it in the float view)
        self._axes = [(1 << k, 2 * self.dim >> total) for k, total in zip(sizes[:-1], accumulate(sizes))]
        self._minor = 1 << sizes[-2], 1 << sizes[-1]  # the lengths of its two minor axes
        self._field_first = p.step_order == FIELD_THEN_ISING

    def _require_one_cell(self) -> None:
        if self.cells != 1:
            raise ValueError(f"a block of {self.cells} cells has no single spec")

    @property
    def ising_phase(self) -> np.ndarray:
        """The Z-basis diagonal of a one-cell operator's Ising step."""
        self._require_one_cell()
        return self._ising_phases[0, 0]

    def _require_target(self, target: str | None) -> None:
        if target is not None and target not in TARGETS:
            raise ValueError(f"derivative target must be one of {TARGETS}, got {target!r}")
        if target == TARGET_J and not all(spec.uniform for spec in self.specs):
            raise ValueError("J-derivative requires uniform couplings")

    def _field(self, block: np.ndarray, target: str | None) -> np.ndarray:
        """The field step in the frame on every row: each factor applied to its axis of the row's grid.

        Every factor but the last contracts a non-minor axis, so it is one
        real product on the float view of the grid, with the interleaved
        re/im axis left free, at half the flops of the complex product on
        the minor axis. No product is larger than a one-cell operator's (a
        larger one may be split across BLAS threads, which stalls pooled
        workers once threads outnumber cores) and a row's result does not
        depend on the block. On the h_x target, row 1 gains the real
        generator, one factor per axis, applied to row 0's result f0: the
        generator commutes with the step.
        """
        cells, rows, _ = block.shape
        grid = block.view(np.float64)
        for factor, (size, tail) in zip(self._factors, self._axes):
            grid = factor[:, np.newaxis] @ grid.reshape(cells, -1, size, tail)
        minor, last = self._minor
        out = grid.view(np.complex128).reshape(cells, -1, last) @ self._factors[-1]
        out = out.reshape(cells, rows, -1, minor, last)
        if target == TARGET_HX:
            f0 = out[:, 0]
            flat = f0.view(np.float64)
            for generator, (size, tail) in zip(self._generators, self._axes):
                out[:, 1] += (generator @ flat.reshape(cells, -1, size, tail)).view(np.complex128).reshape(f0.shape)
            out[:, 1] += f0 @ self._generators[-1]
        return out.reshape(block.shape)

    def _ising(self, block: np.ndarray, target: str | None) -> np.ndarray:
        """The Ising step, a Z-basis phase; on the J target row 1 gains the generator times row 0."""
        block = block * self._ising_phases
        if target == TARGET_J:
            block[:, 1] += self._ising_generator * block[:, 0]
        return block

    def _frame_period(self, block: np.ndarray, target: str | None = None) -> np.ndarray:
        """One period in the frame chi = L^-1 psi on every row of a (cells, k, dim) block.

        Row k of cell c is evolved with cell c's factors and phase. On the
        step that carries `target`, row 1 also gains the derivative of that
        step applied to row 0, so rows (chi, dchi) come back as
        (U' chi, U' dchi + dU' chi), U' = L^-1 U_F L, exact for theta in
        {h_x, uniform J}: each step Hamiltonian is linear in its parameter
        and commutes with its derivative. Each step returns a new array, so
        the caller's block is never written.
        """
        for step in (self._field, self._ising) if self._field_first else (self._ising, self._field):
            block = step(block, target)
        return block

    def apply(self, psi: np.ndarray) -> np.ndarray:
        """One period of evolution, U_F |psi>, for each cell's row of psi.

        psi is a (cells, dim) array, or a single state for a one-cell
        operator; the result has the shape of psi.
        """
        psi = np.asarray(psi)
        if psi.shape != (self.cells, self.dim) and (self.cells, psi.shape) != (1, (self.dim,)):
            raise ValueError(
                f"dimension mismatch: states of shape {psi.shape}, operator needs ({self.cells}, {self.dim})"
            )
        chi = self._frame_period(psi.reshape(self.cells, 1, self.dim) * self.frame_phase.conj())[:, 0]
        return (chi * self.frame_phase).reshape(psi.shape)

    def frame_trajectory(self, psi0: np.ndarray, n_max: int, target: str | None = None) -> Iterator[np.ndarray]:
        """The evolution loop in the frame: blocks L^-1 psi_n, or L^-1 (psi_n, dpsi_n) with a target, n = 0..n_max.

        Every cell starts from the state psi0, with dpsi_0 = 0; each block is
        (cells, rows, dim), one row without a target and two with one, and
        each period is one _frame_period call on the whole block. With a
        target theta, dpsi_n = d psi_n / d theta by the product rule over
        periods, d psi_{n+1} = U d psi_n + (dU / d theta) psi_n. The frame
        is entered once, here, and the arguments are checked here, when
        called, before any caller allocates its records; a period pays for
        no checks or copies.
        """
        if n_max < 1:
            raise ValueError(f"n_max must be >= 1, got {n_max}")
        self._require_target(target)
        if len(psi0) != self.dim:
            raise ValueError(f"dimension mismatch: state has {len(psi0)}, operator needs {self.dim}")
        start = np.zeros((self.cells, 1 if target is None else 2, self.dim), dtype=np.complex128)
        start[:, 0] = psi0 * self.frame_phase.conj()
        return accumulate(range(n_max), lambda block, _: self._frame_period(block, target), initial=start)

