"""Driven transverse-field Ising model and its exact one-period propagator.

Each driving period of length T alternates two steps: a global x-field
pulse, exp(-i h_x T1 sum_i sigma_x^i), and an Ising interaction step,
exp(-i T2 sum_bonds J_b sigma_z^i sigma_z^j). Each step is a sum of
commuting terms that is diagonal in its own basis: the field in the
Hadamard basis, where sum_i sigma_x^i has eigenvalue N - 2 popcount(s),
and the interaction in the Z basis. A period is therefore two diagonal
phases, with one Walsh-Hadamard transform W into and out of the field
basis; W is applied as two small +-1 Kronecker factors, so one period
costs O(2^(3N/2)) and keeps exact zeros exact. The derivative of a step
with respect to its parameter is the same phase times a diagonal
generator.

An operator may hold a block of cells, one ModelSpec each, that share N,
boundary and protocol: only the two phases depend on the cell, so they
are stored with a leading cell axis and one period advances every cell
at once. One spec is the block of one cell.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

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

    couplings is either a single float (uniform J on every bond) or a
    sequence of per-bond values ordered like bonds(): (1,2), (2,3), ...,
    plus the closing (N,1) bond for a ring.
    """

    n_qubits: int
    h_x: float
    couplings: float | tuple[float, ...]
    boundary: str
    protocol: DriveProtocol = DriveProtocol()

    def __post_init__(self):
        states.validate_qubit_count(self.n_qubits)
        bonds = _bond_list(self.n_qubits, self.boundary)
        if isinstance(self.couplings, (int, float)):
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
        if isinstance(j_t, (int, float)):
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


def _hadamard(bits: int) -> np.ndarray:
    """Unnormalised Walsh-Hadamard matrix on `bits` qubits, entry (a, b) = (-1)^popcount(a & b)."""
    index = np.arange(1 << bits)
    both = index[:, np.newaxis] & index[np.newaxis, :]
    parity = np.zeros_like(both)
    for pos in range(bits):
        parity ^= (both >> pos) & 1
    return 1.0 - 2.0 * parity


class FloquetOperator:
    """Exact stroboscopic propagator for one driving period, over a block of cells.

    A cell is one ModelSpec. The cells of a block share n_qubits, boundary
    and protocol, so they differ only in the two diagonal phases, which are
    stored with a leading cell axis; the transform W and the derivative
    generators are the same for every cell. One spec is the block of one
    cell. The period is a table of steps in drive order, each a diagonal
    phase in its own basis with the diagonal generator of its parameter
    derivative. Immutable after construction; safe to share across sweep
    workers.
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

        # sum_i sigma_x^i in the Hadamard basis; the 1/2^N of the
        # unnormalised transform rides on the field phase
        x_sum = (n - 2 * states.popcounts(n)).astype(float)
        # phases are (cells, 1, dim): one row per cell, broadcast over the
        # rows of that cell's block
        h_x = np.array([spec.h_x for spec in self.specs])[:, np.newaxis, np.newaxis]
        # each cell's diagonal of sum_bonds J_b z_i z_j, and the unweighted
        # sum (the J-derivative generator for uniform couplings)
        couplings = np.array([spec.bond_values() for spec in self.specs])
        zz_weighted = np.zeros((self.cells, 1, self.dim))
        zz_plain = np.zeros(self.dim)
        for bond, (i, j) in enumerate(first.bonds()):
            pair = states.z_values(n, i) * states.z_values(n, j)
            zz_weighted += couplings[:, bond, np.newaxis, np.newaxis] * pair
            zz_plain += pair

        # Z-basis diagonal of the Ising step, exp(-i T2 sum_bonds J_b z_i z_j)
        self._ising_phases = np.exp(-1j * p.t2 * zz_weighted)

        # (in Hadamard basis, phases, derivative generator, target)
        field_phases = np.exp(-1j * h_x * p.t1 * x_sum) / self.dim
        field = (True, field_phases, -1j * p.t1 * x_sum, TARGET_HX)
        ising = (False, self._ising_phases, -1j * p.t2 * zz_plain, TARGET_J)
        self._steps = (field, ising) if p.step_order == FIELD_THEN_ISING else (ising, field)
        # W_hi acts from the left, on the float view of the states, at half
        # the flops of a complex product; W_lo mixes the interleaved real
        # and imaginary parts, so it is complex like the states
        self._w_hi = _hadamard(n // 2)
        self._w_lo = _hadamard(n - n // 2).astype(np.complex128)

    def _require_one_cell(self) -> None:
        if self.cells != 1:
            raise ValueError(f"a block of {self.cells} cells has no single spec")

    @property
    def spec(self) -> ModelSpec:
        """The spec of a one-cell operator."""
        self._require_one_cell()
        return self.specs[0]

    @property
    def ising_phase(self) -> np.ndarray:
        """The Z-basis diagonal of a one-cell operator's Ising step."""
        self._require_one_cell()
        return self._ising_phases[0, 0]

    def _require_dim(self, psi: np.ndarray) -> None:
        if len(psi) != self.dim:
            raise ValueError(f"dimension mismatch: state has {len(psi)}, operator needs {self.dim}")

    def _cell_rows(self, psi: np.ndarray) -> np.ndarray:
        """psi as (cells, 1, dim): one state per cell, or a single state for one cell."""
        psi = np.asarray(psi)
        if psi.shape != (self.cells, self.dim) and (self.cells, psi.shape) != (1, (self.dim,)):
            raise ValueError(
                f"dimension mismatch: states of shape {psi.shape}, operator needs ({self.cells}, {self.dim})"
            )
        return psi.reshape(self.cells, 1, self.dim)

    def _transform(self, block: np.ndarray) -> np.ndarray:
        """Unnormalised Hadamard transform W of every row.

        Each row is a (2^(N//2), 2^(N - N//2)) grid, on which
        W = W_hi (x) W_lo acts as W_hi @ grid @ W_lo. W_hi is applied to
        each row and W_lo to each cell's rows, so no product is larger than
        a one-cell operator's (a larger one may be split across BLAS
        threads, which stalls pooled workers once threads outnumber cores)
        and a row's result does not depend on the block.
        """
        grid = block.view(np.float64).reshape(-1, len(self._w_hi), 2 * len(self._w_lo))
        left = (self._w_hi @ grid).view(np.complex128)
        return (left.reshape(len(block), -1, len(self._w_lo)) @ self._w_lo).reshape(block.shape)

    def _period(self, block: np.ndarray, target: str | None = None) -> np.ndarray:
        """One period on every row of a (cells, k, dim) block.

        Row k of cell c is evolved with cell c's phases. On the step that
        carries `target`, row 1 also gains the derivative of that step
        applied to row 0, so rows (psi, dpsi) come back as
        (U psi, U dpsi + dU psi).
        """
        # C order for the float view; the transform and the product return
        # new arrays, so the caller's block is never written
        block = np.ascontiguousarray(block, dtype=np.complex128)
        for in_hadamard, phases, generator, step_target in self._steps:
            block = (self._transform(block) if in_hadamard else block) * phases
            if step_target == target:
                block[:, 1] += generator * block[:, 0]
            if in_hadamard:
                block = self._transform(block)
        return block

    def apply(self, psi: np.ndarray) -> np.ndarray:
        """One period of evolution, U_F |psi>, for each cell's row of psi.

        psi is a (cells, dim) array, or a single state for a one-cell
        operator; the result has the shape of psi.
        """
        return self._period(self._cell_rows(psi))[:, 0].reshape(np.shape(psi))

    def apply_with_derivative(
        self, target: str, psi: np.ndarray, dpsi: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """(U_F psi, U_F dpsi + (dU_F / d theta) psi), exact for theta in {h_x, uniform J}.

        psi and dpsi are shaped as for apply. Each step Hamiltonian is
        linear in its parameter and commutes with its own derivative, so no
        step-size enters here.
        """
        block = np.concatenate((self._cell_rows(psi), self._cell_rows(dpsi)), axis=1)
        if target not in TARGETS:
            raise ValueError(f"derivative target must be one of {TARGETS}, got {target!r}")
        if target == TARGET_J and not all(spec.uniform for spec in self.specs):
            raise ValueError("J-derivative requires uniform couplings")
        block = self._period(block, target)
        return block[:, 0].reshape(np.shape(psi)), block[:, 1].reshape(np.shape(psi))


def as_operator(model: ModelSpec | FloquetOperator) -> FloquetOperator:
    if isinstance(model, FloquetOperator):
        return model
    return FloquetOperator(model)
