"""Driven transverse-field Ising model and its exact one-period propagator.

Each driving period of length T alternates two steps: a global x-field
pulse, exp(-i h_x T1 sum_i sigma_x^i), and an Ising interaction step,
exp(-i T2 sum_bonds J_b sigma_z^i sigma_z^j). Both steps are applied
exactly: the field as N single-qubit rotations (the sigma_x terms commute
across sites) and the interaction as a precomputed diagonal phase mask,
so one period costs O(N 2^N). The dense matrix, built only on demand for
eigendecomposition, is the same product in closed form: the field step is
the N-fold Kronecker power of one 2x2 rotation, and the Ising step scales
its rows or columns by the diagonal phase.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import reduce
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

    def with_h_x(self, h_x: float) -> "ModelSpec":
        return replace(self, h_x=h_x)

    def with_uniform_coupling(self, j: float) -> "ModelSpec":
        if not self.uniform:
            raise ValueError("per-bond couplings cannot be shifted uniformly")
        return replace(self, couplings=j)


class FloquetOperator:
    """Exact stroboscopic propagator for one driving period.

    Immutable after construction; safe to share across sweep workers.
    """

    def __init__(self, spec: ModelSpec):
        self.spec = spec
        n = spec.n_qubits
        self.dim = 1 << n
        self._shape = (2,) * n

        # diagonal of sum_bonds J_b z_i z_j and its unweighted counterpart
        # (the J-derivative generator for uniform couplings)
        zz_weighted = np.zeros(self.dim)
        zz_plain = np.zeros(self.dim)
        for (i, j), j_b in zip(spec.bonds(), spec.bond_values()):
            pair = states.z_values(n, i) * states.z_values(n, j)
            zz_weighted += j_b * pair
            zz_plain += pair
        self.ising_phases = spec.protocol.t2 * zz_weighted
        self.zz_diag = zz_plain
        self._ising_factor = np.exp(-1j * self.ising_phases)

        self.field_angle = spec.h_x * spec.protocol.t1
        self._cos = np.cos(self.field_angle)
        self._misin = -1j * np.sin(self.field_angle)

    def _require_dim(self, psi: np.ndarray) -> None:
        if len(psi) != self.dim:
            raise ValueError(f"dimension mismatch: state has {len(psi)}, operator needs {self.dim}")

    def _field_step(self, psi: np.ndarray) -> np.ndarray:
        """exp(-i h_x T1 sum_i sigma_x^i) as N exact 2x2 rotations."""
        out = np.array(psi, dtype=np.complex128).reshape(self._shape)
        for axis in range(self.spec.n_qubits):
            view = np.moveaxis(out, axis, 0)
            a = view[0].copy()
            view[0] *= self._cos
            view[0] += self._misin * view[1]
            view[1] *= self._cos
            view[1] += self._misin * a
        return out.reshape(self.dim)

    def _ising_step(self, psi: np.ndarray) -> np.ndarray:
        return psi * self._ising_factor

    def apply(self, psi: np.ndarray) -> np.ndarray:
        """One period of evolution, U_F |psi>."""
        self._require_dim(psi)
        if self.spec.protocol.step_order == FIELD_THEN_ISING:
            return self._ising_step(self._field_step(psi))
        return self._field_step(self._ising_step(psi))

    def apply_sigma_x_sum(self, psi: np.ndarray) -> np.ndarray:
        """(sum_i sigma_x^i) |psi>."""
        self._require_dim(psi)
        src = np.asarray(psi, dtype=np.complex128).reshape(self._shape)
        out = np.zeros_like(src)
        for axis in range(self.spec.n_qubits):
            v = np.moveaxis(src, axis, 0)
            o = np.moveaxis(out, axis, 0)
            o[0] += v[1]
            o[1] += v[0]
        return out.reshape(self.dim)

    def apply_derivative(self, target: str, psi: np.ndarray) -> np.ndarray:
        """(d U_F / d theta) |psi>, exact for theta in {h_x, uniform J}.

        Each step Hamiltonian is linear in its parameter and commutes with
        its own derivative, so no step-size enters here.
        """
        self._require_dim(psi)
        if target not in TARGETS:
            raise ValueError(f"derivative target must be one of {TARGETS}, got {target!r}")
        if target == TARGET_J and not self.spec.uniform:
            raise ValueError("J-derivative requires uniform couplings")
        p = self.spec.protocol
        if p.step_order == FIELD_THEN_ISING:
            if target == TARGET_HX:
                t = self.apply_sigma_x_sum(self._field_step(psi))
                return (-1j * p.t1) * self._ising_step(t)
            t = self._ising_step(self._field_step(psi))
            return (-1j * p.t2) * (self.zz_diag * t)
        if target == TARGET_HX:
            t = self._field_step(self._ising_step(psi))
            return (-1j * p.t1) * self.apply_sigma_x_sum(t)
        t = (-1j * p.t2) * (self.zz_diag * self._ising_step(psi))
        return self._field_step(t)

    def dense(self) -> np.ndarray:
        """The full 2^N x 2^N unitary, column k = U_F |k>.

        The field step is the N-fold Kronecker power of the single-qubit
        rotation [[cos, -i sin], [-i sin, cos]]; the diagonal Ising phase
        then scales its rows (ising after field) or its columns (ising
        before field).
        """
        rotation = np.array([[self._cos, self._misin], [self._misin, self._cos]])
        matrix = reduce(np.kron, [rotation] * self.spec.n_qubits)
        if self.spec.protocol.step_order == FIELD_THEN_ISING:
            matrix *= self._ising_factor[:, np.newaxis]
        else:
            matrix *= self._ising_factor[np.newaxis, :]
        return matrix


def as_operator(model: ModelSpec | FloquetOperator) -> FloquetOperator:
    if isinstance(model, FloquetOperator):
        return model
    return FloquetOperator(model)
