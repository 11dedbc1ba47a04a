"""Stroboscopic evolution and the physical observables.

Trajectories record expectation values at t = nT for n = 0..n_max, with
the state advanced by repeated application of the one-period propagator
(never by matrix powers). One loop, the operator's frame_trajectory,
serves every caller: it advances a block of cells together, one row per
cell, so a grid block costs one propagator call per period. Its states
are in the operator's frame L^-1 psi, L = diag((-i)^popcount), which no
Z-basis probability can see. The block reader takes an operator and,
with a target, also reads d<X>/d theta; the per-spec functions and
metrology.cfi_series are its one-cell cases.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import states
from .model import FloquetOperator, ModelSpec

MZ = "mz"
CZZ = "czz"


@dataclass(frozen=True, eq=False)
class DiagonalObservable:
    """An observable diagonal in the computational basis."""

    label: str
    diag: np.ndarray


def total_magnetization(n_qubits: int) -> DiagonalObservable:
    """M_z = sum_i sigma_z^i; diagonal value N - 2*popcount(s)."""
    diag = (n_qubits - 2 * states.popcounts(n_qubits)).astype(float)
    return DiagonalObservable(MZ, diag)


def pair_correlation(n_qubits: int) -> DiagonalObservable:
    """C_zz = sum of sigma_z^i sigma_z^(i+1) over the nearest-neighbour pairs i = 1..N-1.

    The pairs are the same for any boundary condition: for three qubits
    they are (1,2) and (2,3).
    """
    if n_qubits < 2:
        raise ValueError("pair correlations require at least 2 qubits")
    diag = np.zeros(1 << n_qubits)
    for i in range(1, n_qubits):
        diag += states.z_values(n_qubits, i) * states.z_values(n_qubits, i + 1)
    return DiagonalObservable(CZZ, diag)


def observable_by_label(label: str, n_qubits: int) -> DiagonalObservable:
    if label == MZ:
        return total_magnetization(n_qubits)
    if label == CZZ:
        return pair_correlation(n_qubits)
    raise ValueError(f"unknown observable label {label!r}")


@dataclass
class TimeSeries:
    """Stroboscopic record of one observable, values[n] at t = nT."""

    times: np.ndarray
    values: np.ndarray
    label: str
    period: float


def expectation_records(
    op: FloquetOperator,
    psi0: np.ndarray,
    n_max: int,
    observables: list[DiagonalObservable],
    target: str | None = None,
) -> np.ndarray:
    """<X_k> at t = nT for every cell, as a (cells, rows, observables, n_max + 1) array.

    Row 0 is <X_k>; with a target, row 1 is d<X_k>/d theta = 2 Re <d chi|X_k|chi>
    from the same frame rows. Each period reduces every observable over
    conj(chi) * row with einsum's own loop, not BLAS: each value is a row
    sum, so a cell's record does not depend on the block.
    """
    for obs in observables:
        if len(obs.diag) != op.dim:
            raise ValueError(f"observable {obs.label!r} has dimension {len(obs.diag)}, state has {op.dim}")
    diags = np.array([obs.diag for obs in observables], dtype=float)
    steps = op.frame_trajectory(psi0, n_max, target)
    records = np.empty((op.cells, 1 if target is None else 2, len(observables), n_max + 1))
    for n, block in enumerate(steps):
        records[..., n] = np.einsum("crj,kj->crk", (block.conj() * block[:, :1]).real, diags)
    records[:, 1:] *= 2.0
    return records


def stroboscopic_trajectory(
    spec: ModelSpec,
    psi0: np.ndarray,
    n_max: int,
    observables: list[DiagonalObservable],
) -> list[TimeSeries]:
    """Evolve psi0 for n_max periods, recording each observable at every n: one cell's expectation_records."""
    records = expectation_records(FloquetOperator(spec), psi0, n_max, observables)[0, 0]
    times = np.arange(n_max + 1)
    return [
        TimeSeries(times=times, values=records[k], label=obs.label, period=spec.protocol.period)
        for k, obs in enumerate(observables)
    ]


def magnetization_series(spec: ModelSpec, psi0: np.ndarray, n_max: int) -> TimeSeries:
    return stroboscopic_trajectory(spec, psi0, n_max, [total_magnetization(spec.n_qubits)])[0]


def pair_correlation_series(spec: ModelSpec, psi0: np.ndarray, n_max: int) -> TimeSeries:
    return stroboscopic_trajectory(spec, psi0, n_max, [pair_correlation(spec.n_qubits)])[0]
