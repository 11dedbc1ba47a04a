"""Stroboscopic evolution and the physical observables.

Trajectories record expectation values at t = nT for n = 0..n_max, with
the state advanced by repeated application of the one-period propagator
(never by matrix powers). One loop, evolve, serves every caller: it
advances a block of cells together, one row per cell, so a grid block
costs one propagator call per period. The per-spec functions are its
one-cell case.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import Iterator

import numpy as np

from . import states
from .model import FloquetOperator, ModelSpec, as_operator

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


def pair_correlation(
    n_qubits: int, pairs: list[tuple[int, int]] | None = None
) -> DiagonalObservable:
    """C_zz = sum over listed pairs of sigma_z^i sigma_z^j.

    Defaults to the nearest-neighbour pairs (i, i+1), i = 1..N-1, for any
    boundary condition: for three qubits that is (1,2) and (2,3).
    """
    if n_qubits < 2:
        raise ValueError("pair correlations require at least 2 qubits")
    if pairs is None:
        pairs = [(i, i + 1) for i in range(1, n_qubits)]
    diag = np.zeros(1 << n_qubits)
    for i, j in pairs:
        diag += states.z_values(n_qubits, i) * states.z_values(n_qubits, j)
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


def evolve(
    model: ModelSpec | FloquetOperator,
    psi0: np.ndarray,
    n_max: int,
    target: str | None = None,
) -> Iterator[tuple[np.ndarray, np.ndarray | None]]:
    """The evolution loop: an iterator of (psi_n, dpsi_n) for n = 0..n_max.

    Every cell of the operator starts from psi0, and psi_n holds one row
    per cell, shape (cells, dim). With a derivative target, dpsi_n is
    d psi_n / d theta by the product rule over periods,
    d psi_{n+1} = U d psi_n + (dU) psi_n with d psi_0 = 0; without one it
    is None. Each period is one propagator call on the whole block. The
    arguments are checked here, before the first period and before any
    caller allocates its records.
    """
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    op = as_operator(model)
    if len(psi0) != op.dim:
        raise ValueError(f"dimension mismatch: state has {len(psi0)}, operator needs {op.dim}")
    start = np.repeat(np.asarray(psi0, dtype=np.complex128)[np.newaxis], op.cells, axis=0)
    if target is None:
        psis = accumulate(range(n_max), lambda psi, _: op.apply(psi), initial=start)
        return ((psi, None) for psi in psis)
    return op.derivative_trajectory(target, start, np.zeros_like(start), n_max)


def expectation_records(
    model: ModelSpec | FloquetOperator,
    psi0: np.ndarray,
    n_max: int,
    observables: list[DiagonalObservable],
) -> np.ndarray:
    """<X_k> at t = nT for every cell, as a (cells, observables, n_max + 1) array.

    All observables of all cells are taken in one product per period; each
    value is a row sum, so a cell's record does not depend on the block.
    """
    op = as_operator(model)
    for obs in observables:
        if len(obs.diag) != op.dim:
            raise ValueError(f"observable {obs.label!r} has dimension {len(obs.diag)}, state has {op.dim}")
    # each diagonal repeated to match the interleaved (re, im) float view
    diags = np.repeat(np.array([obs.diag for obs in observables], dtype=float), 2, axis=-1)
    steps = evolve(op, psi0, n_max)
    records = np.empty((op.cells, len(observables), n_max + 1))
    for n, (psi, _) in enumerate(steps):
        parts = psi.view(np.float64)
        records[:, :, n] = np.add.reduce((parts * parts)[:, np.newaxis] * diags, axis=-1)
    return records


def stroboscopic_trajectory(
    model: ModelSpec | FloquetOperator,
    psi0: np.ndarray,
    n_max: int,
    observables: list[DiagonalObservable],
) -> list[TimeSeries]:
    """Evolve psi0 for n_max periods, recording each observable at every n: one cell's expectation_records."""
    op = as_operator(model)
    period = op.spec.protocol.period
    records = expectation_records(op, psi0, n_max, observables)[0]
    times = np.arange(n_max + 1)
    return [
        TimeSeries(times=times, values=records[k], label=obs.label, period=period)
        for k, obs in enumerate(observables)
    ]


def magnetization_series(
    model: ModelSpec | FloquetOperator, psi0: np.ndarray, n_max: int
) -> TimeSeries:
    op = as_operator(model)
    return stroboscopic_trajectory(op, psi0, n_max, [total_magnetization(op.spec.n_qubits)])[0]


def pair_correlation_series(
    model: ModelSpec | FloquetOperator, psi0: np.ndarray, n_max: int
) -> TimeSeries:
    op = as_operator(model)
    return stroboscopic_trajectory(op, psi0, n_max, [pair_correlation(op.spec.n_qubits)])[0]
