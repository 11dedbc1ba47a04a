"""Computational-basis state vectors and bitwise helpers.

One fixed convention is used by every module: qubit i (1-based, i = 1..N)
occupies bit position N - i of the basis-state integer, so qubit 1 is the
most significant bit and |00...0> is index 0. Bit value 0 means
sigma_z = +1, bit value 1 means sigma_z = -1.

States are plain 1-D complex numpy arrays of length 2**N.
"""

from __future__ import annotations

import numpy as np

MAX_QUBITS = 12


def validate_qubit_count(n_qubits: int) -> int:
    if not 1 <= int(n_qubits) <= MAX_QUBITS:
        raise ValueError(
            f"n_qubits must be between 1 and {MAX_QUBITS}, got {n_qubits}"
        )
    return int(n_qubits)


def all_zero_state(n_qubits: int) -> np.ndarray:
    """The fully z-polarized state |00...0>."""
    psi = np.zeros(1 << validate_qubit_count(n_qubits), dtype=np.complex128)
    psi[0] = 1.0
    return psi


def z_values(n_qubits: int, qubit: int) -> np.ndarray:
    """sigma_z eigenvalue (+1/-1) of one qubit for every basis index."""
    n = validate_qubit_count(n_qubits)
    if not 1 <= qubit <= n:
        raise ValueError(f"qubit {qubit} out of range 1..{n}")
    idx = np.arange(1 << n)
    return 1.0 - 2.0 * ((idx >> (n - qubit)) & 1)


def popcounts(n_qubits: int) -> np.ndarray:
    """Number of set bits for every basis index."""
    n = validate_qubit_count(n_qubits)
    idx = np.arange(1 << n)
    counts = np.zeros_like(idx)
    for pos in range(n):
        counts += (idx >> pos) & 1
    return counts
