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


def dimension(n_qubits: int) -> int:
    return 1 << validate_qubit_count(n_qubits)


def all_zero_state(n_qubits: int) -> np.ndarray:
    """The fully z-polarized state |00...0>."""
    psi = np.zeros(dimension(n_qubits), dtype=np.complex128)
    psi[0] = 1.0
    return psi


def basis_state(n_qubits: int, index: int) -> np.ndarray:
    dim = dimension(n_qubits)
    if not 0 <= index < dim:
        raise ValueError(f"basis index {index} out of range for {n_qubits} qubits")
    psi = np.zeros(dim, dtype=np.complex128)
    psi[index] = 1.0
    return psi


def bit_position(qubit: int, n_qubits: int) -> int:
    """Bit position of a 1-based qubit index (qubit 1 = most significant)."""
    if not 1 <= qubit <= n_qubits:
        raise ValueError(f"qubit {qubit} out of range 1..{n_qubits}")
    return n_qubits - qubit


def z_values(n_qubits: int, qubit: int) -> np.ndarray:
    """sigma_z eigenvalue (+1/-1) of one qubit for every basis index."""
    pos = bit_position(qubit, validate_qubit_count(n_qubits))
    idx = np.arange(1 << n_qubits)
    return 1.0 - 2.0 * ((idx >> pos) & 1)


def popcounts(n_qubits: int) -> np.ndarray:
    """Number of set bits for every basis index."""
    n = validate_qubit_count(n_qubits)
    idx = np.arange(1 << n)
    counts = np.zeros_like(idx)
    for pos in range(n):
        counts += (idx >> pos) & 1
    return counts


def _check_same_dimension(a: np.ndarray, b: np.ndarray) -> None:
    if len(a) != len(b):
        raise ValueError(f"dimension mismatch: {len(a)} vs {len(b)}")


def inner_product(a: np.ndarray, b: np.ndarray) -> complex:
    """<a|b>, conjugate-linear in the first argument."""
    _check_same_dimension(a, b)
    return complex(np.vdot(a, b))


def expectation_diagonal(state: np.ndarray, diag: np.ndarray) -> float:
    """<psi|O|psi> for an operator diagonal in the computational basis.

    Computed as sum_s |amp_s|^2 diag_s, so the result is exactly real.
    """
    _check_same_dimension(state, diag)
    probs = state.real * state.real + state.imag * state.imag
    return float(probs @ diag)


def norm(state: np.ndarray) -> float:
    return float(np.linalg.norm(state))
