import numpy as np
import pytest

from floquet_ising import ModelSpec
from floquet_ising.model import FloquetOperator
from floquet_ising.quasienergy import QuasienergyAnalysis, _cluster_indices


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


def dense_by_columns(op: FloquetOperator) -> np.ndarray:
    """Reference dense propagator, column k = op.apply(e_k)."""
    matrix = np.empty((op.dim, op.dim), dtype=np.complex128)
    column = np.zeros(op.dim, dtype=np.complex128)
    for k in range(op.dim):
        column[k] = 1.0
        matrix[:, k] = op.apply(column)
        column[k] = 0.0
    return matrix


def full_eig_eigensystem(spec: ModelSpec) -> QuasienergyAnalysis:
    """Reference eigensystem from one general eig of the full propagator,
    ignoring the parity symmetry; same folding, ordering and cluster
    re-orthonormalization as the package."""
    period = spec.protocol.period
    eigenvalues, eigenvectors = np.linalg.eig(dense_by_columns(FloquetOperator(spec)))
    epsilons = -np.angle(eigenvalues) / period
    epsilons[epsilons <= -np.pi / period] += 2.0 * np.pi / period
    order = np.argsort(epsilons, kind="stable")
    eigenvalues, epsilons, eigenvectors = eigenvalues[order], epsilons[order], eigenvectors[:, order]
    for cluster in _cluster_indices(eigenvalues):
        if len(cluster) > 1:
            eigenvectors[:, cluster] = np.linalg.qr(eigenvectors[:, cluster])[0]
    eigenvectors /= np.linalg.norm(eigenvectors, axis=0, keepdims=True)
    return QuasienergyAnalysis(
        epsilons=epsilons, eigenvectors=eigenvectors, period=period, spec=spec
    )
