"""Matrix predicates and basis vectors that only the tests use."""

import numpy as np

__all__ = [
    "is_hermitian",
    "is_unitary",
    "smallest_eigenvalue",
    "is_valid_density_matrix",
    "basis_state",
]


def is_hermitian(m: np.ndarray, tol: float = 1e-12) -> bool:
    return bool(np.max(np.abs(m - m.conj().T)) <= tol)


def is_unitary(m: np.ndarray, tol: float = 1e-12) -> bool:
    d = m.shape[0]
    return bool(np.max(np.abs(m.conj().T @ m - np.eye(d))) <= tol)


def smallest_eigenvalue(m: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(m)[0])


def is_valid_density_matrix(
    rho: np.ndarray,
    herm_tol: float = 1e-12,
    trace_tol: float = 1e-10,
    pos_tol: float = 1e-9,
) -> bool:
    """Hermitian within herm_tol, unit trace within trace_tol, and
    smallest eigenvalue >= -pos_tol."""
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        return False
    if not is_hermitian(rho, herm_tol):
        return False
    if abs(np.trace(rho).real - 1.0) > trace_tol or abs(np.trace(rho).imag) > trace_tol:
        return False
    return smallest_eigenvalue((rho + rho.conj().T) / 2) >= -pos_tol


def basis_state(n_at: int, index: int) -> np.ndarray:
    psi = np.zeros(2**n_at, dtype=complex)
    psi[index] = 1.0
    return psi
