"""Dense operator algebra for a register of two-level atoms.

Everything acts on the full 2**n_at Hilbert space as plain numpy arrays
(complex128).  The basis convention is fixed once and relied on
everywhere: a computational-basis index is read as a bit string with the
most-significant bit belonging to atom 1, and bit value 1 meaning the
excited state |e>.  Single-site matrices are therefore 2x2 in the
(|g>, |e>) ordering, so the physical inversion operator sigma_z has the
matrix diag(-1, +1).

Arrays up to dimension 256 (eight atoms) are intended; all products are
dense O(d^3) calls into BLAS/LAPACK.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

__all__ = [
    "SIGMA_MINUS",
    "SIGMA_PLUS",
    "SIGMA_X",
    "SIGMA_Y",
    "SIGMA_Z",
    "IDENTITY_2",
    "embed_single_site",
    "site_lowering",
    "expectation",
    "ground_state",
    "product_state",
    "dicke_state",
    "pure_to_density",
    "excitation_counts",
]

# Single-site operators in the (|g>, |e>) ordering.
SIGMA_MINUS = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)  # |g><e|
SIGMA_PLUS = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)   # |e><g|
SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
# i(sigma_+ - sigma_-); sign choice makes <S_y> positive on
# (|g> + e^{i pi/4}|e>)/sqrt(2), matching <S_x>.
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[-1.0, 0.0], [0.0, 1.0]], dtype=complex)     # +1 on |e>
IDENTITY_2 = np.eye(2, dtype=complex)


def embed_single_site(op2: np.ndarray, site: int, n_at: int) -> np.ndarray:
    """Embed a single-site operator into the full n_at-atom space.

    Returns I x ... x op2 x ... x I with `op2` acting on atom `site`
    (1-based; site 1 is the leftmost atom, i.e. the most significant
    tensor factor).

    Raises
    ------
    ValueError
        If `site` is outside 1..n_at or `op2` is not 2x2.
    """
    op2 = np.asarray(op2, dtype=complex)
    if op2.shape != (2, 2):
        raise ValueError(f"single-site operator must be 2x2, got {op2.shape}")
    if not 1 <= site <= n_at:
        raise ValueError(f"site {site} out of range 1..{n_at}")
    left = np.eye(2 ** (site - 1), dtype=complex)
    right = np.eye(2 ** (n_at - site), dtype=complex)
    return np.kron(np.kron(left, op2), right)


@lru_cache(maxsize=8)
def site_lowering(n_at: int) -> np.ndarray:
    """The read-only (n_at, d, d) stack of sigma_-^(n), n = 1..n_at, built
    once per register size; collective operators contract it, and its
    transpose over the last two axes is the stack of sigma_+^(n)."""
    stack = np.stack([embed_single_site(SIGMA_MINUS, n, n_at) for n in range(1, n_at + 1)])
    stack.flags.writeable = False
    return stack


def expectation(state: np.ndarray, obs: np.ndarray) -> complex:
    """<obs> in a pure state (1-D array) or density matrix (2-D array).

    Tr[rho obs] = sum_ij rho_ij obs_ji for density matrices (no matrix
    product), <psi|obs|psi> for state vectors.
    """
    state = np.asarray(state)
    obs = np.asarray(obs)
    if state.ndim == 1:
        if obs.shape != (state.size, state.size):
            raise ValueError(
                f"dimension mismatch: state dim {state.size}, obs {obs.shape}"
            )
        return complex(np.vdot(state, obs @ state))
    if state.ndim == 2:
        if obs.shape != state.shape:
            raise ValueError(
                f"dimension mismatch: state {state.shape}, obs {obs.shape}"
            )
        return complex(np.vdot(obs.T.conj(), state))
    raise ValueError("state must be a vector or a square matrix")


def ground_state(n_at: int) -> np.ndarray:
    """|g...g> state vector."""
    psi = np.zeros(2**n_at, dtype=complex)
    psi[0] = 1.0
    return psi


def product_state(single_site_states) -> np.ndarray:
    """Tensor product of per-atom 2-vectors (atom 1 first), unit norm if each is."""
    psi = np.array([1.0 + 0.0j])
    for s in single_site_states:
        psi = np.kron(psi, np.asarray(s, dtype=complex))
    return psi


def excitation_counts(n_at: int) -> np.ndarray:
    """Number of excited atoms for each computational-basis index."""
    index = np.arange(2**n_at)
    return ((index[:, None] >> np.arange(n_at)) & 1).sum(axis=1)


def dicke_state(n_at: int, n_e: int) -> np.ndarray:
    """Normalized symmetric state with exactly n_e excited atoms."""
    if not 0 <= n_e <= n_at:
        raise ValueError(f"n_e {n_e} out of range 0..{n_at}")
    counts = excitation_counts(n_at)
    psi = np.zeros(2**n_at, dtype=complex)
    psi[counts == n_e] = 1.0
    return psi / np.linalg.norm(psi)


def pure_to_density(psi: np.ndarray) -> np.ndarray:
    psi = np.asarray(psi, dtype=complex)
    return np.outer(psi, psi.conj())
