"""Measured quantities: polarizations, purity, correlations, populations,
the dark-state condition, and fidelities."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType

import numpy as np

from .model import ArrayGeometry, BathParams, squeezed_jumps
from .operators import excitation_counts, expectation, site_lowering

__all__ = [
    "PolarizationMoments",
    "polarization_moments",
    "purity",
    "state_row",
    "pair_correlations",
    "excitation_populations",
    "dark_condition",
    "fidelity",
]


@dataclass(frozen=True)
class PolarizationMoments:
    """Means and variances of the collective polarizations
    S_j = (1/2) sum_n sigma_j^(n).  var_j = <S_j^2> - <S_j>^2 (the
    variance, not the standard deviation)."""

    mean_x: float
    mean_y: float
    mean_z: float
    var_x: float
    var_y: float
    var_z: float


@lru_cache(maxsize=8)
def _collective_spin(n_at: int):
    """(S_j, S_j^2) for j = x, y, z, S_j = (1/2) sum_n sigma_j^(n), built
    once per register size and returned as read-only arrays."""
    lower = site_lowering(n_at).sum(axis=0).real  # sum_n sigma_-^(n), 0/1 entries
    parts = {"x": (0.5 * (lower + lower.T), 0.0),
             "y": (0.0, 0.5 * (lower.T - lower)),
             "z": (np.diag(excitation_counts(n_at) - 0.5 * n_at), 0.0)}
    ops = {}
    for label, (re, im) in parts.items():
        # parts assigned, not multiplied by 1j, so no zero picks up a sign
        s = np.zeros(lower.shape, dtype=complex)
        s.real, s.imag = re, im
        s2 = s @ s
        s.flags.writeable = False
        s2.flags.writeable = False
        ops[label] = (s, s2)
    return MappingProxyType(ops)


def polarization_moments(state: np.ndarray, n_at: int) -> PolarizationMoments:
    """Collective polarization means and variances of a state (vector or
    density matrix) of n_at atoms."""
    values = {}
    for label, (s, s2) in _collective_spin(n_at).items():
        mean = expectation(state, s).real
        values[f"mean_{label}"] = mean
        values[f"var_{label}"] = expectation(state, s2).real - mean**2
    return PolarizationMoments(**values)


def purity(rho: np.ndarray) -> float:
    """Tr[rho^2]; accepts a state vector (purity 1 by construction)."""
    rho = np.asarray(rho)
    if rho.ndim == 1:
        n = float(np.vdot(rho, rho).real)
        return n * n
    return float(np.vdot(rho.T.conj(), rho).real)


def state_row(state: np.ndarray, n_at: int) -> dict:
    """The observables that describe one state, in series-CSV column
    order: purity, mean_x/y/z, var_x/y, then the excitation populations
    p0..pN."""
    mom = polarization_moments(state, n_at)
    row = {"purity": purity(state), "mean_x": mom.mean_x, "mean_y": mom.mean_y,
           "mean_z": mom.mean_z, "var_x": mom.var_x, "var_y": mom.var_y}
    row.update((f"p{k}", p) for k, p in enumerate(excitation_populations(state)))
    return row


def pair_correlations(state: np.ndarray, n_at: int) -> np.ndarray:
    """Correlation matrix C[n, m] = <sigma_x^(n) sigma_x^(m)> / 4
    (0-indexed atoms).  Diagonal entries are exactly 1/4."""
    lower = site_lowering(n_at)
    sx = lower + lower.transpose(0, 2, 1)
    c = np.empty((n_at, n_at))
    for n in range(n_at):
        c[n, n] = 0.25
        for m in range(n + 1, n_at):
            val = 0.25 * expectation(state, sx[n] @ sx[m]).real
            c[n, m] = val
            c[m, n] = val
    return c


def excitation_populations(state: np.ndarray) -> np.ndarray:
    """Probability of finding exactly n_e excited atoms, n_e = 0..n_at."""
    state = np.asarray(state)
    if state.ndim == 1:
        diag = np.abs(state) ** 2
    else:
        diag = state.diagonal().real
    n_at = int(round(np.log2(diag.size)))
    counts = excitation_counts(n_at)
    return np.array([diag[counts == k].sum() for k in range(n_at + 1)])


def dark_condition(geo: ArrayGeometry, bath: BathParams) -> float:
    """Smallest eigenvalue of |4 mu nu| (Jx^dag Jx + Jy^dag Jy), the
    squeezed jumps weighted by their common rate (in units of gamma).

    Zero (<= 1e-10 numerically) if and only if a state annihilated by
    both squeezed jump operators exists.  The weight cancels the
    |4 mu nu|^(-1/2) normalization of Jx, Jy, which grows as N_ph^(-1/4)
    and would scale the rounding error up with it at small N_ph.
    Preferred over the determinant of the same matrix for conditioning."""
    jx, jy = squeezed_jumps(geo, bath)
    k = jx.conj().T @ jx + jy.conj().T @ jy
    return abs(4 * bath.mu * bath.nu) * float(np.linalg.eigvalsh(k)[0])


def fidelity(a: np.ndarray, b: np.ndarray) -> float:
    """State overlap: |<a|b>|^2 for two pure states, <psi|rho|psi> when
    one argument is pure.  Two mixed states are rejected (no Uhlmann
    form here); extract a pure reference first."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.ndim == 1 and b.ndim == 1:
        if a.size != b.size:
            raise ValueError(f"dimension mismatch: {a.size} vs {b.size}")
        return float(abs(np.vdot(a, b)) ** 2)
    if a.ndim == 1:
        psi, rho = a, b
    elif b.ndim == 1:
        psi, rho = b, a
    else:
        raise ValueError("fidelity of two mixed states is not supported; "
                         "one argument must be a pure state")
    if rho.shape != (psi.size, psi.size):
        raise ValueError(f"dimension mismatch: state {psi.size}, rho {rho.shape}")
    return float(np.vdot(psi, rho @ psi).real)
