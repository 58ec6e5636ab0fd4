"""Array geometry, squeezed-bath parameters, and the system operators.

The model is a chain of two-level atoms coupled to a 1D waveguide driven
from both ends by broadband squeezed light.  Positions are dimensionless
(k0 z); rates are in units of the single-atom waveguide decay rate gamma
and times in 1/gamma (hbar = 1 throughout).

The dissipative part of the master equation comes in two equivalent
forms: the eight signed travelling-wave channels

    (gamma/2) [ (N+1) L[J_s] + N L[J_s^dag]
                + |M|/2 L[J_{-phi,s}] - |M|/2 L[J_{pi-phi,s}] ],  s = +/-

and, for a minimal-uncertainty bath, two squeezed standing-wave jumps
Jx, Jy with a common rate 4 gamma |mu nu|.  The quadrature channels
J_{-phi,s} put M^* = |M| e^{-i phi} on J_s rho J_s, which is what
Jx, Jy (built from mu and nu = -M / mu^*) give.  Both sets are built here
as (rate, operator) pairs, each on first read and each operator one
contraction of the cached per-site stack `operators.site_lowering`;
`darkdimers.dynamics` turns them into generators.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Tuple

import numpy as np

from .operators import site_lowering

__all__ = [
    "BathParams",
    "ArrayGeometry",
    "ModelOperators",
    "StandingOps",
    "make_bath",
    "make_geometry",
    "hamiltonian_scatt",
    "jump_travelling",
    "jump_quadrature",
    "standing_ops",
    "squeezed_jumps",
    "field_two_point",
    "build_model",
]

_MINIMAL_RTOL = 1e-9


@dataclass(frozen=True)
class BathParams:
    """Broadband squeezed reservoir: N_ph photons per mode, pair
    correlation |M_ph| e^{i phi}.

    The derived squeezing amplitudes mu, nu (with mu chosen real
    positive and nu = -M_ph / mu*) and the Lorentz parameter
    eta = ln(|mu|/|nu|)/2 exist only for minimal-uncertainty baths,
    |M|^2 = N(N+1); accessing them otherwise raises ValueError.
    """

    n_ph: float
    m_abs: float
    phi: float = 0.0

    @property
    def m_ph(self) -> complex:
        return self.m_abs * cmath.exp(1j * self.phi)

    @property
    def is_minimal(self) -> bool:
        bound = self.n_ph * (self.n_ph + 1.0)
        return abs(self.m_abs**2 - bound) <= _MINIMAL_RTOL * max(1.0, bound)

    @property
    def mu(self) -> complex:
        self._require_minimal()
        return complex(math.sqrt(self.n_ph + 1.0))

    @property
    def nu(self) -> complex:
        self._require_minimal()
        return -self.m_ph / self.mu.conjugate()

    @property
    def eta(self) -> float:
        self._require_minimal()
        if self.n_ph == 0.0:
            raise ValueError("eta is undefined for n_ph = 0 (nu = 0)")
        return 0.5 * math.log(abs(self.mu) / abs(self.nu))

    def _require_minimal(self):
        if not self.is_minimal:
            raise ValueError(
                "mu/nu/eta are defined only for minimal-uncertainty baths "
                f"(|M|^2 = N(N+1)); got |M|^2 = {self.m_abs**2:.6g}, "
                f"N(N+1) = {self.n_ph * (self.n_ph + 1):.6g}"
            )


def make_bath(n_ph: float, phi: float = 0.0, m_abs: Optional[float] = None) -> BathParams:
    """Build bath parameters.

    m_abs=None sets |M| to the uncertainty bound sqrt(N(N+1)), the
    minimal-uncertainty squeezed vacuum; an explicit m_abs must satisfy
    0 <= m_abs <= sqrt(N(N+1)), and m_abs=0.0 gives a plain thermal bath.
    """
    if n_ph < 0:
        raise ValueError(f"n_ph must be >= 0, got {n_ph}")
    if not math.isfinite(phi):
        raise ValueError(f"phi must be finite, got {phi}")
    bound = math.sqrt(n_ph * (n_ph + 1.0))
    if not math.isfinite(bound):  # n_ph above about 1.34e154
        raise ValueError(f"|M| = sqrt(N(N+1)) is not finite at n_ph = {n_ph:g}")
    if m_abs is None:
        m_abs = bound
    elif not 0.0 <= m_abs <= bound * (1.0 + 1e-12) + 1e-15:
        raise ValueError(
            f"m_abs = {m_abs} violates the uncertainty bound "
            f"sqrt(N(N+1)) = {bound:.12g}"
        )
    return BathParams(n_ph=float(n_ph), m_abs=float(m_abs), phi=float(phi))


@dataclass(frozen=True)
class ArrayGeometry:
    """Equidistant chain, dimensionless positions k0 z_n symmetric about
    the center: k0z[n] = k0zc + (n - (n_at+1)/2) k0a for n = 1..n_at."""

    n_at: int
    k0a: float
    k0zc: float
    k0z: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.k0z.setflags(write=False)


def make_geometry(n_at: int, k0a: float, k0zc: float = 0.0) -> ArrayGeometry:
    if not n_at >= 1 or n_at % 1:  # n_at % 1 is nan at inf
        raise ValueError(f"n_at must be an integer >= 1, got {n_at}")
    if not (math.isfinite(k0a) and math.isfinite(k0zc)):
        raise ValueError(f"k0a and k0zc must be finite, got k0a = {k0a}, k0zc = {k0zc}")
    n = np.arange(1, n_at + 1, dtype=float)
    k0z = k0zc + (n - (n_at + 1) / 2.0) * k0a
    return ArrayGeometry(n_at=int(n_at), k0a=float(k0a), k0zc=float(k0zc), k0z=k0z)


def hamiltonian_scatt(geo: ArrayGeometry, gamma: float = 1.0) -> np.ndarray:
    """Waveguide-mediated hopping Hamiltonian.

    H = (gamma/2) sum_{n,m} sin(k0 |z_n - z_m|) sigma_+^(n) sigma_-^(m)
    with hbar = 1.  Diagonal terms vanish (sin 0 = 0) and the double sum
    makes H Hermitian by construction.
    """
    if not (math.isfinite(gamma) and gamma > 0):
        raise ValueError(f"gamma must be finite and > 0, got {gamma}")
    lower = site_lowering(geo.n_at)
    coupling = 0.5 * gamma * np.sin(np.abs(geo.k0z[:, None] - geo.k0z[None, :]))
    # sum_n sigma_+^(n) (sum_m coupling[n, m] sigma_-^(m))
    return np.tensordot(lower, np.tensordot(coupling, lower, axes=1), axes=([0, 1], [0, 1]))


def jump_travelling(geo: ArrayGeometry, s: int) -> np.ndarray:
    """Collective jump operator of the s = +/-1 propagating channel:
    J_s = sum_n e^{-i s k0 z_n} sigma_-^(n)."""
    if s not in (+1, -1):
        raise ValueError(f"direction s must be +1 or -1, got {s}")
    return np.tensordot(np.exp(-1j * s * geo.k0z), site_lowering(geo.n_at), axes=1)


def jump_quadrature(geo: ArrayGeometry, s: int, theta: float) -> np.ndarray:
    """Two-photon (phase) jump operator
    J_{theta,s} = e^{i theta/2} J_s + e^{-i theta/2} J_s^dag.
    Hermitian for real theta."""
    j = jump_travelling(geo, s)
    return cmath.exp(1j * theta / 2) * j + cmath.exp(-1j * theta / 2) * j.conj().T


class StandingOps(NamedTuple):
    s_plus_r: np.ndarray
    s_minus_r: np.ndarray
    s_plus_i: np.ndarray
    s_minus_i: np.ndarray


def standing_ops(geo: ArrayGeometry) -> StandingOps:
    """Standing-wave collective operators
    S_pm^(R) = sum_n cos(k0 z_n) sigma_pm^(n),
    S_pm^(I) = sum_n sin(k0 z_n) sigma_pm^(n)."""
    raising = site_lowering(geo.n_at).transpose(0, 2, 1)
    sp_r = np.tensordot(np.cos(geo.k0z), raising, axes=1)
    sp_i = np.tensordot(np.sin(geo.k0z), raising, axes=1)
    return StandingOps(sp_r, sp_r.conj().T, sp_i, sp_i.conj().T)


def squeezed_jumps(geo: ArrayGeometry, bath: BathParams) -> Tuple[np.ndarray, np.ndarray]:
    """Squeezed standing-wave jump operators for a minimal bath:

    Jx = (mu S_-^(I) + nu S_+^(I)) / |4 mu nu|^(1/2)
    Jy = (mu S_-^(R) - nu S_+^(R)) / |4 mu nu|^(1/2)

    Raises for a non-minimal bath (mu, nu undefined) and where the
    normalization |4 mu nu| vanishes (n_ph = 0 or |M| = 0), where the
    travelling-wave form of the master equation must be used instead.
    """
    mu, nu = bath.mu, bath.nu
    if mu * nu == 0.0:
        raise ValueError(
            "squeezed jump operators are undefined where |4 mu nu| = 0 "
            "(n_ph = 0 or |M| = 0); use the travelling-wave channels"
        )
    ops = standing_ops(geo)
    norm = math.sqrt(abs(4 * mu * nu))
    jx = (mu * ops.s_minus_i + nu * ops.s_plus_i) / norm
    jy = (mu * ops.s_minus_r - nu * ops.s_plus_r) / norm
    return jx, jy


def field_two_point(k0z_n: float, k0z_m: float, theta: float, bath: BathParams) -> float:
    """Equal-time two-point correlation of the field quadrature A_theta
    between positions k0 z_n and k0 z_m:

    <A A> = |M| cos(theta - phi) cos(k0 (z_n + z_m)) / 2 + (N_ph + 1/2) / 2
    """
    return 0.5 * bath.m_abs * math.cos(theta - bath.phi) * math.cos(
        k0z_n + k0z_m
    ) + 0.5 * (bath.n_ph + 0.5)


@dataclass(frozen=True)
class ModelOperators:
    """Hamiltonian and both dissipator sets of one (geometry, bath, gamma),
    each built on first read; a set is a tuple of (rate, operator) pairs:
    travelling_jumps the eight signed channels, per direction s = +, -:
    J_s, J_s^dag, J_{-phi,s}, J_{pi-phi,s} (the last rate is negative: a
    valid generator, not a jump unraveling), and squeezed_jumps
    ((4 gamma |mu nu|, Jx), (4 gamma |mu nu|, Jy)), or None when the bath
    has no squeezed form.
    """

    geometry: ArrayGeometry
    bath: BathParams
    gamma: float

    @property
    def n_at(self) -> int:
        return self.geometry.n_at

    @functools.cached_property
    def hamiltonian(self) -> np.ndarray:
        return hamiltonian_scatt(self.geometry, self.gamma)

    @functools.cached_property
    def travelling_jumps(self) -> Tuple[Tuple[float, np.ndarray], ...]:
        geo, bath, gamma = self.geometry, self.bath, self.gamma
        channels = []
        for s in (+1, -1):
            j = jump_travelling(geo, s)
            channels += [
                (0.5 * gamma * (bath.n_ph + 1.0), j),
                (0.5 * gamma * bath.n_ph, j.conj().T),
                (0.25 * gamma * bath.m_abs, jump_quadrature(geo, s, -bath.phi)),
                (-0.25 * gamma * bath.m_abs, jump_quadrature(geo, s, math.pi - bath.phi)),
            ]
        return tuple(channels)

    @functools.cached_property
    def squeezed_jumps(self) -> Optional[Tuple[Tuple[float, np.ndarray], ...]]:
        if not (self.bath.is_minimal and self.bath.n_ph > 0.0 and self.bath.m_abs > 0.0):
            return None
        rate = 4.0 * self.gamma * abs(self.bath.mu * self.bath.nu)
        return tuple((rate, j) for j in squeezed_jumps(self.geometry, self.bath))


def build_model(geo: ArrayGeometry, bath: BathParams, gamma: float = 1.0) -> ModelOperators:
    """The master equation of one setup; its operators are built on first read."""
    if not (math.isfinite(gamma) and gamma > 0):
        raise ValueError(f"gamma must be finite and > 0, got {gamma}")
    return ModelOperators(geo, bath, gamma)
