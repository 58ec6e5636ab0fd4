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
Jx, Jy (built from mu and nu = -M / mu^*) give.  `ModelOperators` alone
builds H and both sets, as (rate, operator) pairs, each on first read by
contracting the cached per-site stack `operators.site_lowering`;
`darkdimers.dynamics` turns them into generators.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from .operators import site_lowering

__all__ = [
    "BathParams",
    "ArrayGeometry",
    "ModelOperators",
    "make_bath",
    "make_geometry",
    "field_two_point",
    "build_model",
]

_MINIMAL_RTOL = 1e-9  # at the bound: | |M|^2 - N(N+1) | <= _MINIMAL_RTOL N(N+1)
# the same for |M| / sqrt(N(N+1)): no square underflows at a tiny n_ph
_M_RANGE = (math.sqrt(1.0 - _MINIMAL_RTOL), math.sqrt(1.0 + _MINIMAL_RTOL))


@dataclass(frozen=True)
class BathParams:
    """Broadband squeezed reservoir: N_ph photons per mode, pair
    correlation |M_ph| e^{i phi}, admitted only within the uncertainty
    bound |M|^2 <= N(N+1) (1 + _MINIMAL_RTOL), else ValueError.

    The derived squeezing amplitudes mu, nu (with mu chosen real
    positive and nu = -M_ph / mu*) exist only for minimal-uncertainty
    baths, at the bound, and the Lorentz parameter eta = ln(|mu|/|nu|)/2
    only for squeezed ones (`is_squeezed`), whose |nu| = sqrt(N) is at
    least 2.2e-162; otherwise they raise ValueError.
    """

    n_ph: float
    m_abs: float
    phi: float = 0.0

    def __post_init__(self):
        if self.n_ph < 0:
            raise ValueError(f"n_ph must be >= 0, got {self.n_ph}")
        if not math.isfinite(self.phi):
            raise ValueError(f"phi must be finite, got {self.phi}")
        bound = math.sqrt(self.n_ph * (self.n_ph + 1.0))
        if not math.isfinite(bound):  # n_ph above about 1.34e154
            raise ValueError(f"|M| = sqrt(N(N+1)) is not finite at n_ph = {self.n_ph:g}")
        if not 0.0 <= self.m_abs <= bound * _M_RANGE[1]:
            raise ValueError(f"m_abs = {self.m_abs} violates the uncertainty bound "
                             f"sqrt(N(N+1)) = {bound:.12g}")

    @property
    def m_ph(self) -> complex:
        return self.m_abs * cmath.exp(1j * self.phi)

    @property
    def is_minimal(self) -> bool:
        bound = math.sqrt(self.n_ph * (self.n_ph + 1.0))
        return bound * _M_RANGE[0] <= self.m_abs <= bound * _M_RANGE[1]

    @property
    def is_squeezed(self) -> bool:
        """Minimal with n_ph > 0, so |M| > 0 and mu nu != 0: the one test for
        the squeezed jumps, eta (and so the collective form) and the squeezed law."""
        return self.is_minimal and self.n_ph > 0.0

    @property
    def mu(self) -> complex:
        if not self.is_minimal:
            raise ValueError(
                "mu and nu are defined only for minimal-uncertainty baths "
                f"(|M|^2 = N(N+1)); got |M|^2 = {self.m_abs**2:.6g}, "
                f"N(N+1) = {self.n_ph * (self.n_ph + 1):.6g}"
            )
        return complex(math.sqrt(self.n_ph + 1.0))

    @property
    def nu(self) -> complex:
        return -self.m_ph / self.mu.conjugate()

    @property
    def eta(self) -> float:
        if not self.is_squeezed:
            raise ValueError("eta needs a squeezed bath (|M|^2 = N(N+1), n_ph > 0 and |M| > 0)")
        # |nu| = sqrt(N) >= 2.2e-162 on a squeezed bath, so both logarithms are finite
        return 0.5 * (math.log(abs(self.mu)) - math.log(abs(self.nu)))


def make_bath(n_ph: float, phi: float = 0.0, m_abs: Optional[float] = None) -> BathParams:
    """Bath parameters as floats, checked by `BathParams`.  m_abs=None sets |M|
    to the uncertainty bound sqrt(N(N+1)), the minimal-uncertainty squeezed
    vacuum, and m_abs=0.0 gives a plain thermal bath."""
    if m_abs is None:
        m_abs = math.sqrt(abs(n_ph * (n_ph + 1.0)))  # abs: BathParams refuses n_ph < 0
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
        """Waveguide-mediated hopping, hbar = 1:
        H = (gamma/2) sum_{n,m} sin(k0 |z_n - z_m|) sigma_+^(n) sigma_-^(m);
        the diagonal vanishes (sin 0 = 0) and the double sum is Hermitian."""
        lower, z = site_lowering(self.n_at), self.geometry.k0z
        coupling = 0.5 * self.gamma * np.sin(np.abs(z[:, None] - z[None, :]))
        # sum_n sigma_+^(n) (sum_m coupling[n, m] sigma_-^(m))
        return np.tensordot(lower, np.tensordot(coupling, lower, axes=1), axes=([0, 1], [0, 1]))

    @functools.cached_property
    def travelling_jumps(self) -> Tuple[Tuple[float, np.ndarray], ...]:
        """J_s = sum_n e^{-i s k0 z_n} sigma_-^(n) and the Hermitian
        quadratures J_{theta,s} = e^{i theta/2} J_s + e^{-i theta/2} J_s^dag."""
        bath, gamma = self.bath, self.gamma
        channels = []
        for s in (+1, -1):
            j = np.tensordot(np.exp(-1j * s * self.geometry.k0z), site_lowering(self.n_at), axes=1)
            jd = j.conj().T
            quadrature = [cmath.exp(1j * theta / 2) * j + cmath.exp(-1j * theta / 2) * jd
                          for theta in (-bath.phi, math.pi - bath.phi)]
            channels += [
                (0.5 * gamma * (bath.n_ph + 1.0), j),
                (0.5 * gamma * bath.n_ph, jd),
                (0.25 * gamma * bath.m_abs, quadrature[0]),
                (-0.25 * gamma * bath.m_abs, quadrature[1]),
            ]
        return tuple(channels)

    @functools.cached_property
    def squeezed_jumps(self) -> Optional[Tuple[Tuple[float, np.ndarray], ...]]:
        """Jx = (mu S_-^(I) + nu S_+^(I)) / |4 mu nu|^(1/2) and
        Jy = (mu S_-^(R) - nu S_+^(R)) / |4 mu nu|^(1/2), from the standing
        waves S_+^(R) = sum_n cos(k0 z_n) sigma_+^(n), S_+^(I) with sin,
        S_- = S_+^dag; None unless `BathParams.is_squeezed`."""
        if not self.bath.is_squeezed:
            return None
        mu, nu, z = self.bath.mu, self.bath.nu, self.geometry.k0z
        raising = site_lowering(self.n_at).transpose(0, 2, 1)
        sp_r = np.tensordot(np.cos(z), raising, axes=1)
        sp_i = np.tensordot(np.sin(z), raising, axes=1)
        norm = math.sqrt(abs(4 * mu * nu))
        rate = 4.0 * self.gamma * abs(mu * nu)
        return ((rate, (mu * sp_i.conj().T + nu * sp_i) / norm),
                (rate, (mu * sp_r.conj().T - nu * sp_r) / norm))


def build_model(geo: ArrayGeometry, bath: BathParams, gamma: float = 1.0) -> ModelOperators:
    """The master equation of one setup; its operators are built on first read."""
    if not (math.isfinite(gamma) and gamma > 0):
        raise ValueError(f"gamma must be finite and > 0, got {gamma}")
    return ModelOperators(geo, bath, gamma)
