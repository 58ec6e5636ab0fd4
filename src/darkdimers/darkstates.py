"""Analytic dark states and closed-form population predictions.

These constructors are the oracles for the dynamics: every state built
here at its validity geometry is annihilated by both squeezed jump
operators, which is also the operational check that pins down all phase
conventions.

Two-atom building blocks (atoms n < m, phases from the positions), each
a 2 x 2 amplitude tensor amp[e_n, e_m] (e = 1 excited):

    sym       (|g_n e_m> - e^{i k0 (z_m - z_n)} |e_n g_m>) / sqrt(2)
    squeezed  (mu |g_n g_m> + e^{i k0 (z_n + z_m)} nu |e_n e_m>)
              / sqrt(|mu|^2 + |nu|^2)

Every state is a product of pairs (unpaired atoms in |g>) or a sum of
such products.  One rule places a pair: |sin k0(z_n - z_m)| <= _GEOM_TOL
for sym, |sin k0(z_n + z_m)| <= _GEOM_TOL (cos = +/-1) for squeezed, the
test `stable_dark_geometry` makes on the nearest-neighbor chain.  Chains
of nearest-neighbor squeezed pairs are the only products the hopping
Hamiltonian leaves invariant; when sin k0 a = 0 the pairing ambiguity
instead produces symmetrized sums over all perfect matchings ("melted"
states).
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .model import ArrayGeometry, BathParams, ModelOperators, make_geometry
from .operators import dicke_state

__all__ = [
    "PairSpec",
    "pair_state",
    "dimer_chain",
    "stability_residual",
    "melted_dark",
    "collective_dark_state",
    "predicted_populations",
    "stable_dark_geometry",
    "dark_state",
    "sph_harm_equator",
]

_GEOM_TOL = 1e-9
_MAX_MATCHING_ATOMS = 8  # 105 perfect matchings; larger arrays use dimer_chain


@dataclass(frozen=True)
class PairSpec:
    """One two-atom dark pair: atoms 1 <= n < m (1-based), kind 'sym' or
    'squeezed'."""

    n: int
    m: int
    kind: str

    def __post_init__(self):
        if self.kind not in ("sym", "squeezed"):
            raise ValueError(f"kind must be 'sym' or 'squeezed', got {self.kind!r}")
        if not 1 <= self.n < self.m:
            raise ValueError(f"require 1 <= n < m, got ({self.n}, {self.m})")


def _pair_amplitudes(geo: ArrayGeometry, bath: BathParams, spec: PairSpec) -> np.ndarray:
    """The pair's 2 x 2 amplitudes amp[e_n, e_m], e = 1 meaning excited."""
    if spec.m > geo.n_at:
        raise ValueError(f"pair ({spec.n},{spec.m}) lies outside the {geo.n_at}-atom register")
    zn, zm = geo.k0z[spec.n - 1], geo.k0z[spec.m - 1]
    squeezed = spec.kind == "squeezed"
    sin = np.sin(zn + zm if squeezed else zn - zm)
    if abs(sin) > _GEOM_TOL:
        need = "cos k0(z_n+z_m) = +/-1" if squeezed else "sin k0(z_n-z_m) = 0"
        raise ValueError(f"{spec.kind} pair ({spec.n},{spec.m}) needs {need}; got sin = {sin:.6g}")
    amp = np.zeros((2, 2), dtype=complex)
    if squeezed:
        norm = math.sqrt(abs(bath.mu) ** 2 + abs(bath.nu) ** 2)
        amp[0, 0], amp[1, 1] = bath.mu / norm, cmath.exp(1j * (zn + zm)) * bath.nu / norm
    else:
        amp[0, 1], amp[1, 0] = 1.0 / math.sqrt(2.0), -cmath.exp(1j * (zm - zn)) / math.sqrt(2.0)
    return amp


def _product(geo: ArrayGeometry, bath: BathParams, specs) -> np.ndarray:
    """Register vector of the pairs' tensor product, unpaired atoms in
    |g>.  Einsum axis s - 1 is site s, so ravel() puts site 1 on the most
    significant bit."""
    operands = []
    for spec in specs:
        operands += [_pair_amplitudes(geo, bath, spec), [spec.n - 1, spec.m - 1]]
    paired = {s for spec in specs for s in (spec.n - 1, spec.m - 1)}
    for s in sorted(set(range(geo.n_at)) - paired):
        operands += [np.array([1.0, 0.0]), [s]]
    return np.einsum(*operands, list(range(geo.n_at))).ravel()


def pair_state(geo: ArrayGeometry, bath: BathParams, spec: PairSpec) -> np.ndarray:
    """Two-atom dark state embedded in the full register (other atoms in
    |g>)."""
    psi = _product(geo, bath, [spec])
    return psi / np.linalg.norm(psi)


def dimer_chain(geo: ArrayGeometry, bath: BathParams) -> np.ndarray:
    """Product of squeezed nearest-neighbor pairs (1,2)(3,4)..., the
    unique Hamiltonian-stable dark state when sin k0 a != 0.

    Requires an even atom number and |sin k0(z_{2n-1} + z_{2n})| <=
    _GEOM_TOL for every pair.
    """
    if geo.n_at % 2:
        raise ValueError(f"dimer chain needs an even atom number, got {geo.n_at}")
    pairs = [PairSpec(2 * k + 1, 2 * k + 2, "squeezed") for k in range(geo.n_at // 2)]
    psi = _product(geo, bath, pairs)
    return psi / np.linalg.norm(psi)


def stability_residual(state: np.ndarray, model: ModelOperators) -> float:
    """|| H psi - <psi|H|psi> psi ||: zero iff the Hamiltonian cannot
    drive the state out of its ray."""
    psi = np.asarray(state, dtype=complex)
    hpsi = model.hamiltonian @ psi
    mean = np.vdot(psi, hpsi)
    return float(np.linalg.norm(hpsi - mean * psi))


def _perfect_matchings(items):
    if not items:
        yield []
        return
    first = items[0]
    for k in range(1, len(items)):
        pair = (first, items[k])
        rest = items[1:k] + items[k + 1 :]
        for sub in _perfect_matchings(rest):
            yield [pair] + sub


def melted_dark(geo: ArrayGeometry, bath: BathParams, l: int) -> np.ndarray:
    """Symmetrized dark state of the sin k0 a = 0 ("melted") regime.

    Sums the tensor product over every perfect matching of the atoms and
    every assignment of l squeezed pairs (the rest sym), then
    normalizes.  l = n_at/2 is the all-squeezed sector reached from the
    ground state.
    """
    if not _melted(geo.k0a):
        raise ValueError(
            f"melted states need sin k0 a = 0; got sin = {math.sin(geo.k0a):.6g}"
        )
    if geo.n_at % 2:
        raise ValueError(f"melted states need an even atom number, got {geo.n_at}")
    if geo.n_at > _MAX_MATCHING_ATOMS:
        raise ValueError(
            f"matching enumeration capped at {_MAX_MATCHING_ATOMS} atoms"
        )
    n_pairs = geo.n_at // 2
    if not 0 <= l <= n_pairs:
        raise ValueError(f"l must be in 0..{n_pairs}, got {l}")
    psi = np.zeros(2**geo.n_at, dtype=complex)
    for matching in _perfect_matchings(list(range(1, geo.n_at + 1))):
        for squeezed_idx in itertools.combinations(range(n_pairs), l):
            psi += _product(geo, bath, [
                PairSpec(n, m, "squeezed" if k in squeezed_idx else "sym")
                for k, (n, m) in enumerate(matching)
            ])
    norm = np.linalg.norm(psi)
    if norm < 1e-12:
        raise ValueError(f"matching sum vanished for l = {l}")
    return psi / norm


def sph_harm_equator(l: int, m: int) -> float:
    """Y_{l,m}(pi/2, 0), real, via the associated Legendre recurrence at
    argument 0 (Condon-Shortley phase).  Zero for odd l+m."""
    mm = abs(m)
    if mm > l:
        raise ValueError(f"|m| = {mm} exceeds l = {l}")
    if (l + mm) % 2:
        return 0.0
    # P_mm(0) = (-1)^mm (2mm-1)!!, then (l-mm) P_l = -(l+mm-1) P_{l-2}.
    p = 1.0
    for k in range(1, mm + 1):
        p *= -(2 * k - 1)
    for ll in range(mm + 2, l + 1, 2):
        p *= -(ll + mm - 1) / (ll - mm)
    y = math.sqrt(
        (2 * l + 1) / (4 * math.pi) * math.factorial(l - mm) / math.factorial(l + mm)
    ) * p
    if m < 0 and mm % 2:
        y = -y
    return y


def collective_dark_state(geo: ArrayGeometry, bath: BathParams) -> np.ndarray:
    """Closed-form dark state in the symmetric (Dicke) sector,

        sum_m e^{-eta m} e^{i phi (l+m)/2} s_m Y_{l,m}(pi/2, 0) |l, m>,

    valid for k0 a = 0 (mod 2pi) and k0 z_c in {0, pi/2} (mod pi), with
    l = n_at/2 and |l, m> the Dicke state with l + m excitations, so
    (l+m)/2 excited pairs, each with the phase e^{i phi} of nu.  The
    sign gauge s_m is (-1)^((l+m)/2) when e^{2 i k0 zc} = -1 (centers at
    pi/2) and 1 otherwise; both choices are verified against the
    matching-sum constructor and the jump-annihilation oracle.
    """
    if abs(math.sin(geo.k0a / 2.0)) > _GEOM_TOL:
        raise ValueError(
            f"collective form needs k0 a = 0 (mod 2pi); got k0 a = {geo.k0a:.6g}"
        )
    if abs(math.sin(2.0 * geo.k0zc)) > _GEOM_TOL:
        raise ValueError(
            "collective form needs k0 zc in {0, pi/2} (mod pi); "
            f"got k0 zc = {geo.k0zc:.6g}"
        )
    if geo.n_at % 2:
        raise ValueError(f"collective form needs an even n_at (sector l = n_at/2), got {geo.n_at}")
    l, eta, phase = geo.n_at // 2, bath.eta, cmath.exp(0.5j * bath.phi)
    signed = math.cos(2.0 * geo.k0zc) < 0.0
    psi = np.zeros(2**geo.n_at, dtype=complex)
    for m in range(-l, l + 1):
        # at most |Y|, zero for odd l + m: e^{-eta m} alone may overflow
        amp = math.exp(-eta * (m + l)) * sph_harm_equator(l, m) * phase ** (l + m)
        if signed:
            amp *= (-1.0) ** ((l + m) // 2)
        psi += amp * dicke_state(geo.n_at, l + m)
    return psi / np.linalg.norm(psi)


def predicted_populations(kind: str, n_at: int, bath: BathParams) -> np.ndarray:
    """Closed-form steady-state excitation distributions P(n_e),
    n_e = 0..n_at, with x = N_ph/(N_ph+1).

    thermal   x^{n_e}, normalized over n_e = 0..n_at
    squeezed  |Y_{l,m}(pi/2,0)|^2 x^{m/2}, l = n_at/2, m = n_e - l
    dimer     C(n_at/2, k) ((N+1)/(2N+1))^{n_at/2} x^k for n_e = 2k,
              zero for odd n_e (the binomial counts excited pairs)
    """
    if kind not in ("thermal", "squeezed", "dimer"):
        raise ValueError(f"unknown population law {kind!r}")
    x = bath.n_ph / (bath.n_ph + 1.0)
    if kind == "thermal":
        p = x ** np.arange(n_at + 1, dtype=float)
        return p / p.sum()
    if n_at % 2:
        raise ValueError(f"{kind} law needs an even atom number, got {n_at}")
    if kind == "dimer" and not bath.is_minimal:
        raise ValueError("dimer law needs a minimal-uncertainty bath (|M|^2 = N(N+1))")
    if kind == "squeezed":
        if not bath.is_squeezed:
            raise ValueError("squeezed law needs a squeezed bath "
                             "(|M|^2 = N(N+1), n_ph > 0 and |M| > 0)")
        l = n_at // 2
        # x^{n_e/2} = x^{l/2} x^{m/2}: the common factor goes in the
        # normalization, and no power of a tiny x overflows
        p = np.array([sph_harm_equator(l, ne - l) ** 2 * x ** (ne / 2.0)
                      for ne in range(n_at + 1)])
        return p / p.sum()
    pairs = n_at // 2
    prefactor = ((bath.n_ph + 1.0) / (2.0 * bath.n_ph + 1.0)) ** pairs
    p = np.zeros(n_at + 1)
    for k in range(pairs + 1):
        p[2 * k] = math.comb(pairs, k) * prefactor * x**k
    return p


def _melted(k0a: float) -> bool:
    """The sin k0 a = 0 regime, where every pairing is equivalent."""
    return abs(math.sin(k0a)) <= _GEOM_TOL


def stable_dark_geometry(n_at: int, k0a: float, k0zc: float) -> bool:
    """Whether a stable dark state exists: even atom number and every
    nearest-neighbor pair (1,2)(3,4)... centered where the field
    quadrature correlations are extremal, |sin k0(z_{2n-1}+z_{2n})| <=
    _GEOM_TOL: the test `dimer_chain` applies to each of its pairs.

    Covers both regimes: for sin k0 a = 0 any pairing is equivalent to
    the nearest-neighbor one; otherwise the nearest-neighbor chain is
    the only Hamiltonian-stable product.
    """
    if n_at % 2:
        return False
    k0z = make_geometry(n_at, k0a, k0zc).k0z
    sums = k0z[0::2] + k0z[1::2]
    return bool(np.all(np.abs(np.sin(sums)) <= _GEOM_TOL))


def dark_state(geo: ArrayGeometry, bath: BathParams, l: Optional[int] = None):
    """(name, state, collective) of the stable dark state at `geo`:
    `melted_dark` in sector l (default n_at/2) where sin k0 a = 0, else
    `dimer_chain`, whose only sector is l = n_at/2; `collective` is the
    l = n_at/2 closed form where that applies, else None.  ValueError where
    `stable_dark_geometry` finds no dark state or the state has no sector l."""
    if not stable_dark_geometry(geo.n_at, geo.k0a, geo.k0zc):
        raise ValueError(
            f"no stable dark state at n_at={geo.n_at}, k0a={geo.k0a:.6g}, k0zc={geo.k0zc:.6g}: "
            f"n_at must be even and each nearest-neighbor pair (1,2)(3,4)... centered at "
            f"|sin k0(z_n+z_m)| <= {_GEOM_TOL:g}")
    l = geo.n_at // 2 if l is None else l
    if not _melted(geo.k0a):
        if l != geo.n_at // 2:
            raise ValueError(f"the dimer chain has only sector l = {geo.n_at // 2}, got l = {l}")
        return "dimer_chain", dimer_chain(geo, bath), None
    psi = melted_dark(geo, bath, l)
    try:  # needs k0 a = 0 (mod 2pi), k0 zc in {0, pi/2} (mod pi) and a squeezed bath
        collective = collective_dark_state(geo, bath)
    except ValueError:
        collective = None
    return f"melted_dark(l={l})", psi, collective
