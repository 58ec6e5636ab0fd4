"""Lindblad generators, time integration, and steady-state determination.

Two equivalent generators are available for every model: the
travelling-wave form with eight signed channels ("general") and, for
squeezed baths (`BathParams.is_squeezed`), the two-jump standing-wave form
("squeezed").  Either form is written once, as a list of sandwich terms
(c, A, B): rho -> c A rho B, from which the right-hand side and, through
their sparse entries, both generator matrices are built.  Integration is
fixed-step classical Runge-Kutta (RK4) with per-step re-Hermitization
and trace renormalization.

For long horizons `steady_state` evaluates the same RK4 iteration
through its one-step matrix: the generator is vectorized in an
orthonormal basis of Hermitian matrices (real coordinates, so
Hermiticity is structural), the degree-4 RK4 polynomial of dt*L is
formed once in two products, and the walk visits the trajectory in
geometrically growing strides, one matrix per excitation-parity
block, restricted to the states sharing rho0's site symmetries (each
transposition or chain reflection that fixes rho0 to 1e-12 and commutes
with L to 1e-14 relative; no symmetry, no reduction); a stride doubling
squares the propagator only while that pays.  The visited states are
states of the plain RK4 iteration, up to rounding, just evaluated at
coarse times.  Setting the blocks up holds d^2-entry tables and one
piece of at most _PIECE_ENTRIES entries at a time.  The walk holds two
buffers per block: the propagator, formed in the generator's, and the
generator, refilled from its nonzeros into the buffer each squaring
frees, for the residuals ||L r||.  Each block has up to 16**n_at / 4
entries, so `steady_state` accepts up to six atoms and raises ValueError
above that; `liouvillian_matrix` is guarded to five.  `evolve`, the
plain step-by-step RK4 loop, has no size guard.
"""

from __future__ import annotations

import ctypes
import functools
import math
import os
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from .model import ModelOperators
from .observables import state_row
from .operators import excitation_counts, pure_to_density

__all__ = [
    "EvolveConfig",
    "TimeSeries",
    "SteadyStateResult",
    "IntegrationInstabilityError",
    "lindblad_rhs",
    "evolve",
    "steady_state",
    "liouvillian_matrix",
]

_SQRT2 = math.sqrt(2.0)
# Dense superoperators get large quickly (16**n_at entries): at 6 atoms
# each real parity block is up to 2048^2 (34 MB), at 7 up to 8192^2 (537 MB).
_STEADY_STATE_MAX_ATOMS = 6
_LIOUVILLIAN_MAX_ATOMS = 5
_PIECE_ENTRIES = 1 << 13  # entries set up at once; a six-atom term has up to 1.5e5
_PANEL = 64  # bracket columns per product while the RK4 polynomial forms
# a walk whose largest block is no larger runs on one BLAS thread: a second
# one gains nothing on products up to n = 256 and takes 2.94 -> 1.33 ms at 384
_THREADED_BLOCK = 256
# an n^2 block product costs n / 6 block x vector products: 38 against 0.21 ms at n = 1056
# with the OpenBLAS worker on the main thread's CPU, 16-28 ms with it on the other (README)
_PRODUCT_MATVECS = 1.0 / 6.0


class IntegrationInstabilityError(RuntimeError):
    """Raised when the integrator loses positivity or finiteness."""


@dataclass(frozen=True)
class EvolveConfig:
    """Fixed-step integration parameters (units of 1/gamma)."""

    dt: float = 0.005
    t_max: float = 2.0e4
    record_stride: int = 200
    convergence_tol: float = 1e-9

    def __post_init__(self):
        if not 0.0 < self.dt < 0.1:
            raise ValueError(
                f"dt must be in (0, 0.1) for RK4 stability at gamma-scale "
                f"rates, got {self.dt}"
            )
        for name in ("t_max", "convergence_tol"):
            value = getattr(self, name)
            if not (value > 0 and math.isfinite(value)):
                raise ValueError(f"{name} must be finite and > 0, got {value}")
        if not self.record_stride >= 1 or self.record_stride % 1:  # % 1 is nan at inf
            raise ValueError(f"record_stride must be an integer >= 1, got {self.record_stride}")


@dataclass
class TimeSeries:
    """Recorded observables along a trajectory.

    data maps column names (purity, mean_x/y/z, var_x/y, p0..pN) to
    arrays aligned with `times`.  max_trace_dev and min_eigenvalue are
    the worst numerical-hygiene excursions seen along the trajectory:
    the trace deviation at every step (before renormalization) and the
    smallest eigenvalue at the recorded points only, no bound in between.
    """

    times: np.ndarray
    data: Dict[str, np.ndarray]
    max_trace_dev: float = 0.0
    min_eigenvalue: float = 0.0


@dataclass
class SteadyStateResult:
    """What `steady_state` returns: the final `state` (unit trace), the
    time it converged at (`t_converge`, nan if it did not), its `residual`
    ||L(rho)||_F, the `converged` flag, the visited points as a `series`
    (with record=True, else None), and `stats`, the one record of the walk,
    built when it ends: the accepted site permutations (`symmetries`,
    1-based images), each propagated block's full and reduced size
    (`blocks`), the propagator `squarings`, the `visited_points`, the final
    visit `stride` (the propagator's being dt * 2**squarings), and every
    block-propagator x vector product, stride / propagator stride per
    block and visit (`matvecs`)."""

    state: np.ndarray
    t_converge: float
    residual: float
    converged: bool
    stats: Dict
    series: Optional[TimeSeries] = None


# ---------------------------------------------------------------------------
# Generators


def _generator_terms(model: ModelOperators, form: str):
    """Sandwich terms (c, A, B) with L(rho) = sum c A rho B, None standing
    for the identity: -i[H, rho] first, then per jump op the terms
    c (op rho op^dag - (op^dag op rho + rho op^dag op) / 2).  Form "auto"
    is the squeezed form where the bath has one, else the general form."""
    if form == "auto":
        form = "squeezed" if model.squeezed_jumps is not None else "general"
    if form not in ("general", "squeezed"):
        raise ValueError(f"unknown generator form {form!r}")
    ops = model.travelling_jumps if form == "general" else model.squeezed_jumps
    if ops is None:
        raise ValueError("the squeezed two-jump generator requires a minimal-uncertainty "
                         "bath with n_ph > 0 and |M| > 0")
    h = model.hamiltonian
    terms = [(-1j, h, None), (1j, None, h)]
    for c, op in ops:
        if c == 0.0:
            continue
        opd = op.conj().T
        k = opd @ op
        terms += [(c, op, opd), (-0.5 * c, k, None), (-0.5 * c, None, k)]
    return terms


def _check_shape(rho: np.ndarray, model: ModelOperators) -> None:
    d = 2**model.n_at  # read from the geometry: no operator is built here
    if rho.shape != (d, d):
        raise ValueError(f"dimension mismatch: rho {rho.shape}, model dim {(d, d)}")


def _rhs(terms):
    """rho -> L(rho) = K rho + rho K' + sum c A rho B over the two-sided
    terms, the one-sided terms summed once per term list, in term order,
    into K and K'; rho may be a stack of matrices."""
    left = sum(c * a for c, a, b in terms if b is None)
    right = sum(c * b for c, a, b in terms if a is None)
    sandwiches = [(c, a, b) for c, a, b in terms if a is not None and b is not None]

    def rhs(rho):
        out = left @ rho + rho @ right
        for c, a, b in sandwiches:
            out += c * (a @ rho @ b)
        return out

    return rhs


def lindblad_rhs(rho: np.ndarray, model: ModelOperators, form: str = "auto") -> np.ndarray:
    """d(rho)/dt: -i[H, rho] plus, with form "general", the eight signed channels
    (gamma/2)[(N+1) L[J_s] + N L[J_s^dag] + |M|/2 L[J_{-phi,s}]
              - |M|/2 L[J_{pi-phi,s}]] for s = +/-, or, with "squeezed", the
    completely-positive two jumps 4 gamma |mu nu| (L[Jx] + L[Jy]); "auto"
    is the squeezed form where the bath has one, else the general form."""
    _check_shape(rho, model)
    return _rhs(_generator_terms(model, form))(rho)


def _sandwich_entries(terms, d: int):
    """Per term (c, A, B), the COO form of rho -> c A rho B: flat
    row-major output elements p*d + q, input elements r*d + s and values
    c A[p, r] B[s, q], from the nonzeros of A times those of B, in order
    and in pieces of at most _PIECE_ENTRIES (or one nonzero of A)."""
    for c, a, b in terms:
        a, b = (np.eye(d) if x is None else x for x in (a, b))
        (p, r), (s, q) = np.nonzero(a), np.nonzero(b)
        b_sq, step = b[s, q], max(1, _PIECE_ENTRIES // max(1, s.size))
        for i in range(0, p.size, step):
            p1, r1 = p[i:i + step, None], r[i:i + step, None]
            yield ((p1 * d + q).ravel(), (r1 * d + s).ravel(),
                   (c * a[p1, r1] * b_sq).ravel())


def liouvillian_matrix(model: ModelOperators, form: str = "auto") -> np.ndarray:
    """Dense superoperator L with L vec(rho) = vec(d rho/dt), vec
    column-stacked.  Guarded to n_at <= 5 (the matrix has 16**n_at
    entries)."""
    if model.n_at > _LIOUVILLIAN_MAX_ATOMS:
        raise ValueError(
            f"dense Liouvillian is guarded to n_at <= {_LIOUVILLIAN_MAX_ATOMS}; "
            f"got n_at = {model.n_at}"
        )
    d = 2**model.n_at
    col_stacked = np.arange(d * d).reshape(d, d).T.ravel()
    lv = np.zeros((d * d, d * d), dtype=complex)
    terms = _generator_terms(model, form)
    for e_out, e_in, v in _sandwich_entries(terms, d):
        np.add.at(lv, (col_stacked[e_out], col_stacked[e_in]), v)
    return lv


# ---------------------------------------------------------------------------
# Checks and recording at visited points


def _unstable(what: str, t: float, why: Optional[str] = None) -> IntegrationInstabilityError:
    if why is None:  # at t = 0 no step has been taken: the start state is at fault
        why = ("the start state is not positive semidefinite" if t == 0.0
               else "the integration is unstable, use a smaller dt")
    return IntegrationInstabilityError(f"{what} at t = {t:.4g}; {why}")


class _Recorder:
    """What a trajectory reports at its visited points: the checks (every
    trace and state finite; positivity, unrecorded a Cholesky factorization
    of rho + 1e-6 I, with the eigenvalues and min_eigenvalue only if it
    fails), the numerical-hygiene extremes and, with `record`, the
    observable columns of a TimeSeries."""

    def __init__(self, record: bool):
        self.record = record
        self.times = []
        self.rows = []
        self.max_trace_dev = 0.0
        self.min_eigenvalue = math.inf

    def note_trace(self, t: float, tr: float) -> None:
        """Track the trace before it is renormalized away."""
        if not math.isfinite(tr):
            raise _unstable(f"trace {tr}", t)
        self.max_trace_dev = max(self.max_trace_dev, abs(tr - 1.0))

    def visit(self, t: float, rho: np.ndarray) -> None:
        if not np.isfinite(rho).all():
            raise _unstable("non-finite state", t)
        if not self.record:
            try:  # positive definite exactly when no eigenvalue is below -1e-6
                np.linalg.cholesky(rho + 1e-6 * np.eye(len(rho)))
                return
            except np.linalg.LinAlgError:
                pass
        lam = float(np.linalg.eigvalsh(rho)[0])
        self.min_eigenvalue = min(self.min_eigenvalue, lam)
        if lam < -1e-6:
            raise _unstable(f"smallest eigenvalue {lam:.3e}", t)
        if self.record:
            self.times.append(t)
            self.rows.append(state_row(rho))

    def series(self) -> Optional[TimeSeries]:
        if not self.rows:
            return None
        return TimeSeries(
            times=np.array(self.times),
            data={k: np.array([row[k] for row in self.rows]) for k in self.rows[0]},
            max_trace_dev=self.max_trace_dev,
            min_eigenvalue=self.min_eigenvalue,
        )


# ---------------------------------------------------------------------------
# Plain RK4 loop


def _as_density(rho0: np.ndarray) -> np.ndarray:
    """rho0, or the projector of a state vector rho0, as a density matrix,
    divided by its trace when that is more than 1e-12 from 1; a non-finite
    entry or a trace that is not finite and > 0 raises ValueError."""
    rho0 = np.asarray(rho0, dtype=complex)
    rho = pure_to_density(rho0) if rho0.ndim == 1 else rho0.copy()
    tr = np.trace(rho).real
    if not np.isfinite(rho).all():
        raise ValueError("the start state's density matrix has a non-finite entry")
    if not (math.isfinite(tr) and tr > 0.0):
        raise ValueError(f"the start state has trace {tr:.6g}; it must be finite and > 0")
    if abs(tr - 1.0) > 1e-12:  # so the t = 0 record and max_trace_dev describe the run
        rho /= tr
    return rho


# the trace, state and residual checks report what overflows, without a warning
@np.errstate(over="ignore", invalid="ignore")
def evolve(
    rho0: np.ndarray,
    model: ModelOperators,
    cfg: EvolveConfig,
    form: str = "auto",
) -> Tuple[TimeSeries, np.ndarray]:
    """Integrate the master equation with fixed-step RK4.

    rho0 may be a state vector or a density matrix.  After every step
    the state is re-Hermitized ((rho + rho^dag)/2) and trace-
    renormalized.  Observables are recorded every `record_stride` steps
    (and at t = 0); positivity is checked at recorded steps and a
    violation below -1e-6 raises IntegrationInstabilityError.

    Returns (TimeSeries, final density matrix).
    """
    rhs = _rhs(_generator_terms(model, form))
    rho = _as_density(rho0)
    _check_shape(rho, model)
    rec = _Recorder(True)
    rec.visit(0.0, rho)

    n_steps = int(round(cfg.t_max / cfg.dt))
    dt = cfg.dt
    for step in range(1, n_steps + 1):
        k1 = rhs(rho)
        k2 = rhs(rho + 0.5 * dt * k1)
        k3 = rhs(rho + 0.5 * dt * k2)
        k4 = rhs(rho + dt * k3)
        rho = rho + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        tr = np.trace(rho).real
        rec.note_trace(step * dt, tr)
        rho = (rho + rho.conj().T) / 2.0
        rho /= tr
        if step % cfg.record_stride == 0 or step == n_steps:
            rec.visit(step * dt, rho)
    return rec.series(), rho


# ---------------------------------------------------------------------------
# Vectorized fast path


class _VectorizedGenerator:
    """Generator in an orthonormal Hermitian-matrix basis (real coords).

    Basis: E_ii; (|i><j| + |j><i|)/sqrt2; i(|i><j| - |j><i|)/sqrt2 for
    i < j, so Tr[A B] is the dot product of coordinates.  Every generator
    term flips excitation-number parity on bra and ket together, so the
    coordinates split into two invariant blocks, stored in turn: block 0
    (diagonal, then Re and Im of the same-parity pairs) and block 1 (Re
    and Im of the opposite-parity pairs).

    Site transpositions and the chain reflection that fix rho0 (to 1e-12)
    and commute with L (to 1e-14 of max|L x|, x a random Hermitian probe;
    looser passes near-symmetries) generate a group G; the coordinates are
    G's signed orbits sum s_k E_k / sqrt|orbit|, less those whose signs
    conflict: the plain ones when G is trivial.
    Besides d^2-entry tables, set-up holds one piece at a time: a few moved
    candidates, one generator's coordinate images, or one term's entries.
    """

    def __init__(self, model: ModelOperators, form: str, rho0: np.ndarray):
        d = 2**model.n_at
        self.dim = d
        self.terms = _generator_terms(model, form)
        par = excitation_counts(model.n_at) % 2
        i, j = np.triu_indices(d, 1)
        odd = par[i] != par[j]
        # Per matrix element (i, j), flat row-major: the Re and Im basis
        # matrices E_k it appears in, as (k, E_k[i, j]).  A diagonal element
        # appears in its diagonal E_ii only (weight 0 on the Im side).
        re = np.diag(np.arange(d))
        im = re.copy()
        start = d
        for sel in (~odd, odd):
            k = start + np.arange(sel.sum())
            re[i[sel], j[sel]] = re[j[sel], i[sel]] = k
            im[i[sel], j[sel]] = im[j[sel], i[sel]] = k + k.size
            start += 2 * k.size
        n0 = d * d - 2 * int(odd.sum())
        self.full_dims = (n0, d * d - n0)
        w_re = np.where(np.eye(d, dtype=bool), 1.0, 1.0 / _SQRT2)
        w_im = 1j * np.sign(np.arange(d) - np.arange(d)[:, None]) / _SQRT2
        self._basis = ((re.ravel(), w_re.ravel()), (im.ravel(), w_im.ravel()))
        sites, perms = self._symmetries(model.n_at, rho0)
        self.symmetries = [tuple(int(x) + 1 for x in row) for row in sites]
        index, weight, root_size, dims = _signed_orbits(self._basis, perms, n0)
        self._basis_in = tuple((index[k], w * (weight * root_size)[k]) for k, w in self._basis)
        self._basis = tuple((index[k], w * weight[k]) for k, w in self._basis)
        # per block, the matrix elements that some input coordinate reads
        live = (self._basis_in[0][1] != 0) | (self._basis_in[1][1] != 0)
        flips = (par[:, None] != par).ravel()
        self._live = (live & ~flips, live & flips)
        self.blocks = (slice(0, dims[0]), slice(dims[0], sum(dims)))

    def _symmetries(self, n_at: int, rho0: np.ndarray):
        """Candidate site permutations (0-based images, all involutions) that
        rho0 and L share, and the basis-state permutations they induce."""
        # below four atoms the reflection is a transposition or the identity
        ident = list(range(n_at))
        sites = [[{i: j, j: i}.get(s, s) for s in ident] for j in ident for i in range(j)]
        sites = np.array(sites + [ident[::-1]] * (n_at > 3), dtype=int).reshape(-1, n_at)
        d, bit = self.dim, n_at - 1 - np.arange(n_at)  # site 1: most significant bit
        perms = (((np.arange(d)[:, None] >> bit) & 1) @ (1 << bit[sites]).T).T
        # fixed quasi-random probe, frac(k^2 phi): no numpy.random import
        k = np.arange(2 * d * d)
        x = ((k * k * 0.5 * (1 + math.sqrt(5))) % 1.0 - 0.5).reshape(d, -1).view(complex)
        x = x + x.conj().T
        rhs = _rhs(self.terms)
        lx = rhs(x)
        ok, step = np.zeros(len(perms), dtype=bool), max(1, _PIECE_ENTRIES // (d * d))
        for i in range(0, len(perms), step):
            c = np.arange(i, min(i + step, len(perms)))
            g = perms[c, :, None], perms[c, None, :]  # a[g] stacks a[g][:, g] per candidate
            fix = abs(rho0[g] - rho0).max(axis=(1, 2)) <= 1e-12
            ok[c[fix]] = (abs(rhs(x[g][fix]) - lx[g][fix]).max(axis=(1, 2))
                          <= 1e-14 * abs(lx).max())
        return sites[ok], perms[ok]

    def assemble(self, b: int) -> np.ndarray:
        """Real matrix of parity block b: entry (k', k) is Tr[E_k' L(E_k)],
        accumulated from the complex sandwich entries.  L commutes with the
        symmetry group, so column k is sqrt|orbit| Tr[E_k' L(E_root)]: only
        each orbit's root E_root is read, weighted by |orbit| (`_basis_in`)."""
        off, n = self.blocks[b].start, self.blocks[b].stop - self.blocks[b].start
        acc = np.zeros(n * n)
        for e_out, e_in, v in _sandwich_entries(self.terms, self.dim):
            keep = self._live[b][e_in]
            eo, ei, v = e_out[keep], e_in[keep], v[keep]
            # v rho[r, s] lands in out[p, q]: entry (k', k) gains
            # conj(E_k'[p, q]) v E_k[r, s], real once summed
            cols = [(ki[ei] - off, wi[ei]) for ki, wi in self._basis_in]
            for ko, wo in self._basis:
                row, wv = (ko[eo] - off) * n, wo[eo].conj() * v
                for col, wi in cols:
                    np.add.at(acc, row + col, (wv * wi).real)
        return acc.reshape(n, n)

    def to_coords(self, a: np.ndarray) -> np.ndarray:
        r = np.zeros(self.blocks[1].stop)
        for k, w in self._basis:
            np.add.at(r, k, (w.conj() * a.ravel()).real)
        return r

    def from_coords(self, r: np.ndarray) -> np.ndarray:
        return sum(w * r[k] for k, w in self._basis).reshape(self.dim, self.dim)


def _signed_orbits(basis, perms: np.ndarray, n0: int):
    """Orbit index and weight s_k / sqrt|orbit| (0 if signs conflict) of each real
    coordinate k under the group the basis-state permutations `perms` generate,
    |orbit| on each root (its smallest coordinate; else 0), and each block's
    orbit count."""
    n, d = basis[0][0].size, perms.shape[1]
    # label each coordinate with the smallest one it reaches, and with its
    # sign relative to it in an invariant state, relaxing one generator at a
    # time until a sweep lowers no label; that sweep checks every sign
    rep, s, cols, moved = np.arange(n), np.ones(n), np.arange(n), True
    while moved:
        moved, conflict = False, np.zeros(n, dtype=bool)
        for g in perms:
            # U E_k U^dag = sign E_img: compare the weights at an element and its image
            flat, img, sign = (g[:, None] * d + g).ravel(), np.empty(n, dtype=int), np.ones(n)
            for k, w in basis:
                nz = w != 0
                img[k[nz]], sign[k[nz]] = k[flat[nz]], (w[nz] / w[flat[nz]]).real
            lower = rep[img] < rep
            rep[lower], s[lower] = rep[img][lower], (sign * s[img])[lower]
            moved |= bool(lower.any())
            conflict |= s != sign * s[img]
    bad = np.isin(rep, rep[conflict])
    roots = (rep == cols) & ~bad
    dims = (int(roots[:n0].sum()), int(roots[n0:].sum()))
    index = np.where(bad, np.where(cols < n0, 0, dims[0]), np.cumsum(roots)[rep] - 1)
    size = np.bincount(rep, minlength=n)[rep]
    weight = np.where(bad, 0.0, s / np.sqrt(size))
    return index, weight, np.where(roots, size, 0), dims


@functools.cache
def _blas_api():
    """The thread (getter, setter) of the OpenBLAS that numpy loaded, found
    by ctypes through numpy's linear-algebra extension, whose symbol lookup
    searches the libraries it links: the only way to change the count once
    numpy has loaded; () if none is found.  The lookup runs on first use,
    never at import."""
    try:  # only the copy already loaded, never a second one
        lib = ctypes.CDLL(np.linalg._umath_linalg.__file__, mode=getattr(os, "RTLD_NOLOAD", 0))
    except OSError:
        return ()
    for name in ("scipy_openblas_{}_num_threads64_", "openblas_{}_num_threads64_",
                 "openblas_{}_num_threads"):
        get, put = (getattr(lib, name.format(x), None) for x in ("get", "set"))
        if get is not None and put is not None:
            get.argtypes, get.restype = [], ctypes.c_int
            put.argtypes, put.restype = [ctypes.c_int], None
            return get, put
    return ()


def _set_blas_threads(n: Optional[int]) -> Optional[int]:
    """Set OpenBLAS to n threads, calling the setter only if that changes the
    count, and return the count found; without a setter set nothing, whatever
    n is (a None returned before), and return None.  With n = 1 also the
    initializer of a sweep worker, whose siblings fill the other cores."""
    api = _blas_api()
    if not api:
        return None
    before = api[0]()
    if n != before:
        api[1](n)
    return before


def _rk4_step_matrix(m: np.ndarray, dt: float) -> np.ndarray:
    # I + a + a^2 (I/2 + a/6 + a^2/24) with a = dt m in two products (Paterson
    # & Stockmeyer): a^2 whole, then a^2 (bracket) into a's own _PANEL columns
    m *= dt
    n, a2 = len(m), m @ m
    for j in range(0, n, _PANEL):
        a, bracket = m[:, j:j + _PANEL], a2[:, j:j + _PANEL] / 24.0
        bracket += a / 6.0
        bracket[j:j + _PANEL].reshape(-1)[:: bracket.shape[1] + 1] += 0.5
        a += a2 @ bracket
    m.reshape(-1)[:: n + 1] += 1.0
    return m


@np.errstate(over="ignore", invalid="ignore")  # as for evolve
def steady_state(
    rho0: np.ndarray,
    model: ModelOperators,
    cfg: EvolveConfig,
    form: str = "auto",
    record: bool = False,
) -> SteadyStateResult:
    """Integrate from rho0 until ||d rho/dt||_F <= convergence_tol or
    the next stride would pass t_max; the SteadyStateResult says how it
    went, and a non-converged one is left to the caller.

    The walk stays on the exact fixed-step RK4 trajectory and accelerates
    geometrically: every eighth visit the stride tau doubles if 2 tau <=
    max(dt, t/4) and the doubled stride still fits before t_max, so the
    convergence time is resolved to ~t/4.  A doubling squares the
    propagator (stride tau_P) while that saves rest / (2 tau_P) > n *
    _PRODUCT_MATVECS matvecs on the largest block n, the rest of the walk
    being t_max - t or less, as the last two residuals decay.  It stays
    among the states sharing rho0's site symmetries (tests in
    _VectorizedGenerator): a start with no symmetry gets no reduction.
    The parity-diagonal block is propagated always, the parity-off-
    diagonal one only when rho0 has coherences between the even and odd
    sectors; each has up to 16**n_at / 4 entries, so registers of more
    than six atoms raise ValueError.  Positivity is checked on the full
    state at every visited point, and record=True returns those points.
    A solve runs on one BLAS thread, set-up (the model's operators too,
    built on first read) and positivity checks included; only the walk
    of a largest propagated block above _THREADED_BLOCK coordinates runs
    at the count found on entry, which is restored on return or raise.
    """
    if model.n_at > _STEADY_STATE_MAX_ATOMS:
        raise ValueError(
            f"steady_state is limited to n_at <= {_STEADY_STATE_MAX_ATOMS} (its "
            f"dense parity blocks have 16**n_at / 4 entries); got n_at = {model.n_at}"
        )
    rho0 = _as_density(rho0)
    _check_shape(rho0, model)
    entry_threads = _set_blas_threads(1)
    try:
        gen = _VectorizedGenerator(model, form, rho0)
        rec = _Recorder(record)

        rs = np.split(gen.to_coords(rho0), [gen.blocks[1].start])
        # Block 0 holds the trace; block 1 stays exactly zero, and is not
        # propagated, unless rho0 has coherences between the parity sectors.
        ms = [gen.assemble(b) for b in range(1 + bool(np.any(rs[1] != 0.0)))]
        del gen.terms, gen._basis_in, gen._live  # the walk reads the coordinate tables only
        unit = gen.to_coords(np.eye(gen.dim))[gen.blocks[0]]
        n = max(map(len, ms))
        wide = entry_threads if n > _THREADED_BLOCK else 1

        def visit(t):
            """Check (and record) the state on one thread; return its residual."""
            _set_blas_threads(1)
            rec.visit(t, gen.from_coords(np.concatenate(rs)))
            _set_blas_threads(wide)
            residual = float(np.linalg.norm(np.concatenate([m @ r for m, r in zip(ms, rs)])))
            if not math.isfinite(residual):  # at t = 0 the state passed its checks: L overflows
                raise _unstable(f"residual {residual}", t) if t else _unstable(
                    f"residual {residual}", t, "the generator overflows (n_ph or gamma too large)")
            return residual

        # a visit takes `hops` propagator steps: tau / the propagator's stride
        t, tau, hops, visits, squarings, matvecs = 0.0, cfg.dt, 1, 1, 0, 0
        residual = visit(t)
        converged = residual <= cfg.convergence_tol
        # no stride passes t_max (beyond the rounding of the summed strides)
        t_stop = cfg.t_max * (1.0 + 1e-12)
        if not converged and cfg.dt <= t_stop:
            # each generator's buffer becomes its propagator; a second buffer
            # takes back the generator's nonzeros (4-10% of a block)
            nzs = [(k, m.ravel()[k]) for m in ms for k in [np.flatnonzero(m).astype(np.int32)]]
            ps = [_rk4_step_matrix(m, cfg.dt) for m in ms]
            ms = [np.zeros_like(m) for m in ms]
            for m, (k, v) in zip(ms, nzs):
                m.reshape(-1)[k] = v
        while not converged and t + tau <= t_stop:
            # every eighth visit; never at t = 0 (2 dt > max(dt, 0)), so r_prev is set
            if visits % 8 == 1 and 2.0 * tau <= min(max(cfg.dt, t / 4.0), t_stop - t):
                # the walk left, capped by the decay rate of the last two residuals
                rest = t_stop - t
                if residual < r_prev:
                    rest = min(rest, math.log(residual / cfg.convergence_tol) * tau
                               / math.log(r_prev / residual))
                tau, hops = 2.0 * tau, 2 * hops
                # square while it saves rest / (2 tau_P) matvecs, into the
                # generator's buffer, which then takes back its nonzeros
                while hops > 1 and rest * hops / (2.0 * tau) > n * _PRODUCT_MATVECS:
                    for p, m, (k, v) in zip(ps, ms, nzs):
                        np.matmul(p, p, out=m)
                        p.fill(0.0)
                        p.reshape(-1)[k] = v
                    ps, ms, hops, squarings = ms, ps, hops // 2, squarings + 1
            for _ in range(hops):
                rs[: len(ps)] = [p @ r for p, r in zip(ps, rs)]
            matvecs += hops * len(ps)
            t += tau
            tr = unit @ rs[0]
            rec.note_trace(t, tr)
            for r in rs:
                r /= tr
            r_prev, residual, visits = residual, visit(t), visits + 1
            converged = residual <= cfg.convergence_tol
    finally:
        _set_blas_threads(entry_threads)

    rho = gen.from_coords(np.concatenate(rs))
    rho /= np.trace(rho).real
    return SteadyStateResult(
        state=rho,
        t_converge=t if converged else float("nan"),
        residual=residual,
        converged=converged,
        series=rec.series(),
        stats={"symmetries": gen.symmetries, "squarings": squarings, "visited_points": visits,
               "blocks": [dict(full=f, reduced=len(m)) for f, m in zip(gen.full_dims, ms)],
               "matvecs": matvecs, "stride": tau},
    )
