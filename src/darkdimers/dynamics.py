"""Lindblad generators, time integration, and steady-state determination.

Two equivalent generators are available for every model: the
travelling-wave form with eight signed channels ("general") and, for
minimal-uncertainty baths with n_ph > 0, the two-jump standing-wave form
("squeezed").  Either form is written once, as a list of sandwich terms
(c, A, B): rho -> c A rho B, from which the right-hand side and, through
their sparse entries, both generator matrices are built.  Integration is
fixed-step classical Runge-Kutta (RK4) with per-step re-Hermitization
and trace renormalization.

For long horizons `steady_state` evaluates the same RK4 iteration
through its one-step matrix: the generator is vectorized in an
orthonormal basis of Hermitian matrices (real coordinates, so
Hermiticity is structural), the degree-4 RK4 polynomial of dt*L is
formed once, and repeated squaring of that matrix walks the trajectory
in geometrically growing strides, one matrix per excitation-parity
block, restricted to the states sharing rho0's site symmetries (each
transposition or chain reflection that fixes rho0 and commutes with L to
1e-12; a start with no symmetry gets no reduction).  The visited states
are states of the plain RK4 iteration, up to rounding, just evaluated at
coarse times.  Each block has up to 16**n_at / 4 entries, so
`steady_state` accepts up to six atoms and raises ValueError above that;
`liouvillian_matrix` is guarded to five.  `evolve`, the plain
step-by-step RK4 loop, has no size guard.
"""

from __future__ import annotations

import math
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
    "lindblad_rhs_general",
    "lindblad_rhs_squeezed",
    "evolve",
    "steady_state",
    "liouvillian_matrix",
]

_SQRT2 = math.sqrt(2.0)
# Dense superoperators get large quickly (16**n_at entries): at 6 atoms
# each real parity block is up to 2048^2 (34 MB), at 7 up to 8192^2 (537 MB).
_STEADY_STATE_MAX_ATOMS = 6
_LIOUVILLIAN_MAX_ATOMS = 5


class IntegrationInstabilityError(RuntimeError):
    """Raised when the integrator loses positivity beyond tolerance."""


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
        if self.t_max <= 0:
            raise ValueError(f"t_max must be > 0, got {self.t_max}")
        if self.record_stride < 1:
            raise ValueError(f"record_stride must be >= 1, got {self.record_stride}")
        if self.convergence_tol <= 0:
            raise ValueError(f"convergence_tol must be > 0, got {self.convergence_tol}")


@dataclass
class TimeSeries:
    """Recorded observables along a trajectory.

    data maps column names (purity, mean_x/y/z, var_x/y, p0..pN) to
    arrays aligned with `times`.  max_trace_dev and min_eigenvalue are
    the worst numerical-hygiene excursions seen along the trajectory:
    the trace deviation at every step, measured before renormalization,
    and the smallest eigenvalue at the checked points.
    """

    times: np.ndarray
    data: Dict[str, np.ndarray]
    max_trace_dev: float = 0.0
    min_eigenvalue: float = 0.0


@dataclass
class SteadyStateResult:
    state: np.ndarray
    t_converge: float
    residual: float
    converged: bool
    series: Optional[TimeSeries] = None
    stats: Optional[Dict] = None


# ---------------------------------------------------------------------------
# Generators


def _generator_terms(model: ModelOperators, form: str):
    """Sandwich terms (c, A, B) with L(rho) = sum c A rho B, None standing
    for the identity: -i[H, rho] first, then per jump op the terms
    c (op rho op^dag - (op^dag op rho + rho op^dag op) / 2)."""
    if form == "squeezed":
        if model.squeezed_jumps is None:
            raise ValueError(
                "the squeezed two-jump generator requires a minimal-uncertainty "
                "bath with n_ph > 0"
            )
        jx, jy = model.squeezed_jumps
        rate = model.squeezed_rate
        ops = [(rate, jx), (rate, jy)]
    elif form == "general":
        ops = [(ch.coefficient, ch.operator) for ch in model.travelling_jumps]
    else:
        raise ValueError(f"unknown generator form {form!r}")
    h = model.hamiltonian
    terms = [(-1j, h, None), (1j, None, h)]
    for c, op in ops:
        if c == 0.0:
            continue
        opd = op.conj().T
        k = opd @ op
        terms += [(c, op, opd), (-0.5 * c, k, None), (-0.5 * c, None, k)]
    return terms


def _resolve_form(model: ModelOperators, form: str) -> str:
    if form == "auto":
        return "squeezed" if model.squeezed_jumps is not None else "general"
    return form


def _check_shape(rho: np.ndarray, model: ModelOperators) -> None:
    if rho.shape != model.hamiltonian.shape:
        raise ValueError(
            f"dimension mismatch: rho {rho.shape}, model dim {model.hamiltonian.shape}"
        )


def _rhs_from_terms(terms, rho):
    out = np.zeros(rho.shape, dtype=complex)
    for c, a, b in terms:
        x = rho if a is None else a @ rho
        out += c * (x if b is None else x @ b)
    return out


def lindblad_rhs_general(rho: np.ndarray, model: ModelOperators) -> np.ndarray:
    """d(rho)/dt of the travelling-wave master equation:
    -i[H, rho] plus the eight signed channels
    (gamma/2)[(N+1) L[J_s] + N L[J_s^dag] + |M|/2 L[J_{-phi,s}]
              - |M|/2 L[J_{pi-phi,s}]] for s = +/-."""
    _check_shape(rho, model)
    return _rhs_from_terms(_generator_terms(model, "general"), rho)


def lindblad_rhs_squeezed(rho: np.ndarray, model: ModelOperators) -> np.ndarray:
    """d(rho)/dt of the manifestly completely-positive two-jump form:
    -i[H, rho] + 4 gamma |mu nu| (L[Jx] + L[Jy]) rho."""
    _check_shape(rho, model)
    return _rhs_from_terms(_generator_terms(model, "squeezed"), rho)


def _sandwich_entries(terms, d: int):
    """Per term (c, A, B), the COO form of rho -> c A rho B: flat
    row-major output elements p*d + q, input elements r*d + s and values
    c A[p, r] B[s, q], from the nonzeros of A times those of B."""
    for c, a, b in terms:
        a, b = (np.eye(d) if x is None else x for x in (a, b))
        (p, r), (s, q) = np.nonzero(a), np.nonzero(b)
        yield ((p[:, None] * d + q).ravel(), (r[:, None] * d + s).ravel(),
               (c * a[p, r][:, None] * b[s, q]).ravel())


def liouvillian_matrix(model: ModelOperators, form: str = "general") -> np.ndarray:
    """Dense superoperator L with L vec(rho) = vec(d rho/dt), vec
    column-stacked.  Guarded to n_at <= 5 (the matrix has 16**n_at
    entries)."""
    if model.n_at > _LIOUVILLIAN_MAX_ATOMS:
        raise ValueError(
            f"dense Liouvillian is guarded to n_at <= {_LIOUVILLIAN_MAX_ATOMS}; "
            f"got n_at = {model.n_at}"
        )
    d = model.hamiltonian.shape[0]
    col_stacked = np.arange(d * d).reshape(d, d).T.ravel()
    lv = np.zeros((d * d, d * d), dtype=complex)
    terms = _generator_terms(model, _resolve_form(model, form))
    for e_out, e_in, v in _sandwich_entries(terms, d):
        np.add.at(lv, (col_stacked[e_out], col_stacked[e_in]), v)
    return lv


# ---------------------------------------------------------------------------
# Checks and recording at visited points


class _Recorder:
    """What a trajectory reports at its visited points: the positivity
    check, the numerical-hygiene extremes and, with `record`, the
    observable columns of a TimeSeries."""

    def __init__(self, n_at: int, record: bool):
        self.n_at = n_at
        self.record = record
        self.times = []
        self.rows = []
        self.max_trace_dev = 0.0
        self.min_eigenvalue = math.inf

    def note_trace(self, tr: float) -> None:
        """Track the trace before it is renormalized away."""
        self.max_trace_dev = max(self.max_trace_dev, abs(tr - 1.0))

    def visit(self, t: float, rho: np.ndarray) -> None:
        lam = float(np.linalg.eigvalsh(rho)[0])
        self.min_eigenvalue = min(self.min_eigenvalue, lam)
        if lam < -1e-6:
            raise IntegrationInstabilityError(
                f"smallest eigenvalue {lam:.3e} at t = {t:.4g}; "
                "the integration is unstable, use a smaller dt"
            )
        if self.record:
            self.times.append(t)
            self.rows.append(state_row(rho, self.n_at))

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
    rho0 = np.asarray(rho0, dtype=complex)
    if rho0.ndim == 1:
        return pure_to_density(rho0)
    return rho0.copy()


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
    terms = _generator_terms(model, _resolve_form(model, form))
    rho = _as_density(rho0)
    _check_shape(rho, model)
    rec = _Recorder(model.n_at, True)
    rec.visit(0.0, rho)

    n_steps = int(round(cfg.t_max / cfg.dt))
    dt = cfg.dt
    for step in range(1, n_steps + 1):
        k1 = _rhs_from_terms(terms, rho)
        k2 = _rhs_from_terms(terms, rho + 0.5 * dt * k1)
        k3 = _rhs_from_terms(terms, rho + 0.5 * dt * k2)
        k4 = _rhs_from_terms(terms, rho + dt * k3)
        rho = rho + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        tr = np.trace(rho).real
        rec.note_trace(tr)
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

    Site transpositions and the chain reflection that fix rho0 and commute
    with L (both to 1e-12, L on a random Hermitian probe) generate a group
    G; the coordinates are G's signed orbits sum s_k E_k / sqrt|orbit|,
    less those whose signs conflict: the plain ones when G is trivial.
    """

    def __init__(self, model: ModelOperators, form: str, rho0: np.ndarray):
        d = model.hamiltonian.shape[0]
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
        sites, flat = self._symmetries(model.n_at, rho0)
        self.symmetries = [tuple(int(x) + 1 for x in row) for row in sites]
        dims, self._basis_in = self.full_dims, self._basis
        if len(flat):
            index, weight, root_size, dims = _signed_orbits(self._basis, flat, n0)
            self._basis_in = tuple((index[k], w * (weight * root_size)[k])
                                   for k, w in self._basis)
            self._basis = tuple((index[k], w * weight[k]) for k, w in self._basis)
        # per block, the matrix elements that some input coordinate reads
        live = (self._basis_in[0][1] != 0) | (self._basis_in[1][1] != 0)
        flips = (par[:, None] != par).ravel()
        self._live = (live & ~flips, live & flips)
        self.blocks = (slice(0, dims[0]), slice(dims[0], sum(dims)))

    def _symmetries(self, n_at: int, rho0: np.ndarray):
        """Candidate site permutations (0-based images, all involutions) that
        rho0 and L share, and as `flat` where they send each matrix element."""
        # below four atoms the reflection is a transposition or the identity
        ident = list(range(n_at))
        sites = [[{i: j, j: i}.get(s, s) for s in ident] for j in ident for i in range(j)]
        sites = np.array(sites + [ident[::-1]] * (n_at > 3), dtype=int).reshape(-1, n_at)
        d, bit = self.dim, n_at - 1 - np.arange(n_at)  # site 1: most significant bit
        perms = (((np.arange(d)[:, None] >> bit) & 1) @ (1 << bit[sites]).T).T
        flat = (perms[:, :, None] * d + perms[:, None, :]).reshape(len(perms), d * d)
        ok = abs(rho0.ravel()[flat] - rho0.ravel()).max(1) <= 1e-12
        if ok.any():
            x = np.random.default_rng(0).normal(size=(d, 2 * d)).view(complex)
            x = (x + x.conj().T).ravel()
            # one-sided terms summed first; L(X), then L(U X U^dag) per candidate
            terms = [(1.0, sum(c * a for c, a, b in self.terms if b is None), None),
                     (1.0, None, sum(c * b for c, a, b in self.terms if a is None))]
            terms += [t for t in self.terms if t[1] is not None and t[2] is not None]
            probes = np.concatenate([x[None], x[flat[ok]]]).reshape(-1, d, d)
            lx = _rhs_from_terms(terms, probes).reshape(len(probes), -1)
            ok[ok] = abs(lx[1:] - lx[0][flat[ok]]).max(1) <= 1e-12 * abs(lx[0]).max()
        return sites[ok], flat[ok]

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
            for ko, wo in self._basis:
                for ki, wi in self._basis_in:
                    np.add.at(acc, (ko[eo] - off) * n + ki[ei] - off,
                              (wo[eo].conj() * v * wi[ei]).real)
        return acc.reshape(n, n)

    def to_coords(self, a: np.ndarray) -> np.ndarray:
        r = np.zeros(self.blocks[1].stop)
        for k, w in self._basis:
            np.add.at(r, k, (w.conj() * a.ravel()).real)
        return r

    def from_coords(self, r: np.ndarray) -> np.ndarray:
        return sum(w * r[k] for k, w in self._basis).reshape(self.dim, self.dim)


def _signed_orbits(basis, flat: np.ndarray, n0: int):
    """Orbit index and weight s_k / sqrt|orbit| (0 if signs conflict) of each real
    coordinate k under the group `flat` generates, |orbit| on each orbit's root
    (its smallest coordinate; else 0), and each block's orbit count."""
    n = basis[0][0].size
    # U E_k U^dag = sign E_img: compare the weights at an element and its image
    img, sign = np.empty((len(flat), n), dtype=int), np.ones((len(flat), n))
    for k, w in basis:
        nz = w != 0
        img[:, k[nz]] = k[flat][:, nz]
        sign[:, k[nz]] = (w[nz] / w[flat][:, nz]).real
    # label each coordinate with the smallest one it reaches, and with its
    # sign relative to it in an invariant state
    rep, s, cols = np.arange(n), np.ones(n), np.arange(n)
    while True:
        cand = np.vstack([rep, rep[img]])
        pick = cand.argmin(axis=0)
        if np.array_equal(cand[pick, cols], rep):
            break
        rep, s = cand[pick, cols], np.vstack([s, sign * s[img]])[pick, cols]
    bad = np.isin(rep, rep[(s != sign * s[img]).any(axis=0)])
    roots = (rep == cols) & ~bad
    dims = (int(roots[:n0].sum()), int(roots[n0:].sum()))
    index = np.where(bad, np.where(cols < n0, 0, dims[0]), np.cumsum(roots)[rep] - 1)
    size = np.bincount(rep, minlength=n)[rep]
    weight = np.where(bad, 0.0, s / np.sqrt(size))
    return index, weight, np.where(roots, size, 0), dims


def _rk4_step_matrix(m: np.ndarray, dt: float) -> np.ndarray:
    # I + a + a^2/2 + a^3/6 + a^4/24, summed in place so that at most
    # four buffers of m's size are alive
    a = dt * m
    a2 = a @ a
    p = np.eye(m.shape[0]) + a
    p += a2 / 2.0
    a = a2 @ a
    p += a / 6.0
    a = a2 @ a2
    p += a / 24.0
    return p


def steady_state(
    rho0: np.ndarray,
    model: ModelOperators,
    cfg: EvolveConfig,
    form: str = "auto",
    record: bool = False,
) -> SteadyStateResult:
    """Integrate from rho0 until ||d rho/dt||_F <= convergence_tol or
    t_max is reached.

    Uses the vectorized RK4 propagator with repeated squaring, so the
    walk accelerates geometrically while staying on the exact fixed-step
    RK4 trajectory; the convergence time is resolved to ~t/4.  It stays
    among the states sharing rho0's site symmetries (1e-12 test, see
    _VectorizedGenerator): a start with no symmetry gets no reduction.
    The parity-diagonal block is propagated always, the parity-off-
    diagonal one only when rho0 has coherences between the even and odd
    sectors; each has up to 16**n_at / 4 entries, so registers of more
    than six atoms raise ValueError.  Returns a SteadyStateResult whose
    `converged` flag is False (with the final residual attached) when
    t_max is hit first; callers decide what a non-converged state means.
    Positivity is checked on the full state at every visited point; with
    record=True those points are returned as a TimeSeries.  `stats` names
    the accepted site permutations (1-based images), each propagated
    block's full and reduced size, the squarings and the visited points.
    """
    if model.n_at > _STEADY_STATE_MAX_ATOMS:
        raise ValueError(
            f"steady_state is limited to n_at <= {_STEADY_STATE_MAX_ATOMS} (its "
            f"dense parity blocks have 16**n_at / 4 entries); got n_at = {model.n_at}"
        )
    rho0 = _as_density(rho0)
    gen = _VectorizedGenerator(model, _resolve_form(model, form), rho0)
    rec = _Recorder(model.n_at, record)

    rs = np.split(gen.to_coords(rho0), [gen.blocks[1].start])
    # Block 0 holds the trace; block 1 stays exactly zero, and is not
    # propagated, unless rho0 has coherences between the parity sectors.
    ms = [gen.assemble(b) for b in range(1 + bool(np.any(rs[1] != 0.0)))]
    unit = gen.to_coords(np.eye(gen.dim))[gen.blocks[0]]
    stats = {"symmetries": gen.symmetries, "squarings": 0, "visited_points": 0,
             "blocks": [dict(full=f, reduced=len(m)) for f, m in zip(gen.full_dims, ms)]}

    def visit(t):
        """Check (and record) the state; return its residual."""
        stats["visited_points"] += 1
        rec.visit(t, gen.from_coords(np.concatenate(rs)))
        return float(np.linalg.norm(np.concatenate([m @ r for m, r in zip(ms, rs)])))

    t = 0.0
    residual = visit(t)
    converged = residual <= cfg.convergence_tol
    t_end = cfg.t_max * (1.0 - 1e-12)
    ps = None
    while not converged and t < t_end:
        if ps is None:
            ps = [_rk4_step_matrix(m, cfg.dt) for m in ms]
            tau = cfg.dt
        elif 2.0 * tau <= max(cfg.dt, t / 4.0):
            ps = [p @ p for p in ps]
            tau *= 2.0
            stats["squarings"] += 1
        for _ in range(8):
            rs[: len(ps)] = [p @ r for p, r in zip(ps, rs)]
            t += tau
            tr = unit @ rs[0]
            rec.note_trace(tr)
            for r in rs:
                r /= tr
            residual = visit(t)
            converged = residual <= cfg.convergence_tol
            if converged or t >= t_end:
                break

    rho = gen.from_coords(np.concatenate(rs))
    rho /= np.trace(rho).real
    return SteadyStateResult(
        state=rho,
        t_converge=t if converged else float("nan"),
        residual=residual,
        converged=converged,
        series=rec.series(),
        stats=stats,
    )
