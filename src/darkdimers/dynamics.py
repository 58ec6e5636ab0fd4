"""Lindblad generators, time integration, and steady-state determination.

Two equivalent generators are available for every model: the
travelling-wave form with eight signed channels ("general") and, for
minimal-uncertainty baths with n_ph > 0, the two-jump standing-wave form
("squeezed").  Either form is written once, as a list of sandwich terms
(c, A, B): rho -> c A rho B, from which both the right-hand side and the
dense superoperator are built.  Integration is fixed-step classical
Runge-Kutta (RK4) with per-step re-Hermitization and trace
renormalization.

For long horizons `steady_state` evaluates the same RK4 iteration
through its one-step matrix: the generator is vectorized in an
orthonormal basis of Hermitian matrices (real coordinates, so
Hermiticity is structural), the degree-4 RK4 polynomial of dt*L is
formed once, and repeated squaring of that matrix walks the trajectory
in geometrically growing strides.  The visited states are bit-for-bit
states of the plain RK4 iteration, just evaluated at coarse times.
That matrix has 16**n_at entries, so `steady_state` accepts up to six
atoms and raises ValueError above that; `liouvillian_matrix` is guarded
to five.  `evolve`, the plain step-by-step RK4 loop, has no size guard.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Tuple

import numpy as np

from .model import ModelOperators
from .observables import excitation_populations, polarization_moments, purity
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
# Dense superoperators get large quickly (16**n_at entries); 6 atoms is
# 134 MB in the real representation, 7 would be 34 GB.
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
    (gamma/2)[(N+1) L[J_s] + N L[J_s^dag] + |M|/2 L[J_{phi,s}]
              - |M|/2 L[J_{phi+pi,s}]] for s = +/-."""
    _check_shape(rho, model)
    return _rhs_from_terms(_generator_terms(model, "general"), rho)


def lindblad_rhs_squeezed(rho: np.ndarray, model: ModelOperators) -> np.ndarray:
    """d(rho)/dt of the manifestly completely-positive two-jump form:
    -i[H, rho] + 4 gamma |mu nu| (L[Jx] + L[Jy]) rho."""
    _check_shape(rho, model)
    return _rhs_from_terms(_generator_terms(model, "squeezed"), rho)


def liouvillian_matrix(model: ModelOperators, form: str = "general") -> np.ndarray:
    """Dense superoperator L with L vec(rho) = vec(d rho/dt), vec
    column-stacked.  Guarded to n_at <= 5 (the matrix has 16**n_at
    entries)."""
    if model.n_at > _LIOUVILLIAN_MAX_ATOMS:
        raise ValueError(
            f"dense Liouvillian is guarded to n_at <= {_LIOUVILLIAN_MAX_ATOMS}; "
            f"got n_at = {model.n_at}"
        )
    return _superoperator(model, _resolve_form(model, form))


def _superoperator(model: ModelOperators, form: str) -> np.ndarray:
    # vec(A rho B) = kron(B^T, A) vec(rho) for column-stacked vec.  Each
    # product is scaled in place and freed before the next one is made,
    # so at most two d^2 x d^2 buffers are alive.
    d = model.hamiltonian.shape[0]
    eye = np.eye(d, dtype=complex)
    lv = None
    for c, a, b in _generator_terms(model, form):
        term = np.kron(eye if b is None else b.T, eye if a is None else a)
        term *= c
        if lv is None:
            lv = term
        else:
            lv += term
        del term
    return lv


# ---------------------------------------------------------------------------
# Checks and recording at visited points


class _Recorder:
    """What a trajectory reports at its visited points: the positivity
    check, the numerical-hygiene extremes and, with `record`, the
    observable columns of a TimeSeries (restricted to `observables`
    when given)."""

    def __init__(self, n_at: int, record: bool, observables: Optional[Iterable[str]]):
        self.n_at = n_at
        self.record = record
        self.keep = None if observables is None else set(observables)
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
        if not self.record:
            return
        mom = polarization_moments(rho, self.n_at)
        row = {"purity": purity(rho), "mean_x": mom.mean_x, "mean_y": mom.mean_y,
               "mean_z": mom.mean_z, "var_x": mom.var_x, "var_y": mom.var_y}
        row.update((f"p{k}", p) for k, p in enumerate(excitation_populations(rho)))
        if self.keep is not None:
            row = {k: v for k, v in row.items() if k in self.keep}
        self.times.append(t)
        self.rows.append(row)

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
    observables: Optional[Iterable[str]] = None,
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
    rec = _Recorder(model.n_at, True, observables)
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
    i < j.  A Hermitian matrix maps to the real coordinate vector
    [diag, sqrt2*Re upper, sqrt2*Im upper]; Tr[A B] is the plain dot
    product there and Tr[rho^2] = |r|^2.
    """

    def __init__(self, model: ModelOperators, form: str):
        d = model.hamiltonian.shape[0]
        self.dim = d
        self.iu = np.triu_indices(d, 1)
        self.n_pairs = self.iu[0].size
        self._diag_vec = np.arange(d) * (d + 1)
        self._vij = self.iu[0] + self.iu[1] * d
        self._vji = self.iu[1] + self.iu[0] * d
        self.m = self._real_superop(_superoperator(model, form))
        # Excitation-number parity is flipped on bra and ket together by
        # every generator term, so coordinates mixing the two parity
        # sectors decouple; restricting to the invariant block when the
        # initial state allows it shrinks the matrices 2x-4x.
        par = excitation_counts(model.n_at) % 2
        pair_keep = par[self.iu[0]] == par[self.iu[1]]
        self.parity_mask = np.concatenate([np.ones(d, dtype=bool), pair_keep, pair_keep])

    def _real_superop(self, lv: np.ndarray) -> np.ndarray:
        n = lv.shape[0]
        d, npair = self.dim, self.n_pairs
        vd, vij, vji = self._diag_vec, self._vij, self._vji
        lt = np.empty((n, n), dtype=complex)
        lt[:, :d] = lv[:, vd]
        lt[:, d : d + npair] = (lv[:, vij] + lv[:, vji]) * (1.0 / _SQRT2)
        lt[:, d + npair :] = (lv[:, vij] - lv[:, vji]) * (1j / _SQRT2)
        del lv
        m = np.empty((n, n))
        m[:d, :] = lt[vd, :].real
        m[d : d + npair, :] = ((lt[vij, :] + lt[vji, :]) * (1.0 / _SQRT2)).real
        m[d + npair :, :] = ((lt[vji, :] - lt[vij, :]) * (1j / _SQRT2)).real
        return m

    def to_coords(self, a: np.ndarray) -> np.ndarray:
        d, npair = self.dim, self.n_pairs
        r = np.empty(d * d)
        r[:d] = a.diagonal().real
        r[d : d + npair] = _SQRT2 * a[self.iu].real
        r[d + npair :] = _SQRT2 * a[self.iu].imag
        return r

    def from_coords(self, r: np.ndarray) -> np.ndarray:
        d, npair = self.dim, self.n_pairs
        a = np.zeros((d, d), dtype=complex)
        a[np.arange(d), np.arange(d)] = r[:d]
        upper = (r[d : d + npair] + 1j * r[d + npair :]) / _SQRT2
        a[self.iu] = upper
        a[self.iu[1], self.iu[0]] = upper.conj()
        return a


def _rk4_step_matrix(m: np.ndarray, dt: float) -> np.ndarray:
    a = dt * m
    a2 = a @ a
    a3 = a2 @ a
    a4 = a2 @ a2
    return np.eye(m.shape[0]) + a + a2 / 2.0 + a3 / 6.0 + a4 / 24.0


def steady_state(
    rho0: np.ndarray,
    model: ModelOperators,
    cfg: EvolveConfig,
    form: str = "auto",
    record: bool = False,
    observables: Optional[Iterable[str]] = None,
) -> SteadyStateResult:
    """Integrate from rho0 until ||d rho/dt||_F <= convergence_tol or
    t_max is reached.

    Uses the vectorized RK4 propagator with repeated squaring, so the
    walk accelerates geometrically while staying on the exact fixed-step
    RK4 trajectory; the convergence time is resolved to ~t/4.  The
    propagator is a dense matrix with 16**n_at entries, so registers of
    more than six atoms raise ValueError.  Returns a SteadyStateResult
    whose `converged` flag is False (with the final residual attached)
    when t_max is hit first; callers decide what a non-converged state
    means.  Positivity is checked at every visited point; with
    record=True those points are returned as a TimeSeries.
    """
    if model.n_at > _STEADY_STATE_MAX_ATOMS:
        raise ValueError(
            f"steady_state is limited to n_at <= {_STEADY_STATE_MAX_ATOMS} (its "
            f"dense propagator has 16**n_at entries); got n_at = {model.n_at}"
        )
    gen = _VectorizedGenerator(model, _resolve_form(model, form))
    rec = _Recorder(model.n_at, record, observables)

    r_full = gen.to_coords(_as_density(rho0))
    mask = gen.parity_mask
    restrict = bool(np.all(r_full[~mask] == 0.0))
    if restrict:
        m = gen.m[np.ix_(mask, mask)]
        r = r_full[mask]
    else:
        m = gen.m
        r = r_full

    def full_coords(rv):
        if not restrict:
            return rv
        out = np.zeros(gen.dim**2)
        out[mask] = rv
        return out

    def visit(t, rv):
        """Check (and record) the state at rv; return its residual."""
        rec.visit(t, gen.from_coords(full_coords(rv)))
        return float(np.linalg.norm(m @ rv))

    t = 0.0
    residual = visit(t, r)
    converged = residual <= cfg.convergence_tol
    t_end = cfg.t_max * (1.0 - 1e-12)
    p = None
    while not converged and t < t_end:
        if p is None:
            p = _rk4_step_matrix(m, cfg.dt)
            tau = cfg.dt
        elif 2.0 * tau <= max(cfg.dt, t / 4.0):
            p = p @ p
            tau *= 2.0
        for _ in range(8):
            r = p @ r
            t += tau
            # Diagonal coordinates always survive the parity restriction
            # and stay the leading block, so the trace is their plain sum.
            tr = r[: gen.dim].sum()
            rec.note_trace(tr)
            r /= tr
            residual = visit(t, r)
            converged = residual <= cfg.convergence_tol
            if converged or t >= t_end:
                break

    rho = gen.from_coords(full_coords(r))
    rho /= np.trace(rho).real
    return SteadyStateResult(
        state=rho,
        t_converge=t if converged else float("nan"),
        residual=residual,
        converged=converged,
        series=rec.series(),
    )
