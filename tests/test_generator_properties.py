"""Property tests over random geometries and squeezed baths: the
real-coordinate blocks in both generator forms, reduced by the site
symmetries of the start state, and the two forms of the generator
against each other."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from darkdimers import EvolveConfig, build_model, evolve, make_bath, make_geometry, steady_state
from darkdimers.dynamics import (
    _generator_terms,
    _rhs,
    _VectorizedGenerator,
    lindblad_rhs,
)
from darkdimers.operators import ground_state, product_state

from conftest import random_hermitian_unit_trace

angles = st.floats(0.0, 2.0 * math.pi)
n_phs = st.floats(0.0, 2.0, exclude_min=True)


def _model(n_at, k0a, k0zc, n_ph, phi):
    return build_model(make_geometry(n_at, k0a, k0zc), make_bath(n_ph, phi))


models = st.builds(_model, st.integers(1, 4), angles, angles, n_phs, angles)
# geometries with and without site symmetries: identical atoms at
# k0a = 2 pi, a mirror-symmetric chain at k0zc = 0 or pi/2
symmetric_models = st.builds(
    _model,
    st.integers(1, 4),
    st.one_of(angles, st.sampled_from([math.pi / 4, math.pi, 2.0 * math.pi])),
    st.one_of(angles, st.sampled_from([0.0, math.pi / 4, math.pi / 2])),
    n_phs, angles,
)


def _start(kind, n_at, seed):
    if kind == "ground":
        return ground_state(n_at)
    if kind == "plus-pi-4":
        plus = np.array([1.0, np.exp(1j * math.pi / 4)]) / math.sqrt(2.0)
        return product_state([plus] * n_at)
    rng = np.random.default_rng(seed)
    psi = rng.normal(size=2**n_at) + 1j * rng.normal(size=2**n_at)
    return psi / np.linalg.norm(psi)


@settings(max_examples=50, deadline=None)
@given(model=symmetric_models, form=st.sampled_from(["general", "squeezed"]),
       start=st.sampled_from(["ground", "plus-pi-4", "random"]),
       seed=st.integers(0, 2**32 - 1))
def test_blocks_match_rhs_and_preserve_trace(model, form, start, seed):
    psi = _start(start, model.n_at, seed)
    gen = _VectorizedGenerator(model, form, np.outer(psi, psi.conj()))
    rhs = _rhs(_generator_terms(model, form))
    d = gen.dim
    for b, coords in enumerate(gen.blocks):
        m = gen.assemble(b)
        # column o is L(F_o) in coordinates: L(F_o) lies in the reduced
        # coordinates, with no weight outside the block
        for k, e in enumerate(np.eye(gen.blocks[1].stop)[coords]):
            lf = rhs(gen.from_coords(e))
            col = gen.to_coords(lf)
            assert np.max(np.abs(gen.from_coords(col) - lf)) <= 1e-12
            assert np.max(np.abs(m[:, k] - col[coords])) <= 1e-12
            col[coords] = 0.0
            assert np.max(np.abs(col), initial=0.0) <= 1e-12
    # block 0 holds the trace: Tr L(F_o) = 0 for every o
    unit = gen.to_coords(np.eye(d))[gen.blocks[0]]
    assert np.max(np.abs(unit @ gen.assemble(0))) <= 1e-12
    # the reduced walk is the plain RK4 loop: compare after 8 steps
    dt, n = 0.005, 8
    _, rho_loop = evolve(psi, model, EvolveConfig(dt=dt, t_max=n * dt, record_stride=n),
                         form=form)
    res = steady_state(psi, model, EvolveConfig(dt=dt, t_max=n * dt, convergence_tol=1e-300),
                       form=form)
    assert np.max(np.abs(res.state - rho_loop)) <= 1e-12


@settings(max_examples=25, deadline=None)
@given(model=st.builds(_model, st.integers(1, 3), angles, angles, n_phs, angles),
       form=st.sampled_from(["general", "squeezed"]),
       start=st.sampled_from(["ground", "plus-pi-4", "random"]),
       seed=st.integers(0, 2**32 - 1))
def test_squaring_walk_matches_the_plain_rk4_loop(model, form, start, seed):
    # 400 steps make the walk square its propagator, which 8 steps never do
    psi = _start(start, model.n_at, seed)
    dt = 0.005
    res = steady_state(psi, model, EvolveConfig(dt=dt, t_max=400 * dt, convergence_tol=1e-300),
                       form=form, record=True)
    assume(not res.converged)  # only a start at rest (the ground state at n_ph ~ 0) converges
    assert res.stats["squarings"] > 0
    t_end = res.series.times[-1]
    _, rho_loop = evolve(psi, model, EvolveConfig(dt=dt, t_max=t_end, record_stride=400),
                         form=form)
    assert np.max(np.abs(res.state - rho_loop)) <= 1e-12


@pytest.mark.parametrize("form", ["general", "squeezed", "auto"])
def test_near_symmetry_is_rejected(form):
    # at k0zc = 1e-12 the swap of the two atoms commutes with L only to
    # ~1e-12 relative; accepting it dropped ~3e-12 of L(F_o) outside the sector
    model = build_model(make_geometry(2, 1.0, 1e-12), make_bath(1.0))
    psi = ground_state(2)
    gen = _VectorizedGenerator(model, form, np.outer(psi, psi.conj()))
    assert gen.symmetries == []
    rhs = _rhs(_generator_terms(model, form))
    for e in np.eye(gen.blocks[1].stop):
        lf = rhs(gen.from_coords(e))
        assert np.max(np.abs(gen.from_coords(gen.to_coords(lf)) - lf)) <= 1e-12


@settings(max_examples=50, deadline=None)
@given(model=models, seed=st.integers(0, 2**32 - 1))
def test_forms_agree_and_preserve_hermiticity_and_trace(model, seed):
    rho = random_hermitian_unit_trace(np.random.default_rng(seed),
                                      model.hamiltonian.shape[0])
    lg = lindblad_rhs(rho, model, "general")
    ls = lindblad_rhs(rho, model, "squeezed")
    assert np.max(np.abs(lg - ls)) <= 1e-12 * max(1.0, np.max(np.abs(lg)))
    for lr in (lg, ls):
        assert np.max(np.abs(lr - lr.conj().T)) <= 1e-12
        assert abs(np.trace(lr)) <= 1e-12


def _kernel_distance(m, r, u, residual):
    """(k, distance, bound) for a block m and the part r of a trace-one state
    (u the trace row) with ||m r|| <= residual: the dimension k of m's kernel
    (singular values up to 1e-10 of the largest, 0 without a gap of 1e-8 above
    them), r's distance from it and the bound that distance obeys.

    Every y orthogonal to the kernel has ||m y|| >= s_{k+1} ||y||, so r's part
    y off the kernel has ||y|| <= ||m r|| / s_{k+1}.  With k = 1 the kernel
    holds one trace-one state r*, a density matrix (||r*|| <= 1): writing
    r - r* = a r* + y, the traces give |a| = |u . y| <= ||u|| ||y||, so
    ||r - r*|| <= (1 + ||u||) ||m r|| / s_2.  The computed kernel is m's up to
    rounding, its own residual, which the bound adds to ||m r||."""
    _, s, vt = np.linalg.svd(m)
    k = int(np.sum(s <= 1e-10 * s[0]))
    if k in (0, len(s)) or s[-k - 1] <= 1e-8 * s[0]:
        return 0, None, None
    if k == 1:
        r_star = vt[-1] / (u @ vt[-1])
        bound = (1.0 + np.linalg.norm(u)) * (residual + np.linalg.norm(m @ r_star)) / s[-2]
        return k, np.linalg.norm(r - r_star), bound
    y = r - vt[-k:].T @ (vt[-k:] @ r)
    return k, np.linalg.norm(y), (residual + s[-k] * np.linalg.norm(r)) / s[-k - 1]


@settings(max_examples=20, deadline=None)
@given(model=symmetric_models, form=st.sampled_from(["general", "squeezed"]),
       start=st.sampled_from(["ground", "plus-pi-4", "random"]),
       seed=st.integers(0, 2**32 - 1))
def test_converged_state_is_the_kernel_state(model, form, start, seed):
    # the oracle reads the unreduced parity-even block, which a start with no
    # site symmetry gives, so a wrong reduction of the solve shows
    cfg = EvolveConfig()
    res = steady_state(_start(start, model.n_at, seed), model, cfg, form=form)
    assume(res.converged)
    d = model.hamiltonian.shape[0]
    gen = _VectorizedGenerator(model, form, random_hermitian_unit_trace(
        np.random.default_rng(seed), d))
    assert gen.symmetries == []
    b0 = gen.blocks[0]
    k, distance, bound = _kernel_distance(gen.assemble(0), gen.to_coords(res.state)[b0],
                                          gen.to_coords(np.eye(d))[b0], cfg.convergence_tol)
    assume(k == 1)
    assert distance <= bound


def test_fig3_melted_state_lies_in_the_kernel(bath088):
    # the walk's own reduced block; the melted chain's dark states leave it
    # a kernel of several dimensions, so only the distance from it is bound
    model = build_model(make_geometry(6, math.pi, 0.0), bath088)
    psi, cfg = ground_state(6), EvolveConfig()
    res = steady_state(psi, model, cfg)
    assert res.converged
    gen = _VectorizedGenerator(model, "auto", np.outer(psi, psi.conj()))
    m, b0 = gen.assemble(0), gen.blocks[0]
    assert len(m) == 110
    k, distance, bound = _kernel_distance(m, gen.to_coords(res.state)[b0],
                                          gen.to_coords(np.eye(64))[b0], cfg.convergence_tol)
    assert k > 1
    assert distance <= bound
