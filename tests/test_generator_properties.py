"""Property tests over random geometries and squeezed baths: the
real-coordinate parity blocks in both generator forms, and the two forms
of the generator against each other."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from darkdimers import build_model, make_bath, make_geometry
from darkdimers.dynamics import (
    _generator_terms,
    _rhs_from_terms,
    _VectorizedGenerator,
    lindblad_rhs_general,
    lindblad_rhs_squeezed,
)

from conftest import random_hermitian_unit_trace

angles = st.floats(0.0, 2.0 * math.pi)
models = st.builds(
    lambda n_at, k0a, k0zc, n_ph, phi: build_model(
        make_geometry(n_at, k0a, k0zc), make_bath(n_ph, phi)),
    st.integers(1, 4), angles, angles,
    st.floats(0.0, 2.0, exclude_min=True), angles,
)


@settings(max_examples=50, deadline=None)
@given(model=models, form=st.sampled_from(["general", "squeezed"]))
def test_blocks_match_rhs_and_preserve_trace(model, form):
    gen = _VectorizedGenerator(model, form)
    terms = _generator_terms(model, form)
    d = gen.dim
    for b, coords in enumerate(gen.blocks):
        m = gen.assemble(b)
        # column k is L(E_k) in coordinates, and L(E_k) has no weight
        # outside the block
        for k, e in enumerate(np.eye(d * d)[coords]):
            col = gen.to_coords(_rhs_from_terms(terms, gen.from_coords(e)))
            assert np.max(np.abs(m[:, k] - col[coords])) <= 1e-12
            col[coords] = 0.0
            assert np.max(np.abs(col), initial=0.0) <= 1e-12
    # the diagonal coordinates lead block 0: Tr L(E_k) = 0 for every k
    assert np.max(np.abs(gen.assemble(0)[:d].sum(axis=0))) <= 1e-12


@settings(max_examples=50, deadline=None)
@given(model=models, seed=st.integers(0, 2**32 - 1))
def test_forms_agree_and_preserve_hermiticity_and_trace(model, seed):
    rho = random_hermitian_unit_trace(np.random.default_rng(seed),
                                      model.hamiltonian.shape[0])
    lg = lindblad_rhs_general(rho, model)
    ls = lindblad_rhs_squeezed(rho, model)
    assert np.max(np.abs(lg - ls)) <= 1e-12 * max(1.0, np.max(np.abs(lg)))
    for lr in (lg, ls):
        assert np.max(np.abs(lr - lr.conj().T)) <= 1e-12
        assert abs(np.trace(lr)) <= 1e-12
