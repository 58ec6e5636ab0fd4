"""Property tests of the real-coordinate parity blocks over random
geometries and squeezed baths, in both generator forms."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from darkdimers import build_model, make_bath, make_geometry
from darkdimers.dynamics import _generator_terms, _rhs_from_terms, _VectorizedGenerator

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
