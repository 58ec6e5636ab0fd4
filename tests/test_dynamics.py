import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from darkdimers import (
    EvolveConfig,
    IntegrationInstabilityError,
    build_model,
    evolve,
    lindblad_rhs_general,
    lindblad_rhs_squeezed,
    liouvillian_matrix,
    make_bath,
    make_geometry,
    steady_state,
)
from darkdimers.darkstates import PairSpec, dimer_chain, pair_state
from darkdimers.observables import fidelity, polarization_moments
from darkdimers.operators import (
    excitation_counts,
    ground_state,
    is_hermitian,
    product_state,
    pure_to_density,
)

from conftest import random_hermitian_unit_trace


@pytest.fixture(scope="module")
def model2(geo2_dark, bath088):
    return build_model(geo2_dark, bath088)


@pytest.fixture(scope="module")
def model1_vacuum():
    return build_model(make_geometry(1, 1.0, 0.0), make_bath(0.0))


class TestGenerators:
    def test_vacuum_decay_rhs(self, model1_vacuum):
        rho = np.diag([0.0, 1.0]).astype(complex)  # |e><e|
        rhs = lindblad_rhs_general(rho, model1_vacuum)
        assert_allclose(rhs, np.diag([1.0, -1.0]), atol=1e-14)

    @pytest.mark.parametrize("form", ["general", "squeezed"])
    def test_trace_and_hermiticity_preserved(self, model2, form):
        rng = np.random.default_rng(11)
        func = lindblad_rhs_general if form == "general" else lindblad_rhs_squeezed
        for _ in range(10):
            rho = random_hermitian_unit_trace(rng, 4)
            rhs = func(rho, model2)
            assert abs(np.trace(rhs)) <= 1e-12
            assert is_hermitian(rhs, tol=1e-12)

    def test_generator_equivalence_random(self, bath088):
        rng = np.random.default_rng(5)
        for n_at in (2, 3):
            geo = make_geometry(n_at, 0.9, 0.3)
            model = build_model(geo, bath088)
            for _ in range(10):
                rho = random_hermitian_unit_trace(rng, 2**n_at)
                diff = lindblad_rhs_general(rho, model) - lindblad_rhs_squeezed(rho, model)
                assert np.linalg.norm(diff) <= 1e-10

    def test_squeezed_form_requires_minimal_bath(self, geo2_dark):
        model = build_model(geo2_dark, make_bath(0.5, minimal=False))
        rho = pure_to_density(ground_state(2))
        with pytest.raises(ValueError, match="minimal"):
            lindblad_rhs_squeezed(rho, model)

    def test_dimension_mismatch(self, model2):
        with pytest.raises(ValueError, match="mismatch"):
            lindblad_rhs_general(np.eye(8, dtype=complex) / 8, model2)

    def test_dark_state_is_fixed_point(self, geo2_dark, bath088, model2):
        psi = pair_state(geo2_dark, bath088, PairSpec(1, 2, "squeezed"))
        rho = pure_to_density(psi)
        assert np.linalg.norm(lindblad_rhs_general(rho, model2)) <= 1e-10
        assert np.linalg.norm(lindblad_rhs_squeezed(rho, model2)) <= 1e-10
        h = model2.hamiltonian
        assert np.linalg.norm(h @ rho - rho @ h) <= 1e-10

    @pytest.mark.parametrize("phi", [0.7, math.pi / 2, 2.0])
    def test_dark_state_is_fixed_point_at_squeezing_phase(self, geo2_dark, phi):
        # the pair state built from mu, nu at phase phi is dark under
        # both forms, so the forms agree on the phase of M
        bath = make_bath(0.88, phi)
        model = build_model(geo2_dark, bath)
        rho = pure_to_density(pair_state(geo2_dark, bath, PairSpec(1, 2, "squeezed")))
        assert np.linalg.norm(lindblad_rhs_squeezed(rho, model)) <= 1e-10
        assert np.linalg.norm(lindblad_rhs_general(rho, model)) <= 1e-10

    def test_dimer_chain_projector_is_fixed_point(self, bath088):
        geo = make_geometry(4, math.pi / 4, math.pi / 4)
        model = build_model(geo, bath088)
        rho = pure_to_density(dimer_chain(geo, bath088))
        assert np.linalg.norm(lindblad_rhs_general(rho, model)) <= 1e-10
        h = model.hamiltonian
        assert np.linalg.norm(h @ rho - rho @ h) <= 1e-10


class TestEvolveConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [dict(dt=0.0), dict(dt=0.2), dict(t_max=-1.0), dict(record_stride=0),
         dict(convergence_tol=0.0)],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            EvolveConfig(**kwargs)


class TestEvolve:
    def test_analytic_single_atom_decay(self, model1_vacuum):
        rho0 = np.diag([0.0, 1.0]).astype(complex)
        cfg = EvolveConfig(dt=0.005, t_max=1.0, record_stride=20)
        series, rho = evolve(rho0, model1_vacuum, cfg)
        # <sigma_z>(t) = 2 e^{-t} - 1; mean_z records S_z = sigma_z / 2
        expected = 2.0 * np.exp(-series.times) - 1.0
        assert np.max(np.abs(2.0 * series.data["mean_z"] - expected)) <= 1e-6

    def test_trace_deviation_bounded(self, model1_vacuum):
        rho0 = np.diag([0.0, 1.0]).astype(complex)
        series, _ = evolve(rho0, model1_vacuum,
                           EvolveConfig(dt=0.005, t_max=2.0, record_stride=40))
        assert series.max_trace_dev <= 1e-10

    def test_rk4_order_by_step_halving(self, model1_vacuum):
        rho0 = np.diag([0.0, 1.0]).astype(complex)
        target = 2.0 * math.exp(-1.0) - 1.0
        errs = []
        for dt in (0.02, 0.01):
            cfg = EvolveConfig(dt=dt, t_max=1.0, record_stride=int(round(1.0 / dt)))
            series, _ = evolve(rho0, model1_vacuum, cfg)
            errs.append(abs(2.0 * series.data["mean_z"][-1] - target))
        assert errs[0] / errs[1] >= 14.0

    def test_times_strictly_increasing_and_records_complete(self, model2):
        series, _ = evolve(ground_state(2), model2,
                           EvolveConfig(dt=0.01, t_max=1.0, record_stride=10))
        assert np.all(np.diff(series.times) > 0)
        for key in ("purity", "mean_x", "mean_y", "mean_z", "var_x", "var_y",
                    "p0", "p1", "p2"):
            assert len(series.data[key]) == len(series.times)

    def test_instability_raises(self, bath088):
        # collective geometry at a coarse step: RK4 blows up and the
        # positivity guard must catch it
        geo = make_geometry(4, 2 * math.pi, 0.0)
        model = build_model(geo, bath088)
        with pytest.raises(IntegrationInstabilityError, match="dt"):
            evolve(ground_state(4), model,
                   EvolveConfig(dt=0.09, t_max=20.0, record_stride=5))


class TestSteadyState:
    def test_two_atom_reaches_pair_state(self, geo2_dark, bath088, model2):
        res = steady_state(ground_state(2), model2, EvolveConfig())
        assert res.converged
        psi = pair_state(geo2_dark, bath088, PairSpec(1, 2, "squeezed"))
        assert fidelity(psi, res.state) >= 0.999

    def test_vacuum_single_atom_ground(self, model1_vacuum):
        rho0 = np.diag([0.3, 0.7]).astype(complex)
        res = steady_state(rho0, model1_vacuum, EvolveConfig(t_max=100.0))
        assert res.converged
        assert_allclose(res.state, np.diag([1.0, 0.0]), atol=1e-8)

    def test_non_convergence_reported(self, model2):
        res = steady_state(ground_state(2), model2, EvolveConfig(t_max=0.05))
        assert not res.converged
        assert math.isnan(res.t_converge)
        assert res.residual > 0

    def test_dark_initial_state_converges_immediately(self, geo2_dark, bath088, model2):
        psi = pair_state(geo2_dark, bath088, PairSpec(1, 2, "squeezed"))
        res = steady_state(psi, model2, EvolveConfig())
        assert res.converged
        assert res.t_converge == 0.0

    @staticmethod
    def _propagator_vs_plain_loop(psi, bath088):
        # the propagator path is the same RK4 iteration: compare after 8
        # steps of a 3-atom evolution
        geo = make_geometry(3, 0.8, 0.2)
        model = build_model(geo, bath088)
        dt, n = 0.005, 8
        cfg_loop = EvolveConfig(dt=dt, t_max=n * dt, record_stride=n)
        _, rho_loop = evolve(psi, model, cfg_loop)
        res = steady_state(psi, model,
                           EvolveConfig(dt=dt, t_max=n * dt, convergence_tol=1e-300))
        # the residual covers every propagated block: it is ||L(rho)||_F
        direct = np.linalg.norm(lindblad_rhs_squeezed(res.state, model))
        assert res.residual == pytest.approx(direct, rel=1e-10)
        return np.max(np.abs(res.state - rho_loop))

    def test_matches_plain_rk4_loop(self, bath088):
        assert self._propagator_vs_plain_loop(ground_state(3), bath088) <= 1e-12

    @pytest.mark.parametrize("start", ["plus-pi-4", "random"])
    def test_matches_plain_rk4_loop_parity_mixed(self, bath088, start):
        # these starts have coherences between the even and odd sectors,
        # so both parity blocks are propagated
        if start == "plus-pi-4":
            plus = np.array([1.0, np.exp(1j * math.pi / 4)]) / math.sqrt(2.0)
            psi = product_state([plus] * 3)
        else:
            rng = np.random.default_rng(17)
            psi = rng.normal(size=8) + 1j * rng.normal(size=8)
            psi /= np.linalg.norm(psi)
        odd = excitation_counts(3) % 2
        cross = np.outer(psi, psi.conj())[np.ix_(odd == 0, odd == 1)]
        assert np.max(np.abs(cross)) > 0.1
        assert self._propagator_vs_plain_loop(psi, bath088) <= 1e-12

    def test_instability_raises(self, bath088):
        geo = make_geometry(4, 2 * math.pi, 0.0)
        model = build_model(geo, bath088)
        with pytest.raises(IntegrationInstabilityError):
            steady_state(ground_state(4), model, EvolveConfig(dt=0.099, t_max=50.0))

    def test_dimer_steady_state_independent_of_initial_state(self, bath088):
        geo = make_geometry(4, math.pi / 4, math.pi / 4)
        model = build_model(geo, bath088)
        res_ground = steady_state(ground_state(4), model, EvolveConfig())
        rng = np.random.default_rng(42)
        psi = rng.normal(size=16) + 1j * rng.normal(size=16)
        psi /= np.linalg.norm(psi)
        res_random = steady_state(psi, model, EvolveConfig())
        assert res_ground.converged and res_random.converged
        # both steady states are (near-)pure: compare through the
        # dominant eigenvector of one of them
        w, v = np.linalg.eigh(res_ground.state)
        assert fidelity(v[:, -1], res_random.state) >= 0.999

    def test_beyond_six_atoms_raises(self, bath088):
        model = build_model(make_geometry(7, math.pi / 4, 0.0), bath088)
        with pytest.raises(ValueError, match="n_at"):
            steady_state(ground_state(7), model, EvolveConfig())

    def test_recorded_moments_match_final_state(self, bath088):
        model = build_model(make_geometry(3, 0.8, 0.2), bath088)
        res = steady_state(ground_state(3), model, EvolveConfig(t_max=20.0), record=True)
        mom = polarization_moments(res.state, 3)
        for key in ("var_x", "var_y", "mean_z"):
            assert abs(res.series.data[key][-1] - getattr(mom, key)) <= 1e-12

    def test_record_series(self, model2):
        res = steady_state(ground_state(2), model2, EvolveConfig(), record=True)
        assert res.series is not None
        assert np.all(np.diff(res.series.times) > 0)
        assert res.series.data["purity"][-1] == pytest.approx(1.0, abs=1e-6)


def _plus_pi_4(n_at):
    return product_state([np.array([1.0, np.exp(1j * math.pi / 4)]) / math.sqrt(2.0)] * n_at)


class TestSymmetryReduction:
    """steady_state walks only the states that share rho0's site
    symmetries; its stats name them and the block sizes."""

    @staticmethod
    def _stats(n_at, k0a, k0zc, psi, bath):
        model = build_model(make_geometry(n_at, k0a, k0zc), bath)
        return steady_state(psi, model, EvolveConfig(t_max=0.05)).stats

    def test_identical_atoms_keep_the_permutation_invariant_sector(self, bath088):
        # at k0a = 2 pi every atom sees the same phase: all transpositions
        # are symmetries and C(n_at + 3, 3) coordinates remain
        stats = self._stats(4, 2 * math.pi, 0.3, _plus_pi_4(4), bath088)
        assert len(stats["symmetries"]) == 7
        assert [b["full"] for b in stats["blocks"]] == [128, 128]
        assert sum(b["reduced"] for b in stats["blocks"]) == math.comb(7, 3)

    def test_reflection_only_at_zero_center(self, bath088):
        stats = self._stats(4, 0.9, 0.0, ground_state(4), bath088)
        assert stats["symmetries"] == [(4, 3, 2, 1)]
        assert stats["blocks"] == [{"full": 128, "reduced": 72}]

    @pytest.mark.parametrize("k0a,k0zc,start", [(0.9, 0.3, "ground"),
                                                (2 * math.pi, 0.0, "random")])
    def test_no_reduction(self, bath088, k0a, k0zc, start):
        if start == "ground":
            psi = ground_state(4)
        else:
            rng = np.random.default_rng(5)
            psi = rng.normal(size=16) + 1j * rng.normal(size=16)
            psi /= np.linalg.norm(psi)
        stats = self._stats(4, k0a, k0zc, psi, bath088)
        assert stats["symmetries"] == []
        assert all(b["reduced"] == b["full"] == 128 for b in stats["blocks"])

    def test_counts_squarings_and_visited_points(self, model2):
        res = steady_state(ground_state(2), model2, EvolveConfig(), record=True)
        assert res.stats["visited_points"] == len(res.series.times)
        assert res.stats["squarings"] >= 1


class TestLiouvillian:
    def test_resource_guard(self, bath088):
        geo = make_geometry(6, math.pi / 4, 0.0)
        model = build_model(geo, bath088)
        with pytest.raises(ValueError, match="n_at"):
            liouvillian_matrix(model)

    @pytest.mark.parametrize("form", ["general", "squeezed"])
    def test_matches_rhs_on_random_inputs(self, model2, form):
        rng = np.random.default_rng(3)
        lv = liouvillian_matrix(model2, form)
        func = lindblad_rhs_general if form == "general" else lindblad_rhs_squeezed
        for _ in range(5):
            rho = random_hermitian_unit_trace(rng, 4)
            direct = func(rho, model2)
            via_l = (lv @ rho.reshape(-1, order="F")).reshape((4, 4), order="F")
            assert np.max(np.abs(direct - via_l)) <= 1e-12

    def test_single_atom_vacuum_unique_steady_state(self, model1_vacuum):
        lv = liouvillian_matrix(model1_vacuum)
        sv = np.linalg.svd(lv, compute_uv=False)
        assert int((sv <= 1e-10).sum()) == 1

    def test_dark_geometry_null_space_contains_pair_projector(
        self, geo2_dark, bath088, model2
    ):
        lv = liouvillian_matrix(model2)
        sv = np.linalg.svd(lv, compute_uv=False)
        assert int((sv <= 1e-10).sum()) >= 1
        psi = pair_state(geo2_dark, bath088, PairSpec(1, 2, "squeezed"))
        vec = pure_to_density(psi).reshape(-1, order="F")
        assert np.linalg.norm(lv @ vec) <= 1e-10

    def test_melted_pair_degenerate_null_space(self, bath088):
        geo = make_geometry(2, math.pi, 0.0)
        model = build_model(geo, bath088)
        lv = liouvillian_matrix(model)
        sv = np.linalg.svd(lv, compute_uv=False)
        assert int((sv <= 1e-10).sum()) > 1


class TestVectorizedEngine:
    @pytest.mark.parametrize("form", ["general", "squeezed"])
    def test_parity_blocks_decouple_exactly(self, bath088, form):
        # the fast path propagates the two parity blocks separately: in
        # real coordinates the dense Liouvillian must have structural
        # zeros between them, and each assembled block must be its
        # restriction to that block
        from darkdimers.dynamics import _VectorizedGenerator

        model = build_model(make_geometry(3, 0.9, 0.4), bath088)
        # a start with no site symmetry keeps the plain coordinates
        rho0 = random_hermitian_unit_trace(np.random.default_rng(2), 8)
        gen = _VectorizedGenerator(model, form, rho0)
        assert gen.symmetries == []
        # columns: the basis matrices E_k, column-stacked like the vec of
        # liouvillian_matrix; M[k', k] = Tr[E_k' L(E_k)]
        basis = np.stack([gen.from_coords(e).reshape(-1, order="F")
                          for e in np.eye(gen.dim**2)], axis=1)
        m = (basis.conj().T @ liouvillian_matrix(model, form) @ basis).real
        b0, b1 = gen.blocks
        assert np.max(np.abs(m[b0, b1])) == 0.0
        assert np.max(np.abs(m[b1, b0])) == 0.0
        for b, s in enumerate(gen.blocks):
            assert np.max(np.abs(gen.assemble(b) - m[s, s])) <= 1e-13

    def test_assembly_stays_below_one_complex_superoperator(self, bath088):
        # the blocks are accumulated from sparse sandwich entries; the old
        # kron assembly held several dense d^2 x d^2 complex buffers
        import tracemalloc

        from darkdimers.dynamics import _VectorizedGenerator

        model = build_model(make_geometry(5, 0.9, 0.3), bath088)
        rho0 = random_hermitian_unit_trace(np.random.default_rng(2), 32)
        tracemalloc.start()
        try:
            gen = _VectorizedGenerator(model, "general", rho0)
            blocks = [gen.assemble(b) for b in (0, 1)]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert [m.shape for m in blocks] == [(512, 512)] * 2
        assert peak < 16**5 * 16

    @pytest.mark.parametrize("k0a,k0zc,start", [(2 * math.pi, math.pi / 4, "plus-pi-4"),
                                                (math.pi / 4, 0.0, "ground")])
    def test_symmetric_blocks_are_the_generator_at_six_atoms(self, bath088, k0a, k0zc,
                                                             start):
        # a symmetric block reads only its orbit roots' input elements; each
        # column must still be L of the whole orbit coordinate
        from darkdimers.dynamics import _rhs_from_terms, _VectorizedGenerator

        model = build_model(make_geometry(6, k0a, k0zc), bath088)
        psi = _plus_pi_4(6) if start == "plus-pi-4" else ground_state(6)
        gen = _VectorizedGenerator(model, "squeezed", pure_to_density(psi))
        assert gen.symmetries
        for b, coords in enumerate(gen.blocks):
            m = gen.assemble(b)
            assert len(m) < gen.full_dims[b]
            cols = np.stack([gen.to_coords(_rhs_from_terms(gen.terms, gen.from_coords(e)))
                             for e in np.eye(gen.blocks[1].stop)[coords]], axis=1)
            assert np.max(np.abs(m - cols[coords])) <= 1e-12 * np.max(np.abs(m))

    def test_coordinate_roundtrip(self, bath088):
        from darkdimers.dynamics import _VectorizedGenerator

        model = build_model(make_geometry(2, 0.9, 0.1), bath088)
        rng = np.random.default_rng(8)
        rho = random_hermitian_unit_trace(rng, 4)
        gen = _VectorizedGenerator(model, "general", rho)
        r = gen.to_coords(rho)
        assert np.max(np.abs(gen.from_coords(r) - rho)) <= 1e-14
        # orthonormal basis: purity is the squared coordinate norm
        assert float(r @ r) == pytest.approx(np.trace(rho @ rho).real, abs=1e-12)
