import functools
import math
import os
import subprocess
import sys
import tracemalloc
from contextlib import nullcontext

import numpy as np
import pytest
from numpy.testing import assert_allclose

from darkdimers import (
    EvolveConfig,
    IntegrationInstabilityError,
    build_model,
    evolve,
    lindblad_rhs,
    liouvillian_matrix,
    make_bath,
    make_geometry,
    steady_state,
)
from darkdimers import dynamics
from darkdimers import model as model_module
from darkdimers.darkstates import PairSpec, dimer_chain, pair_state
from darkdimers.observables import fidelity, polarization_moments
from darkdimers.operators import (
    excitation_counts,
    ground_state,
    product_state,
    pure_to_density,
)

from conftest import random_hermitian_unit_trace
from matrix_checks import is_hermitian


@pytest.fixture(scope="module")
def model2(geo2_dark, bath088):
    return build_model(geo2_dark, bath088)


@pytest.fixture(scope="module")
def model1_vacuum():
    return build_model(make_geometry(1, 1.0, 0.0), make_bath(0.0))


class TestGenerators:
    def test_vacuum_decay_rhs(self, model1_vacuum):
        rho = np.diag([0.0, 1.0]).astype(complex)  # |e><e|
        rhs = lindblad_rhs(rho, model1_vacuum, "general")
        assert_allclose(rhs, np.diag([1.0, -1.0]), atol=1e-14)

    @pytest.mark.parametrize("form", ["general", "squeezed"])
    def test_trace_and_hermiticity_preserved(self, model2, form):
        rng = np.random.default_rng(11)
        for _ in range(10):
            rho = random_hermitian_unit_trace(rng, 4)
            rhs = lindblad_rhs(rho, model2, form)
            assert abs(np.trace(rhs)) <= 1e-12
            assert is_hermitian(rhs, tol=1e-12)

    def test_generator_equivalence_random(self, bath088):
        rng = np.random.default_rng(5)
        for n_at in (2, 3):
            geo = make_geometry(n_at, 0.9, 0.3)
            model = build_model(geo, bath088)
            for _ in range(10):
                rho = random_hermitian_unit_trace(rng, 2**n_at)
                diff = lindblad_rhs(rho, model, "general") - lindblad_rhs(rho, model, "squeezed")
                assert np.linalg.norm(diff) <= 1e-10

    def test_squeezed_form_requires_minimal_bath(self, geo2_dark):
        model = build_model(geo2_dark, make_bath(0.5, m_abs=0.0))
        rho = pure_to_density(ground_state(2))
        with pytest.raises(ValueError, match="minimal"):
            lindblad_rhs(rho, model, "squeezed")

    def test_dimension_mismatch(self, model2):
        with pytest.raises(ValueError, match="mismatch"):
            lindblad_rhs(np.eye(8, dtype=complex) / 8, model2, "general")
        # one atom too few or too many, as a vector or a density matrix
        for rho in (ground_state(1), ground_state(3), np.eye(8, dtype=complex) / 8):
            for solve in (steady_state, evolve):
                with pytest.raises(ValueError, match="mismatch"):
                    solve(rho, model2, EvolveConfig(t_max=0.02))

    def test_unknown_form_raises(self, model2):
        rho = pure_to_density(ground_state(2))
        with pytest.raises(ValueError, match="unknown generator form 'bogus'"):
            lindblad_rhs(rho, model2, "bogus")
        for solve in (steady_state, evolve):
            with pytest.raises(ValueError, match="unknown generator form 'bogus'"):
                solve(rho, model2, EvolveConfig(t_max=0.02), form="bogus")

    @pytest.mark.parametrize("solve", [steady_state, evolve])
    @pytest.mark.parametrize("rho0,reason", [
        (np.zeros(4), " has trace 0;"),
        (np.zeros((4, 4)), " has trace 0;"),
        (-np.eye(4) / 4, " has trace -1;"),
        (np.array([np.nan, 1.0, 0.0, 0.0]), "'s density matrix has a non-finite entry"),
        (np.array([1e200, 0.0, 0.0, 0.0]), "'s density matrix has a non-finite entry"),
        (np.diag([np.inf, 0.0, 0.0, 0.0]), "'s density matrix has a non-finite entry"),
    ], ids=["zero-vector", "zero-matrix", "negative-trace", "nan-vector", "overflowing-vector",
            "inf-matrix"])
    def test_invalid_start_state_raises(self, model2, solve, rho0, reason):
        # a zero start once gave steady_state an all-NaN state flagged converged
        with pytest.raises(ValueError, match=f"the start state{reason}"):
            solve(rho0, model2, EvolveConfig(t_max=0.02))

    @pytest.mark.parametrize("solve", [
        steady_state, functools.partial(steady_state, record=True), evolve],
        ids=["steady", "steady-recorded", "evolve"])
    def test_non_positive_start_state_names_the_start(self, model2, solve):
        # unit trace but a negative eigenvalue: the t = 0 positivity check
        # blames the start state, not dt
        rho0 = np.diag([1.5, -0.5, 0.0, 0.0]).astype(complex)
        with pytest.raises(IntegrationInstabilityError,
                           match=r"^smallest eigenvalue -5\.000e-01 at t = 0; "
                                 r"the start state is not positive semidefinite$"):
            solve(rho0, model2, EvolveConfig(t_max=0.02))

    @pytest.mark.parametrize("solver", ["evolve", "steady-recorded"])
    def test_start_state_off_unit_trace_is_normalized(self, model2, solver):
        # a start of trace 2 is divided by it before the t = 0 record
        def solve(rho0, cfg=EvolveConfig(t_max=0.5)):
            if solver == "evolve":
                return evolve(rho0, model2, cfg)
            res = steady_state(rho0, model2, cfg, record=True)
            return res.series, res.state

        ee = pure_to_density(product_state([np.array([0.0, 1.0])] * 2))  # |ee><ee|
        series, state = solve(2.0 * ee)
        assert series.data["purity"][0] == 1.0
        assert series.max_trace_dev <= 1e-10
        assert np.array_equal(state, solve(ee)[1])

    def test_dark_state_is_fixed_point(self, geo2_dark, bath088, model2):
        psi = pair_state(geo2_dark, bath088, PairSpec(1, 2, "squeezed"))
        rho = pure_to_density(psi)
        assert np.linalg.norm(lindblad_rhs(rho, model2, "general")) <= 1e-10
        assert np.linalg.norm(lindblad_rhs(rho, model2, "squeezed")) <= 1e-10
        h = model2.hamiltonian
        assert np.linalg.norm(h @ rho - rho @ h) <= 1e-10

    @pytest.mark.parametrize("phi", [0.7, math.pi / 2, 2.0])
    def test_dark_state_is_fixed_point_at_squeezing_phase(self, geo2_dark, phi):
        # the pair state built from mu, nu at phase phi is dark under
        # both forms, so the forms agree on the phase of M
        bath = make_bath(0.88, phi)
        model = build_model(geo2_dark, bath)
        rho = pure_to_density(pair_state(geo2_dark, bath, PairSpec(1, 2, "squeezed")))
        assert np.linalg.norm(lindblad_rhs(rho, model, "squeezed")) <= 1e-10
        assert np.linalg.norm(lindblad_rhs(rho, model, "general")) <= 1e-10

    def test_dimer_chain_projector_is_fixed_point(self, bath088):
        geo = make_geometry(4, math.pi / 4, math.pi / 4)
        model = build_model(geo, bath088)
        rho = pure_to_density(dimer_chain(geo, bath088))
        assert np.linalg.norm(lindblad_rhs(rho, model, "general")) <= 1e-10
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

    @pytest.mark.parametrize("name", ["t_max", "convergence_tol"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_values(self, name, value):
        # an infinite tol used to report convergence at t = 0 with residual
        # 2.95, a nan t_max to return after one visit
        with pytest.raises(ValueError, match=f"{name} must be finite and > 0, got {value}"):
            EvolveConfig(**{name: value})


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


    def test_non_finite_trace_raises(self):
        model = build_model(make_geometry(2, math.pi / 4, 0.0), make_bath(1e100))
        with np.errstate(all="ignore"), pytest.raises(IntegrationInstabilityError,
                                                      match="trace nan at t = 0.005"):
            evolve(ground_state(2), model, EvolveConfig(t_max=1.0))


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

    @staticmethod
    def _walk_without_a_step(monkeypatch, psi, model, cfg):
        # a walk that takes no step forms no propagator and records one visit
        calls, step = [], dynamics._rk4_step_matrix

        def counting(m, dt):
            calls.append(len(m))
            return step(m, dt)

        monkeypatch.setattr(dynamics, "_rk4_step_matrix", counting)
        res = steady_state(psi, model, cfg)
        assert calls == []
        stats = res.stats
        assert (stats["squarings"], stats["matvecs"], stats["visited_points"]) == (0, 0, 1)
        assert stats["stride"] == cfg.dt
        return res

    def test_dark_initial_state_converges_immediately(self, geo2_dark, bath088, model2,
                                                      monkeypatch):
        psi = pair_state(geo2_dark, bath088, PairSpec(1, 2, "squeezed"))
        res = self._walk_without_a_step(monkeypatch, psi, model2, EvolveConfig())
        assert res.converged
        assert res.t_converge == 0.0

    def test_horizon_below_one_step_forms_no_propagator(self, model2, monkeypatch):
        res = self._walk_without_a_step(monkeypatch, ground_state(2), model2,
                                        EvolveConfig(dt=0.005, t_max=0.001))
        assert not res.converged and math.isnan(res.t_converge)

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
        direct = np.linalg.norm(lindblad_rhs(res.state, model, "squeezed"))
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
        # an unrecorded solve gates on a Cholesky factorization; its failure
        # falls back to the eigenvalues, which name the same t and lambda
        geo = make_geometry(4, 2 * math.pi, 0.0)
        model = build_model(geo, bath088)
        with pytest.raises(IntegrationInstabilityError) as exc:
            steady_state(ground_state(4), model, EvolveConfig(dt=0.099, t_max=50.0))
        assert str(exc.value) == ("smallest eigenvalue -2.019e-01 at t = 0.099; "
                                  "the integration is unstable, use a smaller dt")

    @pytest.mark.parametrize("record", [False, True])
    def test_positivity_gate_threshold(self, record):
        from darkdimers.dynamics import _Recorder

        rec = _Recorder(record)
        rec.visit(0.5, np.diag([1.0 + 5e-7, -5e-7]).astype(complex))
        with pytest.raises(IntegrationInstabilityError,
                           match=r"smallest eigenvalue -2\.000e-06 at t = 1\b"):
            rec.visit(1.0, np.diag([1.0 + 2e-6, -2e-6]).astype(complex))
        # the eigenvalues are taken at every recorded point, else only when
        # the Cholesky gate fails
        assert rec.min_eigenvalue == -2e-6

    @pytest.mark.parametrize("record", [False, True])
    def test_non_finite_state_raises(self, record):
        # NaN passes a Cholesky factorization, and eigvalsh raises LinAlgError on it
        from darkdimers.dynamics import _Recorder

        rho = np.diag([1.0, 0.0]).astype(complex)
        rho[0, 1] = np.nan
        with pytest.raises(IntegrationInstabilityError, match="non-finite state at t = 2"):
            _Recorder(record).visit(2.0, rho)

    @pytest.mark.parametrize("record", [False, True])
    @pytest.mark.parametrize("n_ph,gamma,fragment", [
        (1e100, 1.0, "trace nan at t = 0.005; the integration is unstable, use a smaller dt"),
        (0.88, 1e200, "residual inf at t = 0; the generator overflows \\(n_ph or gamma too large")
    ], ids=["1e+100-trace nan at t = 0.005", "gamma-1e200"])
    def test_overflowing_walk_raises(self, record, n_ph, gamma, fragment):
        # the RK4 polynomial overflows (n_ph 1e100), or the residual at t = 0
        # (gamma 1e200), where no dt can help
        model = build_model(make_geometry(2, math.pi / 4, 0.0), make_bath(n_ph), gamma)
        with np.errstate(all="ignore"), pytest.raises(IntegrationInstabilityError,
                                                      match=fragment):
            steady_state(ground_state(2), model, EvolveConfig(t_max=1.0), record=record)

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
        mom = polarization_moments(res.state)
        for key in ("var_x", "var_y", "mean_z"):
            assert abs(res.series.data[key][-1] - getattr(mom, key)) <= 1e-12

    @pytest.mark.parametrize("t_max", [0.3, 7.3, 50.0, 79.0])
    def test_never_steps_beyond_t_max(self, bath088, t_max):
        # the last stride is up to t/4 long: it must end the walk before
        # t_max, not past it (at 79 the walk used to report t_converge 81.88)
        model = build_model(make_geometry(2, math.pi / 4, 0.0), bath088)
        res = steady_state(ground_state(2), model, EvolveConfig(t_max=t_max), record=True)
        assert res.series.times[-1] <= t_max
        assert not res.converged or res.t_converge <= t_max

    def test_record_series(self, model2):
        res = steady_state(ground_state(2), model2, EvolveConfig(), record=True)
        assert res.series is not None
        assert np.all(np.diff(res.series.times) > 0)
        assert res.series.data["purity"][-1] == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("dt,raises", [(0.005, False), (0.099, True)])
    def test_small_walk_on_one_thread_restores_the_count(self, monkeypatch, bath088,
                                                         dt, raises):
        # entered at two threads, the N = 4 walk (blocks of at most 128) forms
        # its propagator and checks its states on one, and sets two again on
        # return, or on the instability that dt = 0.099 raises
        calls = _stand_in_blas(monkeypatch)
        products = _thread_counts_of_calls(monkeypatch, dynamics, "_rk4_step_matrix")
        checks = _thread_counts_of_calls(monkeypatch, dynamics._Recorder, "visit")
        model = build_model(make_geometry(4, 2 * math.pi, 0.0), bath088)
        with pytest.raises(IntegrationInstabilityError) if raises else nullcontext():
            steady_state(ground_state(4), model, EvolveConfig(dt=dt, t_max=5.0))
        assert calls == [1, 2]
        assert products == [1]
        assert set(checks) == {1} and len(checks) > 1

    @pytest.mark.parametrize("threshold,narrow", [(None, False), (512, True), (511, False)])
    def test_thread_rule_keys_on_the_largest_block(self, monkeypatch, bath088,
                                                   threshold, narrow):
        # entered at two threads, N = 5 at k0a 0.9, k0zc 0.3 from the ground
        # state walks one block of 512 coordinates: set-up and the checks run on
        # one thread, the propagator forms on two above the threshold only, and
        # two are set again on return
        if threshold is not None:
            monkeypatch.setattr(dynamics, "_THREADED_BLOCK", threshold)
        _stand_in_blas(monkeypatch)
        generator = dynamics._VectorizedGenerator
        probes = _thread_counts_of_calls(monkeypatch, generator, "_symmetries")
        blocks = _thread_counts_of_calls(monkeypatch, generator, "assemble")
        products = _thread_counts_of_calls(monkeypatch, dynamics, "_rk4_step_matrix")
        checks = _thread_counts_of_calls(monkeypatch, dynamics._Recorder, "visit")
        model = build_model(make_geometry(5, 0.9, 0.3), bath088)
        res = steady_state(ground_state(5), model, EvolveConfig(t_max=1.0))
        assert [b["reduced"] for b in res.stats["blocks"]] == [512]
        assert probes == blocks == [1]
        assert products == [1 if narrow else 2]
        assert set(checks) == {1} and len(checks) > 1
        assert dynamics._blas_api()[0]() == 2

    @pytest.mark.parametrize("n_ph,built", [(0.88, "squeezed_jumps"), (0.0, "travelling_jumps")])
    def test_set_up_builds_what_the_form_reads_on_one_thread(self, monkeypatch, n_ph, built):
        # entered at two threads, a solve builds the model's operators on one
        # thread, and only the set that its form reads: at n_ph 0.88 H and the
        # squeezed jumps, never a travelling channel; at n_ph 0 H and the eight
        # channels.  H and the squeezed jumps each read the site stack once,
        # the channels once per direction.
        _stand_in_blas(monkeypatch)
        log = _thread_counts_of_calls(monkeypatch, model_module, "site_lowering")
        model = build_model(make_geometry(2, 0.9, 0.3), make_bath(n_ph))
        steady_state(ground_state(2), model, EvolveConfig(t_max=1.0))
        assert log == [1] * (3 if built == "travelling_jumps" else 2)
        assert {"hamiltonian", built} <= set(vars(model))
        if built == "squeezed_jumps":
            assert "travelling_jumps" not in vars(model)

    def test_set_up_that_raises_restores_the_count(self, monkeypatch, model2):
        # the unknown form raises while the generator is built, on one thread
        calls = _stand_in_blas(monkeypatch)
        with pytest.raises(ValueError, match="unknown generator form"):
            steady_state(ground_state(2), model2, EvolveConfig(), form="bogus")
        assert calls == [1, 2]


def _stand_in_blas(monkeypatch):
    """Put a stand-in OpenBLAS getter and setter in place, the count starting
    at two; return the log of the setter's calls."""
    calls = []
    monkeypatch.setattr(dynamics, "_blas_api",
                        lambda: (lambda: calls[-1] if calls else 2, calls.append))
    return calls


def _thread_counts_of_calls(monkeypatch, owner, name):
    """Wrap owner.name to log OpenBLAS's thread count at each call; return the log."""
    log, real = [], getattr(owner, name)

    def counting(*args):
        log.append(dynamics._blas_api()[0]())
        return real(*args)

    monkeypatch.setattr(owner, name, counting)
    return log


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

    def test_symmetry_probe_leaves_numpy_random_unloaded(self):
        # the commutation probe is built without numpy.random, whose first
        # use costs an import in every solve that tests a symmetry
        code = ("import sys; from darkdimers.config import ExperimentConfig; "
                "from darkdimers.experiments import solve; "
                "res = solve(ExperimentConfig(n_at=6, k0a=2 * 3.141592653589793, "
                "k0zc=0.7853981633974483, initial='plus-pi-4', t_max=0.05)); "
                "print(len(res.stats['symmetries']), 'numpy.random' in sys.modules)")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True, timeout=120)
        assert out.stdout.split() == ["16", "False"]


class TestSquaringRule:
    """The walk visits the same times whatever it squares; it squares its
    propagator only while the matvecs saved on the rest of the walk pay for
    a block product (n * _PRODUCT_MATVECS)."""

    @staticmethod
    def _dimer_walk(n_at, bath, record=False, **cfg):
        # the fig4 dimer chain (the fig3 dimer at six atoms) from the ground state
        k0zc = {4: math.pi / 4, 6: 0.0}[n_at]
        model = build_model(make_geometry(n_at, math.pi / 4, k0zc), bath)
        return steady_state(ground_state(n_at), model, EvolveConfig(**cfg), record=record)

    @pytest.mark.parametrize("n_at,always", [
        (4, dict(squarings=11, matvecs=95, stride=10.24, visited_points=96)),
        (6, dict(squarings=12, matvecs=102, stride=20.48, visited_points=103))])
    def test_squares_less_on_the_same_visits(self, monkeypatch, bath088, n_at, always):
        res = self._dimer_walk(n_at, bath088)
        monkeypatch.setattr(dynamics, "_PRODUCT_MATVECS", 0.0)
        ref = self._dimer_walk(n_at, bath088)
        # at no cost a product always pays: a squaring at every stride doubling
        assert {k: ref.stats[k] for k in always} == always
        assert ref.t_converge == {4: 153.56, 6: 286.68}[n_at]
        assert res.converged and res.t_converge == ref.t_converge
        for key in ("visited_points", "stride"):
            assert res.stats[key] == ref.stats[key]
        assert res.stats["squarings"] < ref.stats["squarings"]
        assert res.stats["matvecs"] > ref.stats["matvecs"]
        assert np.max(np.abs(res.state - ref.state)) <= 1e-12

    def test_unreachable_tol_squares_wherever_the_horizon_pays(self, bath088):
        # the residual never nears tol = 1e-300, so only t_stop - t bounds the
        # rest of the walk: replay the rule at each doubling of the visits
        t_max = 30.0
        res = self._dimer_walk(4, bath088, record=True, t_max=t_max, convergence_tol=1e-300)
        assert not res.converged
        cost = max(b["reduced"] for b in res.stats["blocks"]) * dynamics._PRODUCT_MATVECS
        t, taus = res.series.times, np.diff(res.series.times)
        doublings = np.flatnonzero(taus[1:] > 1.5 * taus[:-1]) + 1
        hops, squarings = 1, 0
        for i in doublings:
            hops *= 2
            while hops > 1 and (t_max - t[i]) * hops / (2.0 * taus[i]) > cost:
                hops, squarings = hops // 2, squarings + 1
        assert res.stats["squarings"] == squarings
        # the horizon lets some doublings square and stops the last ones
        assert 0 < squarings < len(doublings)


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
        for _ in range(5):
            rho = random_hermitian_unit_trace(rng, 4)
            direct = lindblad_rhs(rho, model2, form)
            via_l = (lv @ rho.reshape(-1, order="F")).reshape((4, 4), order="F")
            assert np.max(np.abs(direct - via_l)) <= 1e-12

    def test_single_atom_vacuum_unique_steady_state(self, model1_vacuum):
        lv = liouvillian_matrix(model1_vacuum)
        sv = np.linalg.svd(lv, compute_uv=False)
        assert int((sv <= 1e-10).sum()) == 1

    def test_dark_geometry_null_space_contains_pair_projector(
        self, geo2_dark, bath088, model2
    ):
        psi = pair_state(geo2_dark, bath088, PairSpec(1, 2, "squeezed"))
        vec = pure_to_density(psi).reshape(-1, order="F")
        for form in ("general", "squeezed"):
            lv = liouvillian_matrix(model2, form)
            sv = np.linalg.svd(lv, compute_uv=False)
            assert int((sv <= 1e-10).sum()) >= 1
            assert np.linalg.norm(lv @ vec) <= 1e-10

    def test_melted_pair_degenerate_null_space(self, bath088):
        geo = make_geometry(2, math.pi, 0.0)
        model = build_model(geo, bath088)
        for form in ("general", "squeezed"):
            sv = np.linalg.svd(liouvillian_matrix(model, form), compute_uv=False)
            assert int((sv <= 1e-10).sum()) > 1

    @pytest.mark.parametrize("n_ph,form", [(0.88, "squeezed"), (0.0, "general")])
    def test_default_form_is_auto(self, geo2_dark, n_ph, form):
        # liouvillian_matrix and lindblad_rhs pick the squeezed form where the
        # bath has one, like evolve and steady_state
        model = build_model(geo2_dark, make_bath(n_ph))
        rho = random_hermitian_unit_trace(np.random.default_rng(4), 4)
        assert np.array_equal(liouvillian_matrix(model), liouvillian_matrix(model, form))
        assert np.array_equal(lindblad_rhs(rho, model), lindblad_rhs(rho, model, form))


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
        from darkdimers.dynamics import _rhs, _VectorizedGenerator

        model = build_model(make_geometry(6, k0a, k0zc), bath088)
        psi = _plus_pi_4(6) if start == "plus-pi-4" else ground_state(6)
        gen = _VectorizedGenerator(model, "squeezed", pure_to_density(psi))
        assert gen.symmetries
        rhs = _rhs(gen.terms)
        for b, coords in enumerate(gen.blocks):
            m = gen.assemble(b)
            assert len(m) < gen.full_dims[b]
            cols = np.stack([gen.to_coords(rhs(gen.from_coords(e)))
                             for e in np.eye(gen.blocks[1].stop)[coords]], axis=1)
            assert np.max(np.abs(m - cols[coords])) <= 1e-12 * np.max(np.abs(m))

    @pytest.mark.parametrize("k0a,k0zc,start,over_blocks", [
        (2 * math.pi, math.pi / 4, "plus-pi-4", False),  # thermal: 44 + 40 coordinates
        (math.pi / 4, 0.0, "ground", True)])  # fig3 dimer: 1056 + 1024
    def test_setup_holds_tables_and_one_piece(self, bath088, k0a, k0zc, start, over_blocks):
        # besides the blocks, construction and both assemblies hold d^2-entry
        # tables and one piece of entries or moved candidates; whole terms
        # (1.5e5 entries each) and all 16 candidates' element images at once
        # took 6.5 MiB here
        from darkdimers.dynamics import _VectorizedGenerator

        model = build_model(make_geometry(6, k0a, k0zc), bath088)
        psi = _plus_pi_4(6) if start == "plus-pi-4" else ground_state(6)
        rho0 = pure_to_density(psi)
        tracemalloc.start()
        try:
            gen = _VectorizedGenerator(model, "squeezed", rho0)
            blocks = [gen.assemble(b) for b in (0, 1)]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert gen.symmetries
        assert peak <= 2.5 * 2**20 + over_blocks * sum(m.nbytes for m in blocks)

    @pytest.mark.parametrize("n_at,k0a,k0zc", [(6, 2 * math.pi, math.pi / 4), (4, 0.9, 0.3)])
    def test_blocks_equal_whole_term_reference_assembly(self, bath088, n_at, k0a, k0zc):
        # the entries of a term arrive in pieces but in order, so each block
        # entry sums its contributions exactly as one np.add.at per whole term
        from darkdimers.dynamics import _VectorizedGenerator

        model = build_model(make_geometry(n_at, k0a, k0zc), bath088)
        gen = _VectorizedGenerator(model, "squeezed", pure_to_density(_plus_pi_4(n_at)))
        assert bool(gen.symmetries) == (n_at == 6)
        d = gen.dim
        for b, coords in enumerate(gen.blocks):
            off, n = coords.start, coords.stop - coords.start
            ref = np.zeros(n * n)
            for c, a, bb in gen.terms:
                a, bb = (np.eye(d) if x is None else x for x in (a, bb))
                (p, r), (s, q) = np.nonzero(a), np.nonzero(bb)
                e_out, e_in = (p[:, None] * d + q).ravel(), (r[:, None] * d + s).ravel()
                v = (c * a[p, r][:, None] * bb[s, q]).ravel()
                keep = gen._live[b][e_in]
                eo, ei, v = e_out[keep], e_in[keep], v[keep]
                for ko, wo in gen._basis:
                    for ki, wi in gen._basis_in:
                        np.add.at(ref, (ko[eo] - off) * n + ki[ei] - off,
                                  (wo[eo].conj() * v * wi[ei]).real)
            assert np.array_equal(gen.assemble(b), ref.reshape(n, n))

    def test_rk4_step_matrix_is_the_polynomial_in_two_buffers(self):
        from darkdimers.dynamics import _rk4_step_matrix

        n, dt = 1024, 0.05
        rng = np.random.default_rng(4)
        m = rng.normal(size=(n, n)) / math.sqrt(n)
        a = dt * m
        tracemalloc.start()
        try:
            p = _rk4_step_matrix(m, dt)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # two products in m's own buffer: besides it only a^2 and two panels
        # of the bracket and its product are alive, never a whole bracket
        assert np.shares_memory(p, m)
        a2 = a @ a
        plain = np.eye(n) + a + a2 / 2 + a2 @ a / 6 + a2 @ a2 / 24
        assert np.max(np.abs(p - plain)) <= 1e-14 * np.max(np.abs(plain))
        assert peak <= 1.2 * p.nbytes

    def test_squaring_walk_holds_generator_propagator_and_one_buffer(self, bath088):
        # no symmetry at N = 5: two 512^2 blocks, each with its propagator and
        # one work buffer that holds the generator between squarings, plus
        # the generators' nonzeros (10% of each block); a squaring allocates
        # nothing (generator, propagator and product took 5.07 blocks); the
        # horizon is long enough for squaring to pay
        model = build_model(make_geometry(5, 0.9, 0.3), bath088)
        tracemalloc.start()
        try:
            res = steady_state(_plus_pi_4(5), model, EvolveConfig(t_max=2.0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.stats["symmetries"] == [] and res.stats["squarings"] >= 1
        assert [b["reduced"] for b in res.stats["blocks"]] == [512, 512]
        assert peak <= 4.5 * 512**2 * 8

    def test_fig3_dimer_walk_holds_two_buffers(self, bath088):
        # the fig3 dimer walks one symmetric 1056-coordinate block: set-up,
        # the propagator, one work buffer and the generator's nonzeros (7%);
        # generator, propagator and product took 3.08 block sizes
        model = build_model(make_geometry(6, math.pi / 4, 0.0), bath088)
        tracemalloc.start()
        try:
            res = steady_state(ground_state(6), model, EvolveConfig())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.converged and res.stats["squarings"] >= 1
        assert [b["reduced"] for b in res.stats["blocks"]] == [1056]
        assert peak <= 2.6 * 1056**2 * 8

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
