"""Acceptance suite: one test per shipped criterion, each printing a
PASS line with the measured numbers (run with -s to see them inline).

The heavy steady-state runs are shared through module-scoped fixtures;
their wall times are asserted against the stated budgets.  Six-atom
integrations use dt = 0.002 so the transient positivity dip of the RK4
trajectory stays inside the density-matrix invariant (-1e-9) checked by
criterion 10; all tolerances are the stated ones.
"""

import math
import time
from dataclasses import dataclass

import numpy as np
import pytest

from darkdimers import (
    EvolveConfig,
    build_model,
    evolve,
    lindblad_rhs,
    make_bath,
    make_geometry,
    steady_state,
)
from darkdimers.config import ExperimentConfig, initial_state_vector
from darkdimers.darkstates import (
    PairSpec,
    collective_dark_state,
    dimer_chain,
    melted_dark,
    pair_state,
    predicted_populations,
    stable_dark_geometry,
)
from darkdimers.experiments import run_sweep
from darkdimers.observables import (
    excitation_populations,
    fidelity,
    pair_correlations,
    polarization_moments,
    purity,
)
from darkdimers.operators import ground_state

from conftest import random_hermitian_unit_trace
from matrix_checks import is_hermitian

N_PH = 0.88
FIG5_GEOMETRIES = (
    ("thermal", math.pi / 4, 2.0 * math.pi),
    ("squeezed", 0.0, 2.0 * math.pi),
    ("dimer", 0.0, math.pi / 4),
)
# e^{i k0(z1+z2)} = +1 pair values at N_ph = 0.88 (direct arithmetic)
MEAN_Z_PAIR = -1.0 / (2.0 * N_PH + 1.0)
VAR_X_PAIR = 0.0339728941
VAR_Y_PAIR = 0.9660271059
C_PAIR = 0.2330135960


@dataclass
class TimedRun:
    result: object
    elapsed: float


def _timed_steady(n_at, k0a, k0zc, bath, initial="ground", dt=0.002):
    geo = make_geometry(n_at, k0a, k0zc)
    model = build_model(geo, bath)
    cfg = ExperimentConfig(n_at=n_at, initial=initial)
    psi0 = initial_state_vector(cfg)
    t0 = time.perf_counter()
    result = steady_state(psi0, model, EvolveConfig(dt=dt), record=True)
    return TimedRun(result, time.perf_counter() - t0)


@pytest.fixture(scope="module")
def bath():
    return make_bath(N_PH, 0.0)


@pytest.fixture(scope="module")
def steady2(bath):
    return _timed_steady(2, math.pi / 4, 0.0, bath)


@pytest.fixture(scope="module")
def steady4_dimer(bath):
    return _timed_steady(4, math.pi / 4, math.pi / 4, bath)


@pytest.fixture(scope="module")
def steady6_dimer(bath):
    return _timed_steady(6, math.pi / 4, 0.0, bath)


@pytest.fixture(scope="module")
def steady6_melted(bath):
    return _timed_steady(6, math.pi, 0.0, bath)


@pytest.fixture(scope="module")
def fig5_runs(bath):
    return {
        tag: _timed_steady(6, k0a, k0zc, bath, initial="plus-pi-4")
        for tag, k0zc, k0a in FIG5_GEOMETRIES
    }


@pytest.fixture(scope="module")
def sweep9(bath):
    cfg = ExperimentConfig(n_at=4, grid_zc="0:pi:9", grid_a="0:pi:9")
    t0 = time.perf_counter()
    cells = run_sweep(cfg)
    return TimedRun(cells, time.perf_counter() - t0)


def test_criterion_01_generator_equivalence(bath):
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for n_at in (2, 3, 4):
        for _, k0zc, k0a in FIG5_GEOMETRIES:
            model = build_model(make_geometry(n_at, k0a, k0zc), bath)
            for _ in range(50):
                rho = random_hermitian_unit_trace(rng, 2**n_at)
                diff = (lindblad_rhs(rho, model, "general")
                        - lindblad_rhs(rho, model, "squeezed"))
                worst = max(worst, float(np.linalg.norm(diff)))
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-10
    assert elapsed < 10.0
    print(f"PASS criterion 1: generator equivalence, max |diff|_F = {worst:.2e} "
          f"({elapsed:.1f} s)")


def test_criterion_02_pair_annihilation(bath):
    geo = make_geometry(2, math.pi / 4, 0.0)
    model = build_model(geo, bath)
    psi = pair_state(geo, bath, PairSpec(1, 2, "squeezed"))
    jx, jy = model.squeezed_jumps
    nx = float(np.linalg.norm(jx @ psi))
    ny = float(np.linalg.norm(jy @ psi))
    assert nx <= 1e-12 and ny <= 1e-12
    print(f"PASS criterion 2: |Jx psi| = {nx:.2e}, |Jy psi| = {ny:.2e}")


def test_criterion_03_two_atom_steady_state(bath, steady2):
    res = steady2.result
    assert res.converged
    geo = make_geometry(2, math.pi / 4, 0.0)
    target = pair_state(geo, bath, PairSpec(1, 2, "squeezed"))
    fid = fidelity(target, res.state)
    mom = polarization_moments(res.state)
    assert fid >= 0.999
    assert mom.mean_z == pytest.approx(MEAN_Z_PAIR, abs=1e-3)
    assert mom.var_x == pytest.approx(VAR_X_PAIR, abs=1e-3)
    assert mom.var_y == pytest.approx(VAR_Y_PAIR, abs=1e-3)
    assert steady2.elapsed < 30.0
    print(f"PASS criterion 3: fidelity = {fid:.6f}, <S_z> = {mom.mean_z:+.6f}, "
          f"var = {mom.var_x:.6f}/{mom.var_y:.6f} ({steady2.elapsed:.1f} s)")


def test_criterion_04_steady_state_map(sweep9):
    cells = sweep9.result
    assert len(cells) == 81
    mismatches = []
    for cell in cells:
        dark = stable_dark_geometry(4, cell.k0a, cell.k0zc)
        if dark != (cell.purity >= 0.999):
            mismatches.append((cell.k0zc, cell.k0a, cell.purity, dark))
    assert not mismatches, mismatches
    n_dark = sum(stable_dark_geometry(4, c.k0a, c.k0zc) for c in cells)
    # the four pattern classes: melted centers, half-pi chain, and the
    # two quarter-pi chains
    for zc, a in ((0.0, math.pi), (0.0, math.pi / 2), (math.pi / 4, math.pi / 4),
                  (math.pi / 4, 3 * math.pi / 4)):
        cell = next(c for c in cells
                    if abs(c.k0zc - zc) < 1e-12 and abs(c.k0a - a) < 1e-12)
        assert cell.purity >= 0.999
    generic = []
    for zc, a in ((math.pi / 8, math.pi / 8), (3 * math.pi / 8, math.pi / 4),
                  (math.pi / 8, math.pi / 2), (3 * math.pi / 8, 3 * math.pi / 4)):
        cell = next(c for c in cells
                    if abs(c.k0zc - zc) < 1e-12 and abs(c.k0a - a) < 1e-12)
        generic.append(cell.purity)
        assert cell.purity < 0.99
    assert sweep9.elapsed < 600.0
    print(f"PASS criterion 4: {n_dark} dark cells pure, 0 misclassified, generic "
          f"purities {', '.join(f'{p:.3f}' for p in generic)} "
          f"({sweep9.elapsed:.1f} s)")


def test_criterion_05_dimerized_chain(bath, steady6_dimer):
    res = steady6_dimer.result
    assert res.converged
    geo = make_geometry(6, math.pi / 4, 0.0)
    target = dimer_chain(geo, bath)
    fid = fidelity(target, res.state)
    assert fid >= 0.999
    corr = pair_correlations(res.state)
    on_pair = [corr[2 * k, 2 * k + 1] for k in range(3)]
    off_pair = max(
        abs(corr[n, m]) for n in range(6) for m in range(6)
        if n != m and n // 2 != m // 2
    )
    assert off_pair <= 1e-3
    for k, value in enumerate(on_pair):
        assert abs(value) == pytest.approx(C_PAIR, abs=2e-3)
    assert np.sign(on_pair) @ np.sign(on_pair) == 3  # all nonzero
    assert np.sign(on_pair[0]) == -np.sign(on_pair[1]) == np.sign(on_pair[2])
    assert steady6_dimer.elapsed < 300.0
    print(f"PASS criterion 5: fidelity = {fid:.6f}, on-pair C = "
          f"{', '.join(f'{v:+.6f}' for v in on_pair)}, off-pair <= {off_pair:.1e} "
          f"({steady6_dimer.elapsed:.1f} s)")


def test_criterion_06_melted_dimer(bath, steady6_melted):
    res = steady6_melted.result
    assert res.converged
    geo = make_geometry(6, math.pi, 0.0)
    target = melted_dark(geo, bath, 3)
    fid = fidelity(target, res.state)
    assert fid >= 0.999
    corr = pair_correlations(res.state)
    for n in range(6):
        for m in range(6):
            if n == m:
                continue
            assert abs(corr[n, m]) >= 0.01
            assert np.sign(corr[n, m]) == (-1.0) ** (n + m)
    assert steady6_melted.elapsed < 120.0
    print(f"PASS criterion 6: fidelity = {fid:.6f}, |C| in "
          f"[{np.min(np.abs(corr[~np.eye(6, dtype=bool)])):.4f}, "
          f"{np.max(np.abs(corr[~np.eye(6, dtype=bool)])):.4f}], alternating "
          f"({steady6_melted.elapsed:.1f} s)")


def test_criterion_07_population_laws(bath, fig5_runs):
    total = sum(run.elapsed for run in fig5_runs.values())
    x = N_PH / (N_PH + 1.0)
    assert x == pytest.approx(0.468085, abs=1e-6)
    worst = {}
    for tag, run in fig5_runs.items():
        assert run.result.converged
        pops = excitation_populations(run.result.state)
        predicted = predicted_populations(tag, 6, bath)
        worst[tag] = float(np.max(np.abs(pops - predicted)))
        assert worst[tag] <= 1e-3, tag
        if tag == "squeezed":
            assert max(pops[1], pops[3], pops[5]) <= 1e-6
    dimer_pred = predicted_populations("dimer", 6, bath)
    for ne, expected in ((0, 0.31605), (2, 0.44383), (4, 0.20774), (6, 0.03242)):
        assert dimer_pred[ne] == pytest.approx(expected, abs=1e-3)
    assert total < 300.0
    print("PASS criterion 7: population laws, max |err| " +
          ", ".join(f"{tag} = {err:.1e}" for tag, err in worst.items()) +
          f" ({total:.1f} s)")


def test_criterion_08_odd_atom_frustration(bath):
    t0 = time.perf_counter()
    geo = make_geometry(3, math.pi / 4, math.pi / 4)
    model = build_model(geo, bath)
    res = steady_state(ground_state(3), model, EvolveConfig(dt=0.002))
    elapsed = time.perf_counter() - t0
    assert res.converged
    p = purity(res.state)
    assert p < 0.95
    # regression baseline, frozen from the converged integration
    assert p == pytest.approx(0.20183, abs=1e-3)
    assert elapsed < 60.0
    print(f"PASS criterion 8: three-atom steady purity = {p:.4f} ({elapsed:.1f} s)")


def test_criterion_09_timescale_ordering(steady2, steady4_dimer, steady6_dimer,
                                          steady6_melted):
    t2 = steady2.result.t_converge
    t4 = steady4_dimer.result.t_converge
    t6 = steady6_dimer.result.t_converge
    t6m = steady6_melted.result.t_converge
    total = (steady2.elapsed + steady4_dimer.elapsed + steady6_dimer.elapsed
             + steady6_melted.elapsed)
    assert t2 < t4 < t6
    assert t6m < t6
    assert total < 900.0
    print(f"PASS criterion 9: t* dimer N=2/4/6 = {t2:.1f}/{t4:.1f}/{t6:.1f}, "
          f"melted N=6 = {t6m:.1f} ({total:.1f} s)")


def test_criterion_10_numerical_hygiene(steady2, steady4_dimer, steady6_dimer,
                                         steady6_melted, fig5_runs):
    runs = [steady2, steady4_dimer, steady6_dimer, steady6_melted,
            *fig5_runs.values()]
    worst_trace = max(run.result.series.max_trace_dev for run in runs)
    worst_eig = min(run.result.series.min_eigenvalue for run in runs)
    assert worst_trace <= 1e-10
    assert worst_eig >= -1e-9
    for run in runs:
        assert is_hermitian(run.result.state, tol=1e-12)

    # RK4 order on the analytic single-atom decay
    model = build_model(make_geometry(1, 1.0, 0.0), make_bath(0.0))
    rho0 = np.diag([0.0, 1.0]).astype(complex)
    target = 2.0 * math.exp(-1.0) - 1.0
    errs = []
    for dt in (0.02, 0.01):
        cfg = EvolveConfig(dt=dt, t_max=1.0, record_stride=int(round(1.0 / dt)))
        series, _ = evolve(rho0, model, cfg)
        errs.append(abs(2.0 * series.data["mean_z"][-1] - target))
    ratio = errs[0] / errs[1]
    assert ratio >= 14.0
    print(f"PASS criterion 10: trace dev <= {worst_trace:.1e}, min eig "
          f">= {worst_eig:.1e}, RK4 halving ratio = {ratio:.1f}")


def test_criterion_11_cross_constructor_consistency(bath):
    fids = {}
    for n_at in (4, 6):
        geo = make_geometry(n_at, 2.0 * math.pi, 0.0)
        col = collective_dark_state(geo, bath)
        mel = melted_dark(geo, bath, n_at // 2)
        fids[n_at] = fidelity(col, mel)
        assert fids[n_at] >= 1.0 - 1e-9
    print("PASS criterion 11: collective vs melted fidelity " +
          ", ".join(f"N={n}: {1 - f:.1e} below 1" for n, f in fids.items()))
