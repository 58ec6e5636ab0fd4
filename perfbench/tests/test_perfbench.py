"""Tests of the parts the benchmark owns: seeds, output checks and span
accounting.  The workloads themselves are not run here."""

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import tracer, workloads
from perfbench.workloads import Params

ROOT = Path(__file__).resolve().parents[2]


# ---------------------------------------------------------------------------
# Seeds


def test_seed_zero_is_the_paper_setting():
    params = workloads.params_for_seed(0)
    assert params == Params(0.88, 0.0, 0.0)
    argv = workloads.WORKLOADS["sweep-n4"].argv(params, "out", 2)
    flags = dict(zip(argv[1::2], argv[2::2]))
    assert flags["--grid-zc"] == flags["--grid-a"] == "0:pi:16"
    assert flags["--n-ph"] == "0.88"
    assert flags["--workers"] == "2"


@pytest.mark.parametrize("seed", range(1, 101))
def test_other_seeds_stay_in_range(seed):
    from darkdimers.config import parse_grid

    params = workloads.params_for_seed(seed)
    assert params == workloads.params_for_seed(seed)
    assert 0.5 <= params.n_ph <= 1.5
    spacing = math.pi / 15
    for shift in (params.zc_shift, params.a_shift):
        assert 0.25 <= shift <= 0.75
        points = parse_grid(workloads.grid(shift))
        assert points.size == 16
        # at least 0.05 from the slowly relaxing k0a near 0 and pi
        assert 0.05 <= points[0] <= 0.75 * spacing
        assert points[-1] - points[0] == pytest.approx(math.pi)


def test_every_workload_passes_the_seeded_n_ph():
    params = workloads.params_for_seed(7)
    for workload in workloads.WORKLOADS.values():
        argv = workload.argv(params, "out", workload.workers)
        assert argv[argv.index("--n-ph") + 1] == repr(params.n_ph)


# ---------------------------------------------------------------------------
# Output checks


def _cell(converged="true", purity="0.5"):
    return {"converged": converged, "purity": purity}


def test_sweep_check_accepts_good_cells():
    assert workloads.check_sweep_rows([_cell(), _cell(purity="1.0000000001")], 2) == []


@pytest.mark.parametrize("bad", [
    _cell(converged="false"),
    _cell(purity="1.01"),
    _cell(purity="-0.1"),
    _cell(converged="false", purity="nan"),
    _cell(purity="nan"),
])
def test_sweep_check_rejects_bad_cell(bad):
    assert len(workloads.check_sweep_rows([_cell(), bad], 2)) == 1


def test_sweep_check_counts_missing_cells():
    assert len(workloads.check_sweep_rows([_cell()], 3)) == 2


def test_converged_check():
    ok = {"converged": True, "residual": 1e-10}
    bad = {"converged": False, "residual": 1e-3}
    assert workloads.check_converged([ok, ok], 2) == []
    assert len(workloads.check_converged([ok, bad], 2)) == 1
    assert len(workloads.check_converged([ok], 2)) == 1


@pytest.mark.parametrize("fidelity, passes", [
    (1.0 - 1e-8, True), (1.0 - 1e-6, True), (1.0 - 1e-5, False), (0.5, False),
    (math.nan, False),
])
def test_dimer_fidelity_check(fidelity, passes):
    assert (workloads.check_dimer_fidelity(fidelity) == []) is passes


@pytest.mark.parametrize("error, passes", [
    (0.0, True), (9e-4, True), (2e-3, False), (math.nan, False),
])
def test_population_check(error, passes):
    predicted = [0.5, 0.3, 0.2]
    final = [0.5 + error, 0.3, 0.2]
    assert (workloads.check_populations(final, predicted) == []) is passes


def test_population_check_rejects_wrong_length():
    assert workloads.check_populations([1.0], [0.5, 0.5]) != []


def test_nan_row_check():
    rows = [{"n": "1", "C": "0.25"}, {"n": "2", "C": "nan"}]
    assert len(workloads.check_no_nan("c.csv", rows)) == 1


# ---------------------------------------------------------------------------
# Span accounting


def test_self_times_of_nested_spans():
    spans = [
        ["cli.main", 0.0, 10.0, -1],
        ["experiments.run", 1.0, 4.0, 0],
        ["dynamics.solve", 2.0, 3.0, 1],
        ["observables.purity", 5.0, 9.0, 0],
    ]
    excluded = [(6.0, 7.0)]  # inside cli.main and observables.purity
    durations = tracer.net_durations(spans, excluded)
    assert durations == [9.0, 3.0, 1.0, 3.0]
    selfs = tracer.self_times(spans, durations)
    assert selfs == [3.0, 2.0, 1.0, 3.0]
    assert sum(selfs) == durations[0]


def test_wrap_records_parents_and_pauses_outside_spans():
    ticks = iter(range(100))
    t = tracer.Tracer(clock=lambda: float(next(ticks)))
    seen = []
    inner = t.wrap("b.inner", lambda: None)
    repeat = lambda: inner()  # noqa: E731
    outer = t.wrap("a.outer", lambda: inner(),
                   after=lambda result, args, kwargs: seen.append(t.outside_spans(repeat)))
    root = t.wrap("cli.main", lambda: outer())
    root()
    assert [(s[0], s[3]) for s in t.spans] == [
        ("cli.main", -1), ("a.outer", 0), ("b.inner", 1)]
    assert len(t.excluded) == 1 and seen == [1.0]
    durations = tracer.net_durations(t.spans, t.excluded)
    selfs = tracer.self_times(t.spans, durations)
    assert sum(selfs) == pytest.approx(durations[0])


def test_bindings_cross_module_boundaries():
    names = {name for _, _, name in tracer.cross_module_bindings()}
    assert {"dynamics.steady_state", "model.build_model",
            "experiments.run_sweep", "config.resolve_config"} <= names
    for module, attr, name in tracer.cross_module_bindings():
        owner = name.split(".", 1)[0]
        assert owner in tracer.LAYERS
        assert module.__name__ != f"darkdimers.{owner}"


def test_traced_child_covers_a_small_solve(tmp_path):
    report = tmp_path / "report.json"
    subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "child.py"), "trace", str(report),
         "--", "steady", "--n-at", "2", "--k0a", "pi/4", "--k0zc", "0"],
        check=True, capture_output=True, timeout=120, cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
    data = json.loads(report.read_text())
    layers = {span[0].split(".")[0] for span in data["spans"]}
    assert {"cli", "config", "model", "dynamics", "observables"} <= layers
    assert len(data["solve_fixed"]) == len(data["solves"]) == 1
    durations = tracer.net_durations(data["spans"], data["excluded"])
    traced = data["main_s"] - sum(e - s for s, e in data["excluded"])
    assert sum(tracer.self_times(data["spans"], durations)) / traced >= 0.95


def test_run_fails_without_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "baseline"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fig3-n6", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=120, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
