"""darkdimers benchmark: run one workload as the real CLI command in fresh
processes, check its outputs and report its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
`src/` (nothing is installed).  With `--trace 0` the workload is repeated
in fresh processes until S seconds have passed and the end-to-end
metrics are medians over those repetitions.  With `--trace 1` it runs
once untraced and once with spans at every module boundary (see
tracer.py), and the per-layer metrics come from the traced run.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  The full record (the
environment, every repetition, the result values and the sha256 of every
CSV written) goes to .bench_out/results/.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import asdict
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
CHILD = ROOT / "perfbench" / "child.py"
OUT = ROOT / ".bench_out"
CLOCK = time.CLOCK_MONOTONIC

SETUP_PROBES = 7
RUN_BUDGET_S = 170.0  # every child is killed by then, so the run ends within 180 s

sys.path.insert(0, str(ROOT))
from perfbench import tracer, workloads  # noqa: E402


# ---------------------------------------------------------------------------
# Fresh processes


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def spawn(mode: str, argv: List[str], rundir: Path, deadline: float) -> Dict:
    """Run child.py in a new session; return its timings, exit code and report."""
    rundir.mkdir(parents=True, exist_ok=True)
    report_path = rundir / "report.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    cmd = [sys.executable, str(CHILD), mode, str(report_path), "--", *argv]
    with open(rundir / "stdout.txt", "wb") as out, \
            open(rundir / "stderr.txt", "wb") as err:
        spawned = time.clock_gettime(CLOCK)
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=out, stderr=err,
                                start_new_session=True)
        timer = threading.Timer(max(deadline - time.monotonic(), 1.0),
                                _kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        exited = time.clock_gettime(CLOCK)
        proc.returncode = os.waitstatus_to_exitcode(status)
        _kill_group(proc.pid)  # anything the command left behind
    report = {}
    if report_path.exists():
        report = json.loads(report_path.read_text(encoding="utf-8"))
    rep = {
        "mode": mode,
        "argv": argv,
        "exit_code": proc.returncode,
        "wall_s": exited - spawned,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,  # KiB on Linux; covers reaped workers
        "setup_s": report["t_ready"] - spawned if "t_ready" in report else None,
        "report": report,
        "dir": rundir,
    }
    if proc.returncode != 0:
        tail = (rundir / "stderr.txt").read_text(errors="replace")[-2000:]
        print(f"{mode} run exited {proc.returncode}: {tail}", file=sys.stderr)
    return rep


def solve_states(rep: Dict) -> List:
    import numpy as np

    path = rep["dir"] / "report.npz"
    if not path.exists():
        return []
    with np.load(path) as data:
        return [data[f"arr_{i}"] for i in range(len(data.files))]


# ---------------------------------------------------------------------------
# Output checks and result values


def _rows(path: Path) -> List[Dict[str, str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _sha256s(outdir: Path) -> Dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(outdir.glob("*.csv"))}


def _purity(rho) -> float:
    return float((abs(rho) ** 2).sum())


def evaluate(workload: workloads.Workload, params: workloads.Params, rep: Dict) -> None:
    """Check one run's outputs; set rep['attempted'], ['problems'], ['values']
    and ['check_s'], the time spent in darkstates reference constructors."""
    from darkdimers import darkstates, model

    name = workload.name
    outdir = rep["dir"] / "out"
    expected = workload.operations
    rep.update(attempted=expected, problems=[], values={}, check_s=0.0)
    if rep["exit_code"] != 0 or "exit_code" not in rep["report"]:
        rep["problems"] = [f"exit code {rep['exit_code']}"] * expected
        return
    problems: List[str] = rep["problems"]
    values = rep["values"]
    values["csv_sha256"] = _sha256s(outdir)
    solves = rep["report"]["solves"]
    states = solve_states(rep)
    if name != "sweep-n4":  # sweep cells carry their values in the CSV
        values["t_converge"] = [s["t_converge"] for s in solves]
        values["residual"] = [s["residual"] for s in solves]
        values["purity"] = [_purity(rho) for rho in states]
    bath = model.make_bath(params.n_ph)

    if name == "sweep-n4":
        rows = _rows(outdir / "sweep.csv")
        problems += workloads.check_sweep_rows(rows, expected)
        purities = [float(r["purity"]) for r in rows]
        values["sweep_purity_min"] = min(purities, default=math.nan)
        values["sweep_purity_max"] = max(purities, default=math.nan)
        values["sweep_t_converge_max"] = max(
            (float(r["t_converge"]) for r in rows), default=math.nan)
    elif name == "fig3-n6":
        problems += workloads.check_converged(solves, expected)
        for tag in ("dimer", "melted"):
            csv_name = f"fig3_{tag}_correlations.csv"
            problems += workloads.check_no_nan(csv_name, _rows(outdir / csv_name))
        start = time.perf_counter()
        psi = darkstates.dimer_chain(model.make_geometry(6, math.pi / 4, 0.0), bath)
        rep["check_s"] = time.perf_counter() - start
        # The preset solves the dimer chain first, then the melted one.
        fidelity = float((psi.conj() @ states[0] @ psi).real) if states else math.nan
        values["dimer_fidelity"] = fidelity
        problems += workloads.check_dimer_fidelity(fidelity)
    else:
        problems += workloads.check_converged(solves, expected)
        rows = _rows(outdir / "series.csv")
        problems += workloads.check_no_nan("series.csv", rows)
        start = time.perf_counter()
        predicted = darkstates.predicted_populations("thermal", 6, bath)
        rep["check_s"] = time.perf_counter() - start
        final = [float(rows[-1][f"p{k}"]) for k in range(7)] if rows else []
        values["population_error_max"] = workloads.max_abs_error(final, predicted)
        problems += workloads.check_populations(final, predicted)


def failed_count(rep: Dict) -> int:
    return min(len(rep["problems"]), rep["attempted"])


# ---------------------------------------------------------------------------
# Metrics


def end_to_end(reps: List[Dict], probes: List[Dict]) -> Dict[str, float]:
    setups = [r["setup_s"] for r in probes + reps if r["setup_s"] is not None]
    attempted = sum(r["attempted"] for r in reps)
    return {
        "wall_s": statistics.median(r["wall_s"] for r in reps),
        "setup_s": statistics.median(setups) if setups else math.nan,
        "cpu_s": statistics.median(r["cpu_s"] for r in reps),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
        "ok_frac": 1.0 - sum(failed_count(r) for r in reps) / attempted,
    }


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile, q in (0, 1]."""
    ordered = sorted(values)
    if not ordered:
        return math.nan
    return ordered[max(math.ceil(q * len(ordered)) - 1, 0)]


def per_layer(traced: Dict, serial: Dict, pooled: Dict, workers: int,
              check_s: float) -> Dict[str, float]:
    """Per-layer metrics from a traced run, the untraced run with the same
    arguments (`serial`) and the untraced run as users run it (`pooled`)."""
    report = traced["report"]
    spans = report["spans"]
    excluded = report["excluded"]
    durations = tracer.net_durations(spans, excluded)
    selfs = tracer.self_times(spans, durations)

    def total(values, match) -> float:
        return sum(v for span, v in zip(spans, values) if match(span[0]))

    def count(match) -> int:
        return sum(1 for span in spans if match(span[0]))

    def layer(name):
        return lambda span_name: span_name.split(".", 1)[0] == name

    def named(name):
        return lambda span_name: span_name == name

    # An operation is one sweep cell where the program has cells, else one solve.
    cell = "experiments._sweep_cell" if count(named("experiments._sweep_cell")) \
        else "dynamics.steady_state"
    ops = [d for span, d in zip(spans, durations) if span[0] == cell]
    solve_s = total(durations, named("dynamics.steady_state"))
    fixed_s = sum(report["solve_fixed"])
    excluded_s = sum(e - s for s, e in excluded)
    traced_wall = report["main_s"] - excluded_s
    return {
        "cli.self_s": total(selfs, layer("cli")),
        "config.self_s": total(selfs, layer("config")),
        "model.build_model_s": total(durations, named("model.build_model")),
        "model.build_model_calls": count(named("model.build_model")),
        "operators.self_s": total(selfs, layer("operators")),
        "dynamics.steady_state_s": solve_s,
        "dynamics.steady_state_calls": count(named("dynamics.steady_state")),
        "dynamics.solve_fixed_s": fixed_s,
        "dynamics.solve_walk_s": solve_s - fixed_s,
        "dynamics.visited_points": sum(s["points"] for s in report["solves"]),
        "observables.self_s": total(selfs, layer("observables")),
        "observables.calls": count(layer("observables")),
        "experiments.self_s": total(selfs, layer("experiments")),
        "experiments.bytes_written": sum(
            p.stat().st_size for p in (traced["dir"] / "out").iterdir()),
        "experiments.cell_s_p50": percentile(ops, 0.50),
        "experiments.cell_s_p95": percentile(ops, 0.95),
        "experiments.pool_efficiency": sum(ops) / (workers * pooled["wall_s"]),
        "darkstates.check_s": check_s,
        "trace.coverage": sum(selfs) / traced_wall,
        "trace.overhead_s": (traced["wall_s"] - excluded_s) - serial["wall_s"],
    }


# ---------------------------------------------------------------------------
# Environment


def environment(seed: int, workers: int) -> Dict:
    import numpy as np

    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=30,
                                 check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError, AttributeError):
        blas = None
    return {
        "git_sha": sha,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "seed": seed,
        "workers": workers,
    }


# ---------------------------------------------------------------------------


def _summary(rep: Dict) -> Dict:
    keys = ("mode", "argv", "exit_code", "wall_s", "cpu_s", "peak_rss_mb",
            "setup_s", "attempted", "problems", "values", "check_s")
    return {k: rep[k] for k in keys if k in rep}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "darkdimers" / "cli.py").is_file():
        print(f"error: no darkdimers sources under {SRC}; run from a source "
              "checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    deadline = time.monotonic() + RUN_BUDGET_S
    workload = workloads.WORKLOADS[args.workload]
    params = workloads.params_for_seed(args.seed)
    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    base = OUT / tag
    shutil.rmtree(base, ignore_errors=True)

    def run(mode: str, label: str, workers: int) -> Dict:
        rundir = base / label
        (rundir / "out").mkdir(parents=True)
        out = str((rundir / "out").relative_to(ROOT))  # children run in ROOT
        rep = spawn(mode, workload.argv(params, out, workers), rundir, deadline)
        evaluate(workload, params, rep)
        return rep

    probes = [spawn("setup", [], base / f"setup{i}", deadline)
              for i in range(SETUP_PROBES)]

    if args.trace == 0:
        reps: List[Dict] = []
        started = time.monotonic()
        while not reps or (time.monotonic() - started < args.seconds
                           and deadline - time.monotonic() > 2 * reps[-1]["wall_s"]):
            reps.append(run("run", f"rep{len(reps)}", workload.workers))
        metrics = end_to_end(reps, probes)
    else:
        pooled = run("run", "untraced", workload.workers)
        reps = [pooled]
        serial = pooled
        if workload.workers > 1:
            # Spans in pool workers are not collected, so the traced run is
            # serial; this untraced serial run is its overhead baseline.
            serial = run("run", "untraced-serial", 1)
            reps.append(serial)
        traced = run("trace", "traced", 1)
        reps.append(traced)
        if "spans" not in traced["report"]:
            print("error: the traced run left no spans", file=sys.stderr)
            return 1
        if workload.workers > 1:
            traced["problems"] += csv_mismatches(pooled, traced)
        metrics = per_layer(traced, serial, pooled, workload.workers,
                            traced["check_s"])

    attempted = sum(r["attempted"] for r in reps)
    failed = sum(failed_count(r) for r in reps)
    correct = failed == 0 and all(r["exit_code"] == 0 for r in reps + probes)
    declared = _declared_metrics("per_layer" if args.trace else "end_to_end")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }
    record = dict(result, all_metrics=metrics, workload=workload.name, why=workload.why,
                  params=asdict(params), env=environment(args.seed, workload.workers),
                  setup_probes_s=[p["setup_s"] for p in probes],
                  runs=[_summary(r) for r in reps])
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    results_path = OUT / "results" / f"{tag}.json"
    results_path.write_text(json.dumps(record, indent=2, default=str) + "\n",
                            encoding="utf-8")
    for rep in reps:
        for problem in rep["problems"][:5]:
            print(f"{rep['mode']}: {problem}", file=sys.stderr)
    print(f"full record: {results_path}", file=sys.stderr)
    print(json.dumps(result))
    return 0


def csv_mismatches(pooled: Dict, traced: Dict) -> List[str]:
    """Rows of the serial sweep CSV that differ from the pooled one: the
    output must not depend on the worker count."""
    a = (pooled["dir"] / "out" / "sweep.csv").read_bytes().splitlines()
    b = (traced["dir"] / "out" / "sweep.csv").read_bytes().splitlines()
    if len(a) != len(b):
        return [f"serial CSV has {len(b)} lines, pooled {len(a)}"]
    return [f"serial CSV line {i} differs from pooled" for i, (x, y)
            in enumerate(zip(a, b)) if x != y]


def _declared_metrics(kind: str) -> List[Dict]:
    """The metrics BENCHMARK.json lists under `kind`.  The full record keeps
    every metric computed, including any not listed there."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return spec[kind]


if __name__ == "__main__":
    sys.exit(main())
