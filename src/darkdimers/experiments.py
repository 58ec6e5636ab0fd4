"""Experiment orchestration: parameter sweeps, named experiment presets,
and deterministic CSV/JSON output.

`solve(cfg)` is the one path from a configuration to a steady state and
`solve_case` the one path from a solve to its files: it writes each
report asked of it (series, correlations, populations, steady) with the
columns and rows that the table `_REPORTS` gives that report.  The solve
commands and the fig3-fig5 presets (`PRESETS`, tables of cases at fixed
geometries) run through it; fig2 is the sweep.
Every CSV gets a JSON sidecar (same stem, .json) recording the fully
resolved configuration and the library version, plus the solve record
(`converged`, `t_converge`, `stats`) for reports of a solve.  Floats are
written with 12 significant digits so identical configs give
byte-identical files.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, fields, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import __version__
from .config import (ConfigError, ExperimentConfig, initial_state_vector, parse_grid,
                     setup_from_config)
from .darkstates import predicted_populations
from .dynamics import (IntegrationInstabilityError, SteadyStateResult, _set_blas_threads,
                       steady_state)
from .model import make_bath
from .observables import excitation_populations, pair_correlations, state_row

__all__ = [
    "solve",
    "solve_record",
    "SweepCell",
    "run_sweep",
    "solve_case",
    "run_experiment",
    "write_table",
    "write_sweep_csv",
    "law_populations",
    "population_rows",
    "EXPERIMENT_NAMES",
]


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    v = float(value)
    if math.isnan(v):
        return "nan"
    return f"{v:.12g}"


def write_table(path: str, columns: Sequence[str], rows, cfg: ExperimentConfig,
                extra: Dict) -> List[str]:
    """Write `rows` under the header `columns` to the CSV at `path`, and
    its JSON manifest with the keys of `extra` next to it, creating their
    directory (no other code does); returns both paths."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")
    manifest = {
        "file": os.path.basename(path),
        "columns": list(columns),
        "config": cfg.to_dict(),
        "version": __version__,
        **extra,
    }
    manifest_path = os.path.splitext(path)[0] + ".json"
    with open(manifest_path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return [path, manifest_path]


def solve(cfg: ExperimentConfig, record: bool = False) -> SteadyStateResult:
    """The steady state that `cfg` describes, walked from its start state;
    with `record`, the visited points come back as `result.series`."""
    model, ecfg = setup_from_config(cfg)
    return steady_state(initial_state_vector(cfg), model, ecfg, record=record)


# ---------------------------------------------------------------------------
# Parameter sweep


@dataclass
class SweepCell:
    k0zc: float
    k0a: float
    var_x: float
    var_y: float
    purity: float
    mean_z: float
    t_converge: float
    converged: bool
    error: Optional[str] = None  # why the cell has no steady state; not a CSV column
    stats: Optional[Dict] = None  # the `stats` of the cell's solve; not a CSV column


SWEEP_COLUMNS = tuple(f.name for f in fields(SweepCell))[:-2]


def _sweep_cell(args) -> SweepCell:
    cfg, k0zc, k0a = args
    try:
        result = solve(replace(cfg, k0zc=k0zc, k0a=k0a))
    except IntegrationInstabilityError as exc:
        # An unstable cell must not abort the sweep; it is reported as
        # non-converged with empty observables and its reason.
        nan = float("nan")
        return SweepCell(k0zc, k0a, nan, nan, nan, nan, nan, False, str(exc))
    row = state_row(result.state)
    return SweepCell(k0zc, k0a, row["var_x"], row["var_y"], row["purity"], row["mean_z"],
                     result.t_converge, result.converged, stats=result.stats)


def run_sweep(cfg: ExperimentConfig) -> List[SweepCell]:
    """Steady-state observables on the (cfg.grid_zc, cfg.grid_a) grid,
    rows in deterministic zc-major order.  Cells are independent and are
    distributed over min(cfg.workers, cells) processes when that exceeds 1,
    each on one OpenBLAS thread; `map` keeps the task order, so the output
    does not depend on the worker count."""
    tasks = [(cfg, float(zc), float(a))
             for zc in parse_grid(cfg.grid_zc) for a in parse_grid(cfg.grid_a)]
    workers = min(cfg.workers, len(tasks))
    if workers > 1:
        # imported here so that a serial run does not pay for the import
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers, initializer=_set_blas_threads,
                                 initargs=(1,)) as pool:
            return list(pool.map(_sweep_cell, tasks, chunksize=4))
    return [_sweep_cell(task) for task in tasks]


def write_sweep_csv(path: str, cells: Sequence[SweepCell], cfg: ExperimentConfig,
                    extra: Optional[Dict] = None) -> List[str]:
    failed = {"non_converged": sum(not c.converged for c in cells), "cells": [
        {"k0zc": c.k0zc, "k0a": c.k0a, "error": c.error} for c in cells if c.error]}
    solved = [c.stats for c in cells if c.stats is not None]
    counts = {k: dict(zip(("p50", "p95", "max"), np.percentile(
        [s[k] for s in solved], [50, 95, 100]).tolist())) if solved else None
        for k in ("squarings", "matvecs")}
    rows = ([getattr(c, k) for k in SWEEP_COLUMNS] for c in cells)
    return write_table(path, SWEEP_COLUMNS, rows, cfg,
                       {**(extra or {}), "failed": failed, **counts,
                        "converged_cells": sum(c.converged for c in cells)})


# ---------------------------------------------------------------------------
# Reports of one solve.  `solve_case` writes each one from `_REPORTS`, and
# every manifest carries the same solve record.


def solve_record(result: SteadyStateResult) -> Dict:
    """The manifest keys that describe how a steady-state solve went."""
    return {"converged": bool(result.converged), "t_converge": result.t_converge,
            "stats": result.stats}


def series_columns(n_at: int) -> List[str]:
    return (["t", "purity", "mean_x", "mean_y", "mean_z", "var_x", "var_y"]
            + [f"p{k}" for k in range(n_at + 1)])


def law_populations(cfg: ExperimentConfig, law: str) -> np.ndarray:
    """The closed-form `law` populations for n_e = 0..n_at (nan for "none");
    a law that cannot apply to `cfg` (odd n_at, or squeezed at n_ph = 0) is
    a ConfigError, so callers check it before they solve."""
    if law == "none":
        return np.full(cfg.n_at + 1, float("nan"))
    try:
        return predicted_populations(law, cfg.n_at, make_bath(cfg.n_ph, cfg.phi))
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def population_rows(cfg: ExperimentConfig, result: SteadyStateResult,
                    law: str) -> List[Tuple[int, float, float]]:
    """(n_e, steady-state population, closed-form `law` or nan for
    "none") for n_e = 0..n_at."""
    return list(zip(range(cfg.n_at + 1), excitation_populations(result.state),
                    law_populations(cfg, law)))


# report -> (its columns at n_at, its rows from (cfg, result, manifest tags))
_REPORTS = {
    # the points the walk visited (a solve with record=True)
    "series": (series_columns, lambda cfg, result, tags: zip(
        result.series.times, *(result.series.data[c] for c in series_columns(cfg.n_at)[1:]))),
    # the sigma_x pair correlations of the steady state, one row per (n, m)
    "correlations": (lambda n_at: ("n", "m", "C"), lambda cfg, result, tags: [
        (n + 1, m + 1, c) for (n, m), c in np.ndenumerate(pair_correlations(result.state))]),
    # the excitation populations next to the law that tags["law"] names
    "populations": (lambda n_at: ("n_e", "p_steady", "p_predicted"),
                    lambda cfg, result, tags: population_rows(cfg, result, tags["law"])),
    # one row: the steady state's observables and how the solve went
    "steady": (lambda n_at: series_columns(n_at)[1:] + ["t_converge", "converged"],
               lambda cfg, result, tags: [[*state_row(result.state).values(),
                                           result.t_converge, result.converged]]),
}


# ---------------------------------------------------------------------------
# Named experiments


def dimer_center(n_at: int, k0a: float) -> float:
    """Array center putting every nearest-neighbor pair at a quadrature
    extremum.  Pair sums are 2 zc + (4n - n_at - 2) k0a, so for
    separations with 4 k0a = 0 (mod pi) the choice
    zc = (n_at - 2) k0a / 2 (mod pi/2) zeroes them all (mod pi)."""
    return ((n_at - 2) * k0a / 2.0) % (math.pi / 2.0)


_CHAINS = (("dimer", math.pi / 4), ("melted", math.pi))

# The solves of each preset besides the fig2 sweep: (file stem, config
# overrides, {report: manifest tags of that report}, manifest tags).  Each
# report goes to `<stem>_<report>.csv`.
PRESETS = {
    # Pair correlations of the dimerized and melted six-atom chains.
    "fig3": [(f"fig3_{tag}", dict(n_at=6, k0a=k0a, k0zc=0.0, initial="ground"),
              {"correlations": {}}, {"case": tag}) for tag, k0a in _CHAINS],
    # Relaxation timescales for growing arrays, dimerized vs melted.
    "fig4": [(f"fig4_{tag}_n{n_at}",
              dict(n_at=n_at, k0a=k0a, initial="ground",
                   k0zc=dimer_center(n_at, k0a) if tag == "dimer" else 0.0),
              {"series": {}}, {"case": tag, "n_at": n_at})
             for tag, k0a in _CHAINS for n_at in (2, 4, 6)],
    # Polarization decay and final excitation statistics for the three
    # six-atom geometries, each atom starting in (|g> + e^{i pi/4} |e>)/sqrt(2).
    "fig5": [(f"fig5_{tag}", dict(n_at=6, k0a=k0a, k0zc=k0zc, initial="plus-pi-4"),
              {"series": {}, "populations": {"law": tag}}, {"case": tag})
             for tag, k0zc, k0a in (("thermal", math.pi / 4, 2.0 * math.pi),
                                    ("squeezed", 0.0, 2.0 * math.pi),
                                    ("dimer", 0.0, math.pi / 4))],
}

EXPERIMENT_NAMES = ("fig2", *PRESETS)


def solve_case(case: ExperimentConfig, reports: Dict[str, Tuple[str, Dict]]
               ) -> Tuple[List[str], SteadyStateResult]:
    """Solve `case` once and write each of its `reports` ({report: (path,
    manifest tags)}) with the columns and rows that `_REPORTS` gives it;
    returns the written paths and the solve's result."""
    result = solve(case, record="series" in reports)
    files = []
    for report, (path, tags) in reports.items():
        columns, rows = _REPORTS[report]
        files += write_table(path, columns(case.n_at), rows(case, result, tags), case,
                             {**solve_record(result), **tags})
    return files, result


def run_experiment(name: str, cfg: ExperimentConfig, outdir: str) -> Tuple[List[str], bool]:
    """Produce the data files of one named experiment preset under
    `outdir`; returns the written paths and whether every solve converged
    (the fig2 sweep reports its non-converged cells in its manifest).
    Every population law is checked before the first solve."""
    if name not in EXPERIMENT_NAMES:
        raise ValueError(f"unknown experiment {name!r}; expected one of {EXPERIMENT_NAMES}")
    cases = [(replace(cfg, **overrides), {
        report: (os.path.join(outdir, f"{stem}_{report}.csv"),
                 {"experiment": name, **tags, **report_tags})
        for report, report_tags in reports.items()})
        for stem, overrides, reports, tags in PRESETS.get(name, ())]
    for case, reports in cases:
        if "populations" in reports:
            law_populations(case, reports["populations"][1]["law"])
    if name == "fig2":
        # Steady-state map over array center and separation.
        sweep_cfg = replace(cfg, initial="ground")
        return write_sweep_csv(os.path.join(outdir, "fig2_sweep.csv"), run_sweep(sweep_cfg),
                               sweep_cfg, {"experiment": name}), True
    solved = [solve_case(case, reports) for case, reports in cases]
    return [f for files, _ in solved for f in files], all(r.converged for _, r in solved)
