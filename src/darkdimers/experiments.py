"""Experiment orchestration: parameter sweeps, named experiment presets,
and deterministic CSV/JSON output.

`solve(cfg)` is the one path from a configuration to a steady state.
Each report (series, correlations, populations) has one writer, used by
the CLI command of the same name and by the presets: fig3-fig5 are
tables of solves at fixed geometries (`PRESETS`), fig2 is the sweep.
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
from dataclasses import astuple, dataclass, fields, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import __version__
from .config import ExperimentConfig, initial_state_vector, parse_grid
from .darkstates import predicted_populations
from .dynamics import (EvolveConfig, IntegrationInstabilityError, SteadyStateResult,
                       steady_state)
from .model import (
    ArrayGeometry,
    BathParams,
    ModelOperators,
    build_model,
    make_bath,
    make_geometry,
)
from .observables import excitation_populations, pair_correlations, state_row

__all__ = [
    "setup_from_config",
    "solve",
    "solve_record",
    "SweepCell",
    "run_sweep",
    "run_experiment",
    "write_table",
    "write_sweep_csv",
    "write_series_csv",
    "write_correlations_csv",
    "write_populations_csv",
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
                extra: Optional[Dict] = None) -> List[str]:
    """Write `rows` under the header `columns` to the CSV at `path`, and
    its JSON manifest next to it; returns both paths."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")
    manifest = {
        "file": os.path.basename(path),
        "columns": list(columns),
        "config": cfg.to_dict(),
        "version": __version__,
    }
    if extra:
        manifest.update(extra)
    manifest_path = os.path.splitext(path)[0] + ".json"
    with open(manifest_path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return [path, manifest_path]


def setup_from_config(
    cfg: ExperimentConfig,
) -> Tuple[ArrayGeometry, BathParams, ModelOperators, EvolveConfig]:
    """The geometry, bath, model operators and integration parameters
    that a resolved configuration describes."""
    geo = make_geometry(cfg.n_at, cfg.k0a, cfg.k0zc)
    bath = make_bath(cfg.n_ph, cfg.phi)
    model = build_model(geo, bath, cfg.gamma)
    ecfg = EvolveConfig(dt=cfg.dt, t_max=cfg.t_max,
                        record_stride=cfg.record_stride, convergence_tol=cfg.tol)
    return geo, bath, model, ecfg


def solve(cfg: ExperimentConfig, record: bool = False) -> SteadyStateResult:
    """The steady state that `cfg` describes, walked from its start state;
    with `record`, the visited points come back as `result.series`."""
    _, _, model, ecfg = setup_from_config(cfg)
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


SWEEP_COLUMNS = tuple(f.name for f in fields(SweepCell))[:-1]


def _sweep_cell(args) -> Tuple[int, SweepCell]:
    index, cfg, k0zc, k0a = args
    try:
        result = solve(replace(cfg, k0zc=k0zc, k0a=k0a))
    except IntegrationInstabilityError as exc:
        # An unstable cell must not abort the sweep; it is reported as
        # non-converged with empty observables and its reason.
        nan = float("nan")
        return index, SweepCell(k0zc, k0a, nan, nan, nan, nan, nan, False, str(exc))
    row = state_row(result.state, cfg.n_at)
    return index, SweepCell(k0zc, k0a, row["var_x"], row["var_y"], row["purity"],
                            row["mean_z"], result.t_converge, result.converged)


def run_sweep(cfg: ExperimentConfig) -> List[SweepCell]:
    """Steady-state observables on the (cfg.grid_zc, cfg.grid_a) grid,
    rows in deterministic zc-major order.  Cells are independent and are
    distributed over a process pool when cfg.workers > 1; the merge order
    (and therefore the output) does not depend on the worker count."""
    zc_values, a_values = parse_grid(cfg.grid_zc), parse_grid(cfg.grid_a)
    tasks = [
        (i * a_values.size + j, cfg, float(zc), float(a))
        for i, zc in enumerate(zc_values)
        for j, a in enumerate(a_values)
    ]
    cells: List[Optional[SweepCell]] = [None] * len(tasks)
    if cfg.workers > 1:
        # imported here so that a serial run does not pay for the import
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
            for index, cell in pool.map(_sweep_cell, tasks, chunksize=4):
                cells[index] = cell
    else:
        for task in tasks:
            index, cell = _sweep_cell(task)
            cells[index] = cell
    return cells  # type: ignore[return-value]


def write_sweep_csv(path: str, cells: Sequence[SweepCell], cfg: ExperimentConfig,
                    extra: Optional[Dict] = None) -> List[str]:
    failed = {"non_converged": sum(not c.converged for c in cells), "cells": [
        {"k0zc": c.k0zc, "k0a": c.k0a, "error": c.error} for c in cells if c.error]}
    return write_table(path, SWEEP_COLUMNS, (astuple(c)[:-1] for c in cells), cfg,
                       {**(extra or {}), "failed": failed})


# ---------------------------------------------------------------------------
# Reports of one solve.  Each writer takes the solved configuration and its
# SteadyStateResult, and every manifest carries the same solve record.


def solve_record(result: SteadyStateResult) -> Dict:
    """The manifest keys that describe how a steady-state solve went."""
    return {"converged": bool(result.converged), "t_converge": result.t_converge,
            "stats": result.stats}


def series_columns(n_at: int) -> List[str]:
    return (["t", "purity", "mean_x", "mean_y", "mean_z", "var_x", "var_y"]
            + [f"p{k}" for k in range(n_at + 1)])


def write_series_csv(path: str, cfg: ExperimentConfig, result: SteadyStateResult,
                     extra: Optional[Dict] = None) -> List[str]:
    """The recorded series of a `solve(cfg, record=True)`."""
    cols = series_columns(cfg.n_at)
    rows = zip(result.series.times, *(result.series.data[c] for c in cols[1:]))
    return write_table(path, cols, rows, cfg, {**solve_record(result), **(extra or {})})


def write_correlations_csv(path: str, cfg: ExperimentConfig, result: SteadyStateResult,
                           extra: Optional[Dict] = None) -> List[str]:
    """The sigma_x pair correlations of the steady state, one row per (n, m)."""
    corr = pair_correlations(result.state, cfg.n_at)
    rows = [(n + 1, m + 1, corr[n, m]) for n in range(cfg.n_at) for m in range(cfg.n_at)]
    return write_table(path, ("n", "m", "C"), rows, cfg,
                       {**solve_record(result), **(extra or {})})


def population_rows(cfg: ExperimentConfig, result: SteadyStateResult,
                    law: str) -> List[Tuple[int, float, float]]:
    """(n_e, steady-state population, closed-form `law` or nan for
    "none") for n_e = 0..n_at."""
    pops = excitation_populations(result.state)
    if law == "none":
        predicted = np.full(cfg.n_at + 1, float("nan"))
    else:
        predicted = predicted_populations(law, cfg.n_at, make_bath(cfg.n_ph, cfg.phi))
    return list(zip(range(cfg.n_at + 1), pops, predicted))


def write_populations_csv(path: str, cfg: ExperimentConfig, result: SteadyStateResult,
                          extra: Dict) -> List[str]:
    """The excitation populations of the steady state next to the law that
    `extra["law"]` names; `extra` goes into the manifest."""
    rows = population_rows(cfg, result, extra["law"])
    return write_table(path, ("n_e", "p_steady", "p_predicted"), rows, cfg,
                       {**solve_record(result), **extra})


# ---------------------------------------------------------------------------
# Named experiments


def dimer_center(n_at: int, k0a: float) -> float:
    """Array center putting every nearest-neighbor pair at a quadrature
    extremum.  Pair sums are 2 zc + (4n - n_at - 2) k0a, so for
    separations with 4 k0a = 0 (mod pi) the choice
    zc = (n_at - 2) k0a / 2 (mod pi/2) zeroes them all (mod pi)."""
    return ((n_at - 2) * k0a / 2.0) % (math.pi / 2.0)


_WRITERS = {"series": write_series_csv, "correlations": write_correlations_csv,
            "populations": write_populations_csv}

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


def run_experiment(name: str, cfg: ExperimentConfig, outdir: str) -> List[str]:
    """Produce the data files of one named experiment preset under
    `outdir`; returns the written paths."""
    if name not in EXPERIMENT_NAMES:
        raise ValueError(
            f"unknown experiment {name!r}; expected one of {EXPERIMENT_NAMES}"
        )
    os.makedirs(outdir, exist_ok=True)
    if name == "fig2":
        # Steady-state map over array center and separation.
        sweep_cfg = replace(cfg, initial="ground")
        return write_sweep_csv(os.path.join(outdir, "fig2_sweep.csv"),
                               run_sweep(sweep_cfg), sweep_cfg, {"experiment": "fig2"})
    files: List[str] = []
    for stem, overrides, reports, tags in PRESETS[name]:
        case = replace(cfg, **overrides)
        result = solve(case, record="series" in reports)
        for report, report_tags in reports.items():
            files += _WRITERS[report](os.path.join(outdir, f"{stem}_{report}.csv"), case,
                                      result, {"experiment": name, **tags, **report_tags})
    return files
