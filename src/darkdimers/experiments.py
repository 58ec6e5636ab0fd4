"""Experiment orchestration: parameter sweeps, named experiment presets,
and deterministic CSV/JSON output.

Every CSV gets a JSON sidecar (same stem, .json) recording the fully
resolved configuration and the library version.  Floats are written
with 12 significant digits so identical configs give byte-identical
files.
"""

from __future__ import annotations

import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import astuple, dataclass, fields, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import __version__
from .config import ExperimentConfig, initial_state_vector, parse_grid
from .darkstates import predicted_populations
from .dynamics import (
    EvolveConfig,
    IntegrationInstabilityError,
    TimeSeries,
    steady_state,
)
from .model import (
    ArrayGeometry,
    BathParams,
    ModelOperators,
    build_model,
    make_bath,
    make_geometry,
)
from .observables import pair_correlations, state_row

__all__ = [
    "setup_from_config",
    "SweepCell",
    "run_sweep",
    "run_experiment",
    "write_table",
    "write_sweep_csv",
    "write_series_csv",
    "write_correlations_csv",
    "EXPERIMENT_NAMES",
]

EXPERIMENT_NAMES = ("fig2", "fig3", "fig4", "fig5")


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
    _, _, model, ecfg = setup_from_config(replace(cfg, k0zc=k0zc, k0a=k0a))
    try:
        result = steady_state(initial_state_vector(cfg), model, ecfg)
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
# Series and matrix output


def series_columns(n_at: int) -> List[str]:
    return (["t", "purity", "mean_x", "mean_y", "mean_z", "var_x", "var_y"]
            + [f"p{k}" for k in range(n_at + 1)])


def write_series_csv(path: str, series: TimeSeries, n_at: int,
                     cfg: ExperimentConfig, extra: Optional[Dict] = None) -> List[str]:
    cols = series_columns(n_at)
    rows = zip(series.times, *(series.data[c] for c in cols[1:]))
    return write_table(path, cols, rows, cfg, extra)


def write_correlations_csv(path: str, corr: np.ndarray, cfg: ExperimentConfig,
                           extra: Optional[Dict] = None) -> List[str]:
    n_at = corr.shape[0]
    rows = [(n + 1, m + 1, corr[n, m]) for n in range(n_at) for m in range(n_at)]
    return write_table(path, ("n", "m", "C"), rows, cfg, extra)


def write_populations_csv(path: str, steady: np.ndarray, predicted: np.ndarray,
                          cfg: ExperimentConfig, extra: Optional[Dict] = None) -> List[str]:
    rows = [(ne, steady[ne], predicted[ne]) for ne in range(steady.size)]
    return write_table(path, ("n_e", "p_steady", "p_predicted"), rows, cfg, extra)


# ---------------------------------------------------------------------------
# Named experiments


def dimer_center(n_at: int, k0a: float) -> float:
    """Array center putting every nearest-neighbor pair at a quadrature
    extremum.  Pair sums are 2 zc + (4n - n_at - 2) k0a, so for
    separations with 4 k0a = 0 (mod pi) the choice
    zc = (n_at - 2) k0a / 2 (mod pi/2) zeroes them all (mod pi)."""
    return ((n_at - 2) * k0a / 2.0) % (math.pi / 2.0)


def run_experiment(name: str, cfg: ExperimentConfig, outdir: str) -> List[str]:
    """Produce the data files of one named experiment preset under
    `outdir`; returns the written paths."""
    if name not in EXPERIMENT_NAMES:
        raise ValueError(
            f"unknown experiment {name!r}; expected one of {EXPERIMENT_NAMES}"
        )
    os.makedirs(outdir, exist_ok=True)
    files: List[str] = []

    if name == "fig2":
        # Steady-state map over array center and separation.
        sweep_cfg = replace(cfg, initial="ground")
        cells = run_sweep(sweep_cfg)
        files += write_sweep_csv(
            os.path.join(outdir, "fig2_sweep.csv"), cells, sweep_cfg,
            {"experiment": "fig2"},
        )

    elif name == "fig3":
        # Pair correlations of the dimerized and melted six-atom chains.
        for tag, k0a in (("dimer", math.pi / 4), ("melted", math.pi)):
            case = replace(cfg, n_at=6, k0a=k0a, k0zc=0.0, initial="ground")
            _, _, model, ecfg = setup_from_config(case)
            result = steady_state(initial_state_vector(case), model, ecfg, record=True)
            corr = pair_correlations(result.state, case.n_at)
            files += write_correlations_csv(
                os.path.join(outdir, f"fig3_{tag}_correlations.csv"), corr, case,
                {"experiment": "fig3", "case": tag,
                 "converged": bool(result.converged), "stats": result.stats},
            )

    elif name == "fig4":
        # Relaxation timescales for growing arrays, dimerized vs melted.
        for tag, k0a in (("dimer", math.pi / 4), ("melted", math.pi)):
            for n_at in (2, 4, 6):
                zc = dimer_center(n_at, k0a) if tag == "dimer" else 0.0
                case = replace(cfg, n_at=n_at, k0a=k0a, k0zc=zc, initial="ground")
                _, _, model, ecfg = setup_from_config(case)
                result = steady_state(initial_state_vector(case), model, ecfg,
                                      record=True)
                files += write_series_csv(
                    os.path.join(outdir, f"fig4_{tag}_n{n_at}_series.csv"),
                    result.series, n_at, case,
                    {"experiment": "fig4", "case": tag, "n_at": n_at,
                     "converged": bool(result.converged),
                     "t_converge": result.t_converge, "stats": result.stats},
                )

    elif name == "fig5":
        # Polarization decay and final excitation statistics for the
        # three six-atom geometries, each atom starting in
        # (|g> + e^{i pi/4} |e>)/sqrt(2).
        cases = (
            ("thermal", math.pi / 4, 2.0 * math.pi),
            ("squeezed", 0.0, 2.0 * math.pi),
            ("dimer", 0.0, math.pi / 4),
        )
        for tag, k0zc, k0a in cases:
            case = replace(cfg, n_at=6, k0a=k0a, k0zc=k0zc, initial="plus-pi-4")
            _, bath, model, ecfg = setup_from_config(case)
            result = steady_state(initial_state_vector(case), model, ecfg, record=True)
            files += write_series_csv(
                os.path.join(outdir, f"fig5_{tag}_series.csv"),
                result.series, case.n_at, case,
                {"experiment": "fig5", "case": tag,
                 "converged": bool(result.converged), "stats": result.stats},
            )
            steady_pop = np.array(
                [result.series.data[f"p{k}"][-1] for k in range(case.n_at + 1)]
            )
            predicted = predicted_populations(tag, case.n_at, bath)
            files += write_populations_csv(
                os.path.join(outdir, f"fig5_{tag}_populations.csv"),
                steady_pop, predicted, case,
                {"experiment": "fig5", "case": tag, "law": tag},
            )

    return files
