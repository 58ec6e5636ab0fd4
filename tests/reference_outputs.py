"""The output set that tests/reference/ pins: the fig3-fig5 presets at
dt = 0.002, as the tests/test_experiments.py fixtures write them, and a
9 x 9 N = 4 sweep, with the rule they are compared by.

Run `PYTHONPATH=src python tests/reference_outputs.py` to rewrite
tests/reference/ from the current code.  A change that moves a reference
says what moved and why.
"""

import csv
import json
import os

import numpy as np

from darkdimers.config import ExperimentConfig
from darkdimers.experiments import run_experiment, run_sweep, write_sweep_csv

REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")
PRESETS = ("fig3", "fig4", "fig5")
PRESET_CFG = ExperimentConfig(dt=0.002)
SWEEP_CFG = ExperimentConfig(n_at=4, grid_zc="0:pi:9", grid_a="0:pi:9")
SWEEP_FILE = "sweep_n4_9x9.csv"
# compared as text; every other CSV field within REL_TOL of its column's
# largest magnitude, because the dense products may round differently
EXACT_COLUMNS = ("t", "converged", "t_converge")
REL_TOL = 1e-10


def write_sweep(outdir):
    return write_sweep_csv(os.path.join(outdir, SWEEP_FILE), run_sweep(SWEEP_CFG), SWEEP_CFG)


def pinned_manifest(path):
    """The manifest at `path` without the keys that may differ: `version`
    and the configured `out`."""
    with open(path, encoding="utf-8") as fh:
        manifest = json.load(fh)
    del manifest["version"]
    del manifest["config"]["out"]
    return manifest


def _rows(path):
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.reader(fh))


def mismatches(path, ref_path):
    """How the file at `path` departs from its reference: a list of
    messages, empty when it matches."""
    if path.endswith(".json"):
        got, ref = pinned_manifest(path), pinned_manifest(ref_path)
        return [f"manifest key {k!r}: {got.get(k)!r} != {ref.get(k)!r}"
                for k in sorted(set(got) | set(ref)) if got.get(k) != ref.get(k)]
    got, ref = _rows(path), _rows(ref_path)
    if got[0] != ref[0] or len(got) != len(ref):
        return [f"header {got[0]} or {len(got) - 1} rows != {ref[0]}, {len(ref) - 1} rows"]
    out = []
    for name, g, r in zip(ref[0], zip(*got[1:]), zip(*ref[1:])):
        if name in EXACT_COLUMNS:
            if g != r:
                out.append(f"column {name}: {g} != {r}")
            continue
        g, r = (np.array(c, dtype=float) for c in (g, r))
        if not np.array_equal(np.isnan(g), np.isnan(r)):
            out.append(f"column {name}: nan at other rows")
            continue
        finite = ~np.isnan(r)
        scale = np.max(np.abs(r[finite]), initial=0.0)
        dev = np.max(np.abs(g[finite] - r[finite]), initial=0.0)
        if dev > REL_TOL * scale:
            out.append(f"column {name}: off by {dev:.3e}, column max {scale:.3e}")
    return out


if __name__ == "__main__":
    for name in PRESETS:
        run_experiment(name, PRESET_CFG, REFERENCE_DIR)
    write_sweep(REFERENCE_DIR)
