"""Command-line interface.

Subcommands: sweep, evolve, steady, correlations, darkstate,
populations, experiment.  Exit codes: 0 success; 1 runtime error, or a
non-converged solve once every file is written (a sweep, fig2 too, exits
0 and reports such cells in its manifest); 2 usage/config error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path
from typing import List, Optional

import numpy as np

from . import __version__
from .config import CONFIG_KEYS, ConfigError, load_config_file, resolve_config
from .darkstates import (
    collective_dark_state,
    dimer_chain,
    melted_dark,
    stability_residual,
    stable_dark_geometry,
)
from .dynamics import IntegrationInstabilityError
from .experiments import (
    EXPERIMENT_NAMES,
    population_rows,
    run_experiment,
    run_sweep,
    setup_from_config,
    solve,
    solve_record,
    write_correlations_csv,
    write_populations_csv,
    write_series_csv,
    write_sweep_csv,
    write_table,
)
from .observables import dark_condition, excitation_populations, state_row


def _add_common(parser: argparse.ArgumentParser):
    parser.add_argument("--config", metavar="FILE", help="key/value config file")
    for name, key in CONFIG_KEYS.items():
        parser.add_argument("--" + name.replace("_", "-"), dest=name, metavar="V",
                            help=key.metadata["help"])


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="darkdimers",
        description="Steady states of an atomic array in a squeezed vacuum: "
        "master-equation dynamics, dark-state constructors, sweeps.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser("sweep", help="steady-state grid over (k0zc, k0a)")
    _add_common(sweep)

    evolve = sub.add_parser("evolve", help="time series of one evolution")
    _add_common(evolve)

    steady = sub.add_parser("steady", help="steady state of one setup")
    _add_common(steady)

    corr = sub.add_parser("correlations", help="steady-state sigma_x correlations")
    _add_common(corr)

    dark = sub.add_parser(
        "darkstate", help="construct the analytic dark state and print residuals"
    )
    _add_common(dark)
    dark.add_argument("--l", dest="sector", type=int, default=None,
                      help="melted sector (number of squeezed pairs); "
                      "default n_at/2")

    pops = sub.add_parser("populations", help="excitation-number distribution")
    _add_common(pops)
    pops.add_argument("--law", choices=("thermal", "squeezed", "dimer", "none"),
                      default="none", help="closed-form law to print alongside")

    exp = sub.add_parser("experiment", help="run a named experiment preset")
    exp.add_argument("name", choices=EXPERIMENT_NAMES)
    _add_common(exp)

    return parser


def _resolve(args) -> "ExperimentConfig":
    file_values = load_config_file(args.config) if args.config else None
    flag_values = {name: getattr(args, name) for name in CONFIG_KEYS}
    return resolve_config(file_values, flag_values)


def _cmd_sweep(args) -> int:
    cfg = _resolve(args)
    cells = run_sweep(cfg)
    out = cfg.out or "sweep.csv"
    files = write_sweep_csv(out, cells, cfg)
    print("\n".join(files))
    return 0


def _cmd_evolve(args) -> int:
    cfg = _resolve(args)
    result = solve(cfg, record=True)
    print("\n".join(write_series_csv(cfg.out or "series.csv", cfg, result)))
    return 0 if result.converged else 1


def _cmd_steady(args) -> int:
    cfg = _resolve(args)
    result = solve(cfg)
    row = state_row(result.state, cfg.n_at)
    print(f"converged: {result.converged}")
    print(f"t_converge: {result.t_converge:.6g}")
    print(f"residual: {result.residual:.6g}")
    print(f"purity: {row['purity']:.12g}")
    print(f"mean_x/y/z: {row['mean_x']:.6g} {row['mean_y']:.6g} {row['mean_z']:.6g}")
    print(f"var_x/y: {row['var_x']:.6g} {row['var_y']:.6g}")
    print("populations: "
          + " ".join(f"{row[f'p{k}']:.6g}" for k in range(cfg.n_at + 1)))
    if cfg.out:
        header = list(row) + ["t_converge", "converged"]
        values = list(row.values()) + [result.t_converge, result.converged]
        write_table(cfg.out, header, [values], cfg, solve_record(result))
    return 0 if result.converged else 1


def _cmd_correlations(args) -> int:
    cfg = _resolve(args)
    result = solve(cfg)
    files = write_correlations_csv(cfg.out or "correlations.csv", cfg, result)
    print("\n".join(files))
    return 0 if result.converged else 1


def _cmd_darkstate(args) -> int:
    cfg = _resolve(args)
    geo, bath, model, _ = setup_from_config(cfg)
    if model.squeezed_jumps is None:
        raise ConfigError(
            "darkstate needs a minimal-uncertainty squeezed bath with n_ph > 0"
        )
    melted = abs(math.sin(cfg.k0a)) <= 1e-9
    if not stable_dark_geometry(cfg.n_at, cfg.k0a, cfg.k0zc):
        raise ConfigError(
            f"no stable dark state at n_at={cfg.n_at}, k0a={cfg.k0a:.6g}, "
            f"k0zc={cfg.k0zc:.6g}: nearest-neighbor pairs must sit at "
            "quadrature extrema (cos k0(z_n+z_m) = +/-1) and n_at must be even"
        )
    if melted:
        sector = args.sector if args.sector is not None else cfg.n_at // 2
        psi = melted_dark(geo, bath, sector)
        label = f"melted_dark(l={sector})"
    else:
        psi = dimer_chain(geo, bath)
        label = "dimer_chain"
    jx, jy = model.squeezed_jumps
    print(f"state: {label}")
    print(f"jump annihilation |Jx psi|: {np.linalg.norm(jx @ psi):.3e}")
    print(f"jump annihilation |Jy psi|: {np.linalg.norm(jy @ psi):.3e}")
    print(f"hamiltonian stability residual: {stability_residual(psi, model):.3e}")
    print(f"rate-weighted dark condition min eig: {dark_condition(geo, bath):.3e}")
    print("populations: " + " ".join(f"{p:.6g}" for p in excitation_populations(psi)))
    if melted and abs(math.sin(cfg.k0a / 2.0)) <= 1e-9 \
            and abs(math.sin(2.0 * cfg.k0zc)) <= 1e-9:
        other = collective_dark_state(geo, bath, cfg.n_at // 2)
        overlap = abs(np.vdot(other, psi)) ** 2
        print(f"collective-form cross-check fidelity: {overlap:.12g}")
    return 0


def _cmd_populations(args) -> int:
    cfg = _resolve(args)
    result = solve(cfg)
    for ne, pop, predicted in population_rows(cfg, result, args.law):
        line = f"P({ne}) = {pop:.6g}"
        if args.law != "none":
            line += f"   {args.law}: {predicted:.6g}"
        print(line)
    if cfg.out:
        write_populations_csv(cfg.out, cfg, result, {"law": args.law})
    return 0 if result.converged else 1


def _cmd_experiment(args) -> int:
    cfg = _resolve(args)
    outdir = cfg.out or "experiment_data"
    files = run_experiment(args.name, cfg, outdir)
    print("\n".join(files))
    # each solve's manifest records whether it converged; the sweep's does not
    solves = [json.loads(Path(f).read_text("utf-8")) for f in files if f.endswith(".json")]
    return 1 if any(m.get("converged") is False for m in solves) else 0


_COMMANDS = {
    "sweep": _cmd_sweep,
    "evolve": _cmd_evolve,
    "steady": _cmd_steady,
    "correlations": _cmd_correlations,
    "darkstate": _cmd_darkstate,
    "populations": _cmd_populations,
    "experiment": _cmd_experiment,
}


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (IntegrationInstabilityError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
