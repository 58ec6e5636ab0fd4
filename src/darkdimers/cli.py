"""Command-line interface.

Subcommands: sweep, evolve, steady, correlations, darkstate,
populations, experiment.  Exit codes: 0 success; 1 runtime error, or a
non-converged solve once every file is written (a sweep, fig2 too, exits
0 and reports such cells in its manifest); 2 usage/config error.

The package sets the OpenBLAS spin timeout before this module loads
numpy (see `darkdimers/__init__.py`).
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import List, Optional

import numpy as np

from . import __version__
from .config import (CONFIG_KEYS, ConfigError, load_config_file, resolve_config,
                     setup_from_config)
from .darkstates import dark_state, stability_residual
from .dynamics import _STEADY_STATE_MAX_ATOMS, IntegrationInstabilityError
from .experiments import (
    EXPERIMENT_NAMES,
    law_populations,
    population_rows,
    run_experiment,
    run_sweep,
    solve_case,
    write_sweep_csv,
)
from .observables import dark_condition, excitation_populations, fidelity, state_row


def _resolve(args) -> "ExperimentConfig":
    file_values = load_config_file(args.config) if args.config else None
    flag_values = {name: getattr(args, name) for name in CONFIG_KEYS}
    cfg = resolve_config(file_values, flag_values)
    if args.command == "darkstate":
        return cfg
    if cfg.n_at > _STEADY_STATE_MAX_ATOMS:
        raise ConfigError(f"{args.command} solves n_at <= {_STEADY_STATE_MAX_ATOMS} "
                          f"(steady_state's size limit); got n_at = {cfg.n_at}")
    if cfg.out:  # check the output before any solve
        out, want_dir = Path(cfg.out), args.command == "experiment"
        if not want_dir and out.suffix.lower() == ".json":  # its manifest would overwrite it
            raise ConfigError(f"out {cfg.out} ends in .json, the suffix of its manifest")
        if out.exists() and out.is_dir() != want_dir:
            kind = "a directory" if want_dir else "a file"
            raise ConfigError(f"out {cfg.out} exists and is not {kind}")
        home = out if want_dir else out.parent  # the files' directory; `write_table` makes it
        base = next(p for p in (home, *home.parents) if p.exists())
        if not (base.is_dir() and os.access(base, os.W_OK | os.X_OK)):
            raise ConfigError(f"cannot create the directory of out {cfg.out}: "
                              f"{base} is not a writable directory")
    return cfg


def _cmd_sweep(args) -> int:
    cfg = _resolve(args)
    print("\n".join(write_sweep_csv(cfg.out or "sweep.csv", run_sweep(cfg), cfg)))
    return 0


def _cmd_report(args) -> int:
    """evolve and correlations: one solve and its report, written as the
    presets write it."""
    cfg = _resolve(args)
    report = "series" if args.command == "evolve" else args.command
    files, result = solve_case(cfg, {report: (cfg.out or f"{report}.csv", {})})
    print("\n".join(files))
    return 0 if result.converged else 1


def _cmd_steady(args) -> int:
    cfg = _resolve(args)
    _, result = solve_case(cfg, {"steady": (cfg.out, {})} if cfg.out else {})
    row = state_row(result.state)
    print(f"converged: {result.converged}")
    print(f"t_converge: {result.t_converge:.6g}")
    print(f"residual: {result.residual:.6g}")
    print(f"purity: {row['purity']:.12g}")
    print(f"mean_x/y/z: {row['mean_x']:.6g} {row['mean_y']:.6g} {row['mean_z']:.6g}")
    print(f"var_x/y: {row['var_x']:.6g} {row['var_y']:.6g}")
    print("populations: "
          + " ".join(f"{row[f'p{k}']:.6g}" for k in range(cfg.n_at + 1)))
    return 0 if result.converged else 1


def _cmd_darkstate(args) -> int:
    cfg = _resolve(args)
    model, _ = setup_from_config(cfg)
    if model.squeezed_jumps is None:
        raise ConfigError("darkstate needs a minimal-uncertainty squeezed bath with n_ph > 0")
    try:
        label, psi, collective = dark_state(model.geometry, model.bath, args.sector)
    except ValueError as exc:  # no dark state at this geometry, or no such sector
        raise ConfigError(str(exc)) from None
    (_, jx), (_, jy) = model.squeezed_jumps
    print(f"state: {label}")
    print(f"jump annihilation |Jx psi|: {np.linalg.norm(jx @ psi):.3e}")
    print(f"jump annihilation |Jy psi|: {np.linalg.norm(jy @ psi):.3e}")
    print(f"hamiltonian stability residual: {stability_residual(psi, model):.3e}")
    print(f"rate-weighted dark condition min eig: {dark_condition(model):.3e}")
    print("populations: " + " ".join(f"{p:.6g}" for p in excitation_populations(psi)))
    if collective is not None:
        print(f"collective-form cross-check fidelity: {fidelity(collective, psi):.12g}")
    return 0


def _cmd_populations(args) -> int:
    cfg = _resolve(args)
    law_populations(cfg, args.law)  # a law that cannot apply stops before the solve
    _, result = solve_case(cfg, {"populations": (cfg.out, {"law": args.law})} if cfg.out else {})
    for ne, pop, predicted in population_rows(cfg, result, args.law):
        line = f"P({ne}) = {pop:.6g}"
        if args.law != "none":
            line += f"   {args.law}: {predicted:.6g}"
        print(line)
    return 0 if result.converged else 1


def _cmd_experiment(args) -> int:
    cfg = _resolve(args)
    files, converged = run_experiment(args.name, cfg, cfg.out or "experiment_data")
    print("\n".join(files))
    return 0 if converged else 1


# name -> (help, handler, the command's own arguments as (name, keywords of
# `add_argument`)); they come after --config and the config flags
_COMMANDS = {
    "sweep": ("steady-state grid over (k0zc, k0a)", _cmd_sweep, ()),
    "evolve": ("time series of one evolution", _cmd_report, ()),
    "steady": ("steady state of one setup", _cmd_steady, ()),
    "correlations": ("steady-state sigma_x correlations", _cmd_report, ()),
    "darkstate": ("construct the analytic dark state and print residuals", _cmd_darkstate, [
        ("--l", dict(dest="sector", type=int, default=None,
                     help="melted sector (number of squeezed pairs); default n_at/2"))]),
    "populations": ("excitation-number distribution", _cmd_populations, [
        ("--law", dict(choices=("thermal", "squeezed", "dimer", "none"), default="none",
                       help="closed-form law to print alongside"))]),
    "experiment": ("run a named experiment preset", _cmd_experiment,
                   [("name", dict(choices=EXPERIMENT_NAMES))]),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="darkdimers",
        description="Steady states of an atomic array in a squeezed vacuum: "
        "master-equation dynamics, dark-state constructors, sweeps.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _, own) in _COMMANDS.items():
        command = sub.add_parser(name, help=help_text)
        command.add_argument("--config", metavar="FILE", help="key/value config file")
        for key, spec in CONFIG_KEYS.items():
            command.add_argument("--" + key.replace("_", "-"), dest=key, metavar="V",
                                 help=spec.metadata["help"])
        for arg, kwargs in own:
            command.add_argument(arg, **kwargs)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command][1](args)
    except (IntegrationInstabilityError, ValueError, OSError) as exc:  # OSError: a failed write
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ConfigError) else 1


if __name__ == "__main__":
    sys.exit(main())
