"""One darkdimers CLI command in a fresh process, as `python -m darkdimers`
would run it, plus what the benchmark needs to check and time it.

    python3 perfbench/child.py MODE REPORT -- <darkdimers arguments>

MODE is `setup` (import the CLI and exit), `run` (call `cli.main` and
keep each solve's result) or `trace` (the same, with spans at every
module boundary; see tracer.py).  REPORT receives a JSON summary, and
REPORT with suffix .npz the final state of each solve.  The exit code is
that of `cli.main`.
"""

from __future__ import annotations

import dataclasses
import inspect
import json
import os
import sys
import time

CLOCK = time.CLOCK_MONOTONIC  # system-wide, so comparable with the parent's spawn time

from darkdimers import cli, dynamics  # noqa: E402

T_READY = time.clock_gettime(CLOCK)

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
from perfbench.tracer import Tracer, cross_module_bindings, install  # noqa: E402

SOLVE = "dynamics.steady_state"


def _fixed_cost_call(fn, args, kwargs):
    """The arguments of `fn(*args, **kwargs)` with the integration config's
    horizon cut to one step: model set-up, RK4 matrix and a single step."""
    bound = inspect.signature(fn).bind(*args, **kwargs)
    for key, value in bound.arguments.items():
        if dataclasses.is_dataclass(value) and hasattr(value, "t_max"):
            bound.arguments[key] = dataclasses.replace(value, t_max=value.dt)
            return bound.args, bound.kwargs
    raise TypeError(f"no integration config among the arguments of {fn.__name__}")


def main() -> int:
    mode, report_path = sys.argv[1], sys.argv[2]
    argv = sys.argv[sys.argv.index("--") + 1:]
    report = {"t_ready": T_READY}
    if mode == "setup":
        _write(report_path, report, [])
        return 0

    solves = []
    if mode == "run":
        def capturing(solve):
            def call(*args, **kwargs):
                result = solve(*args, **kwargs)
                solves.append(result)
                return result
            return call

        for module, attr, name in cross_module_bindings():
            if name == SOLVE:
                setattr(module, attr, capturing(getattr(module, attr)))
        entry = cli.main
    elif mode == "trace":
        tracer = Tracer()
        solve_fixed = []

        def keep_and_repeat(result, args, kwargs):
            solves.append(result)
            a, kw = _fixed_cost_call(dynamics.steady_state, args, kwargs)
            solve_fixed.append(tracer.outside_spans(dynamics.steady_state, *a, **kw))

        install(tracer, after={SOLVE: keep_and_repeat},
                extra=[("experiments", "_sweep_cell")])
        entry = tracer.wrap("cli.main", cli.main)
    else:
        raise SystemExit(f"unknown mode {mode!r}")

    start = time.perf_counter()
    code = entry(argv)
    report["main_s"] = time.perf_counter() - start
    report["exit_code"] = code
    report["solves"] = [
        {"converged": bool(r.converged), "t_converge": float(r.t_converge),
         "residual": float(r.residual),
         "points": 0 if r.series is None else len(r.series.times)}
        for r in solves
    ]
    if mode == "trace":
        report.update(spans=tracer.spans, excluded=tracer.excluded,
                      solve_fixed=solve_fixed)
    _write(report_path, report, [r.state for r in solves])
    return code


def _write(path, report, states):
    import numpy as np

    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    if states:
        np.savez(os.path.splitext(path)[0] + ".npz", *states)


if __name__ == "__main__":
    sys.exit(main())
