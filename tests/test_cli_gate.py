"""The config gate as a property: over flag values and config-file lines,
every command exits 0, 1 or 2, prints at most one `error:` line and no
traceback, and writes no file or directory when it exits 2.
`experiments.solve` is replaced by a stub that raises, so no solve runs:
an input that passes the gate exits 1 (a sweep 0, with the stub's reason
in every cell)."""

import contextlib
import hashlib
import io
import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from darkdimers import experiments
from darkdimers.cli import main
from darkdimers.dynamics import IntegrationInstabilityError

GRIDS = ["0", "0:pi:2", "pi/4,pi/2", ",", "0:pi", "0:pi:0", "0:pi:1025", "pi/x"]
VALUES = {
    "n-at": ["1", "2", "4", "7", "9", "0", "x", "2.5"],
    "n-ph": ["0.88", "0", "-1", "nan", "1e300", "1e400", "x"],
    "phi": ["0", "pi/4", "pi/0", "x"],
    "k0a": ["pi/4", "pi", "2pi", "-1e300", "inf", "pie"],
    "k0zc": ["0", "pi/2", "1e-6", "x"],
    "gamma": ["1", "0", "-2"],
    "dt": ["0.005", "0.1", "0", "nan"],
    "t-max": ["1", "0", "-1"],
    "tol": ["1e-9", "0"],
    "record-stride": ["1", "0", "2.5"],
    "initial": ["ground", "plus-pi-4", "missing.txt"],
    "grid-zc": GRIDS,
    "grid-a": GRIDS,
    "workers": ["1", "0", "100000", "x"],
    # a new file, one below a new directory, a manifest's suffix, an existing
    # directory, a path below an existing file, an existing file
    "out": ["o.csv", "sub/o.csv", "o.json", "dir", "afile/o.csv", "afile"],
}
COMMANDS = {
    "sweep": st.just([]), "evolve": st.just([]), "steady": st.just([]),
    "correlations": st.just([]),
    "darkstate": st.sampled_from([[], ["--l", "0"], ["--l", "1"], ["--l", "9"], ["--l", "x"]]),
    "populations": st.sampled_from([["--law", law] for law in
                                    ("none", "thermal", "squeezed", "dimer")]),
    "experiment": st.sampled_from([[name] for name in ("fig2", "fig3", "fig5")]),
}
pairs = st.sampled_from(sorted(VALUES)).flatmap(
    lambda key: st.tuples(st.just(key), st.sampled_from(VALUES[key])))
file_lines = st.one_of(pairs.map(lambda kv: f"{kv[0]} = {kv[1]}"),
                       st.sampled_from(["# comment", "", "n-at 4", "bogus = 1"]))
command_lines = st.sampled_from(sorted(COMMANDS)).flatmap(
    lambda name: COMMANDS[name].map(lambda own: [name, *own]))


def _stub_solve(cfg, record=False):
    raise IntegrationInstabilityError("stub solve")


def _snapshot(root):
    """Every directory under root, and every file with a hash of its bytes."""
    found = {}
    for top, dirs, names in os.walk(root):
        found.update((os.path.relpath(os.path.join(top, name), root), None) for name in dirs)
        for name in names:
            path = os.path.join(top, name)
            with open(path, "rb") as fh:
                found[os.path.relpath(path, root)] = hashlib.sha256(fh.read()).hexdigest()
    return found


@settings(max_examples=40, deadline=None)
@given(command=command_lines, flags=st.lists(pairs, max_size=5),
       lines=st.one_of(st.none(), st.lists(file_lines, max_size=4)))
def test_gate_exit_codes_errors_and_files(command, flags, lines):
    saved, cwd = experiments.solve, os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.makedirs(os.path.join(work, "dir"))
        with open(os.path.join(work, "afile"), "w", encoding="utf-8") as fh:
            fh.write("kept\n")
        argv = command + [f"--{key}={value}" for key, value in flags]
        if lines is not None:
            with open(os.path.join(work, "run.cfg"), "w", encoding="utf-8") as fh:
                fh.write("\n".join(lines) + "\n")
            argv += ["--config", "run.cfg"]
        before = _snapshot(work)
        out, err = io.StringIO(), io.StringIO()
        experiments.solve = _stub_solve
        os.chdir(work)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = main(argv)
                except SystemExit as exc:  # argparse's usage errors
                    code = exc.code
        finally:
            os.chdir(cwd)
            experiments.solve = saved
        errors = [line for line in err.getvalue().splitlines() if "error:" in line]
        assert code in (0, 1, 2), (argv, code)
        assert "Traceback" not in err.getvalue()
        assert len(errors) == (code != 0), (argv, err.getvalue())
        if code == 2:
            assert _snapshot(work) == before, argv
