import argparse
import json
import math
import os
import subprocess
import sys
import time
from dataclasses import fields, replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from darkdimers import experiments, make_bath, make_geometry
from darkdimers.cli import _build_parser, main
from darkdimers.config import (
    ConfigError,
    ExperimentConfig,
    initial_state_vector,
    load_config_file,
    parse_angle,
    parse_grid,
    resolve_config,
)
from darkdimers.darkstates import dimer_chain, melted_dark
from darkdimers.dynamics import _blas_api, _set_blas_threads
from darkdimers.experiments import dimer_center, run_sweep, write_sweep_csv
from darkdimers.observables import polarization_moments


def _fresh(code: str, **env) -> str:
    """stdout of `python -c code` in a fresh interpreter, with env's entries
    set (a None value removes the variable)."""
    full = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path), **env}
    full = {key: value for key, value in full.items() if value is not None}
    out = subprocess.run([sys.executable, "-c", code], env=full, check=True,
                         capture_output=True, text=True, timeout=60)
    return out.stdout.strip()


needs_blas_setter = pytest.mark.skipif(not _blas_api(),
                                       reason="no OpenBLAS thread setter found")


class TestParseAngle:
    @pytest.mark.parametrize(
        "text,expected",
        [("pi", math.pi), ("pi/4", math.pi / 4), ("2pi", 2 * math.pi),
         ("-pi", -math.pi), ("0.5", 0.5), ("1.5pi", 1.5 * math.pi), ("0", 0.0)],
    )
    def test_valid(self, text, expected):
        assert parse_angle(text) == pytest.approx(expected, abs=1e-15)

    @pytest.mark.parametrize("text", ["pie", "pi/x", "2pi3", ""])
    def test_invalid(self, text):
        with pytest.raises(ConfigError):
            parse_angle(text)


class TestParseGrid:
    def test_linspace(self):
        assert_allclose(parse_grid("0:pi:3"), [0.0, math.pi / 2, math.pi])

    def test_comma_list(self):
        assert_allclose(parse_grid("0,pi/4,pi/2"), [0.0, math.pi / 4, math.pi / 2])

    def test_bad_count(self):
        with pytest.raises(ConfigError):
            parse_grid("0:pi:zero")
        with pytest.raises(ConfigError):
            parse_grid("0:pi:0")

    def test_point_count_bounded_before_allocating(self, monkeypatch):
        def unreachable(*args, **kwargs):
            raise AssertionError("np.linspace reached")

        monkeypatch.setattr(np, "linspace", unreachable)
        with pytest.raises(ConfigError, match=r"grid needs 1\.\.1024 points, got 1000000000"):
            parse_grid("0:pi:1000000000")
        with pytest.raises(ConfigError, match="bad value for grid_a: grid needs 1..1024"):
            resolve_config(flag_values={"grid_a": "0:pi:1025"})

    @pytest.mark.parametrize("text", [",", " , "])
    def test_empty_comma_list(self, text, capsys):
        with pytest.raises(ConfigError, match="bad value for grid_a: grid .* lists no angle"):
            resolve_config(flag_values={"grid_a": text})
        assert main(["sweep", "--n-at", "2", "--grid-a", text]) == 2
        assert "grid_a" in capsys.readouterr().err


class TestResolveConfig:
    def test_defaults(self):
        cfg = resolve_config()
        assert cfg.n_at == 4 and cfg.n_ph == 0.88 and cfg.dt == 0.005
        assert cfg.t_max == 2.0e4 and cfg.tol == 1e-9

    def test_file_then_flag_precedence(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("n-at = 6\nk0a = pi/4  # lattice constant\n", encoding="utf-8")
        file_values = load_config_file(str(path))
        cfg = resolve_config(file_values, {"n_at": "4"})
        assert cfg.n_at == 4                       # flag wins
        assert cfg.k0a == pytest.approx(math.pi / 4)

    def test_byte_order_mark_is_not_part_of_the_first_key(self, tmp_path, capsys):
        # an editor's "UTF-8 with BOM" is still a plain UTF-8 config file
        path = tmp_path / "run.cfg"
        path.write_text("n-at = 2\nt_max = 2e4  # horizon\nk0a = pi/4\n", encoding="utf-8-sig")
        assert path.read_bytes().startswith(b"\xef\xbb\xbfn-at")
        assert load_config_file(str(path)) == {"n_at": "2", "t_max": "2e4", "k0a": "pi/4"}
        assert main(["steady", "--config", str(path)]) == 0
        assert "converged: True" in capsys.readouterr().out

    def test_unknown_key(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("n_atoms = 4\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="n_atoms"):
            load_config_file(str(path))

    @pytest.mark.parametrize("content,fragment", [
        (b"n-at 4\n", "run.cfg:1: expected 'key = value', got 'n-at 4'"),
        (None, "cannot read config file"),  # missing
        (b"n-at = \xff\n", "cannot read config file"),  # not UTF-8
    ])
    def test_unreadable_config_file(self, tmp_path, content, fragment):
        path = tmp_path / "run.cfg"
        if content is not None:
            path.write_bytes(content)
        with pytest.raises(ConfigError, match=fragment):
            load_config_file(str(path))

    @pytest.mark.parametrize(
        "field,value,fragment",
        [("n_ph", "-1", "n_ph"), ("n_ph", "1e300", "n_ph"), ("n_at", "0", "n_at"),
         ("dt", "0.5", "dt"), ("workers", "0", "workers"), ("tol", "0", "tol"),
         ("initial", "no-such-file", "initial"), ("gamma", "0", "gamma"),
         ("t_max", "-1", "t_max"), ("record_stride", "0", "record_stride")],
    )
    def test_range_errors_name_the_field(self, field, value, fragment):
        with pytest.raises(ConfigError, match=fragment):
            resolve_config(flag_values={field: value})

    def test_workers_bounded_by_cpu_count(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        assert resolve_config(flag_values={"workers": "2"}).workers == 2
        with pytest.raises(ConfigError, match=r"workers must be in 1\.\.2 \(the CPU count\)"):
            resolve_config(flag_values={"workers": "3"})

    @pytest.mark.parametrize("name", [f.name for f in fields(ExperimentConfig)])
    def test_every_field_is_a_file_key(self, tmp_path, name):
        path = tmp_path / "run.cfg"
        for key in (name, name.replace("_", "-")):
            path.write_text(f"{key} = 1\n", encoding="utf-8")
            assert load_config_file(str(path)) == {name: "1"}


class TestInitialState:
    def test_ground(self):
        psi = initial_state_vector(ExperimentConfig(n_at=3))
        assert psi[0] == 1.0 and np.linalg.norm(psi) == 1.0
        # default initial is ground
        assert ExperimentConfig().initial == "ground"

    def test_plus_pi_4_polarizations_match(self):
        cfg = ExperimentConfig(n_at=4, initial="plus-pi-4")
        psi = initial_state_vector(cfg)
        mom = polarization_moments(psi)
        assert mom.mean_x == pytest.approx(mom.mean_y, abs=1e-12)
        assert mom.mean_x == pytest.approx(4 * 0.5 * math.cos(math.pi / 4), abs=1e-12)
        assert mom.mean_z == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("n_at", range(1, 9))
    def test_plus_pi_4_is_the_kron_product_of_the_site_state(self, n_at):
        single = np.array([1.0, np.exp(1j * math.pi / 4)]) / math.sqrt(2.0)
        psi = np.array([1.0 + 0.0j])
        for _ in range(n_at):
            psi = np.kron(psi, single)
        cfg = ExperimentConfig(n_at=n_at, initial="plus-pi-4")
        assert initial_state_vector(cfg).tobytes() == psi.tobytes()

    def test_state_file_roundtrip(self, tmp_path):
        path = tmp_path / "state.txt"
        amps = (np.arange(4) + 1).astype(complex) * (0.5 + 0.25j)
        path.write_text("\n".join(str(a) for a in amps), encoding="utf-8")
        cfg = ExperimentConfig(n_at=2, initial=str(path))
        psi = initial_state_vector(cfg)
        assert_allclose(psi, amps / np.linalg.norm(amps), atol=1e-15)

    def test_state_file_with_byte_order_mark(self, tmp_path, capsys):
        # a state file saved as "UTF-8 with BOM" solves as the plain one does
        plain, bom = tmp_path / "plain.txt", tmp_path / "bom.txt"
        plain.write_bytes(b"1\n0\n0\n0\n")
        bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        outs = []
        for path in (plain, bom):
            assert main(["steady", "--n-at", "2", "--initial", str(path)]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1] and "converged: True" in outs[0]

    def test_state_file_wrong_length(self, tmp_path):
        path = tmp_path / "state.txt"
        path.write_text("1\n0\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="amplitudes"):
            initial_state_vector(ExperimentConfig(n_at=2, initial=str(path)))

    def test_state_file_non_finite(self, tmp_path, capsys):
        # a NaN amplitude is a config error, not a NaN row
        path = tmp_path / "state.txt"
        path.write_text("1\nnan\n0\n0\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="non-finite"):
            initial_state_vector(ExperimentConfig(n_at=2, initial=str(path)))
        assert main(["steady", "--n-at", "2", "--initial", str(path)]) == 2
        assert "non-finite" in capsys.readouterr().err

    @pytest.mark.parametrize("content,fragment", [
        (None, "cannot read state file"),  # a directory
        ("1\none\n0\n0\n", "cannot read state file"),
        ("0\n0j\n0\n0\n", "zero vector"),
    ])
    def test_state_file_rejected(self, tmp_path, content, fragment):
        path = tmp_path
        if content is not None:
            path = tmp_path / "state.txt"
            path.write_text(content, encoding="utf-8")
        with pytest.raises(ConfigError, match=fragment):
            initial_state_vector(resolve_config(flag_values={"n_at": "2",
                                                             "initial": str(path)}))


def _fast_flags(tmp_path, out_name):
    return [
        "--n-at", "2", "--t-max", "200", "--out", str(tmp_path / out_name),
    ]


@pytest.fixture(scope="module")
def small_cfg():
    return ExperimentConfig(n_at=2, t_max=150.0,
                            grid_zc="0:pi/2:3", grid_a="pi/8:pi/2:3")


class TestSweepPlumbing:

    def test_grid_shape_and_order(self, small_cfg):
        cells = run_sweep(small_cfg)
        assert len(cells) == 9
        zc_vals = parse_grid(small_cfg.grid_zc)
        a_vals = parse_grid(small_cfg.grid_a)
        # zc-major ordering
        expected = [(zc, a) for zc in zc_vals for a in a_vals]
        assert_allclose([(c.k0zc, c.k0a) for c in cells], expected, atol=1e-15)

    def test_deterministic_and_worker_invariant(self, small_cfg, tmp_path):
        cells1 = run_sweep(small_cfg)
        cells2 = run_sweep(small_cfg)
        cells_par = run_sweep(replace(small_cfg, workers=2))
        paths = []
        for tag, cells in (("a", cells1), ("b", cells2), ("p", cells_par)):
            path = str(tmp_path / f"sweep_{tag}.csv")
            write_sweep_csv(path, cells, small_cfg)
            paths.append(path)
        blobs = [open(p, "rb").read() for p in paths]
        assert blobs[0] == blobs[1] == blobs[2]

    def test_manifest_aggregates_are_worker_invariant(self, small_cfg, tmp_path):
        # converged cells and the quantiles of the cells' squarings and
        # matvecs, taken over the merged grid, whatever the worker count
        aggregates = []
        for workers in (1, 2):
            cfg = replace(small_cfg, workers=workers)
            cells = run_sweep(cfg)
            files = write_sweep_csv(str(tmp_path / f"sweep_{workers}.csv"), cells, cfg)
            manifest = json.load(open(files[1], encoding="utf-8"))
            aggregates.append({k: manifest[k]
                               for k in ("converged_cells", "squarings", "matvecs")})
        assert aggregates[0] == aggregates[1]
        assert aggregates[0]["converged_cells"] == sum(c.converged for c in cells) > 0
        for key in ("squarings", "matvecs"):
            counts = sorted(c.stats[key] for c in cells)
            assert aggregates[0][key] == {
                "p50": counts[4], "p95": pytest.approx(np.percentile(counts, 95)),
                "max": counts[-1]}

    @pytest.mark.parametrize("workers,grid_a,pool", [(2, "pi/4,pi/2", 2), (64, "pi/4,pi/2", 2),
                                                     (2, "pi/4", None)])
    def test_pool_is_sized_by_cells(self, monkeypatch, workers, grid_a, pool):
        # a stand-in pool records the size asked for and starts no process
        import concurrent.futures

        sizes, initializers = [], []

        class RecordingPool:
            def __init__(self, max_workers, initializer=None, initargs=()):
                sizes.append(max_workers)
                initializers.append((initializer, initargs))

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks, chunksize=1):
                return map(fn, tasks)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        cfg = ExperimentConfig(n_at=2, t_max=150.0, grid_zc="0", grid_a=grid_a,
                               workers=workers)
        assert all(c.converged for c in run_sweep(cfg))
        assert sizes == ([] if pool is None else [pool])
        # each worker sets itself to one OpenBLAS thread
        assert initializers == ([] if pool is None else [(_set_blas_threads, (1,))])

    @needs_blas_setter
    def test_worker_initializer_leaves_one_thread(self):
        code = ("from darkdimers.dynamics import _blas_api, _set_blas_threads; "
                "_set_blas_threads(1); print(_blas_api()[0]())")
        env = dict(os.environ, OPENBLAS_NUM_THREADS="2", PYTHONPATH=os.pathsep.join(sys.path))
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True, timeout=120)
        assert out.stdout.split() == ["1"]

    def test_unstable_cell_is_a_nan_row(self, tmp_path):
        # collective geometry at a coarse step: the cell loses positivity,
        # and the sweep still finishes with a non-converged NaN row whose
        # reason is in the manifest
        cfg = ExperimentConfig(n_at=4, dt=0.099, t_max=50.0, grid_zc="0", grid_a="2pi")
        (cell,) = run_sweep(cfg)
        assert not cell.converged
        for value in (cell.var_x, cell.var_y, cell.purity, cell.mean_z, cell.t_converge):
            assert math.isnan(value)
        files = write_sweep_csv(str(tmp_path / "sweep.csv"), [cell], cfg)
        manifest = json.load(open(files[1], encoding="utf-8"))
        failed = manifest["failed"]
        assert failed["non_converged"] == 1
        # no solve finished, so there are no squarings or matvecs to aggregate
        assert manifest["converged_cells"] == 0
        assert manifest["squarings"] is None and manifest["matvecs"] is None
        (entry,) = failed["cells"]
        assert (entry["k0zc"], entry["k0a"]) == (0.0, 2 * math.pi)
        assert "smallest eigenvalue" in entry["error"] and "dt" in entry["error"]
        header = open(files[0], encoding="utf-8").readline().strip()
        assert header == "k0zc,k0a,var_x,var_y,purity,mean_z,t_converge,converged"

    def test_non_finite_cell_carries_its_reason(self, tmp_path):
        # at gamma 1e200 the residual overflows at t = 0: a NaN row with a reason
        cfg = ExperimentConfig(n_at=2, gamma=1e200, t_max=1.0, grid_zc="0", grid_a="pi/4")
        with np.errstate(all="ignore"):
            cells = run_sweep(cfg)
        files = write_sweep_csv(str(tmp_path / "sweep.csv"), cells, cfg)
        (entry,) = json.load(open(files[1], encoding="utf-8"))["failed"]["cells"]
        assert entry["error"] == ("residual inf at t = 0; "
                                  "the generator overflows (n_ph or gamma too large)")

    def test_csv_bytes_independent_of_blas_threads(self, tmp_path):
        # the reduced blocks change BLAS blocking with the thread count;
        # the 12-digit CSV must not notice.  The N = 3 blocks walk on one
        # thread either way; the N = 5 blocks (272 and 512 coordinates) are
        # above the one-thread threshold, so the second run walks them on two.
        # Given two CPUs, a third run puts the N = 5 cells in two workers,
        # which the pool's initializer sets to one thread each
        two_cpus = (os.cpu_count() or 1) >= 2
        for n_at, grid_zc, grid_a, rows in (("3", "0:pi:4", "0:pi:4", 16),
                                            ("5", "0,0.3", "pi/4,0.9", 4)):
            blobs = []
            runs = [("1", "1"), ("2", "1")] + [("2", "2")] * (n_at == "5" and two_cpus)
            for threads, workers in runs:
                out = tmp_path / f"sweep_{n_at}_{threads}_{workers}.csv"
                env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                           PYTHONPATH=os.pathsep.join(sys.path))
                subprocess.run([sys.executable, "-m", "darkdimers", "sweep", "--n-at", n_at,
                                "--grid-zc", grid_zc, "--grid-a", grid_a,
                                "--workers", workers, "--out", str(out)],
                               env=env, check=True, capture_output=True, timeout=300)
                blobs.append(out.read_bytes())
            assert len(set(blobs)) == 1
            assert len(blobs[0].splitlines()) == rows + 1

    def test_csv_schema_and_manifest(self, small_cfg, tmp_path):
        cells = run_sweep(small_cfg)
        path = str(tmp_path / "sweep.csv")
        files = write_sweep_csv(path, cells, small_cfg)
        lines = open(path, encoding="utf-8").read().splitlines()
        assert lines[0] == "k0zc,k0a,var_x,var_y,purity,mean_z,t_converge,converged"
        assert len(lines) == 10
        manifest = json.load(open(files[1], encoding="utf-8"))
        assert manifest["config"]["n_at"] == 2
        assert manifest["version"]
        assert manifest["columns"][0] == "k0zc"


# every float field and sweep grid, each with values that are no finite
# number; those read by parse_angle also with a zero divisor
_ANGLES = ("phi", "k0a", "k0zc", "grid_zc", "grid_a")
_FLOATS = [f.name for f in fields(ExperimentConfig) if f.type in (float, "float")]
_NON_FINITE = [(name, value) for name in _FLOATS + ["grid_zc", "grid_a"]
               for value in ("nan", "inf", "1e400") + (("pi/0",) if name in _ANGLES else ())]


class TestCli:
    def test_flags_are_the_config_fields(self):
        # every subcommand takes --config plus one flag per config field,
        # stored under the field name, and only its own extras besides
        flags = {"--" + f.name.replace("_", "-"): f.name for f in fields(ExperimentConfig)}
        extras = {"darkstate": {"--l"}, "populations": {"--law"}, "experiment": {"name"}}
        sub = next(a for a in _build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        assert set(sub.choices) == {"sweep", "evolve", "steady", "correlations",
                                    "darkstate", "populations", "experiment"}
        for command, parser in sub.choices.items():
            actions = [a for a in parser._actions
                       if not isinstance(a, argparse._HelpAction)]
            options = {s for a in actions for s in a.option_strings or [a.dest]}
            assert options == {"--config"} | set(flags) | extras.get(command, set())
            dests = {s: a.dest for a in actions for s in a.option_strings}
            assert {flag: dests[flag] for flag in flags} == flags

    def test_bad_flag_exits_2(self, capsys):
        assert main(["steady", "--n-ph=-1"]) == 2
        assert "n_ph" in capsys.readouterr().err
        assert main(["steady", "--n-at", "abc"]) == 2
        assert "bad value for n_at: 'abc'" in capsys.readouterr().err
        assert main(["sweep", "--n-at", "2", "--grid-a", "0:pi"]) == 2
        assert "must be 'lo:hi:n'" in capsys.readouterr().err

    def test_unknown_experiment_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["experiment", "fig9"])
        assert exc.value.code == 2

    def test_steady_exit_1_on_non_convergence(self, capsys):
        code = main(["steady", "--n-at", "2", "--t-max", "0.05"])
        assert code == 1
        assert "converged: False" in capsys.readouterr().out

    def test_evolve_exit_1_on_non_convergence_after_writing(self, tmp_path, capsys):
        out = tmp_path / "series.csv"
        assert main(["evolve", "--n-at", "2", "--t-max", "0.05", "--out", str(out)]) == 1
        assert out.exists() and out.with_suffix(".json").exists()

    def test_experiment_exit_1_on_non_convergence_after_writing(self, tmp_path, capsys):
        assert main(["experiment", "fig3", "--t-max", "1", "--out", str(tmp_path)]) == 1
        assert sorted(os.listdir(tmp_path)) == [
            f"fig3_{case}_correlations.{ext}"
            for case in ("dimer", "melted") for ext in ("csv", "json")]

    def test_cli_import_starts_no_process_pool_machinery(self):
        # a serial run never starts a pool, so it should not import one
        code = "import sys, darkdimers.cli; print('concurrent.futures.process' in sys.modules)"
        assert _fresh(code) == "False"

    # pytest has loaded numpy already, so the import checks run in a fresh interpreter
    def test_every_public_name_resolves_and_is_listed(self):
        # the package re-exports each module's __all__ with a star import, where
        # a name two modules export would silently shadow the other
        code = (
            "import darkdimers as d\n"
            "mods = [d.darkstates, d.dynamics, d.model, d.observables]\n"
            "assert d.__all__ == ['__version__', *(n for m in mods for n in m.__all__)]\n"
            "assert len(set(d.__all__)) == len(d.__all__) > 30\n"
            "print(all(getattr(d, n).__module__ == m.__name__ for m in mods for n in m.__all__))\n")
        assert _fresh(code) == "True"

    @pytest.mark.parametrize("module,user,expected", [
        ("darkdimers.cli", None, "4"), ("darkdimers.cli", "28", "28"),
        ("darkdimers", None, "4"), ("darkdimers", "28", "28"),
    ], ids=["None-4", "28-28", "package-None-4", "package-28-28"])
    def test_cli_import_sets_the_openblas_spin_timeout(self, module, user, expected):
        # OpenBLAS reads the variable when numpy loads it: print it at that import
        code = (
            "import os, sys\n"
            "class Spy:\n"
            "    def find_spec(self, name, path=None, target=None):\n"
            "        if name == 'numpy':\n"
            "            print(os.environ.get('OPENBLAS_THREAD_TIMEOUT'))\n"
            "sys.meta_path.insert(0, Spy())\n"
            f"import {module}\n"
            "print(os.environ['OPENBLAS_THREAD_TIMEOUT'])\n")
        assert _fresh(code, OPENBLAS_THREAD_TIMEOUT=user).split() == [expected, expected]

    def test_steady_beyond_six_atoms_exits_2(self, capsys):
        assert main(["steady", "--n-at", "7"]) == 2
        err = capsys.readouterr().err
        assert "n_at <= 6" in err and "n_at = 7" in err

    def test_sweep_beyond_six_atoms_exits_2_at_once(self, tmp_path, capsys):
        start = time.perf_counter()
        code = main(["sweep", "--n-at", "7", "--grid-zc", "0", "--grid-a", "pi/4",
                     "--out", str(tmp_path / "sweep.csv")])
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert "n_at <= 6" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["steady", "evolve"])
    def test_overflowing_solve_exits_1_with_its_reason(self, tmp_path, capsys, command):
        # the RK4 polynomial overflows: no NaN observables, no LinAlgError
        out = tmp_path / "out.csv"
        with np.errstate(all="ignore"):
            code = main([command, "--n-at", "2", "--n-ph", "1e100", "--t-max", "1",
                         "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 1 and "nan" not in captured.out
        assert captured.err.startswith("error: trace nan at t = 0.005;")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["correlations", "populations", "experiment"])
    def test_solve_commands_reject_seven_atoms(self, tmp_path, capsys, command):
        args = [command, "fig2"] if command == "experiment" else [command]
        code = main(args + ["--n-at", "7", "--out", str(tmp_path / "out")])
        assert code == 2 and "n_at <= 6" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_steady_out_writes_row_and_manifest(self, tmp_path):
        out = tmp_path / "steady.csv"
        code = main(["steady", "--n-at", "2", "--k0a", "pi/4", "--t-max", "500",
                     "--out", str(out)])
        assert code == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        header = "purity,mean_x,mean_y,mean_z,var_x,var_y,p0,p1,p2,t_converge,converged"
        assert lines[0] == header
        assert len(lines) == 2 and lines[1].endswith(",true")
        manifest = json.loads(out.with_suffix(".json").read_text(encoding="utf-8"))
        assert manifest["file"] == "steady.csv"
        assert manifest["columns"] == header.split(",")

    @pytest.mark.parametrize("command", ["evolve", "steady", "correlations",
                                         "populations", "sweep"])
    def test_out_directory_is_created(self, tmp_path, capsys, command):
        out = tmp_path / "new" / "nested" / f"{command}.csv"
        grid = ["--grid-zc", "0", "--grid-a", "pi/4"] if command == "sweep" else []
        code = main([command, "--n-at", "2", "--k0a", "pi/4", "--t-max", "500",
                     "--out", str(out), *grid])
        assert code == 0
        assert out.exists() and out.with_suffix(".json").exists()

    @pytest.mark.parametrize("field,value", _NON_FINITE)
    def test_non_finite_value_exits_2(self, capsys, field, value):
        code = main(["steady", "--n-at", "2", "--" + field.replace("_", "-"), value])
        err = capsys.readouterr().err
        assert code == 2 and field in err and "Traceback" not in err

    @pytest.mark.parametrize("command", ["evolve", "steady", "correlations",
                                         "populations", "sweep", "experiment"])
    def test_out_of_the_wrong_kind_exits_2_writing_nothing(self, tmp_path, capsys, command):
        # experiment writes into a directory, every other command one file
        out = tmp_path / "taken"
        if command == "experiment":
            out.write_text("kept\n", encoding="utf-8")
            args = ["experiment", "fig3"]
        else:
            out.mkdir()
            grid = ["--grid-zc", "0", "--grid-a", "pi/4"] if command == "sweep" else []
            args = [command, "--n-at", "2", "--k0a", "pi/4", "--t-max", "500", *grid]
        assert main([*args, "--out", str(out)]) == 2
        assert f"out {out} exists" in capsys.readouterr().err
        assert os.listdir(tmp_path) == ["taken"]
        if command == "experiment":
            assert out.read_text(encoding="utf-8") == "kept\n"
        else:
            assert os.listdir(out) == []

    def test_failed_write_exits_1_with_one_error_line(self, tmp_path, capsys, monkeypatch):
        def no_space(*_, **__):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(experiments.os, "makedirs", no_space)
        out = tmp_path / "new" / "steady.csv"
        code = main(["steady", "--n-at", "2", "--t-max", "0.05", "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1 and "Traceback" not in err
        assert err.splitlines() == ["error: [Errno 28] No space left on device"]
        assert os.listdir(tmp_path) == []

    def test_out_under_a_file_exits_2(self, tmp_path, capsys):
        (tmp_path / "file").write_text("kept\n", encoding="utf-8")
        out = tmp_path / "file" / "steady.csv"
        assert main(["steady", "--n-at", "2", "--t-max", "0.05", "--out", str(out)]) == 2
        assert "cannot create the directory of out" in capsys.readouterr().err

    def test_out_in_a_read_only_directory_exits_2(self, tmp_path, capsys, monkeypatch):
        # os.access stands in for permissions, which a superuser would not meet
        monkeypatch.setattr(os, "access", lambda path, mode: False)
        out = tmp_path / "new" / "steady.csv"
        assert main(["steady", "--n-at", "2", "--t-max", "0.05", "--out", str(out)]) == 2
        assert f"{tmp_path} is not a writable directory" in capsys.readouterr().err
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("suffix", [".json", ".JSON"])
    @pytest.mark.parametrize("command", ["steady", "evolve", "sweep"])
    def test_json_out_exits_2_writing_nothing(self, tmp_path, capsys, command, suffix):
        # the manifest goes to the out path with suffix .json, which would overwrite it
        out = tmp_path / "new" / f"x{suffix}"
        grid = ["--grid-zc", "0", "--grid-a", "pi/4"] if command == "sweep" else []
        code = main([command, "--n-at", "2", "--t-max", "150", "--out", str(out), *grid])
        assert code == 2
        assert f"out {out} ends in .json" in capsys.readouterr().err
        assert os.listdir(tmp_path) == []

    def test_steady_summary(self, capsys):
        code = main(["steady", "--n-at", "2", "--k0a", "pi/4", "--t-max", "500"])
        assert code == 0
        out = capsys.readouterr().out
        assert "purity:" in out and "converged: True" in out

    def test_sweep_command_writes_files(self, tmp_path, capsys):
        out = str(tmp_path / "sweep.csv")
        code = main(["sweep", "--n-at", "2", "--t-max", "150",
                     "--grid-zc", "0:pi/2:2", "--grid-a", "pi/4,pi/2",
                     "--out", out])
        assert code == 0
        assert os.path.exists(out)
        assert os.path.exists(out.replace(".csv", ".json"))

    def test_evolve_command_series_columns(self, tmp_path):
        out = str(tmp_path / "series.csv")
        code = main(["evolve", "--n-at", "2", "--t-max", "200", "--out", out])
        assert code == 0
        header = open(out, encoding="utf-8").readline().strip()
        assert header == "t,purity,mean_x,mean_y,mean_z,var_x,var_y,p0,p1,p2"

    def test_correlations_command(self, tmp_path):
        out = str(tmp_path / "corr.csv")
        code = main(["correlations", "--n-at", "2", "--t-max", "200", "--out", out])
        assert code == 0
        lines = open(out, encoding="utf-8").read().splitlines()
        assert lines[0] == "n,m,C"
        assert len(lines) == 5

    def test_darkstate_command(self, capsys):
        code = main(["darkstate", "--n-at", "4", "--k0a", "pi/4", "--k0zc", "pi/4"])
        assert code == 0
        out = capsys.readouterr().out
        assert "dimer_chain" in out and "annihilation" in out

    def test_darkstate_eight_atoms(self, capsys):
        k0zc = dimer_center(8, math.pi / 4)
        code = main(["darkstate", "--n-at", "8", "--k0a", "pi/4", "--k0zc", repr(k0zc)])
        assert code == 0
        assert "dimer_chain" in capsys.readouterr().out

    def test_darkstate_rejects_non_dark_geometry(self, capsys):
        code = main(["darkstate", "--n-at", "4", "--k0a", "pi/3", "--k0zc", "0"])
        assert code == 2
        assert "dark" in capsys.readouterr().err

    def test_darkstate_sector_out_of_range_exits_2(self, capsys):
        code = main(["darkstate", "--n-at", "4", "--k0a", "2pi", "--l", "9"])
        err = capsys.readouterr().err
        assert code == 2 and "l must be in 0..2, got 9" in err and "Traceback" not in err

    @pytest.mark.parametrize("n_at", [2, 4])
    @pytest.mark.parametrize("offset", [-1e-8, -1e-10, 1e-10, 1e-8])
    def test_darkstate_regime_at_the_melted_boundary(self, capsys, n_at, offset):
        # the CLI prints the state of the constructor that accepts the geometry
        k0a = math.pi + offset
        code = main(["darkstate", "--n-at", str(n_at), "--k0a", repr(k0a), "--k0zc", "0"])
        captured = capsys.readouterr()
        geo, bath = make_geometry(n_at, k0a, 0.0), make_bath(0.88)
        if n_at == 4 and abs(offset) > 1e-9:  # sin 4 k0a = 4e-8: no pair is centered
            assert code == 2 and "no stable dark state" in captured.err
            return
        assert code == 0
        if abs(offset) < 1e-9:
            assert "state: melted_dark(l=" in captured.out
            melted_dark(geo, bath, n_at // 2)
        else:
            assert "state: dimer_chain" in captured.out
            dimer_chain(geo, bath)

    @pytest.mark.parametrize("sector", [None, "2", "1", "9"])
    def test_darkstate_dimer_chain_has_one_sector(self, capsys, sector):
        # the dimer chain is the l = n_at/2 sector; any other --l is a config error
        args = ["darkstate", "--n-at", "4", "--k0a", "pi/4", "--k0zc", "pi/4"]
        code = main(args + (["--l", sector] if sector else []))
        captured = capsys.readouterr()
        if sector in (None, "2"):
            assert code == 0 and captured.out.startswith("state: dimer_chain\n")
        else:
            assert code == 2 and captured.out == ""
            assert f"dimer chain has only sector l = 2, got l = {sector}" in captured.err

    def test_darkstate_rejects_vacuum_bath(self, capsys):
        code = main(["darkstate", "--n-at", "2", "--k0a", "pi/4", "--n-ph", "0"])
        assert code == 2
        assert "n_ph" in capsys.readouterr().err

    def test_darkstate_melted_cross_check(self, capsys):
        code = main(["darkstate", "--n-at", "4", "--k0a", "2pi", "--k0zc", "0"])
        assert code == 0
        out = capsys.readouterr().out
        assert "melted_dark" in out and "cross-check fidelity" in out

    @pytest.mark.parametrize("args,out_name,fragment", [
        (["populations", "--n-at", "3", "--law", "squeezed"], "p.csv",
         "squeezed law needs an even atom number, got 3"),
        (["populations", "--n-at", "2", "--n-ph", "0", "--law", "squeezed"], "p.csv",
         "squeezed law needs a squeezed bath"),
        (["experiment", "fig5", "--n-ph", "0"], "fig5", "squeezed law needs a squeezed bath"),
        # the directories of out appear with its first file, so none is left
        (["populations", "--n-at", "3", "--law", "squeezed"], "new/sub/p.csv",
         "squeezed law needs an even atom number, got 3"),
        (["experiment", "fig5", "--n-ph", "0"], "new/sub/figs",
         "squeezed law needs a squeezed bath"),
    ], ids=["odd-n-at", "vacuum", "fig5-vacuum", "odd-n-at-new-dirs", "fig5-vacuum-new-dirs"])
    def test_law_that_cannot_apply_exits_2_before_any_solve(self, tmp_path, capsys,
                                                             monkeypatch, args, out_name,
                                                             fragment):
        def no_solve(*_, **__):
            raise AssertionError("solved before the population law was checked")

        monkeypatch.setattr(experiments, "solve", no_solve)
        assert main([*args, "--out", str(tmp_path / out_name)]) == 2
        captured = capsys.readouterr()
        assert fragment in captured.err and "Traceback" not in captured.err
        assert captured.out == "" and os.listdir(tmp_path) == []

    def test_populations_with_law(self, capsys):
        code = main(["populations", "--n-at", "2", "--k0a", "pi/4",
                     "--t-max", "500", "--law", "dimer"])
        assert code == 0
        out = capsys.readouterr().out
        assert "P(0)" in out and "dimer:" in out

    def test_squeezed_law_at_a_tiny_n_ph(self, capsys):
        # the law's weight x^{(n_e - l)/2} overflowed at n_e = 0: an escaping OverflowError
        code = main(["populations", "--n-at", "6", "--k0a", "2pi", "--law", "squeezed",
                     "--n-ph", "1e-300"])
        assert code == 0
        assert capsys.readouterr().out.splitlines()[0] == "P(0) = 1   squeezed: 1"

    def test_config_file_flow(self, tmp_path, capsys):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("n-at = 2\nt-max = 150\nk0a = pi/4\n", encoding="utf-8")
        code = main(["steady", "--config", str(cfg_file)])
        assert code == 0
