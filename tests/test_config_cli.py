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
from darkdimers.experiments import dimer_center, run_sweep, write_sweep_csv
from darkdimers.observables import polarization_moments


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

    def test_unknown_key(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("n_atoms = 4\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="n_atoms"):
            load_config_file(str(path))

    @pytest.mark.parametrize(
        "field,value,fragment",
        [("n_ph", "-1", "n_ph"), ("n_at", "0", "n_at"), ("dt", "0.5", "dt"),
         ("workers", "0", "workers"), ("tol", "0", "tol"),
         ("initial", "no-such-file", "initial")],
    )
    def test_range_errors_name_the_field(self, field, value, fragment):
        with pytest.raises(ConfigError, match=fragment):
            resolve_config(flag_values={field: value})

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
        mom = polarization_moments(psi, 4)
        assert mom.mean_x == pytest.approx(mom.mean_y, abs=1e-12)
        assert mom.mean_x == pytest.approx(4 * 0.5 * math.cos(math.pi / 4), abs=1e-12)
        assert mom.mean_z == pytest.approx(0.0, abs=1e-12)

    def test_state_file_roundtrip(self, tmp_path):
        path = tmp_path / "state.txt"
        amps = (np.arange(4) + 1).astype(complex) * (0.5 + 0.25j)
        path.write_text("\n".join(str(a) for a in amps), encoding="utf-8")
        cfg = ExperimentConfig(n_at=2, initial=str(path))
        psi = initial_state_vector(cfg)
        assert_allclose(psi, amps / np.linalg.norm(amps), atol=1e-15)

    def test_state_file_wrong_length(self, tmp_path):
        path = tmp_path / "state.txt"
        path.write_text("1\n0\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="amplitudes"):
            initial_state_vector(ExperimentConfig(n_at=2, initial=str(path)))


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
        failed = json.load(open(files[1], encoding="utf-8"))["failed"]
        assert failed["non_converged"] == 1
        (entry,) = failed["cells"]
        assert (entry["k0zc"], entry["k0a"]) == (0.0, 2 * math.pi)
        assert "smallest eigenvalue" in entry["error"] and "dt" in entry["error"]
        header = open(files[0], encoding="utf-8").readline().strip()
        assert header == "k0zc,k0a,var_x,var_y,purity,mean_z,t_converge,converged"

    def test_csv_bytes_independent_of_blas_threads(self, tmp_path):
        # the reduced blocks change BLAS blocking with the thread count;
        # the 12-digit CSV must not notice
        blobs = []
        for threads in ("1", "2"):
            out = tmp_path / f"sweep_{threads}.csv"
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join(sys.path))
            subprocess.run([sys.executable, "-m", "darkdimers", "sweep", "--n-at", "3",
                            "--grid-zc", "0:pi:4", "--grid-a", "0:pi:4", "--out", str(out)],
                           env=env, check=True, capture_output=True, timeout=300)
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1]
        assert len(blobs[0].splitlines()) == 17

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
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True, timeout=60)
        assert out.stdout.strip() == "False"

    def test_steady_beyond_six_atoms_exits_1(self, capsys):
        assert main(["steady", "--n-at", "7"]) == 1
        err = capsys.readouterr().err
        assert "n_at <= 6" in err and "n_at = 7" in err

    def test_sweep_beyond_six_atoms_exits_1_at_once(self, tmp_path, capsys):
        start = time.perf_counter()
        code = main(["sweep", "--n-at", "7", "--grid-zc", "0", "--grid-a", "pi/4",
                     "--out", str(tmp_path / "sweep.csv")])
        assert time.perf_counter() - start < 1.0
        assert code == 1
        assert "n_at <= 6" in capsys.readouterr().err

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

    def test_darkstate_rejects_vacuum_bath(self, capsys):
        code = main(["darkstate", "--n-at", "2", "--k0a", "pi/4", "--n-ph", "0"])
        assert code == 2
        assert "n_ph" in capsys.readouterr().err

    def test_darkstate_melted_cross_check(self, capsys):
        code = main(["darkstate", "--n-at", "4", "--k0a", "2pi", "--k0zc", "0"])
        assert code == 0
        out = capsys.readouterr().out
        assert "melted_dark" in out and "cross-check fidelity" in out

    def test_populations_with_law(self, capsys):
        code = main(["populations", "--n-at", "2", "--k0a", "pi/4",
                     "--t-max", "500", "--law", "dimer"])
        assert code == 0
        out = capsys.readouterr().out
        assert "P(0)" in out and "dimer:" in out

    def test_config_file_flow(self, tmp_path, capsys):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("n-at = 2\nt-max = 150\nk0a = pi/4\n", encoding="utf-8")
        code = main(["steady", "--config", str(cfg_file)])
        assert code == 0
