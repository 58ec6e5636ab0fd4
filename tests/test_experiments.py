"""End-to-end checks of the named experiment presets and their files."""

import csv
import json
import math
import os

import numpy as np
import pytest

from darkdimers.cli import main
from darkdimers.config import ExperimentConfig
from darkdimers.experiments import (
    dimer_center,
    run_experiment,
    series_columns,
)
from reference_outputs import PRESET_CFG, REFERENCE_DIR, mismatches, write_sweep


def read_csv(path):
    with open(path, encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    header = rows[0]
    data = {
        name: np.array(
            [float("nan") if v == "nan" else float(v.replace("true", "1").replace("false", "0"))
             for v in col]
        )
        for name, col in zip(header, zip(*rows[1:]))
    }
    return header, data


def convergence_time(times, purity, tol=1e-3):
    """First time after which purity stays within tol of its final value."""
    final = purity[-1]
    inside = np.abs(purity - final) <= tol
    idx = len(purity) - 1
    while idx > 0 and inside[idx - 1]:
        idx -= 1
    return times[idx]


class TestDimerCenter:
    @pytest.mark.parametrize("n_at,expected", [(2, 0.0), (4, math.pi / 4), (6, 0.0)])
    def test_quarter_pi_chain(self, n_at, expected):
        assert dimer_center(n_at, math.pi / 4) == pytest.approx(expected, abs=1e-12)


def test_unknown_experiment_rejected(tmp_path):
    with pytest.raises(ValueError, match="unknown experiment"):
        run_experiment("fig7", ExperimentConfig(), str(tmp_path))


def test_fig2_files_and_schema(tmp_path):
    cfg = ExperimentConfig(n_at=2, t_max=150.0, grid_zc="0:pi/2:3", grid_a="pi/4,pi/2")
    files, converged = run_experiment("fig2", cfg, str(tmp_path))
    assert converged is True  # a sweep reports its cells in its manifest
    csv_path = os.path.join(str(tmp_path), "fig2_sweep.csv")
    assert csv_path in files
    header, data = read_csv(csv_path)
    assert header == ["k0zc", "k0a", "var_x", "var_y", "purity", "mean_z",
                      "t_converge", "converged"]
    assert len(data["k0zc"]) == 6
    manifest = json.load(open(csv_path.replace(".csv", ".json"), encoding="utf-8"))
    assert manifest["experiment"] == "fig2"
    assert manifest["config"]["n_at"] == 2
    assert manifest["version"]


@pytest.fixture(scope="module")
def fig3_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("fig3")
    run_experiment("fig3", PRESET_CFG, str(path))
    return str(path)


@pytest.fixture(scope="module")
def fig4_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("fig4")
    run_experiment("fig4", PRESET_CFG, str(path))
    return str(path)


@pytest.fixture(scope="module")
def fig5_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("fig5")
    run_experiment("fig5", PRESET_CFG, str(path))
    return str(path)


class TestFig3:
    def test_dimer_block_diagonal(self, fig3_dir):
        _, data = read_csv(os.path.join(fig3_dir, "fig3_dimer_correlations.csv"))
        assert len(data["C"]) == 36
        for n, m, c in zip(data["n"], data["m"], data["C"]):
            n, m = int(n), int(m)
            if n == m:
                assert c == pytest.approx(0.25, abs=1e-12)
            elif (n - 1) // 2 == (m - 1) // 2:
                assert abs(c) == pytest.approx(0.233014, abs=2e-3)
            else:
                assert abs(c) <= 1e-3

    def test_melted_long_range(self, fig3_dir):
        _, data = read_csv(os.path.join(fig3_dir, "fig3_melted_correlations.csv"))
        off = [c for n, m, c in zip(data["n"], data["m"], data["C"]) if n != m]
        assert all(abs(c) >= 0.01 for c in off)

    def test_manifests_record_cases(self, fig3_dir):
        for tag in ("dimer", "melted"):
            manifest = json.load(
                open(os.path.join(fig3_dir, f"fig3_{tag}_correlations.json"),
                     encoding="utf-8")
            )
            assert manifest["case"] == tag
            assert manifest["converged"] is True
            # the chain reflection, plus same-sublattice swaps when melted
            reduced = {"dimer": 1056, "melted": 110}[tag]
            assert manifest["stats"]["blocks"] == [{"full": 2048, "reduced": reduced}]
            assert [6, 5, 4, 3, 2, 1] in manifest["stats"]["symmetries"]


class TestFig4:
    def test_all_series_written(self, fig4_dir):
        for tag in ("dimer", "melted"):
            for n_at in (2, 4, 6):
                path = os.path.join(fig4_dir, f"fig4_{tag}_n{n_at}_series.csv")
                header, data = read_csv(path)
                assert header == series_columns(n_at)
                assert np.all(np.diff(data["t"]) > 0)
                assert data["purity"][-1] == pytest.approx(1.0, abs=1e-3)

    def test_selforganization_time_grows_with_size(self, fig4_dir):
        t_conv = {}
        for tag in ("dimer", "melted"):
            for n_at in (2, 4, 6):
                _, data = read_csv(
                    os.path.join(fig4_dir, f"fig4_{tag}_n{n_at}_series.csv")
                )
                t_conv[(tag, n_at)] = convergence_time(data["t"], data["purity"])
        assert t_conv[("dimer", 2)] < t_conv[("dimer", 4)] < t_conv[("dimer", 6)]
        assert t_conv[("melted", 6)] < t_conv[("dimer", 6)]


class TestFig5:
    @pytest.mark.parametrize("tag", ["thermal", "squeezed", "dimer"])
    def test_populations_match_laws(self, fig5_dir, tag):
        _, data = read_csv(os.path.join(fig5_dir, f"fig5_{tag}_populations.csv"))
        assert np.max(np.abs(data["p_steady"] - data["p_predicted"])) <= 1e-3
        assert data["p_steady"].sum() == pytest.approx(1.0, abs=1e-6)

    def test_squeezed_even_excitations_only(self, fig5_dir):
        _, data = read_csv(os.path.join(fig5_dir, "fig5_squeezed_populations.csv"))
        odd = data["p_steady"][1::2]
        assert np.max(odd) <= 1e-6

    def test_polarizations_start_equal_and_decay_asymmetrically(self, fig5_dir):
        _, data = read_csv(os.path.join(fig5_dir, "fig5_squeezed_series.csv"))
        sx, sy, t = data["mean_x"], data["mean_y"], data["t"]
        assert sx[0] == pytest.approx(sy[0], abs=1e-9)
        assert sx[0] == pytest.approx(6 * 0.5 * math.cos(math.pi / 4), abs=1e-9)
        # phase-sensitive decay: once one quadrature has lost half its
        # polarization the other must clearly lag (or lead)
        half = np.argmax(np.abs(sx) <= 0.5 * abs(sx[0]))
        assert abs(sx[half] - sy[half]) > 0.1
        # both polarizations vanish in the steady state
        assert abs(sx[-1]) <= 1e-6 and abs(sy[-1]) <= 1e-6

    def test_thermal_walks_the_permutation_invariant_sector(self, fig5_dir):
        # identical atoms from a product start: C(6 + 3, 3) = 84 coordinates
        manifest = json.load(open(os.path.join(fig5_dir, "fig5_thermal_series.json"),
                                  encoding="utf-8"))
        stats = manifest["stats"]
        assert len(stats["symmetries"]) == 16
        assert stats["blocks"] == [{"full": 2048, "reduced": 44},
                                   {"full": 2048, "reduced": 40}]
        _, data = read_csv(os.path.join(fig5_dir, "fig5_thermal_series.csv"))
        assert stats["visited_points"] == len(data["t"])
        # the visit stride is dt = 0.002 doubled nine times; the propagator's
        # stride doubled at the first `squarings` of those, and both blocks
        # take tau / tau_P propagator steps per visit at stride tau
        assert stats["stride"] == 0.002 * 2**9
        taus = np.diff(data["t"])
        hops = np.rint(taus / np.minimum(taus, 0.002 * 2 ** stats["squarings"]))
        assert stats["matvecs"] == 2 * hops.sum()

    def test_thermal_polarizations_decay_together(self, fig5_dir):
        _, data = read_csv(os.path.join(fig5_dir, "fig5_thermal_series.csv"))
        sx, sy = data["mean_x"], data["mean_y"]
        # unbiased quadratures: the two means stay equal while decaying
        assert np.max(np.abs(sx - sy)) <= 1e-6


def read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


def read_manifest(path):
    with open(os.path.splitext(path)[0] + ".json", encoding="utf-8") as fh:
        return json.load(fh)


SOLVE_RECORD = {"converged", "t_converge", "stats"}
FIG5_THERMAL = ["--n-at", "6", "--k0a", "2pi", "--k0zc", "pi/4", "--initial", "plus-pi-4",
                "--dt", "0.002"]


class TestPresetsAreCommands:
    def test_fig3_melted_is_correlations(self, fig3_dir, tmp_path):
        out = str(tmp_path / "corr.csv")
        assert main(["correlations", "--n-at", "6", "--k0a", "pi", "--k0zc", "0",
                     "--dt", "0.002", "--out", out]) == 0
        assert read_bytes(out) == read_bytes(
            os.path.join(fig3_dir, "fig3_melted_correlations.csv"))

    def test_fig5_thermal_is_evolve_and_populations(self, fig5_dir, tmp_path):
        series, pops = str(tmp_path / "series.csv"), str(tmp_path / "pops.csv")
        assert main(["evolve", *FIG5_THERMAL, "--out", series]) == 0
        assert main(["populations", *FIG5_THERMAL, "--law", "thermal", "--out", pops]) == 0
        assert read_bytes(series) == read_bytes(
            os.path.join(fig5_dir, "fig5_thermal_series.csv"))
        assert read_bytes(pops) == read_bytes(
            os.path.join(fig5_dir, "fig5_thermal_populations.csv"))
        assert read_manifest(pops)["law"] == "thermal"


class TestSolveRecord:
    def test_command_manifests(self, tmp_path):
        geometry = ["--n-at", "2", "--k0a", "pi/4", "--t-max", "500"]
        series = str(tmp_path / "series.csv")
        assert main(["evolve", *geometry, "--out", series]) == 0
        assert main(["correlations", *geometry, "--out", str(tmp_path / "c.csv")]) == 0
        assert main(["populations", *geometry, "--out", str(tmp_path / "p.csv")]) == 0
        assert main(["steady", *geometry, "--out", str(tmp_path / "s.csv")]) == 0
        records = [read_manifest(str(tmp_path / name))
                   for name in ("series.csv", "c.csv", "p.csv", "s.csv")]
        for manifest in records:
            assert SOLVE_RECORD <= set(manifest)
            assert manifest["converged"] is True
        _, data = read_csv(series)
        assert records[0]["stats"]["visited_points"] == len(data["t"])
        # the four commands make the same solve
        for manifest in records[1:]:
            assert all(manifest[k] == records[0][k] for k in SOLVE_RECORD)

    def test_steady_prints_what_it_writes(self, tmp_path, capsys):
        out = str(tmp_path / "steady.csv")
        assert main(["steady", "--n-at", "2", "--t-max", "500", "--out", out]) == 0
        printed = dict(line.split(": ") for line in capsys.readouterr().out.splitlines())
        _, data = read_csv(out)
        assert printed.pop("converged") == "True" and data["converged"][0] == 1
        assert printed.pop("residual")  # not a column
        assert printed.pop("purity") == f"{data['purity'][0]:.12g}"
        for label, columns in (("t_converge", ["t_converge"]),
                               ("mean_x/y/z", ["mean_x", "mean_y", "mean_z"]),
                               ("var_x/y", ["var_x", "var_y"]),
                               ("populations", ["p0", "p1", "p2"])):
            assert printed.pop(label) == " ".join(f"{data[c][0]:.6g}" for c in columns)
        assert printed == {}

    def test_populations_prints_what_it_writes(self, tmp_path, capsys):
        out = str(tmp_path / "pops.csv")
        assert main(["populations", "--n-at", "2", "--k0a", "pi/4", "--t-max", "500",
                     "--law", "dimer", "--out", out]) == 0
        _, data = read_csv(out)
        assert capsys.readouterr().out.splitlines() == [
            f"P({ne:.0f}) = {pop:.6g}   dimer: {law:.6g}"
            for ne, pop, law in zip(data["n_e"], data["p_steady"], data["p_predicted"])]

    @pytest.mark.parametrize("preset", ["fig3_dir", "fig4_dir", "fig5_dir"])
    def test_preset_manifests(self, preset, request):
        outdir = request.getfixturevalue(preset)
        manifests = sorted(name for name in os.listdir(outdir) if name.endswith(".json"))
        assert manifests
        for name in manifests:
            manifest = read_manifest(os.path.join(outdir, name))
            assert SOLVE_RECORD <= set(manifest), name
            stem = name.rsplit("_", 1)[0]
            series = os.path.join(outdir, stem + "_series.csv")
            if os.path.exists(series):
                _, data = read_csv(series)
                assert manifest["stats"]["visited_points"] == len(data["t"]), name


@pytest.fixture(scope="module")
def sweep_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("sweep")
    write_sweep(str(path))
    return str(path)


class TestReferenceOutputs:
    """Every pinned file is written again, and matches its reference in
    tests/reference/ (see reference_outputs.py for the rule)."""

    @pytest.mark.parametrize("name", sorted(os.listdir(REFERENCE_DIR)))
    def test_matches_reference(self, name, request):
        outdir = request.getfixturevalue(name.split("_", 1)[0] + "_dir")
        assert mismatches(os.path.join(outdir, name), os.path.join(REFERENCE_DIR, name)) == []

    def test_pins_every_file_the_fixtures_write(self, fig3_dir, fig4_dir, fig5_dir,
                                                sweep_dir):
        written = [n for d in (fig3_dir, fig4_dir, fig5_dir, sweep_dir) for n in os.listdir(d)]
        assert sorted(written) == sorted(os.listdir(REFERENCE_DIR))

    def test_a_moved_field_fails(self, fig3_dir, tmp_path):
        # a relative move of 1e-8 in one correlation is caught, 1e-12 is not
        name = "fig3_dimer_correlations.csv"
        rows = open(os.path.join(fig3_dir, name), encoding="utf-8").read().splitlines()
        n, m, c = rows[2].split(",")
        for rel, caught in ((1e-8, True), (1e-12, False)):
            rows[2] = f"{n},{m},{float(c) * (1 + rel):.17g}"
            path = tmp_path / name
            path.write_text("\n".join(rows) + "\n", encoding="utf-8")
            assert bool(mismatches(str(path), os.path.join(REFERENCE_DIR, name))) == caught
