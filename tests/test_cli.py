"""Command-line interface: subcommands, exit codes, environment handling."""

import importlib
import json
import math
import os
import pathlib
import shutil
import subprocess
import sys
from dataclasses import replace

import pytest

from artifact_readers import read_ledger_csv
from stdd import _apply_thread_cap
from stdd.cli import EXIT_CONFIG, EXIT_IO, EXIT_NONCONVERGENCE, EXIT_OK, main
from stdd.config import preset
from stdd.errors import SingularMatrix
from stdd.run import compare, run

run_module = importlib.import_module("stdd.run")
SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


def test_stdd_run_names_the_module():
    import stdd.run as driver
    assert driver is run_module


@pytest.fixture(scope="module")
def toy_run(tmp_path_factory):
    """One completed toy simulation shared by the read-only CLI tests."""
    out = tmp_path_factory.mktemp("toyrun")
    rc = main(["simulate", "--config", "preset:toy", "--out", str(out)])
    assert rc == EXIT_OK
    return out


class TestSimulate:
    def test_artifacts_written(self, toy_run):
        for name in ("config.json", "run_summary.json", "curves.csv",
                     "ledger.csv", "perm_kx.csv", "snap_sw_000.csv",
                     "snap_000.vtk"):
            assert (toy_run / name).exists(), name

    def test_mode_override(self, tmp_path, capsys):
        out = tmp_path / "coarse"
        rc = main(["simulate", "--config", "preset:toy",
                   "--mode", "uniform-coarse", "--out", str(out)])
        assert rc == EXIT_OK
        summary = json.loads((out / "run_summary.json").read_text())
        assert summary["mode"] == "uniform-coarse"

    def test_emit_fine_levels(self, tmp_path):
        out = tmp_path / "fine"
        rc = main(["simulate", "--config", "preset:toy",
                   "--mode", "uniform-coarse", "--emit-fine-levels",
                   "--out", str(out)])
        assert rc == EXIT_OK
        assert any(p.name.startswith("fine_sw_") for p in out.iterdir())

    def test_config_file_input(self, tmp_path):
        cfg = preset("toy")
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg.to_dict()))
        out = tmp_path / "run"
        assert main(["simulate", "--config", str(path), "--mode",
                     "uniform-coarse", "--out", str(out)]) == EXIT_OK

    def test_unknown_preset_is_config_error(self, tmp_path, capsys):
        rc = main(["simulate", "--config", "preset:nope",
                   "--out", str(tmp_path)])
        assert rc == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    def test_bad_config_file_is_config_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"mode": "warp-drive"}')
        assert main(["simulate", "--config", str(path),
                     "--out", str(tmp_path / "o")]) == EXIT_CONFIG

    def test_missing_config_file_is_io_error(self, tmp_path):
        assert main(["simulate", "--config", str(tmp_path / "none.json"),
                     "--out", str(tmp_path / "o")]) == EXIT_IO

    def test_nonconvergence_exit_code(self, tmp_path):
        cfg = preset("toy")
        cfg.newton["max_iters"] = 1
        path = tmp_path / "hard.json"
        path.write_text(json.dumps(cfg.to_dict()))
        out = tmp_path / "o"
        rc = main(["simulate", "--config", str(path), "--out", str(out)])
        assert rc == EXIT_NONCONVERGENCE
        assert (out / "FAILED").exists()


class TestExitCodes:
    """Toy configs with one top-level key replaced, and their exit codes."""

    CASES = [
        ("runs", {"mode": "uniform-coarse"}, EXIT_OK),
        ("unknown fluid key", {"fluid": {"bogus": 1}}, EXIT_CONFIG),
        ("invalid relcap", {"relcap": {"s_or": 0.9}}, EXIT_CONFIG),
        ("unknown threshold", {"thresholds": {"theta": 0.1}}, EXIT_CONFIG),
        ("newton typo", {"newton": {"max_iter": 1}}, EXIT_CONFIG),
        ("newton damping", {"newton": {"damping": True}}, EXIT_CONFIG),
        ("capillarity switch", {"use_capillarity": False}, EXIT_CONFIG),
        ("upscaling method", {"upscaling": "flow"}, EXIT_CONFIG),
        ("newton max_ds", {"newton": {"max_ds": 0.2}}, EXIT_CONFIG),
        ("NaN viscosity", {"fluid": {"mu_w": math.nan}}, EXIT_CONFIG),
        ("zero pc floor", {"relcap": {"eps_s": 0.0}}, EXIT_CONFIG),
        ("infinite relperm exponent", {"relcap": {"n_w": math.inf}},
         EXIT_CONFIG),
        ("water exponent below 1", {"relcap": {"n_w": 0.5}}, EXIT_CONFIG),
        ("oil exponent below 1", {"relcap": {"n_o": 0.5}}, EXIT_CONFIG),
        ("NaN injection rate",
         {"wells": [{"tile": [0, 0], "kind": "rate-water-injector",
                     "value": math.nan},
                    {"tile": [7, 1], "kind": "bhp-producer",
                     "value": 1000.0}]}, EXIT_CONFIG),
        ("infinite well radius",
         {"wells": [{"tile": [0, 0], "kind": "rate-water-injector",
                     "value": 0.1, "r_w": math.inf},
                    {"tile": [7, 1], "kind": "bhp-producer",
                     "value": 1000.0}]}, EXIT_CONFIG),
        ("fractional well tile",
         {"wells": [{"tile": [0.5, 0], "kind": "rate-water-injector",
                     "value": 0.1},
                    {"tile": [7, 1], "kind": "bhp-producer",
                     "value": 1000.0}]}, EXIT_CONFIG),
        ("boolean well tile",
         {"wells": [{"tile": [True, 0], "kind": "rate-water-injector",
                     "value": 0.1},
                    {"tile": [7, 1], "kind": "bhp-producer",
                     "value": 1000.0}]}, EXIT_CONFIG),
        ("NaN channel width",
         {"permeability": {"kind": "channelized", "seed": 7,
                           "width": math.nan}}, EXIT_CONFIG),
        ("unknown permeability key",
         {"permeability": {"kind": "gaussian", "bogus": 1}}, EXIT_CONFIG),
        ("horizon not whole windows", {"horizon": 9.0}, EXIT_CONFIG),
        ("inverted static fine box", {"static_fine_box": [25, 0, 0, 30]},
         EXIT_CONFIG),
        ("static fine box holding no tile centre",
         {"mode": "static-dd", "static_fine_box": [200, 0, 300, 30]},
         EXIT_CONFIG),
        ("removed mobility_model key", {"mobility_model": "constant"},
         EXIT_CONFIG),
        ("three-number reservoir", {"reservoir": [0, 0, 10]}, EXIT_CONFIG),
        ("well without kind",
         {"wells": [{"tile": [0, 0], "value": 0.1}]}, EXIT_CONFIG),
        ("zero base cell", {"base_cell": [0, 0.5]}, EXIT_CONFIG),
        ("table not a mapping", {"table": [1, 2, 3, 4]}, EXIT_CONFIG),
        ("zero thickness", {"dz": 0}, EXIT_CONFIG),
        ("two-number table row",
         {"table": {"1": [0.5, 0.5], "2": [0.5, 0.5, 2.0],
                    "3": [2.5, 2.5, 0.5], "4": [2.5, 2.5, 2.0]}},
         EXIT_CONFIG),
        ("well radius too large for its tile",
         {"wells": [{"tile": [0, 0], "kind": "rate-water-injector",
                     "value": 0.1},
                    {"tile": [7, 1], "kind": "bhp-producer",
                     "value": 1000.0, "r_w": 1.0}]}, EXIT_CONFIG),
        ("fractional newton budget", {"newton": {"max_iters": 2.5}},
         EXIT_CONFIG),
        ("newton budget too small",
         {"mode": "uniform-coarse", "newton": {"max_iters": 1}},
         EXIT_NONCONVERGENCE),
        ("non-number permeability",
         {"permeability": {"kind": "uniform", "value": "x"}}, EXIT_CONFIG),
        ("negative permeability",
         {"permeability": {"kind": "uniform", "value": -1}}, EXIT_CONFIG),
        ("non-number initial pressure", {"initial_pressure": "x"},
         EXIT_CONFIG),
        ("non-number threshold", {"thresholds": {"theta_ds": "x"}},
         EXIT_CONFIG),
        ("permeability file with a negative value",
         {"permeability": {"kind": "file", "kx_path": "negative.txt"}},
         EXIT_CONFIG),
        ("permeability file of the wrong size",
         {"permeability": {"kind": "file", "kx_path": "short.txt"}},
         EXIT_CONFIG),
        ("missing permeability file",
         {"permeability": {"kind": "file", "kx_path": "missing.txt"}},
         EXIT_IO),
    ]
    # the permeability files that the cases name, for the toy's 40x10
    # base cells
    FILES = {"negative.txt": "-1 " + "100 " * 399, "short.txt": "100 " * 399}

    @pytest.mark.parametrize("override, code", [c[1:] for c in CASES],
                             ids=[c[0] for c in CASES])
    def test_exit_code(self, tmp_path, monkeypatch, override, code):
        monkeypatch.chdir(tmp_path)
        for name, text in self.FILES.items():
            (tmp_path / name).write_text(text)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({**preset("toy").to_dict(), **override}))
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(path),
                     "--out", str(out)]) == code
        # no output directory unless the run started: a config error
        # stops before anything is assembled or written, and so does a
        # permeability file that cannot be read
        assert out.exists() == (code in (EXIT_OK, EXIT_NONCONVERGENCE))
        assert (out / "FAILED").exists() == (code == EXIT_NONCONVERGENCE)

    def test_static_override_of_an_empty_box_exits_2(self, tmp_path):
        """A box that no other mode reads is checked when `--mode`
        selects static-dd, before any output."""
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({**preset("toy").to_dict(),
                                    "static_fine_box": [200, 0, 300, 30]}))
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(path), "--mode",
                     "static-dd", "--out", str(out)]) == EXIT_CONFIG
        assert not out.exists()

    def test_any_solver_error_leaves_ledger_and_marker(self, tmp_path,
                                                       monkeypatch):
        real = run_module.newton_solve_window
        calls = []

        def fail_window_1(*args, **kwargs):
            calls.append(None)
            if len(calls) == 2:     # uniform-coarse: one solve a window
                raise SingularMatrix("injected")
            return real(*args, **kwargs)

        monkeypatch.setattr(run_module, "newton_solve_window",
                            fail_window_1)
        cfg = replace(preset("toy"), mode="uniform-coarse")
        with pytest.raises(SingularMatrix):
            run(cfg, tmp_path, emit_vtk=False)
        assert "injected" in (tmp_path / "FAILED").read_text()
        assert {row[0] for row in read_ledger_csv(tmp_path / "ledger.csv")} \
            == {0}


# (kind, parameter, a value out of its range) of a field generator; each
# built a field and ran before the ranges were checked
OUT_OF_RANGE = [
    ("channelized", "width", -1), ("channelized", "width", 0),
    ("channelized", "n_channels", -2), ("channelized", "wiggle", -1),
    ("gaussian", "corr_len", -2), ("gaussian", "corr_len", 0),
    ("gaussian", "sigma_log", -1)]

# The toy preset's grid and wells, one uniform-coarse window
TOY_INI = """\
[run]
reservoir = 0 0 20 5
horizon = 2
delta_t = 2
mode = uniform-coarse

[table]
1 = 0.5 0.5 0.5
2 = 0.5 0.5 2.0
3 = 2.5 2.5 0.5
4 = 2.5 2.5 2.0

[well.injector]
tile = 0 0
kind = rate-water-injector
value = 0.1

[well.producer]
tile = 7 1
kind = bhp-producer
value = 1000
"""


class TestGeneratorRanges:
    """A field generator's `width` and `corr_len` must be positive, its
    `n_channels`, `sigma_log` and `wiggle` not negative: anything else is
    a config error, exit 2 before any output, in JSON and in INI."""

    CASES = pytest.mark.parametrize(
        "kind, key, value", OUT_OF_RANGE,
        ids=[f"{k}-{p}={v}" for k, p, v in OUT_OF_RANGE])

    @staticmethod
    def simulate(tmp_path, path):
        out = tmp_path / "out"
        rc = main(["simulate", "--config", str(path), "--out", str(out)])
        return rc, out.exists()

    @CASES
    def test_json(self, tmp_path, kind, key, value):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            **replace(preset("toy"), mode="uniform-coarse",
                      horizon=2.0).to_dict(),
            "permeability": {"kind": kind, "seed": 7, key: value}}))
        assert self.simulate(tmp_path, path) == (EXIT_CONFIG, False)

    @CASES
    def test_ini(self, tmp_path, kind, key, value):
        path = tmp_path / "cfg.ini"
        path.write_text(TOY_INI + f"\n[permeability]\nkind = {kind}\n"
                        f"seed = 7\n{key} = {value}\n")
        assert self.simulate(tmp_path, path) == (EXIT_CONFIG, False)

    # builds finite and positive on an 8x8 grid, but overflows on the
    # toy's 40x10 base grid
    OVERFLOW = {"kind": "gaussian", "seed": 7, "sigma_log": 350}

    def test_overflowing_field_json(self, tmp_path):
        """A field that is finite on a small grid but overflows on the
        base grid is a config error, exit 2 before any output."""
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            **replace(preset("toy"), mode="uniform-coarse",
                      horizon=2.0).to_dict(),
            "permeability": self.OVERFLOW}))
        assert self.simulate(tmp_path, path) == (EXIT_CONFIG, False)

    def test_overflowing_field_ini(self, tmp_path):
        path = tmp_path / "cfg.ini"
        path.write_text(TOY_INI + "\n[permeability]\n" + "".join(
            f"{k} = {v}\n" for k, v in self.OVERFLOW.items()))
        assert self.simulate(tmp_path, path) == (EXIT_CONFIG, False)

    def test_ini_in_range_runs(self, tmp_path):
        """The INI above runs with each generator's defaults."""
        for kind in ("channelized", "gaussian"):
            path = tmp_path / f"{kind}.ini"
            path.write_text(TOY_INI + f"\n[permeability]\nkind = {kind}\n")
            assert self.simulate(tmp_path / kind, path) == (EXIT_OK, True)


class TestCompare:
    def test_identical_runs(self, toy_run, capsys):
        rc = main(["compare", "--a", str(toy_run), "--b", str(toy_run)])
        assert rc == EXIT_OK
        out = capsys.readouterr().out
        assert "cost ratio (a/b): 1.0000" in out
        assert "all-in cost ratio (a/b): 1.0000" in out
        assert "LU cost ratio (a/b): 1.0000" in out
        assert "Newton wall ratio (a/b): 1.0000" in out
        assert "end-to-end wall ratio (a/b): 1.0000" in out
        assert "LU cost ratio (a/b): 1.0000  (above 0.2)" in out
        assert "0.00000" in out

    def test_each_run_prints_its_predictor_cost(self, toy_run, capsys):
        """Each run's row holds its cost metric, predictor cost and
        all-in cost, in that order."""
        summary = json.loads((toy_run / "run_summary.json").read_text())
        assert main(["compare", "--a", str(toy_run),
                     "--b", str(toy_run)]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].split()[:5] == ["cost", "metric", "predictor",
                                        "cost", "all-in"]
        rows = [line.split() for line in lines[1:3]]
        assert rows[0] == rows[1]
        assert rows[0][:4] == [summary["label"],
                               *(str(summary[key]) for key in (
                                   "cost_metric", "predictor_cost",
                                   "all_in_cost"))]
        assert summary["predictor_cost"] > 0

    def test_newton_wall_counts_every_solve(self, toy_run):
        """`total_wall_ms` adds the predictor's solves (and any failed
        attempt's) to the accepted windows' Newton walls in the ledger."""
        summary = json.loads((toy_run / "run_summary.json").read_text())
        assert summary["mode"] == "dynamic-dd"
        walls = {row[0]: row[4]
                 for row in read_ledger_csv(toy_run / "ledger.csv")}
        assert len(walls) == summary["windows"]
        assert summary["total_wall_ms"] > sum(walls.values()) > 0

    def test_end_to_end_wall_is_its_own_ratio(self, toy_run, tmp_path,
                                              capsys):
        """The summary's `run()` wall covers the Newton wall; `compare`
        divides each by its counterpart, and rejects a summary without
        the run wall."""
        summary = json.loads((toy_run / "run_summary.json").read_text())
        assert summary["run_wall_ms"] >= summary["total_wall_ms"] > 0
        old = tmp_path / "old"
        shutil.copytree(toy_run, old)
        summary["total_wall_ms"] *= 2.0
        summary["run_wall_ms"] *= 4.0
        (old / "run_summary.json").write_text(json.dumps(summary))
        rep = compare(old, toy_run)
        assert rep["wall_ratio"] == pytest.approx(2.0)
        assert rep["run_wall_ratio"] == pytest.approx(4.0)
        del summary["run_wall_ms"]
        (old / "run_summary.json").write_text(json.dumps(summary))
        assert main(["compare", "--a", str(old),
                     "--b", str(toy_run)]) == EXIT_CONFIG
        assert "'run_wall_ms'" in capsys.readouterr().err

    def test_cost_ratios_above_budget_flagged(self, toy_run, tmp_path,
                                              capsys):
        """An all-in or LU cost ratio above 0.2 is flagged, the paper's
        proxy is not."""
        cheap = tmp_path / "cheap"
        shutil.copytree(toy_run, cheap)
        summary = json.loads((toy_run / "run_summary.json").read_text())
        summary["cost_metric"] //= 10
        summary["all_in_cost"] //= 10
        summary["lu_cost"] //= 3
        (cheap / "run_summary.json").write_text(json.dumps(summary))
        assert main(["compare", "--a", str(cheap),
                     "--b", str(toy_run)]) == EXIT_OK
        out = capsys.readouterr().out
        assert compare(cheap, toy_run)["over_budget"] == ["lu_cost_ratio"]
        lu = [line for line in out.splitlines() if line.startswith("LU")]
        assert lu[0].endswith("(above 0.2)")
        assert "above" not in out.replace(lu[0], "")

    def test_uniform_reference_as_a_is_not_flagged(self, toy_run, tmp_path,
                                                   capsys):
        """With a uniform reference as `a` and an adaptive run as `b`, the
        ratios are about the budget's inverse and nothing is flagged; two
        uniform runs are still flagged."""
        fine = tmp_path / "fine"
        shutil.copytree(toy_run, fine)
        summary = json.loads((toy_run / "run_summary.json").read_text())
        assert summary["mode"] == "dynamic-dd"
        summary["mode"] = "uniform-fine"
        for key in ("cost_metric", "all_in_cost", "lu_cost"):
            summary[key] *= 5
        (fine / "run_summary.json").write_text(json.dumps(summary))
        rep = compare(fine, toy_run)
        assert rep["all_in_cost_ratio"] > 1 and rep["lu_cost_ratio"] > 1
        assert rep["over_budget"] == []
        assert main(["compare", "--a", str(fine),
                     "--b", str(toy_run)]) == EXIT_OK
        assert "above" not in capsys.readouterr().out
        assert compare(fine, fine)["over_budget"] == ["all_in_cost_ratio",
                                                      "lu_cost_ratio"]

    @pytest.mark.parametrize("key", run_module.SUMMARY_KEYS)
    def test_summary_without_a_key_is_config_error(self, toy_run, tmp_path,
                                                   capsys, key):
        """A summary that lacks a key `compare` reads exits with code 2,
        naming the file and the key."""
        old = tmp_path / "old"
        shutil.copytree(toy_run, old)
        summary = json.loads((old / "run_summary.json").read_text())
        del summary[key]
        (old / "run_summary.json").write_text(json.dumps(summary))
        assert main(["compare", "--a", str(toy_run),
                     "--b", str(old)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert str(old / "run_summary.json") in err and repr(key) in err

    @pytest.mark.parametrize("text", ["{", "[1, 2]", "7"])
    def test_summary_not_an_object_is_config_error(self, toy_run, tmp_path,
                                                   capsys, text):
        old = tmp_path / "old"
        old.mkdir()
        (old / "run_summary.json").write_text(text)
        assert main(["compare", "--a", str(old),
                     "--b", str(toy_run)]) == EXIT_CONFIG
        assert str(old / "run_summary.json") in capsys.readouterr().err

    @pytest.mark.parametrize("key", run_module.SNAPSHOT_KEYS)
    def test_snapshot_without_a_key_is_config_error(self, toy_run, tmp_path,
                                                    capsys, key):
        """A snapshot entry that lacks a key `compare` reads exits with
        code 2, naming the file, the snapshot and the key."""
        old = tmp_path / "old"
        shutil.copytree(toy_run, old)
        summary = json.loads((old / "run_summary.json").read_text())
        del summary["snapshots"][1][key]
        (old / "run_summary.json").write_text(json.dumps(summary))
        assert main(["compare", "--a", str(old),
                     "--b", str(toy_run)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert str(old / "run_summary.json") in err
        assert f"snapshot 1 lacks {key!r}" in err

    @pytest.mark.parametrize("snapshots", [[7], ["snap"], [[1.0, "a.csv"]],
                                           {"0": {}}, 3])
    def test_snapshots_not_objects_are_config_error(self, toy_run, tmp_path,
                                                    capsys, snapshots):
        old = tmp_path / "old"
        shutil.copytree(toy_run, old)
        summary = json.loads((old / "run_summary.json").read_text())
        summary["snapshots"] = snapshots
        (old / "run_summary.json").write_text(json.dumps(summary))
        assert main(["compare", "--a", str(toy_run),
                     "--b", str(old)]) == EXIT_CONFIG
        assert str(old / "run_summary.json") in capsys.readouterr().err

    def test_missing_directory_is_io_error(self, toy_run, tmp_path, capsys):
        rc = main(["compare", "--a", str(toy_run),
                   "--b", str(tmp_path / "nothing")])
        assert rc == EXIT_IO

    def test_mismatched_problems_rejected(self, toy_run, tmp_path, capsys):
        other = tmp_path / "other"
        other.mkdir()
        summary = json.loads((toy_run / "run_summary.json").read_text())
        summary["horizon"] = 123.0
        (other / "run_summary.json").write_text(json.dumps(summary))
        rc = main(["compare", "--a", str(toy_run), "--b", str(other)])
        assert rc == EXIT_CONFIG


class TestCurves:
    def test_prints_csv(self, capsys):
        rc = main(["curves", "--config", "preset:toy"])
        assert rc == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "sw,krw,kro,pc"
        assert len(lines) == 82

    def test_matches_simulate_artifact(self, toy_run, capsys):
        main(["curves", "--config", "preset:toy"])
        printed = capsys.readouterr().out
        assert printed == (toy_run / "curves.csv").read_text()

    def test_reads_no_permeability(self, tmp_path, toy_run, capsys):
        """Curves need the fluid-rock model only, so a permeability file
        that does not exist is never opened."""
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            **preset("toy").to_dict(),
            "permeability": {"kind": "file", "kx_path": "missing.txt"}}))
        assert main(["curves", "--config", str(path)]) == EXIT_OK
        printed = capsys.readouterr().out
        assert printed == (toy_run / "curves.csv").read_text()


class TestEnvironment:
    def test_thread_cap_applied(self, monkeypatch):
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
            monkeypatch.delenv(var, raising=False)
        monkeypatch.setenv("STDD_THREADS", "2")
        _apply_thread_cap()
        assert os.environ["OMP_NUM_THREADS"] == "2"
        assert os.environ["OPENBLAS_NUM_THREADS"] == "2"

    def test_existing_setting_not_clobbered(self, monkeypatch):
        monkeypatch.setenv("OMP_NUM_THREADS", "8")
        monkeypatch.setenv("STDD_THREADS", "2")
        _apply_thread_cap()
        assert os.environ["OMP_NUM_THREADS"] == "8"


BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS")

# Records the BLAS variables at the moment numpy is first imported.
NUMPY_IMPORT_PROBE = """
import json, os, sys

VARS = %r
seen = {}

class Probe:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" and not seen:
            seen.update({v: os.environ.get(v) for v in VARS})
        return None

sys.meta_path.insert(0, Probe())
import stdd.cli
print(json.dumps(seen))
""" % (BLAS_VARS,)

# Which of scipy.ndimage and scipy.special are loaded after each step.
NDIMAGE_PROBE = """
import json, sys, tempfile

def loaded():
    return [m for m in ("scipy.ndimage", "scipy.special")
            if m in sys.modules]

steps = {}
import stdd
steps["import"] = loaded()
stdd.Problem(stdd.preset("dynamic-dd"))
steps["channelized Problem"] = loaded()
with tempfile.TemporaryDirectory() as out:
    stdd.run.run(stdd.preset("toy"), out)  # the toy preset is dynamic-dd
steps["toy dynamic-dd run"] = loaded()
print(json.dumps(steps))
"""


def src_env(**env):
    """The environment with `src` on PYTHONPATH, updated by `env`."""
    env = dict(os.environ, **env)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def probe(script, env):
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


class TestFreshInterpreter:
    def test_thread_cap_precedes_numpy(self):
        env = src_env(STDD_THREADS="1")
        for var in BLAS_VARS:
            env.pop(var, None)
        assert probe(NUMPY_IMPORT_PROBE, env) == dict.fromkeys(BLAS_VARS,
                                                               "1")

    def test_ndimage_not_loaded(self):
        assert probe(NDIMAGE_PROBE, src_env()) == {
            "import": [], "channelized Problem": [],
            "toy dynamic-dd run": []}


class TestConsoleScript:
    """`python -m stdd` in a subprocess, with `src` on its PYTHONPATH."""

    def env(self):
        return src_env(STDD_THREADS="1")

    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "stdd", "curves", "--config",
             "preset:toy"],
            capture_output=True, text=True, env=self.env())
        assert proc.returncode == 0
        assert proc.stdout.startswith("sw,krw,kro,pc")

    def test_usage_error_for_missing_subcommand(self):
        proc = subprocess.run([sys.executable, "-m", "stdd"],
                              capture_output=True, text=True, env=self.env())
        assert proc.returncode == 2
        assert proc.stderr.startswith("usage:")
