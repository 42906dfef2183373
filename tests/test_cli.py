"""Command-line interface: subcommands, exit codes, environment handling."""

import importlib
import json
import os
import pathlib
import shutil
import subprocess
import sys
from dataclasses import replace

import pytest

from artifact_readers import read_ledger_csv
from stdd.cli import (EXIT_CONFIG, EXIT_IO, EXIT_NONCONVERGENCE, EXIT_OK,
                      _apply_thread_cap, main)
from stdd.config import preset
from stdd.errors import SingularMatrix
from stdd.run import run

run_module = importlib.import_module("stdd.run")
SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


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
        ("unknown permeability key",
         {"permeability": {"kind": "gaussian", "bogus": 1}}, EXIT_CONFIG),
        ("horizon not whole windows", {"horizon": 9.0}, EXIT_CONFIG),
        ("unknown mobility model", {"mobility_model": "quadratic"},
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
        ("missing permeability file",
         {"permeability": {"kind": "file", "kx_path": "missing.txt"}},
         EXIT_IO),
    ]

    @pytest.mark.parametrize("override, code", [c[1:] for c in CASES],
                             ids=[c[0] for c in CASES])
    def test_exit_code(self, tmp_path, monkeypatch, override, code):
        monkeypatch.chdir(tmp_path)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({**preset("toy").to_dict(), **override}))
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(path),
                     "--out", str(out)]) == code
        # a config error stops before anything is assembled or written
        assert out.exists() == (code != EXIT_CONFIG)
        assert (out / "FAILED").exists() == (code == EXIT_NONCONVERGENCE)

    def test_any_solver_error_leaves_ledger_and_marker(self, tmp_path,
                                                       monkeypatch):
        real = run_module.newton_solve_window

        def fail_window_1(window, *args):
            if window.window_index == 1:
                raise SingularMatrix("injected")
            return real(window, *args)

        monkeypatch.setattr(run_module, "newton_solve_window",
                            fail_window_1)
        cfg = replace(preset("toy"), mode="uniform-coarse")
        with pytest.raises(SingularMatrix):
            run(cfg, tmp_path, emit_vtk=False)
        assert "injected" in (tmp_path / "FAILED").read_text()
        assert {row[0] for row in read_ledger_csv(tmp_path / "ledger.csv")} \
            == {0}


class TestCompare:
    def test_identical_runs(self, toy_run, capsys):
        rc = main(["compare", "--a", str(toy_run), "--b", str(toy_run)])
        assert rc == EXIT_OK
        out = capsys.readouterr().out
        assert "cost ratio (a/b): 1.0000" in out
        assert "all-in cost ratio (a/b): 1.0000" in out
        assert "LU cost ratio (a/b): 1.0000" in out
        assert "Newton wall ratio (a/b): 1.0000" in out
        assert "0.00000" in out

    def test_summary_without_all_in_cost(self, toy_run, tmp_path, capsys):
        old = tmp_path / "old"
        shutil.copytree(toy_run, old)
        summary = json.loads((old / "run_summary.json").read_text())
        del summary["all_in_cost"]
        (old / "run_summary.json").write_text(json.dumps(summary))
        assert main(["compare", "--a", str(toy_run),
                     "--b", str(old)]) == EXIT_OK
        assert "all-in cost ratio (a/b): n/a" in capsys.readouterr().out

    def test_summary_without_lu_cost(self, toy_run, tmp_path, capsys):
        old = tmp_path / "old"
        shutil.copytree(toy_run, old)
        summary = json.loads((old / "run_summary.json").read_text())
        del summary["lu_cost"]
        (old / "run_summary.json").write_text(json.dumps(summary))
        assert main(["compare", "--a", str(old),
                     "--b", str(toy_run)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "LU cost ratio (a/b): n/a" in out
        assert "all-in cost ratio (a/b): 1.0000" in out

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


class TestConsoleScript:
    """`python -m stdd` in a subprocess, with `src` on its PYTHONPATH."""

    def env(self):
        env = dict(os.environ, STDD_THREADS="1")
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(SRC), env.get("PYTHONPATH")]))
        return env

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
