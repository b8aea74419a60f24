import csv
import json
import math
import os
import random
import re
import shlex
import signal
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import tbctrl
from tbctrl import cli, get_scenario, make_time_grid, models, save_scenario
from tbctrl.cli import _reduction_residual, _write_csv, main
from tbctrl.models import ModelId
from conftest import uniforms

README = Path(__file__).resolve().parents[1] / "README.md"


@pytest.fixture()
def small_scenario_file(tmp_path):
    cfg = get_scenario("fig1")
    cfg = replace(cfg, grid=make_time_grid(0.0, 5.0, 300), name="fig1-small")
    path = tmp_path / "fig1-small.json"
    save_scenario(cfg, path)
    return path


@pytest.fixture()
def bowong_scenario_file(tmp_path, default_config):
    """A two-control problem (controls u1, u2) at 300 steps."""
    path = tmp_path / "bowong-small.json"
    save_scenario(default_config(ModelId.BOWONG, 300), path)
    return path


def _effort_sweep_file(tmp_path, values):
    cfg = get_scenario("fig4-sweep")
    cfg = replace(cfg, grid=make_time_grid(0.0, 5.0, 250), name="fig4-small",
                  sweep=tuple({"cost.b1": v} for v in values))
    path = tmp_path / "fig4-small.json"
    save_scenario(cfg, path)
    return path


@pytest.fixture()
def small_sweep_file(tmp_path):
    return _effort_sweep_file(tmp_path, (50.0, 250.0))


def read_csv(path):
    with open(path, newline="") as f:
        reader = csv.reader(f)
        header = next(reader)
        rows = [row for row in reader]
    return header, rows


class TestWriteCsv:
    def test_bytes_match_csv_writer(self, tmp_path):
        rng = np.random.default_rng(13)
        rows = rng.standard_normal((501, 11)) * 10.0 ** rng.integers(-310, 309, (501, 11))
        rows[0, :9] = [-0.0, 0.0, 5e-324, -5e-324, 1e300, -1e-300, 1.7976931348623157e308,
                       2.2250738585072014e-308, 0.1]
        rows[1, :4] = [math.inf, -math.inf, math.nan, 1e16]
        rows[2] = np.arange(11)  # integral values
        header = ["t", "a,b", 'q"x', "lambda_S"] + [f"c{k}" for k in range(7)]
        _write_csv(tmp_path / "new.csv", header, rows)
        with open(tmp_path / "old.csv", "w", newline="") as f:
            writer = csv.writer(f)
            writer.writerow(header)
            for row in rows:
                writer.writerow([f"{v:.17g}" for v in row])
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


class TestListModels:
    def test_seven_entries_and_stable_output(self, capsys):
        assert main(["list-models"]) == 0
        first = capsys.readouterr().out
        assert main(["list-models"]) == 0
        second = capsys.readouterr().out
        assert first == second
        lines = [ln for ln in first.strip().splitlines()]
        assert len(lines) == 7
        assert any("seirs" in ln and "states=4" in ln for ln in lines)


class TestSimulate:
    def test_off_and_zero_constant_identical(self, small_scenario_file, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert main(["simulate", str(small_scenario_file), "-o", str(out_a)]) == 0
        assert main(["simulate", str(small_scenario_file), "-o", str(out_b),
                     "--control", "0"]) == 0
        assert (out_a / "trajectory.csv").read_text() == (out_b / "trajectory.csv").read_text()
        assert (json.loads((out_a / "summary.json").read_text())
                == json.loads((out_b / "summary.json").read_text()))

    def test_trajectory_columns_and_roundtrip(self, small_scenario_file, tmp_path):
        out = tmp_path / "sim"
        assert main(["simulate", str(small_scenario_file), "-o", str(out)]) == 0
        header, rows = read_csv(out / "trajectory.csv")
        assert header == ["t", "S", "L1", "I1", "T", "u", "N"]
        assert len(rows) == 301
        # 17-significant-digit output round-trips exactly
        s0 = float(rows[0][1])
        assert s0 == (76 / 120) * 10000.0
        n_vals = [float(r[-1]) for r in rows]
        assert max(abs(v - n_vals[0]) for v in n_vals) / n_vals[0] < 1e-10

    def test_missing_scenario_file_is_io_error(self, tmp_path, capsys):
        code = main(["simulate", str(tmp_path / "nope.json"), "-o", str(tmp_path / "x")])
        assert code == 4
        assert "not found" in capsys.readouterr().err

    def test_invalid_scenario_is_validation_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"schema": "tbctrl-scenario/1", "model": "seirs"}')
        code = main(["simulate", str(bad), "-o", str(tmp_path / "x")])
        assert code == 2

    def test_null_fbs_is_validation_error(self, small_scenario_file, tmp_path, capsys):
        doc = json.loads(small_scenario_file.read_text())
        doc["fbs"] = None
        bad = tmp_path / "null-fbs.json"
        bad.write_text(json.dumps(doc))  # written as null
        assert main(["simulate", str(bad), "-o", str(tmp_path / "x")]) == 2
        assert "$.fbs: expected an object" in capsys.readouterr().err

    @pytest.mark.parametrize("source", ["document", "option"])
    def test_oversized_grid_is_validation_error(self, small_scenario_file, tmp_path, capsys,
                                                source):
        # refused before numpy allocates the nodes: exit 2 with one line, not a traceback
        doc = json.loads(small_scenario_file.read_text())
        if source == "document":
            doc["grid"]["n_steps"] = 10**30
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(doc))
        extra = ["--n-steps", str(10**30)] if source == "option" else []
        assert main(["simulate", str(path), "-o", str(tmp_path / "x"), *extra]) == 2
        assert f"must be <= 10000000, got {10**30}" in capsys.readouterr().err

    def test_infinite_tolerance_is_validation_error(self, small_scenario_file, tmp_path, capsys):
        doc = json.loads(small_scenario_file.read_text())
        doc["fbs"]["tolerance"] = math.inf
        bad = tmp_path / "inf-tol.json"
        bad.write_text(json.dumps(doc))  # written as Infinity
        assert main(["optimize", str(bad), "-o", str(tmp_path / "x")]) == 2
        assert "$.fbs.tolerance" in capsys.readouterr().err

    def test_constant_control_vector(self, small_scenario_file, tmp_path):
        out = tmp_path / "c"
        assert main(["simulate", str(small_scenario_file), "-o", str(out),
                     "--control", "0.5"]) == 0
        _, rows = read_csv(out / "trajectory.csv")
        assert float(rows[10][5]) == 0.5

    def test_control_file_mode(self, small_scenario_file, tmp_path):
        ctrl = tmp_path / "control.csv"
        ctrl.write_text("t,u\n0.0,0.5\n5.0,0.5\n")
        out_file = tmp_path / "from-file"
        out_const = tmp_path / "from-const"
        assert main(["simulate", str(small_scenario_file), "-o", str(out_file),
                     "--control", str(ctrl)]) == 0
        assert main(["simulate", str(small_scenario_file), "-o", str(out_const),
                     "--control", "0.5"]) == 0
        assert ((out_file / "trajectory.csv").read_text()
                == (out_const / "trajectory.csv").read_text())

    def test_control_file_single_row_held(self, small_scenario_file, tmp_path):
        ctrl = tmp_path / "control.csv"
        ctrl.write_text("t,u\n2.0,0.5\n")  # one row: held over the whole horizon
        out_file, out_const = tmp_path / "from-file", tmp_path / "from-const"
        assert main(["simulate", str(small_scenario_file), "-o", str(out_file),
                     "--control", str(ctrl)]) == 0
        assert main(["simulate", str(small_scenario_file), "-o", str(out_const),
                     "--control", "0.5"]) == 0
        assert ((out_file / "trajectory.csv").read_text()
                == (out_const / "trajectory.csv").read_text())

    def test_constant_control_clipped_like_a_file(self, small_scenario_file, tmp_path):
        out_five, out_one = tmp_path / "five", tmp_path / "one"
        assert main(["simulate", str(small_scenario_file), "-o", str(out_five),
                     "--control", "5"]) == 0
        assert main(["simulate", str(small_scenario_file), "-o", str(out_one),
                     "--control", "1"]) == 0
        assert ((out_five / "trajectory.csv").read_text()
                == (out_one / "trajectory.csv").read_text())

    @pytest.mark.parametrize("value", ["nan", "-inf", "0.5,inf"])
    def test_non_finite_constant_is_validation_error(self, small_scenario_file, tmp_path, capsys,
                                                     value):
        assert main(["simulate", str(small_scenario_file), "-o", str(tmp_path / "x"),
                     f"--control={value}"]) == 2
        assert "non-finite value" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("text, message", [
        ("t,u\n0.0,0.5\n5.0,0.2\n2.5,0.4\n", "t must be strictly increasing"),
        ("t,u\n0.0,0.5\n0.0,0.2\n5.0,0.4\n", "t must be strictly increasing"),
        ("t,u\n0.0,0.5\n2.5,nan\n5.0,0.4\n", "missing or non-finite value"),
        ("t,u\n0.0,0.5\n2.5,\n5.0,0.4\n", "missing or non-finite value"),
        ("t,u\n", "no data rows"),
        ("t,u\n0.0,0.5\n5.0,0.2,0.4\n", "got 3 columns instead of 2"),
        ("", "is not a CSV table"),
        (" \n\n", "is not a CSV table"),
    ], ids=["unordered-t", "repeated-t", "nan", "missing", "header-only", "long-row", "empty",
            "blank"])
    @pytest.mark.filterwarnings("error")  # refused before numpy reads, which warns on an empty file
    def test_bad_control_file_is_validation_error(self, small_scenario_file, tmp_path, capsys,
                                                  text, message):
        ctrl = tmp_path / "control.csv"
        ctrl.write_text(text)
        assert main(["simulate", str(small_scenario_file), "-o", str(tmp_path / "x"),
                     "--control", str(ctrl)]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_unreadable_control_mode_is_validation_error(self, small_scenario_file, tmp_path,
                                                         capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)  # no file named abc here
        assert main(["simulate", str(small_scenario_file), "-o", str(tmp_path / "x"),
                     "--control", "abc"]) == 2
        assert ("control mode 'abc' is neither 'off', a constant, nor a readable file"
                in capsys.readouterr().err)

    def test_constant_count_must_match_the_controls(self, small_scenario_file, tmp_path, capsys):
        assert main(["simulate", str(small_scenario_file), "-o", str(tmp_path / "x"),
                     "--control", "0.5,0.5"]) == 2
        assert "expected 1 constant control value(s), got 2" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_one_constant_sets_every_control(self, bowong_scenario_file, tmp_path):
        out = tmp_path / "c"
        assert main(["simulate", str(bowong_scenario_file), "-o", str(out),
                     "--control", "0.5"]) == 0
        header, rows = read_csv(out / "trajectory.csv")
        assert header[5:7] == ["u1", "u2"]
        assert {value for row in rows for value in row[5:7]} == {"0.5"}

    @pytest.mark.parametrize("header", ["t,u2,u1", "t,a,b", "t,u1", "t,u1,u2,u3", "u1,t,u2"])
    def test_control_file_columns_are_named_in_catalog_order(self, bowong_scenario_file,
                                                             tmp_path, capsys, header):
        ctrl = tmp_path / "control.csv"
        ctrl.write_text(header + "\n" + ",".join(["0.0"] + ["0.5"] * header.count(",")) + "\n")
        assert main(["simulate", str(bowong_scenario_file), "-o", str(tmp_path / "x"),
                     "--control", str(ctrl)]) == 2
        assert "control file must have columns t,u1,u2" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_control_file_columns_read_by_name(self, bowong_scenario_file, tmp_path):
        ctrl = tmp_path / "control.csv"
        ctrl.write_text("t,u1,u2\n0.0,0.25,0.75\n5.0,0.25,0.75\n")
        out_file, out_const = tmp_path / "from-file", tmp_path / "from-const"
        assert main(["simulate", str(bowong_scenario_file), "-o", str(out_file),
                     "--control", str(ctrl)]) == 0
        assert main(["simulate", str(bowong_scenario_file), "-o", str(out_const),
                     "--control", "0.25,0.75"]) == 0
        assert ((out_file / "trajectory.csv").read_text()
                == (out_const / "trajectory.csv").read_text())


class TestOptimize:
    def test_flagship_small(self, small_scenario_file, tmp_path):
        out = tmp_path / "opt"
        assert main(["optimize", str(small_scenario_file), "-o", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["converged"] is True
        assert report["cost"] <= report["baseline_cost"]
        header, rows = read_csv(out / "trajectory.csv")
        assert header == ["t", "S", "L1", "I1", "T", "u", "N",
                          "lambda_S", "lambda_L1", "lambda_I1", "lambda_T"]
        # terminal adjoint row is exactly zero
        assert all(float(v) == 0.0 for v in rows[-1][7:])
        base_header, _ = read_csv(out / "baseline.csv")
        assert base_header == ["t", "S", "L1", "I1", "T", "u", "N"]
        ctrl_header, ctrl_rows = read_csv(out / "control.csv")
        assert ctrl_header == ["t", "u"]
        assert len(ctrl_rows) == 301

    def test_zero_state_weight_matches_baseline(self, tmp_path):
        cfg = get_scenario("fig1")
        cfg = replace(cfg, grid=make_time_grid(0.0, 5.0, 200),
                      weights=replace(cfg.weights, a1=0.0), name="a0")
        path = tmp_path / "a0.json"
        save_scenario(cfg, path)
        out = tmp_path / "opt"
        assert main(["optimize", str(path), "-o", str(out)]) == 0
        _, opt_rows = read_csv(out / "trajectory.csv")
        _, base_rows = read_csv(out / "baseline.csv")
        for ro, rb in zip(opt_rows, base_rows):
            assert ro[:7] == rb[:7]

    def test_non_convergence_exit_code(self, small_scenario_file, tmp_path, capsys):
        out = tmp_path / "nc"
        code = main(["optimize", str(small_scenario_file), "-o", str(out),
                     "--max-iterations", "2"])
        assert code == 3
        report = json.loads((out / "report.json").read_text())
        assert report["converged"] is False  # artifacts written, flagged

    def test_non_finite_solve_exit_code(self, tmp_path, capsys):
        cfg = get_scenario("fig1")
        cfg = replace(cfg, params=cfg.params.with_updates({"beta": 1000.0}),
                      grid=make_time_grid(0.0, 5.0, 20), name="blowup")
        path = tmp_path / "blowup.json"
        save_scenario(cfg, path)
        assert main(["optimize", str(path), "-o", str(tmp_path / "opt")]) == 3
        assert capsys.readouterr().err == (
            "error: sweep iteration 1: state became non-finite at step 3 (t=0.75)\n")

    @pytest.mark.parametrize("problem", ["seirs", "bowong"])
    def test_simulating_the_optimal_control_replays_its_trajectory(
            self, small_scenario_file, bowong_scenario_file, tmp_path, problem):
        # control.csv holds the control at every node to 17 digits, so simulate reads it back
        # exactly and integrates the same state, written as the same bytes
        path = small_scenario_file if problem == "seirs" else bowong_scenario_file
        opt, sim = tmp_path / "opt", tmp_path / "sim"
        assert main(["optimize", str(path), "-o", str(opt)]) == 0
        assert main(["simulate", str(path), "-o", str(sim),
                     "--control", str(opt / "control.csv")]) == 0
        simulated = (sim / "trajectory.csv").read_bytes().splitlines()
        columns = simulated[0].count(b",") + 1  # t, the states, the controls and N
        optimized = [b",".join(line.split(b",")[:columns])
                     for line in (opt / "trajectory.csv").read_bytes().splitlines()]
        assert len(simulated) == 302  # the header and 301 nodes
        assert simulated == optimized


class TestOverrides:
    # a zero override is a value to validate, not an absent flag
    @pytest.mark.parametrize("command, flag", [
        ("simulate", "--n-steps"),
        ("optimize", "--max-iterations"),
        ("optimize", "--tolerance"),
    ])
    def test_zero_override_rejected(self, small_scenario_file, tmp_path, command, flag):
        out = tmp_path / "out"
        assert main([command, str(small_scenario_file), "-o", str(out), flag, "0"]) == 2
        assert not out.exists()


    @pytest.mark.parametrize("command, flag", [
        ("simulate", "--tolerance"),
        ("simulate", "--max-iterations"),
        ("optimize", "--relaxation"),
        ("sweep", "--relaxation"),
    ])
    def test_option_not_taken_is_refused(self, small_scenario_file, tmp_path, capsys,
                                         command, flag):
        # simulate runs no sweep, and the fallback step's damping is fixed
        with pytest.raises(SystemExit) as exc:
            main([command, str(small_scenario_file), "-o", str(tmp_path / "x"), flag, "1e-3"])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


class TestSweep:
    @pytest.fixture(autouse=True)
    def no_child_left(self):
        yield
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_summary_and_per_value_outputs(self, small_sweep_file, tmp_path):
        out = tmp_path / "sweep"
        assert main(["sweep", str(small_sweep_file), "-o", str(out)]) == 0
        header, rows = read_csv(out / "sweep_summary.csv")
        assert header == ["value", "cost", "duration_u_above_0.99",
                          "terminal_infectious_fraction", "status"]
        assert len(rows) == 2
        assert all(row[4] == "ok" for row in rows)
        assert (out / "value-00" / "report.json").exists()
        assert (out / "value-01" / "report.json").exists()
        # effort-weight monotonicity visible in the two costs
        assert float(rows[0][1]) <= float(rows[1][1])

    @pytest.mark.parametrize("values", [(50.0, 250.0), (50.0, 150.0, 250.0)])
    def test_parallel_matches_serial(self, tmp_path, values):
        path = _effort_sweep_file(tmp_path, values)
        written = []
        for jobs in ("1", "2", "3"):
            out = tmp_path / f"jobs-{jobs}"
            assert main(["sweep", str(path), "-o", str(out), "--jobs", jobs]) == 0
            written.append({str(f.relative_to(out)): f.read_bytes()
                            for f in sorted(out.rglob("*")) if f.is_file()})
        assert len(written[0]) == 1 + 4 * len(values)
        assert written[1] == written[0] and written[2] == written[0]

    @pytest.mark.parametrize("jobs, forks", [("8", 1), ("2", 1), ("1", 0)])
    def test_one_process_per_point_at_most(self, small_sweep_file, tmp_path, monkeypatch,
                                           jobs, forks):
        # this process solves a share, so --jobs 8 on two points forks one child
        started = []
        real_fork = os.fork

        def counting_fork():
            started.append(None)
            return real_fork()

        monkeypatch.setattr(os, "fork", counting_fork)
        out = tmp_path / "sweep"
        assert main(["sweep", str(small_sweep_file), "-o", str(out), "--jobs", jobs]) == 0
        assert len(started) == forks

    @pytest.mark.parametrize("blocked", ["value-00", "value-01"])  # this process's, the child's
    def test_point_io_error_reraised(self, small_sweep_file, tmp_path, capsys, blocked):
        out = tmp_path / "sweep"
        out.mkdir()
        (out / blocked).write_text("")  # so the point's mkdir fails
        assert main(["sweep", str(small_sweep_file), "-o", str(out), "--jobs", "2"]) == 4
        assert blocked in capsys.readouterr().err
        assert not (out / "sweep_summary.csv").exists()
        if blocked == "value-01":
            assert (out / "value-00" / "report.json").exists()

    @pytest.mark.parametrize("death, how", [
        ("kill", "was killed by signal 9"),
        ("unpicklable", "exited with status 1"),
    ])
    def test_child_without_result(self, small_sweep_file, tmp_path, monkeypatch, capfd,
                                  death, how):
        parent = os.getpid()
        real_worker = cli._sweep_worker

        def worker(item):
            if os.getpid() == parent:
                return real_worker(item)
            if death == "kill":
                os.kill(os.getpid(), signal.SIGKILL)
            raise RuntimeError(lambda: None)  # a lambda does not pickle

        monkeypatch.setattr(cli, "_sweep_worker", worker)
        out = tmp_path / "sweep"
        assert main(["sweep", str(small_sweep_file), "-o", str(out), "--jobs", "2"]) == 4
        err = capfd.readouterr().err
        assert "sweep child 1 (pid " in err and f"{how} before sending its results" in err
        assert (out / "value-00" / "report.json").exists()
        if death == "unpicklable":  # the child's own traceback says why
            assert "pickle" in err

    def test_jobs_above_one_need_fork(self, small_sweep_file, tmp_path, monkeypatch, capsys):
        monkeypatch.delattr(os, "fork")
        out = tmp_path / "sweep"
        assert main(["sweep", str(small_sweep_file), "-o", str(out), "--jobs", "2"]) == 2
        assert not out.exists()
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_jobs_below_one_rejected(self, small_sweep_file, tmp_path, capsys, jobs):
        out = tmp_path / "sweep"
        assert main(["sweep", str(small_sweep_file), "-o", str(out), "--jobs", jobs]) == 2
        assert not out.exists()
        assert capsys.readouterr().out == ""

    def test_scenario_without_sweep_rejected(self, small_scenario_file, tmp_path):
        assert main(["sweep", str(small_scenario_file), "-o", str(tmp_path / "x")]) == 2

    def test_non_converged_values_exit_code(self, tmp_path):
        out = tmp_path / "sweep"
        code = main(["sweep", "seirs-fig3-sweep", "-o", str(out), "--n-steps", "100",
                     "--max-iterations", "1"])
        assert code == 3
        _, rows = read_csv(out / "sweep_summary.csv")
        assert len(rows) == 3
        for i, row in enumerate(rows):
            report = json.loads((out / f"value-{i:02d}" / "report.json").read_text())
            assert float(row[1]) == report["cost"]
            assert row[4] == "non-converged"

    def test_per_value_failure_recorded_sweep_continues(self, tmp_path):
        import numpy as np
        cfg = get_scenario("fig1")
        cfg = replace(cfg, grid=make_time_grid(0.0, 5.0, 250), name="blowup",
                      sweep=({"beta": 13.0}, {"beta": 1e300}))
        path = tmp_path / "blowup.json"
        save_scenario(cfg, path)
        out = tmp_path / "sweep"
        with np.errstate(all="ignore"):
            code = main(["sweep", str(path), "-o", str(out)])
        assert code == 2
        _, rows = read_csv(out / "sweep_summary.csv")
        assert rows[0][4] == "ok"
        assert rows[1][4].startswith("error:")


# `tbctrl verify all --seed S` on the samples of the seeded Mersenne Twister (`random.Random(S)`):
# adjoint residuals by the complex step, and the grid search's stationarity residuals. A change
# that only makes the verifiers faster prints these bytes.
VERIFY_ALL_GOLDEN = {
    1: """\
seirs                  adjoint=5.487e-15 stationarity=0.000e+00 reduction=exact [ok]
two-strain             adjoint=5.751e-16 stationarity=0.000e+00 reduction=exact [ok]
reinfection            adjoint=1.385e-15 stationarity=0.000e+00 reduction=exact [ok]
isolation-immigration  adjoint=1.040e-15 stationarity=0.000e+00 reduction=exact [ok]
korea                  adjoint=2.014e-15 stationarity=0.000e+00 reduction=exact [ok]
bowong                 adjoint=3.203e-15 stationarity=0.000e+00 [ok]
post-exposure          adjoint=5.668e-16 stationarity=0.000e+00 [ok]
""",
    7: """\
seirs                  adjoint=1.104e-15 stationarity=0.000e+00 reduction=exact [ok]
two-strain             adjoint=2.492e-15 stationarity=0.000e+00 reduction=exact [ok]
reinfection            adjoint=1.483e-15 stationarity=0.000e+00 reduction=exact [ok]
isolation-immigration  adjoint=1.426e-15 stationarity=0.000e+00 reduction=exact [ok]
korea                  adjoint=1.986e-15 stationarity=0.000e+00 reduction=exact [ok]
bowong                 adjoint=1.646e-15 stationarity=0.000e+00 [ok]
post-exposure          adjoint=1.278e-15 stationarity=0.000e+00 [ok]
""",
    1234: """\
seirs                  adjoint=6.228e-16 stationarity=0.000e+00 reduction=exact [ok]
two-strain             adjoint=4.863e-16 stationarity=0.000e+00 reduction=exact [ok]
reinfection            adjoint=6.688e-16 stationarity=0.000e+00 reduction=exact [ok]
isolation-immigration  adjoint=7.039e-16 stationarity=0.000e+00 reduction=exact [ok]
korea                  adjoint=2.533e-15 stationarity=0.000e+00 reduction=exact [ok]
bowong                 adjoint=4.387e-15 stationarity=0.000e+00 [ok]
post-exposure          adjoint=1.865e-15 stationarity=0.000e+00 [ok]
""",
}


class TestVerify:
    def test_single_model(self, capsys):
        assert main(["verify", "seirs", "--samples", "20"]) == 0
        out = capsys.readouterr().out
        assert "seirs" in out and "two-strain" not in out

    def test_all_models(self, capsys):
        assert main(["verify", "all", "--samples", "10"]) == 0
        out = capsys.readouterr().out
        assert len(out.strip().splitlines()) == 7

    @pytest.mark.parametrize("seed", [1, 7, 1234])
    def test_all_models_pass_at_several_seeds(self, capsys, seed):
        assert main(["verify", "all", "--seed", str(seed)]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 7 and all(line.endswith("[ok]") for line in lines)

    @pytest.mark.parametrize("seed", sorted(VERIFY_ALL_GOLDEN))
    def test_all_models_print_the_golden_text(self, capsys, seed):
        assert main(["verify", "all", "--seed", str(seed)]) == 0
        assert capsys.readouterr().out == VERIFY_ALL_GOLDEN[seed]

    def test_unknown_model_is_validation_error(self, capsys):
        assert main(["verify", "nosuch"]) == 2
        err = capsys.readouterr().err
        assert "unknown model 'nosuch'" in err and "known models: seirs" in err

    @pytest.mark.parametrize("argv, message", [
        (["--seed", "-1"], "seed must be >= 0, got -1"),
        (["--samples", "0"], "samples must be >= 1, got 0"),
    ])
    def test_bad_argument_is_validation_error(self, capsys, argv, message):
        # exit status 2 and one line, not numpy's traceback
        assert main(["verify", "seirs", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: {message}\n"

    def test_mutated_build_detected(self, monkeypatch, capsys):
        from tbctrl import models as models_pkg
        from tbctrl.models import ModelId
        defn = models_pkg.model_definition(ModelId.SEIRS)
        orig = defn.adjoint

        def broken(t, x, lam, u, p, w):
            out = orig(t, x, lam, u, p, w)
            out[1] += 2.0
            return out

        monkeypatch.setitem(models_pkg.MODELS, ModelId.SEIRS,
                            replace(defn, adjoint=broken))
        assert main(["verify", "seirs", "--samples", "10"]) == 2
        assert "FAIL" in capsys.readouterr().out


class TestReduction:
    """The baseline-reduction check of `tbctrl verify` (criterion 7)."""

    @staticmethod
    def reference_residual(mid, seed):
        """The check point by point, through the validating wrappers, one draw per state."""
        rng = random.Random(seed)
        p = models.default_params(mid)
        u0 = models.neutral_control(mid)
        n = models.model_definition(mid).state_dim
        worst = 0.0
        for _ in range(200):
            x = 1.0 + 9999.0 * uniforms(rng, n)
            a = models.dynamics(mid, 0.3, x, u0, p)
            b = models.uncontrolled_rhs(mid, 0.3, x, p)
            worst = float(np.maximum(worst, np.max(np.abs(a - b))))
        return worst

    @pytest.mark.parametrize("seed", [1, 2, 1234])
    def test_columns_match_points(self, monkeypatch, seed):
        baselines = [mid for mid in ModelId if models.has_baseline(mid)]
        assert len(baselines) == 5
        for mid in baselines:
            assert _reduction_residual(mid, seed) == self.reference_residual(mid, seed) == 0.0
        # A baseline off by a relative 1e-12 * x, in either layout, so that
        # the worst difference depends on every point's values.
        orig = models.uncontrolled_rhs
        monkeypatch.setattr(models, "uncontrolled_rhs",
                            lambda mid, t, x, p: orig(mid, t, x, p) * (1.0 + 1e-12 * x))
        for mid in baselines:
            worst = _reduction_residual(mid, seed)
            assert worst > 0.0 and worst == self.reference_residual(mid, seed)

    @pytest.mark.parametrize("mid", [m for m in ModelId if models.has_baseline(m)],
                             ids=lambda m: m.value)
    def test_exact_for_every_seed(self, mid):
        assert all(_reduction_residual(mid, seed) == 0.0 for seed in range(1, 201))

    @pytest.mark.parametrize("change, printed", [(1.0, "MISMATCH (1)"),
                                                 (math.nan, "MISMATCH (nan)")])
    def test_one_differing_entry_fails(self, monkeypatch, capsys, change, printed):
        orig = models.uncontrolled_rhs

        def off_at_one_point(mid, t, x, p):
            out = orig(mid, t, x, p)
            out[2, 17] += change  # component 2 of point 17
            return out

        monkeypatch.setattr(models, "uncontrolled_rhs", off_at_one_point)
        assert main(["verify", "seirs", "--samples", "5"]) == 2
        line = capsys.readouterr().out
        assert f"reduction={printed}" in line and line.rstrip().endswith("[FAIL]")


def test_cli_import_starts_no_pool_machinery(small_sweep_file, tmp_path):
    # nor does a sweep that forks a child
    src = str(Path(tbctrl.__file__).parents[1])
    argv = ["sweep", str(small_sweep_file), "-o", str(tmp_path / "sweep"), "--jobs", "2"]
    code = (f"import sys, tbctrl.cli; assert tbctrl.cli.main({argv!r}) == 0; "
            "print(sorted({'concurrent.futures.process', 'multiprocessing'} & set(sys.modules)))")
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60).stdout
    assert out.splitlines()[-1] == "[]"


def test_verify_all_loads_no_numpy_random():
    # numpy.random imports secrets -> hmac -> _hashlib, which maps libcrypto: about 5 MiB resident
    src = str(Path(tbctrl.__file__).parents[1])
    code = ("import contextlib, io, sys, tbctrl.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert tbctrl.cli.main(['verify', 'all']) == 0\n"
            "print(sorted({'numpy.random', 'hmac', '_hashlib'} & set(sys.modules)))")
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60).stdout
    assert out.splitlines()[-1] == "[]"


def test_import_loads_no_fractions():
    # fractions imports decimal; initial fractions are read as floats
    src = str(Path(tbctrl.__file__).parents[1])
    code = "import sys, tbctrl, tbctrl.cli; print(sorted({'fractions', 'decimal'} & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60).stdout
    assert out.splitlines()[-1] == "[]"


def test_readme_command_lines_parse():
    block = README.read_text(encoding="utf-8").split("## Command line")[1].split("```")[1]
    lines = [shlex.split(line, comments=True) for line in block.splitlines()[1:]]
    assert lines and all(args[0] == "tbctrl" for args in lines)
    parser = cli.build_parser()
    for args in lines:
        parser.parse_args(args[1:])  # exits (SystemExit) on a line it cannot parse


def test_readme_states_no_session_figures():
    # test counts, memory and timings drifted from the code when README carried them
    assert not re.search(r"\d+ passed|MiB| ms\b", README.read_text(encoding="utf-8"))


def test_main_builds_the_parser_once(monkeypatch, capsys):
    # a parser built per call kept its strings resident, so a process's memory grew per call
    built, init = [], cli.argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    cli.build_parser.cache_clear()
    monkeypatch.setattr(cli.argparse.ArgumentParser, "__init__", counting)
    try:
        assert main(["list-models"]) == 0
        assert built.count("tbctrl") == 1
        first = len(built)
        assert main(["verify", "seirs", "--samples", "5"]) == 0
        assert len(built) == first
    finally:
        cli.build_parser.cache_clear()
    capsys.readouterr()


class TestScenarioDirEnv:
    def test_bundled_name_resolution(self, tmp_path):
        out = tmp_path / "sim"
        assert main(["simulate", "seirs-fig1", "-o", str(out), "--n-steps", "200"]) == 0
        assert (out / "trajectory.csv").exists()
