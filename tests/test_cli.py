import json
import math
import multiprocessing
import os
import subprocess
import sys
import textwrap
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from stepwork import cli, export, pathways, protocol, workdist
from stepwork.cli import main
from stepwork.free_energy import free_energy_profile, ground_state_closed_form_center
from stepwork.workdist import GriddedDensity, fluctuation_density


def _read_csv(path):
    meta = None
    with open(path) as fh:
        lines = [ln.rstrip("\n") for ln in fh]
    body = []
    for ln in lines:
        if ln.startswith("# config: "):
            meta = json.loads(ln[len("# config: "):])
        elif ln.startswith("#"):
            continue
        else:
            body.append(ln)
    header = body[0].split(",")
    rows = [ln.split(",") for ln in body[1:]]
    return meta, header, rows


class TestRunCenter:
    def test_default_run_outputs(self, tmp_path):
        assert main(["run-center", "--out", str(tmp_path)]) == 0
        meta, header, rows = _read_csv(tmp_path / "profile.csv")
        assert header == ["step", "control", "delta_F", "delta_F_target",
                          "mean_W", "std_W", "F_ref"]
        assert meta["s"] == 11 and meta["n_max"] == 10
        assert len(rows) == 11
        endpoint = float(rows[-1][2])
        assert 0.24 <= endpoint <= 0.26
        for i in range(2, 12):
            assert (tmp_path / f"workdist_step_{i}.csv").exists()

    def test_single_step_run(self, tmp_path):
        assert main(["run-center", "--s", "1", "--out", str(tmp_path)]) == 0
        _, _, rows = _read_csv(tmp_path / "profile.csv")
        assert len(rows) == 1
        assert float(rows[0][2]) == 0.0
        assert not list(tmp_path.glob("workdist_step_*.csv"))

    @pytest.mark.parametrize("argv", [["run-center", "--lambda-s", "0", "--s", "3"],
                                      ["run-spring", "--omega-ratio", "1", "--s", "3"]])
    def test_no_work_pull_reports_positive_zero(self, argv, tmp_path, capsys):
        assert main(argv + ["--out", str(tmp_path)]) == 0
        assert capsys.readouterr().out.endswith(" dF=0\n")
        _, _, rows = _read_csv(tmp_path / "profile.csv")
        assert "-0" not in {field for row in rows for field in row}

    def test_no_work_pull_builds_no_density(self, tmp_path):
        # two x points cannot hold a density; a pull that does no work reads none
        assert main(["run-center", "--lambda-s", "0", "--s", "3", "--x-points", "2",
                     "--out", str(tmp_path)]) == 0
        for i in (2, 3):
            _, header, rows = _read_csv(tmp_path / f"workdist_step_{i}.csv")
            assert header == ["W", "rho"] and rows == [["-1", "0"], ["0", "1"], ["1", "0"]]

    def test_flags_override_config_file(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"s": 5, "a": 2.0}))
        out = tmp_path / "out"
        assert main(["run-center", "--config", str(cfg), "--s", "3",
                     "--out", str(out)]) == 0
        meta, _, rows = _read_csv(out / "profile.csv")
        assert meta["s"] == 3 and meta["a"] == 2.0
        assert len(rows) == 3

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bogus": 1}))
        assert main(["run-center", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        assert "error: config:" in capsys.readouterr().err

    def test_unwritable_output(self, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        code = main(["run-center", "--out", str(blocker / "sub")])
        assert code == 2
        assert "error: output-unwritable:" in capsys.readouterr().err

    def test_builds_each_density_once(self, tmp_path, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return fluctuation_density(*args)

        monkeypatch.setattr(workdist, "fluctuation_density", counted)
        monkeypatch.setattr(cli, "fluctuation_density", counted)
        assert main(["run-center", "--s", "5", "--out", str(tmp_path)]) == 0
        assert len(calls) == 4

    @pytest.mark.parametrize("command", ["run-center", "run-spring"])
    def test_failure_at_the_last_step_writes_no_file(self, command, tmp_path, monkeypatch,
                                                     capsys):
        push, convolve, reached = workdist.pushforward_step_density, workdist.lattice_convolve, []

        def pushed(f, schedule, j):
            reached.append(j + 1)
            return push(f, schedule, j)

        def leak_at_last(d1, d2, h):
            rho = convolve(d1, d2, h)
            return GriddedDensity(rho.grid, rho.values * (0.5 if reached[-1] == 4 else 1.0))

        monkeypatch.setattr(workdist, "pushforward_step_density", pushed)
        monkeypatch.setattr(workdist, "lattice_convolve", leak_at_last)
        out = tmp_path / "out"
        assert main([command, "--s", "4", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: mass-leak: work distribution at step 4")
        assert len(err.splitlines()) == 1
        assert reached == [2, 3, 4]
        assert out.is_dir() and not list(out.iterdir())

    def test_byte_identical_reruns(self, tmp_path):
        out = tmp_path / "det"
        assert main(["run-center", "--s", "5", "--out", str(out)]) == 0
        first = {p.name: p.read_bytes() for p in out.iterdir()}
        assert main(["run-center", "--s", "5", "--out", str(out)]) == 0
        second = {p.name: p.read_bytes() for p in out.iterdir()}
        assert first == second


class TestRunSpring:
    def test_delta_echoed_in_metadata(self, tmp_path):
        assert main(["run-spring", "--out", str(tmp_path)]) == 0
        meta, _, rows = _read_csv(tmp_path / "profile.csv")
        assert meta["increment"] == pytest.approx((1.3 ** 2 - 1.0) / 10.0, rel=1e-15)
        assert len(rows) == 11

    def test_two_step_peak_at_zero(self, tmp_path):
        assert main(["run-spring", "--s", "2", "--out", str(tmp_path)]) == 0
        _, _, rows = _read_csv(tmp_path / "workdist_step_2.csv")
        w = np.array([float(r[0]) for r in rows])
        rho = np.array([float(r[1]) for r in rows])
        assert abs(w[np.argmax(rho)]) <= (w[1] - w[0]) / 2

    def test_endpoint_matches_target(self, tmp_path):
        assert main(["run-spring", "--out", str(tmp_path)]) == 0
        _, _, rows = _read_csv(tmp_path / "profile.csv")
        target = 10.0 * math.log(math.sinh(0.065) / math.sinh(0.05))
        assert float(rows[-1][2]) == pytest.approx(target, rel=0.01)


class TestSweep:
    def test_dlambda_sweep_with_fit(self, tmp_path, capsys):
        out = tmp_path / "sw"
        assert main(["sweep", "--param", "dlambda",
                     "--values", "0.05,0.1,0.125,0.2,0.25,0.5",
                     "--out", str(out)]) == 0
        text = (out / "sweep.csv").read_text()
        fit_line = [ln for ln in text.splitlines() if ln.startswith("# fit:")][0]
        slope = float(fit_line.split("slope=")[1].split()[0])
        intercept = float(fit_line.split("intercept=")[1].split()[0])
        assert intercept == pytest.approx(0.25, abs=1e-6)
        assert slope == pytest.approx((1 - 1 / math.tanh(1.0)) / 4.0, abs=1e-6)

    def test_dlambda_sweep_overrides_a_config_dlambda(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"dlambda": 0.5}))
        argv = ["sweep", "--param", "dlambda", "--values", "0.1,0.2"]
        assert main(argv + ["--out", str(tmp_path / "plain")]) == 0
        assert main(argv + ["--config", str(cfg), "--out", str(tmp_path / "keyed")]) == 0
        plain, keyed = ((tmp_path / run / "sweep.csv").read_text().splitlines()
                        for run in ("plain", "keyed"))
        # the config line differs (it echoes the file's key); the fit and the rows do not
        assert keyed[1:] == plain[1:]

    def test_dlambda_sweep_pulls_to_the_config_lambda_s(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"lambda_s": 2.0}))
        assert main(["sweep", "--param", "dlambda", "--values", "0.1,0.2",
                     "--config", str(cfg), "--out", str(tmp_path)]) == 0
        _, _, rows = _read_csv(tmp_path / "sweep.csv")
        for row, s in zip(rows, (21, 11)):
            exact = free_energy_profile(protocol.build_center_schedule(2.0, s, 1.0, 10)).endpoint
            assert row[1] == export.format_number(exact)

    def test_nmax_sweep_stabilizes(self, tmp_path):
        out = tmp_path / "sw"
        assert main(["sweep", "--param", "nmax", "--values", "0,3,7,10",
                     "--out", str(out)]) == 0
        _, header, rows = _read_csv(out / "sweep.csv")
        assert header[0] == "nmax"
        dfs = [float(r[1]) for r in rows]
        assert dfs[0] == pytest.approx(0.25, abs=1e-9)
        assert abs(dfs[-1] - dfs[-2]) < 1e-5

    def test_a_sweep_constant_mean_work(self, tmp_path):
        out = tmp_path / "sw"
        values = ",".join(str(2.0 ** l) for l in range(-4, 5))
        assert main(["sweep", "--param", "a", "--values", values,
                     "--out", str(out)]) == 0
        _, _, rows = _read_csv(out / "sweep.csv")
        means = [float(r[2]) for r in rows]
        assert np.allclose(means, 0.275, atol=1e-9)

    @pytest.mark.parametrize("argv, points", [
        (["--param", "dlambda", "--values", "0.0025,0.005"], [(401, 1.0), (201, 1.0)]),
        (["--protocol", "center", "--param", "a", "--values", "1", "--s", "3001"],
         [(3001, 1.0)]),
    ])
    def test_sweep_sizes_no_grid(self, argv, points, tmp_path, oracles):
        # the grids of s = 401 and s = 3001 are far over the budget; a sweep reads none
        assert main(["sweep", *argv, "--nmax", "10", "--out", str(tmp_path)]) == 0
        _, _, rows = _read_csv(tmp_path / "sweep.csv")
        assert len(rows) == len(points)
        for row, (s, a) in zip(rows, points):
            exact = oracles.center_exact_profile(1.0, s, a, 10)[-1]
            assert float(row[1]) == pytest.approx(exact, rel=0.0, abs=1e-12)

    def test_a_sweep_defaults_to_doubling_ladder(self, tmp_path):
        assert main(["sweep", "--param", "a", "--nmax", "0", "--out", str(tmp_path)]) == 0
        _, _, rows = _read_csv(tmp_path / "sweep.csv")
        assert [float(r[0]) for r in rows] == [2.0 ** l for l in range(-4, 5)]

    def test_requires_values(self, tmp_path, capsys):
        assert main(["sweep", "--param", "nmax", "--out", str(tmp_path)]) == 2
        assert "error: config:" in capsys.readouterr().err


class TestPathwaysCommand:
    def test_default_outputs(self, tmp_path):
        assert main(["pathways", "--out", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / "decomposition.json").read_text())
        assert payload["reconstruction_error"] < 1e-9
        assert set(payload["delta_F"]) == {"total", "stochastic", "deterministic",
                                           "optimal", "biased"}
        meta, header, rows = _read_csv(tmp_path / "transitions.csv")
        assert header[-1] == "class"
        assert all(r[-1] == "optimal" for r in rows)

    def test_each_transition_table_is_built_once(self, tmp_path, monkeypatch):
        # the records and the class split read one table per transition
        built = []
        tables = pathways._transition_tables

        def spy(schedule, i, x, *args):
            built.append((i, x.size))
            return tables(schedule, i, x, *args)

        monkeypatch.setattr(pathways, "_transition_tables", spy)
        assert main(["pathways", "--s", "4", "--out", str(tmp_path)]) == 0
        assert [i for i, _ in built] == [2, 3, 4]
        assert len({p for _, p in built}) == 1

    def test_overlap_matches_gaussian_oracle(self, tmp_path):
        # ground-state-only run: overlap of two equal-width Gaussians
        assert main(["pathways", "--nmax", "0", "--a", "50.0",
                     "--out", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / "decomposition.json").read_text())
        mass = payload["overlaps"][0]["mass"]
        assert mass == pytest.approx(math.erfc(0.5 / 4.0), abs=1e-4)

    def test_grid_flags_reach_the_schedule(self, tmp_path):
        assert main(["pathways", "--out", str(tmp_path / "auto")]) == 0
        assert main(["pathways", "--x-points", "1000", "--out", str(tmp_path / "fine")]) == 0
        auto, fine = (json.loads((tmp_path / d / "decomposition.json").read_text())
                      for d in ("auto", "fine"))
        meta, _, _ = _read_csv(tmp_path / "fine" / "transitions.csv")
        assert meta["x_points"] == 1000
        assert fine["config"] == meta
        assert "x_points" not in auto["config"]
        assert fine["overlaps"] != auto["overlaps"]

    @pytest.mark.parametrize("steps", [5, 11])
    def test_decomposes_beyond_four_steps(self, steps, tmp_path, oracles):
        assert main(["pathways", "--s", str(steps), "--out", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / "decomposition.json").read_text())
        exact = oracles.center_exact_profile(1.0, steps, 1.0, 3)[-1]
        assert payload["delta_F"]["total"] == pytest.approx(exact, rel=0.0, abs=1e-3)
        assert payload["reconstruction_error"] <= 1e-12

    @pytest.mark.parametrize("argv", [
        ["pathways", "--nmax", "100"],  # (101, 101, 200, 200) transition codes
        ["pathways", "--lambda-s", "1e6"],
        ["run-center", "--s", "2", "--lambda-s", "1e6"],
        ["run-center", "--s", "2", "--lambda-s", "1e-300"],  # work lattice spacing underflows
        # the node count (hi - lo) / h overflows float64
        ["run-center", "--s", "2", "--lambda-s", "5e-324"],
        ["run-center", "--s", "2", "--lambda-s", "1e-320"],
        ["run-center", "--s", "3", "--dlambda", "1e-320"],
    ])
    def test_oversized_work_refused_before_any_output(self, argv, tmp_path, capsys):
        # refused by the size estimates, before any large array is allocated
        assert main(argv + ["--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: grid-too-large:")
        assert len(err.splitlines()) == 1
        assert not list(tmp_path.iterdir())

    def test_budget_charges_only_the_lattices_built(self, tmp_path, monkeypatch, capsys):
        # at s = 500 the 499 work lattices take the grids over the budget:
        # pathways builds none of them, run-center is refused before any density
        assert main(["pathways", "--s", "500", "--nmax", "0",
                     "--out", str(tmp_path / "pathways")]) == 0

        def refuse(*args):
            raise AssertionError("a refused run builds no density")

        monkeypatch.setattr(workdist, "fluctuation_density", refuse)
        out = tmp_path / "run"
        capsys.readouterr()
        assert main(["run-center", "--s", "500", "--nmax", "0", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: grid-too-large: the grids")
        assert len(err.splitlines()) == 1
        assert not list(out.iterdir())

    def test_records_over_budget_refused_before_any_output(self, tmp_path, monkeypatch,
                                                           capsys):
        argv = ["pathways", "--nmax", "1", "--tol", "1e9", "--x-points", "11"]
        assert main(argv + ["--out", str(tmp_path / "full")]) == 0
        _, _, rows = _read_csv(tmp_path / "full" / "transitions.csv")
        per_step = Counter(row[0] for row in rows)
        assert len(per_step) == 2
        # each step's records fit the budget, the two steps' together do not
        monkeypatch.setattr(protocol, "GRID_BUDGET",
                            pathways.RECORD_VALUES * max(per_step.values()))
        out = tmp_path / "out"
        capsys.readouterr()
        assert main(argv + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: grid-too-large: the transition records")
        assert len(err.splitlines()) == 1
        assert not list(out.iterdir())

    def test_single_step_is_one_empty_optimal_pathway(self, tmp_path):
        # s = 1 does no work: dF = 0, as run-center --s 1 reports
        assert main(["pathways", "--s", "1", "--out", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / "decomposition.json").read_text())
        assert payload["delta_F"]["total"] == 0.0 and payload["delta_F"]["optimal"] == 0.0
        assert payload["counts"] == {"optimal": 1, "deterministic": 0, "stochastic": 0,
                                     "biased": 0}
        assert payload["reconstruction_error"] == 0.0 and payload["overlaps"] == []
        _, header, rows = _read_csv(tmp_path / "transitions.csv")
        assert header[0] == "step" and rows == []

    @pytest.mark.parametrize("lambda_s", [15.0, 16.0])
    def test_strongly_tilted_weights_stay_finite(self, lambda_s, tmp_path):
        # e^{-beta dW} overflows at grid ends where the density underflows or is
        # tiny; their product is not large.  Ground state: dF is closed form
        argv = ["pathways", "--s", "3", "--nmax", "0", "--a", "4", "--lambda-s", str(lambda_s)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv + ["--out", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / "decomposition.json").read_text())
        exact = ground_state_closed_form_center(4.0, lambda_s / 2, 3)
        assert payload["delta_F"]["total"] == pytest.approx(exact, abs=1e-3)
        assert payload["reconstruction_error"] <= 1e-12

    def test_huge_tolerance_all_optimal(self, tmp_path):
        assert main(["pathways", "--tol", "1e9", "--nmax", "1",
                     "--out", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / "decomposition.json").read_text())
        contrib = payload["contributions"]
        assert contrib["optimal"] == pytest.approx(contrib["total"], rel=1e-9)
        assert contrib["biased"] / contrib["total"] < 1e-8


class TestInputContract:
    @pytest.mark.parametrize("argv", [
        ["run-center", "--a", "inf"],
        ["run-center", "--a", "nan"],
        ["run-center", "--lambda-s", "inf"],
        ["run-center", "--lambda-s", "nan"],
        ["run-center", "--dlambda", "inf"],
        ["run-center", "--x-points", "1"],
        ["run-center", "--w-points", "1"],
        ["run-spring", "--a", "inf"],
        ["run-spring", "--omega-ratio", "nan"],
        ["run-spring", "--omega-ratio", "inf"],
        ["run-spring", "--x-points", "1"],
        ["sweep", "--param", "a", "--values", "nan"],
        ["sweep", "--param", "nmax", "--values", "2.5"],
        ["sweep", "--param", "dlambda", "--values", "0"],
        ["sweep", "--param", "dlambda", "--values", "-0.5"],
        ["sweep", "--param", "dlambda", "--values", "inf"],
        ["sweep", "--param", "dlambda", "--values", "nan"],
        ["pathways", "--tol", "nan"],
        ["pathways", "--tol", "-0.1"],
        ["pathways", "--eps", "nan"],
        ["pathways", "--eps", "inf"],
        ["sweep", "--x-points", "100"],
        ["sweep", "--w-points", "100"],
        ["sweep", "--param", "dlambda", "--values", "0.005"],
        ["sweep", "--param", "dlambda", "--values", "0.005,0.005"],
        ["sweep", "--param", "dlambda", "--values", "0.3"],
        ["sweep", "--protocol", "spring", "--param", "dlambda", "--values", "0.1,0.2"],
        ["pathways", "--w-points", "10"],  # the pathway scan reads no work grid
    ])
    def test_rejected_with_one_config_error(self, argv, tmp_path, capsys):
        assert main(argv + ["--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: config:")
        assert len(err.splitlines()) == 1
        assert "Traceback" not in err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("command, file_cfg", [
        ("run-center", {"a": "1"}),
        ("run-center", {"s": 2.5}),
        ("run-center", {"s": True}),
        ("run-center", {"n_max": 2.0}),
        ("run-center", {"lambda_s": None}),
        ("run-center", {"jobs": 2}),
        ("pathways", {"jobs": 2}),
        ("pathways", {"tol": "0.1"}),
        ("sweep", {"sweep_values": [1.0, True]}),
        ("sweep", {"sweep_values": "1,2"}),
        ("sweep", {"jobs": 1.5}),
        ("sweep", {"lambda_s": "2"}),
        ("sweep", {"x_points": 100}),
        ("sweep", {"w_points": 100}),
        ("sweep", {"protocol": "quantum"}),
        ("sweep", {"sweep_param": "zz"}),
        ("pathways", {"w_points": 100}),
    ])
    def test_config_file_value_rejected(self, command, file_cfg, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(file_cfg))
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: config:")
        assert len(err.splitlines()) == 1
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["run-center", "--a", "-inf"],
        ["run-center", "--bogus", "1"],
        ["run-center", "--s"],
        ["run-center", "--s", "abc"],
        ["sweep", "--param", "zz"],
        [],
    ], ids=["value-read-as-flag", "unknown-flag", "missing-value", "malformed-value",
            "bad-choice", "no-command"])
    def test_parser_errors_are_one_config_line(self, argv, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(argv + (["--out", str(out)] if argv else [])) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: config: ")
        assert len(captured.err.splitlines()) == 1
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("argv", [["--help"], ["run-center", "--help"], ["sweep", "-h"]])
    def test_help_exits_zero(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("usage: stepwork") and captured.err == ""

    def test_no_command_takes_jobs(self, capsys):
        for command in ("run-center", "run-spring", "sweep", "pathways"):
            assert main([command, "--jobs", "7"]) == 2
            assert capsys.readouterr().err.startswith("error: config: ")

    def test_config_file_cannot_switch_protocol(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        for command, other in (("run-center", "spring"), ("run-spring", "center"),
                               ("pathways", "spring")):
            cfg.write_text(json.dumps({"protocol": other}))
            out = tmp_path / command
            assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
            assert capsys.readouterr().err.startswith("error: config:")
            assert not out.exists()

    @pytest.mark.parametrize("argv, table", [
        (["run-spring", "--a", "1e300"], "profile.csv"),
        (["sweep", "--protocol", "spring", "--values", "1e300"], "sweep.csv"),
    ], ids=["run-spring", "sweep"])
    def test_zero_weight_states_change_no_row(self, argv, table, tmp_path, capsys):
        # at a0 = 1e300 every excited state weighs exactly 0, so the default
        # n_max = 100 writes the data rows of the ground state alone; summed
        # over all states, 0 * NaN from their overflowed E_n made it non-finite
        rows = []
        for extra in ([], ["--nmax", "0"]):
            out = tmp_path / str(len(extra))
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert main(argv + extra + ["--out", str(out)]) == 0
            rows.append((out / table).read_bytes().split(b"\n", 1)[1])
        assert rows[0] == rows[1]
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("argv, message", [
        (["run-center", "--a", "1e300"], "the free-energy profile at a=1e+300"),
        # the spring free energies overflow; the oracle is read from the profile,
        # so no RuntimeWarning comes first
        (["sweep", "--protocol", "spring", "--param", "a", "--values", "1e-310"],
         "the free-energy profile at a=1e-310"),
        # exp(-beta dF) = e^{396800}
        (["pathways", "--s", "2", "--nmax", "0", "--a", "64", "--lambda-s", "20"],
         "the pathway weights sum to inf"),
    ], ids=["run-center", "sweep-tiny-a", "pathways"])
    def test_out_of_float_range_rejected(self, argv, message, tmp_path, capsys):
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv + ["--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: non-finite: " + message)
        assert len(err.splitlines()) == 1
        assert not list(out.iterdir())

    @pytest.mark.parametrize("argv", [
        ["run-spring", "--a", "5e-324"],
        ["sweep", "--protocol", "spring", "--param", "a", "--values", "1e-300,5e-324"],
    ], ids=["run-spring", "sweep"])
    def test_underflowing_spring_temperature_named(self, argv, tmp_path, capsys):
        # 0.5 a omega_1 rounds to 0, where ln(1 - e^{-a omega}) has no value
        out = tmp_path / "out"
        assert main(argv + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == "error: config: the spring free energy at a=5e-324 underflows: a omega/2 is 0\n"
        assert not out.exists() or not list(out.iterdir())

    @pytest.mark.parametrize("argv", [
        ["run-center", "--nmax", "1000"],
        ["sweep", "--param", "nmax", "--values", "1000", "--s", "11"],
        ["sweep", "--param", "a", "--values", "1", "--s", "1000", "--nmax", "0"],
        ["run-spring", "--s", "1000", "--nmax", "0"],
    ])
    def test_profile_over_budget_refused(self, argv, tmp_path, monkeypatch, capsys):
        # n_max or s = 1e8 at the real budget, scaled down to allocate nothing large:
        # the closed-form profile is sized before the controls are built
        monkeypatch.setattr(protocol, "GRID_BUDGET", 10**4)
        out = tmp_path / "out"
        assert main(argv + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: grid-too-large: the schedule and its closed-form profile")
        assert len(err.splitlines()) == 1
        assert not list(out.iterdir())

    @pytest.mark.parametrize("protocol", ["center", "spring"])
    def test_profile_budget_counts_the_summed_states(self, protocol, tmp_path, capsys):
        # 5 (n_max + 9) s would be 1.5e9 values at n_max = 1e8, but at a = 1 the
        # profile sums only the states up to n_eff (379 center, 746 spring)
        assert main(["sweep", "--protocol", protocol, "--param", "nmax", "--values",
                     "100000000", "--s", "3", "--out", str(tmp_path / "sweep")]) == 0
        # a run still puts every state's density on its x grid
        out = tmp_path / "run"
        assert main([f"run-{protocol}", "--nmax", "100000000", "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: grid-too-large: the grids need")
        assert not list(out.iterdir())

    @pytest.mark.parametrize("argv", [
        ["run-center", "--lambda-s", "20", "--s", "2", "--x-points", "3"],
        ["run-spring", "--s", "3", "--x-points", "3"],
        ["run-spring", "--s", "3", "--x-points", "9"],
        ["pathways", "--lambda-s", "40", "--s", "3", "--x-points", "3"],
    ])
    def test_x_grid_too_coarse_for_its_density_refused(self, argv, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(argv + ["--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: grid-too-narrow: the x grid holds ")
        assert len(err.splitlines()) == 1
        assert not list(out.iterdir())

    def test_grid_over_budget_rejected(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(protocol, "GRID_BUDGET", 1000)
        out = tmp_path / "out"
        assert main(["run-center", "--s", "3", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: grid-too-large:")
        assert len(err.splitlines()) == 1
        assert not list(out.iterdir())


class TestExport:
    def test_format_number_pins(self):
        assert export.format_number(7) == "7"
        assert export.format_number(-3) == "-3"
        assert export.format_number(0.1 + 0.2) == "0.3"
        assert export.format_number(1.0 / 3.0) == "0.333333333333"
        assert export.format_number(np.float64(2.5e-7)) == "2.5e-07"
        assert export.format_number(math.nan) == "nan"
        assert export.format_number(math.inf) == "inf"
        assert export.format_number(-math.inf) == "-inf"
        assert export.format_number(-0.0) == "-0"
        assert export.format_number(1e-300) == "1e-300"
        assert export.format_number("optimal") == "optimal"

    @staticmethod
    def _reference_csv(header, rows, meta):
        lines = ["# config: " + json.dumps(meta, sort_keys=True, separators=(",", ":")),
                 ",".join(header)]
        lines += [",".join(export.format_number(v) for v in row) for row in rows]
        return "\n".join(lines) + "\n"

    def _check_density_file(self, path, density):
        meta = {"case": path.name}
        header, rows = export.density_rows(density)
        export.write_csv(path, header, rows, meta)
        expected = list(zip(density.grid.nodes().tolist(), density.values.tolist()))
        assert len(rows) == len(expected)
        assert path.read_bytes() == self._reference_csv(header, expected, meta).encode()

    def test_density_rows_match_per_value_formatting(self, tmp_path):
        values = np.array([0.0, 1e-300, 5e-324, 1.7976931348623157e308, 1.0 / 3.0,
                           123456.7890123456, 2.5e-7, 1.0])
        grids = [protocol.GridSpec(-2.5e8, 1.3e-9, values.size),   # large, negative W
                 protocol.GridSpec(-3.7e-12, 4.1e-11, values.size),  # tiny W
                 protocol.GridSpec(0.1, 8.2e15, values.size)]
        for k, grid in enumerate(grids):
            self._check_density_file(tmp_path / f"g{k}.csv", workdist.GriddedDensity(grid, values))
        spike = workdist.GriddedDensity(protocol.GridSpec(-1.0, 1.0, 3), [0.0, 1.0, 0.0])
        self._check_density_file(tmp_path / "p.csv", spike)
        assert (tmp_path / "p.csv").read_bytes().endswith(b"\nW,rho\n-1,0\n0,1\n1,0\n")

    def test_node_memo_follows_the_grid(self, tmp_path):
        # grids A, B, A in turn: a stale node column would mislabel B or the second A
        a = workdist.GriddedDensity(protocol.GridSpec(-1.0, 2.0, 4), [0.1, 0.2, 0.3, 0.4])
        b = workdist.GriddedDensity(protocol.GridSpec(-1.0, 2.0, 5), [0.5, 0.4, 0.3, 0.2, 0.1])
        for k, density in enumerate((a, b, a)):
            self._check_density_file(tmp_path / f"m{k}.csv", density)

    def test_rows_are_one_bytes_block(self, tmp_path):
        grid = protocol.GridSpec(-1.0, 2.0, 4)
        _, rows = export.density_rows(workdist.GriddedDensity(grid, [0.1, 0.2, 0.3, 0.4]))
        assert isinstance(rows, export.FormattedRows) and len(rows) == 4
        assert rows.body == b"-1,0.1\n0,0.2\n1,0.3\n2,0.4\n"
        # tuple rows take the same path to the same bytes
        tuples = [(-1.0, 0.1), (0.0, 0.2), (1.0, 0.3), (2.0, 0.4)]
        assert export.format_rows(tuples).body == rows.body
        export.write_csv(tmp_path / "a.csv", ["W", "rho"], rows)
        export.write_csv(tmp_path / "b.csv", ["W", "rho"], tuples)
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
        assert (tmp_path / "a.csv").read_bytes() == b"W,rho\n" + rows.body

    def test_comment_lines_follow_config(self, tmp_path):
        path = tmp_path / "t.csv"
        export.write_csv(path, ["x", "y"], [(1, 0.5), (2, "z")],
                         [{"b": 1, "a": None}, "fit: slope=1 intercept=0"])
        assert path.read_text() == ('# config: {"a":null,"b":1}\n'
                                    "# fit: slope=1 intercept=0\nx,y\n1,0.5\n2,z\n")


def _die(*args):
    os._exit(1)


class TestPooledExport:
    """Distribution CSVs formatted on worker processes by export.write_densities."""

    @staticmethod
    def _bodies(out):
        # below the "# config" line, which names the output directory
        return {p.name: p.read_bytes().split(b"\n", 1)[1] for p in out.glob("*.csv")}

    @pytest.fixture
    def pools(self, monkeypatch):
        """The worker counts of the pools write_densities starts."""
        started, make = [], export._worker_pool

        def spy(workers):
            started.append(workers)
            return make(workers)

        monkeypatch.setattr(export, "_worker_pool", spy)
        return started

    @pytest.mark.parametrize("argv", [["run-center", "--s", "8"],
                                      ["run-spring", "--s", "8", "--nmax", "20"]])
    def test_pool_changes_no_byte(self, argv, tmp_path, monkeypatch, pools, capsys):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        outputs = {}
        for mode, gate in (("pooled", 0), ("in-process", math.inf)):
            monkeypatch.setattr(export, "POOL_MIN_ROWS", gate)
            assert main([*argv, "--out", str(tmp_path / mode)]) == 0
            outputs[mode] = self._bodies(tmp_path / mode), capsys.readouterr()
        assert pools == [2]
        # seven distributions: more files than the four a two-worker pool holds in flight
        assert len(outputs["pooled"][0]) == 8
        assert outputs["pooled"] == outputs["in-process"]

    def test_one_usable_cpu_starts_no_pool(self, tmp_path, monkeypatch, pools):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        monkeypatch.setattr(export, "POOL_MIN_ROWS", 0)
        assert main(["run-center", "--s", "4", "--out", str(tmp_path)]) == 0
        assert pools == []
        assert len(list(tmp_path.glob("workdist_step_*.csv"))) == 3

    def test_lost_worker_is_one_error_line(self, tmp_path, monkeypatch, pools, capsys):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.setattr(export, "POOL_MIN_ROWS", 0)
        monkeypatch.setattr(export, "_format_body", _die)
        out = tmp_path / "out"
        assert main(["run-center", "--s", "6", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: worker-lost: ")
        assert len(err.splitlines()) == 1
        assert pools == [2]
        assert multiprocessing.active_children() == []
        # a body is read before its file opens, so no distribution file is left
        assert not list(out.glob("workdist_step_*.csv"))

    def test_import_and_small_runs_load_no_process_machinery(self, tmp_path):
        probe = textwrap.dedent("""
            import os, sys
            machinery = ["concurrent.futures.process", "multiprocessing"]
            def loaded():
                return [m for m in machinery if m in sys.modules]
            import stepwork.cli
            assert loaded() == [], loaded()
            assert stepwork.cli.main(["run-center", "--out", sys.argv[1]]) == 0
            assert loaded() == [], loaded()
            # the probe sees a pooled run load them
            stepwork.cli.export.POOL_MIN_ROWS = 0
            os.sched_getaffinity = lambda pid: {0, 1}
            assert stepwork.cli.main(["run-center", "--out", sys.argv[1]]) == 0
            assert loaded() == machinery, loaded()
        """)
        src = str(Path(export.__file__).resolve().parents[1])
        proc = subprocess.run([sys.executable, "-c", probe, str(tmp_path)],
                              env=dict(os.environ, PYTHONPATH=src), capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
