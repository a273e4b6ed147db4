import errno
import functools
import json
import math
import os
import subprocess
import sys
import textwrap
import threading
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from reference import format_number, ground_state_closed_form_center

from stepwork import cli, export, pathways, protocol, workdist
from stepwork.cli import main
from stepwork.errors import MassLeak
from stepwork.free_energy import free_energy_profile
from stepwork.workdist import GriddedDensity, fluctuation_density, run_work_recursion


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
        # every distribution is the unit spike at W = 0 on the nodes (-1, 0, 1)
        for i in (2, 3):
            _, header, rows = _read_csv(tmp_path / f"workdist_step_{i}.csv")
            assert header == ["W", "rho"] and rows == [["-1", "0"], ["0", "1"], ["1", "0"]]

    def test_no_work_pull_on_a_too_coarse_x_grid_refused(self, tmp_path, capsys):
        # once exited 0: a pull that does no work built no density, so nothing
        # checked that two x points could hold one
        out = tmp_path / "out"
        assert main(["run-center", "--lambda-s", "0", "--s", "3", "--x-points", "2",
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: grid-too-narrow: boundary density ")
        assert len(err.splitlines()) == 1
        assert not out.exists()

    def test_flags_override_the_defaults(self, tmp_path):
        out = tmp_path / "out"
        assert main(["run-center", "--s", "3", "--a", "2", "--out", str(out)]) == 0
        meta, _, rows = _read_csv(out / "profile.csv")
        assert (meta["s"], meta["a"], meta["lambda_s"], meta["n_max"]) == (3, 2.0, 1.0, 10)
        assert len(rows) == 3

    def test_unwritable_output(self, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        code = main(["run-center", "--out", str(blocker / "sub")])
        assert code == 2
        assert "error: output-unwritable:" in capsys.readouterr().err

    def test_failed_write_is_output_unwritable(self, tmp_path, monkeypatch, capsys):
        # a write that fails after --out is made (a full disk at the second
        # distribution) is one output-unwritable line, and leaves no file
        write = export.write_csv

        def full_at_step_3(path, *args):
            if path.endswith("workdist_step_3.csv"):
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            write(path, *args)

        monkeypatch.setattr(export, "write_csv", full_at_step_3)
        out = tmp_path / "a" / "out"
        assert main(["run-center", "--s", "4", "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: output-unwritable: [Errno 28] No space left on device\n")
        # and removes the directories it made, the missing parent of --out too
        assert not list(tmp_path.iterdir())

    def test_output_path_taken_by_a_directory_is_output_unwritable(self, tmp_path, capsys):
        out = tmp_path / "out"
        (out / "profile.csv").mkdir(parents=True)
        assert main(["run-center", "--s", "3", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: output-unwritable: ") and len(err.splitlines()) == 1
        assert [p.name for p in out.iterdir()] == ["profile.csv"]

    def test_failed_write_removes_the_files_past_a_directory(self, tmp_path, capsys):
        # a stale workdist_step_4.csv from an earlier run, and a directory where
        # workdist_step_3.csv goes: the cleanup leaves the directory, not the file
        out = tmp_path / "out"
        (out / "workdist_step_3.csv").mkdir(parents=True)
        (out / "workdist_step_4.csv").write_text("stale\n")
        assert main(["run-center", "--s", "4", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: output-unwritable: ") and len(err.splitlines()) == 1
        assert [p.name for p in out.iterdir()] == ["workdist_step_3.csv"]

    def test_shorter_run_removes_the_distributions_past_its_last_step(self, tmp_path):
        # s = 6 then s = 3 into one --out: steps 4..6 would be stale next to the
        # s = 3 profile.  Names this run never writes stay
        kept = ["workdist_step_07.csv", "workdist_step_9.csv.bak", "notes.csv"]
        for name in kept:
            (tmp_path / name).write_text("kept\n")
        assert main(["run-center", "--s", "6", "--out", str(tmp_path)]) == 0
        assert main(["run-center", "--s", "3", "--out", str(tmp_path)]) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            ["profile.csv", "workdist_step_2.csv", "workdist_step_3.csv", *kept])
        for name in ("profile.csv", "workdist_step_2.csv", "workdist_step_3.csv"):
            assert _read_csv(tmp_path / name)[0]["s"] == 3

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
        assert not out.exists()

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

    def test_peak_does_not_grow_with_s(self, tmp_path, traced_peak):
        # each rho_i is built as it is written and then dropped, so a run
        # holds a few distributions and one export at any s
        def run(s):
            argv = ["run-spring", "--s", str(s), "--a", "100", "--nmax", "0"]
            assert main([*argv, "--out", str(tmp_path / str(s))]) == 0
        peaks = [traced_peak(functools.partial(run, s)) for s in (21, 81)]
        assert peaks[1] <= 1.1 * peaks[0], peaks


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

    def test_dlambda_sweep_pulls_to_the_config_lambda_s(self, tmp_path):
        assert main(["sweep", "--param", "dlambda", "--values", "0.1,0.2",
                     "--lambda-s", "2", "--out", str(tmp_path)]) == 0
        assert '"lambda_s":2.0' in (tmp_path / "sweep.csv").read_text().splitlines()[0]
        _, _, rows = _read_csv(tmp_path / "sweep.csv")
        for row, s in zip(rows, (21, 11)):
            exact = free_energy_profile(protocol.build_center_schedule(2.0, s, 1.0, 10)).endpoint
            assert row[1] == format_number(exact)

    def test_failed_write_leaves_no_sweep_csv(self, tmp_path, monkeypatch, capsys):
        # the disk fills after the file is written: it is removed
        write = export.write_csv

        def write_then_full(path, *args):
            write(path, *args)
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(export, "write_csv", write_then_full)
        out = tmp_path / "out"
        assert main(["sweep", "--param", "a", "--values", "1,2", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == "error: output-unwritable: [Errno 28] No space left on device\n"
        assert not out.exists()

    def test_nmax_sweep_stabilizes(self, tmp_path):
        out = tmp_path / "sw"
        assert main(["sweep", "--param", "nmax", "--values", "0,3,7,10",
                     "--out", str(out)]) == 0
        _, header, rows = _read_csv(out / "sweep.csv")
        assert header[0] == "nmax"
        dfs = [float(r[1]) for r in rows]
        assert dfs[0] == pytest.approx(0.25, abs=1e-9)
        assert abs(dfs[-1] - dfs[-2]) < 1e-5

    def test_oracle_is_the_target_at_every_n_max(self, tmp_path):
        # at a = 16 the ground-state pull's dF is -0.125, and the target 0.25
        assert main(["sweep", "--param", "nmax", "--values", "0,10", "--a", "16",
                     "--out", str(tmp_path)]) == 0
        _, _, rows = _read_csv(tmp_path / "sweep.csv")
        for row in rows:
            sch = protocol.build_center_schedule(1.0, 11, 16.0, int(row[0]))
            assert row[4] == format_number(float(free_energy_profile(sch).targets[-1]))
        assert float(rows[0][1]) == pytest.approx(ground_state_closed_form_center(16.0, 0.1, 11))
        assert float(rows[0][4]) == pytest.approx(0.25)

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

    @pytest.mark.parametrize("protocol, unread", [("center", {"a", "omega_ratio"}),
                                                  ("spring", {"a", "lambda_s"})])
    def test_echoes_only_the_keys_it_reads(self, protocol, unread, tmp_path):
        assert main(["sweep", "--protocol", protocol, "--out", str(tmp_path)]) == 0
        meta, _, _ = _read_csv(tmp_path / "sweep.csv")
        keys = {"protocol", "s", "n_max", "out", "sweep_param", "sweep_values",
                "lambda_s", "omega_ratio"} - unread
        assert set(meta) == keys


class TestPathwaysCommand:
    def test_default_outputs(self, tmp_path):
        assert main(["pathways", "--out", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / "decomposition.json").read_text())
        assert payload["reconstruction_error"] < 1e-9
        assert set(payload["delta_F"]) == {"total", "stochastic", "deterministic",
                                           "optimal", "biased"}
        meta, header, rows = _read_csv(tmp_path / "transitions.csv")
        # one row per optimal transition of the split, each field as format_number writes it
        records = []
        pathways.decompose_free_energy(cli._schedule_from(meta), tol=meta["tol"],
                                       on_records=records.extend)
        assert header == list(pathways.TransitionRecord._fields)
        assert rows == [[format_number(v) for v in r] for r in records]
        assert rows

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
        # a finite node count: the grid read passes, the recursion's charge refuses
        ["run-center", "--x-points", "200000000"],
        # the node count (hi - lo) / h overflows float64
        ["run-center", "--s", "2", "--lambda-s", "5e-324"],
        ["run-center", "--s", "2", "--lambda-s", "1e-320"],
        ["run-center", "--s", "3", "--lambda-s", "2e-320"],
        # point counts past the float64 range, which the grid sizing divides by
        ["run-center", "--x-points", "1" + "0" * 400],
        ["run-center", "--w-points", "1" + "0" * 400],
        ["run-spring", "--x-points", "1" + "0" * 400],
        ["pathways", "--x-points", "1" + "0" * 400],
        # within the range, with charges past it
        ["run-center", "--w-points", "1" + "0" * 308],
        ["run-spring", "--x-points", "1" + "0" * 308],
        # step counts and n_max past the float64 range, which the sizing reads as floats
        *([command, "--s", "1" + "0" * 400]
          for command in ("run-center", "run-spring", "sweep", "pathways")),
        *([command, "--nmax", "1" + "0" * 400]
          for command in ("run-center", "run-spring", "pathways")),
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
        assert not out.exists()

    def test_split_builds_no_density_and_is_not_charged_for_one(self, tmp_path, capsys):
        # 200M x nodes, over the budget, yet a read of the grid refuses only
        # a node count that is not finite: the split reads at most 200
        # positions over its span, while the command's overlap densities
        # are charged 2.4e9 values
        sch = protocol.build_center_schedule(1.0, 3, 1.0, 3, x_points=200_000_000)
        assert pathways.decompose_free_energy(sch).reconstruction_error <= 1e-12
        out = tmp_path / "out"
        assert main(["pathways", "--x-points", "200000000", "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: grid-too-large: the grids need")
        assert not out.exists()

    def test_two_steps_charge_and_check_their_density(self, tmp_path, capsys):
        # s = 2 has no pair of densities to overlap, yet its step density is
        # charged and built, as at s = 3, so a grid over the budget is refused
        out = tmp_path / "out"
        assert main(["pathways", "--s", "2", "--x-points", "30000000", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: grid-too-large: the grids need")
        assert len(err.splitlines()) == 1
        assert not out.exists()
        assert main(["pathways", "--s", "2", "--out", str(out)]) == 0
        payload = json.loads((out / "decomposition.json").read_text())
        assert payload["overlaps"] == [] and payload["reconstruction_error"] <= 1e-12

    def test_two_step_grid_too_coarse_for_its_density_refused(self, tmp_path, capsys):
        # once exited 0 with total 181.55 against the closed form 90.73: with no
        # pair to overlap, nothing checked that the 3-node grid held the density
        out = tmp_path / "out"
        assert main(["pathways", "--s", "2", "--nmax", "0", "--a", "0.001", "--lambda-s",
                     "-13.474100690675169", "--x-points", "2", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: grid-too-narrow:")
        assert len(err.splitlines()) == 1
        assert not out.exists()

    def test_tolerance_checked_before_the_densities_are_charged(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["pathways", "--lambda-s", "1e6", "--tol", "-1", "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: config: tol must be finite")
        assert not out.exists()

    def test_records_over_budget_refused_before_any_output(self, tmp_path, monkeypatch,
                                                           capsys):
        argv = ["pathways", "--nmax", "0", "--tol", "1e9", "--x-points", "11"]
        assert main(argv + ["--out", str(tmp_path / "full")]) == 0
        # the rows and header, after the config line that echoes --out
        full = (tmp_path / "full" / "transitions.csv").read_bytes().split(b"\n", 1)[1]
        _, _, rows = _read_csv(tmp_path / "full" / "transitions.csv")
        per_step = [n for _, n in sorted(Counter(int(row[0]) for row in rows).items())]
        assert len(per_step) == 2 and per_step[0] < per_step[1]
        # one step's records are held at a time: the largest step's fit, and
        # the rows are the same
        monkeypatch.setattr(protocol, "GRID_BUDGET", pathways.RECORD_VALUES * max(per_step))
        assert main(argv + ["--out", str(tmp_path / "fit")]) == 0
        assert (tmp_path / "fit" / "transitions.csv").read_bytes().split(b"\n", 1)[1] == full
        # under a later step's records: refused after the first step's rows
        # were appended, and the file is removed
        monkeypatch.setattr(protocol, "GRID_BUDGET", pathways.RECORD_VALUES * max(per_step) - 1)
        out = tmp_path / "out"
        capsys.readouterr()
        assert main(argv + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: grid-too-large: the transition records")
        assert len(err.splitlines()) == 1
        assert not out.exists()

    def test_peak_is_one_transition_at_any_s(self, tmp_path, monkeypatch, traced_peak):
        # the charge of one transition's tables and records bounds the run,
        # however many transitions' records the file holds
        charged = {}
        check = pathways.check_grid_budget

        def charge(what, values, *args):
            charged[what] = max(values, charged.get(what, 0))
            return check(what, values, *args)

        monkeypatch.setattr(pathways, "check_grid_budget", charge)
        peaks = []
        for s in (5, 41):
            argv = ["pathways", "--s", str(s), "--nmax", "5", "--out", str(tmp_path / str(s))]
            codes = []
            peaks.append(traced_peak(lambda: codes.append(main(argv))))
            assert codes == [0]
            _, _, rows = _read_csv(tmp_path / str(s) / "transitions.csv")
            per_step = Counter(row[0] for row in rows)
            assert len(per_step) == s - 1
            one_transition = (charged["the transition tables"]
                              + pathways.RECORD_VALUES * max(per_step.values()))
            assert peaks[-1] < 8 * one_transition, (s, len(rows))
        # 40 transitions' records (55,818) held together would take about 11 times
        # the peak of 4 transitions'
        assert peaks[1] < 2 * peaks[0]

    def test_overlap_densities_dropped_before_the_split(self, tmp_path, monkeypatch,
                                                        traced_peak):
        # the 120,000-point overlap densities and 22,530 records each fit a
        # budget that the two held together would exceed
        argv = ["pathways", "--s", "11", "--nmax", "0", "--tol", "1", "--x-points", "120000"]
        assert main(argv + ["--out", str(tmp_path / "full")]) == 0
        meta, _, rows = _read_csv(tmp_path / "full" / "transitions.csv")
        budget = 1.001 * max(cli._schedule_from(meta).density_values,
                             pathways.RECORD_VALUES * len(rows))
        monkeypatch.setattr(protocol, "GRID_BUDGET", budget)
        codes = []
        peak = traced_peak(lambda: codes.append(main(argv + ["--out", str(tmp_path / "out")])))
        assert codes == [0]
        assert peak < 8 * budget

    def test_overlap_densities_held_two_at_a_time(self, tmp_path, traced_peak):
        # each overlap reads two consecutive densities, so the peak is that
        # of two 1M-point densities, at s = 4 as at s = 12
        peaks = []
        for s in (4, 12):
            argv = ["pathways", "--s", str(s), "--nmax", "0", "--x-points", "1000000",
                    "--out", str(tmp_path / str(s))]
            codes = []
            peaks.append(traced_peak(lambda: codes.append(main(argv))))
            assert codes == [0]
            meta, _, _ = _read_csv(tmp_path / str(s) / "transitions.csv")
            assert peaks[-1] < 8 * cli._schedule_from(meta).density_values
        # eleven densities held together would take about 1.5e7 values
        assert peaks[1] < 1.1 * peaks[0]

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
        # a sweep point sets the swept key (a dlambda point its s), and the
        # center pull reads no omega_ratio
        ["sweep", "--param", "a", "--values", "1,2", "--a", "5"],
        ["sweep", "--param", "nmax", "--values", "0,1", "--nmax", "3"],
        ["sweep", "--param", "dlambda", "--values", "0.1,0.2", "--s", "4"],
        ["sweep", "--values", "1", "--omega-ratio", "2"],
    ])
    def test_rejected_with_one_config_error(self, argv, tmp_path, capsys):
        assert main(argv + ["--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: config:")
        assert len(err.splitlines()) == 1
        assert "Traceback" not in err
        assert not list(tmp_path.iterdir())

    # each value is given by its flag: one its type or choices refuse, a flag
    # the command does not take, or a value the run refuses; the --out is new
    @pytest.mark.parametrize("command, file_cfg", [
        ("run-center", ["--a", "one"]),
        ("run-center", ["--s", "2.5"]),
        ("run-center", ["--s", "true"]),
        ("run-center", ["--nmax", "2.0"]),
        ("run-center", ["--lambda-s", ""]),
        ("run-center", ["--jobs", "2"]),
        ("pathways", ["--jobs", "2"]),
        ("pathways", ["--tol", "0,1"]),
        ("sweep", ["--values", "1,true"]),
        ("sweep", ["--values", "[1,2]"]),
        ("sweep", ["--jobs", "1.5"]),
        ("sweep", ["--lambda-s", "two"]),
        ("sweep", ["--values", "1,,2"]),
        ("sweep", ["--nmax", "-1"]),
        ("sweep", ["--protocol", "quantum"]),
        ("sweep", ["--protocol", "spring", "--omega-ratio", "0"]),
        ("pathways", ["--nmax", "-1"]),
        # the pull length is lambda_s alone; its step is lambda_s / (s - 1)
        ("sweep", ["--dlambda", "0.5"]),
        # a center pull has no frequency ratio
        ("run-center", ["--omega-ratio", "1.3"]),
        # a real value past the float64 range parses to inf
        ("run-center", ["--a", "1" + "0" * 400]),
        ("run-center", ["--lambda-s", "1" + "0" * 400]),
        ("run-spring", ["--omega-ratio", "1" + "0" * 400]),
        ("pathways", ["--tol", "1" + "0" * 400]),
        ("pathways", ["--lambda-s", "1" + "0" * 400]),
        ("sweep", ["--values", "1," + "1" + "0" * 400]),
        # pathways runs the center pull
        ("pathways", ["--omega-ratio", "1.3"]),
        # a sweep checks its pull, its temperatures and its step count
        ("sweep", ["--lambda-s", "nan"]),
        ("sweep", ["--param", "dlambda", "--values", "0.1,0.2", "--lambda-s", "inf"]),
        ("sweep", ["--param", "a", "--values", "0"]),
        ("sweep", ["--s", "0"]),
        # the spring pull reads no lambda_s
        ("sweep", ["--protocol", "spring", "--values", "1", "--lambda-s", "2"]),
        # an empty list is no sweep, and only an absent one means the default a sweep
        ("sweep", ["--values", ""]),
        ("sweep", ["--param", "a", "--values", ""]),
    ])
    def test_config_file_value_rejected(self, command, file_cfg, tmp_path, capsys):
        out = tmp_path / "out"
        assert main([command, *file_cfg, "--out", str(out)]) == 2
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
        # a center pull steps by lambda_s / (s - 1): --lambda-s is its one length
        ["run-center", "--dlambda", "0.1"],
        # every pathway split runs at the one density floor
        ["pathways", "--eps", "1e-12"],
    ], ids=["value-read-as-flag", "unknown-flag", "missing-value", "malformed-value",
            "bad-choice", "no-command", "no-dlambda-flag", "no-eps-flag"])
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

    def test_config_step_count_past_float64_range_refused(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["pathways", "--s", "1" + "0" * 400, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == "error: grid-too-large: s is past the float64 range; lower s\n"
        assert not out.exists()

    def test_only_sweep_takes_a_protocol(self, tmp_path, capsys):
        for command, other in (("run-center", "spring"), ("run-spring", "center"),
                               ("pathways", "spring")):
            out = tmp_path / command
            assert main([command, "--protocol", other, "--out", str(out)]) == 2
            assert capsys.readouterr().err.startswith("error: config:")
            assert not out.exists()

    def test_config_flag_refused(self, tmp_path, capsys):
        # every setting is a flag: no command reads a config file
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"s": 3}))
        for command in ("run-center", "run-spring", "sweep", "pathways"):
            out = tmp_path / command
            assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: config: ") and len(err.splitlines()) == 1
            assert not out.exists()

    # refused before --out is made, and (the last) after transitions.csv is written
    _REFUSED = [["run-center", "--a", "-1"], ["pathways", "--tol", "-1"],
                ["sweep", "--param", "nmax", "--values", "-1"],
                ["run-spring", "--s", "2", "--w-points", "20000000"],
                ["pathways", "--s", "2", "--nmax", "0", "--a", "64", "--lambda-s", "20"]]

    @pytest.mark.parametrize("argv", _REFUSED)
    def test_refused_run_removes_only_the_directories_it_made(self, argv, tmp_path, capsys):
        # a nested --out under a missing parent, an existing empty --out, and a
        # new --out under an existing parent
        for out in (tmp_path / "a" / "b", tmp_path, tmp_path / "b"):
            assert main(argv + ["--out", str(out)]) in (1, 2)
            assert len(capsys.readouterr().err.splitlines()) == 1
            assert tmp_path.is_dir() and not list(tmp_path.iterdir())

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
        assert not out.exists()

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
        assert not out.exists()

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
        assert not out.exists()

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
        assert not out.exists()

    @pytest.mark.parametrize("protocol", ["center", "spring"])
    def test_sweep_takes_n_max_past_float64_range(self, protocol, tmp_path):
        # the profile sums only the states that carry weight and sizes no grid,
        # so its rows are those of n_max = 1e8
        rows = []
        for n_max in ("100000000", "1" + "0" * 400):
            out = tmp_path / str(len(n_max))
            assert main(["sweep", "--protocol", protocol, "--nmax", n_max, "--s", "3",
                         "--out", str(out)]) == 0
            rows.append((out / "sweep.csv").read_bytes().split(b"\n", 1)[1])
        assert rows[0] == rows[1]

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
        assert not out.exists()

    @pytest.mark.parametrize("argv, code, err", [
        # a work window past the float64 range (inf - inf) sizes to no grid
        (["--lambda-s", "1e300"], 2, "error: grid-too-large: the grids need infinitely many"),
        # 1 / tanh(a) overflows: the thermal variance is inf, and n_max bounds the grid
        (["--a", "5e-324", "--lambda-s", "0"], 0, ""),
        # the increment over the target spacing, the center x grid's M, overflows
        (["--lambda-s", "1e308", "--nmax", "0"], 2,
         "error: grid-too-large: the grids need infinitely many"),
    ])
    def test_float64_extremes_warn_nothing(self, argv, code, err, tmp_path, capsys):
        # pytest turns a RuntimeWarning into an error
        assert main(["pathways", *argv, "--out", str(tmp_path)]) == code
        assert capsys.readouterr().err.startswith(err)

    @pytest.mark.parametrize("argv, remedy", [
        # the work window's bounds overflow
        (["pathways", "--nmax", "0", "--lambda-s", "1e307"], "shorten the pull"),
        # the increment over the target spacing, the center x grid's M, overflows
        (["pathways", "--nmax", "0", "--lambda-s", "1e308"], "shorten the pull"),
        # the x spacing is the increment, 5e-324, too fine for the x grid's span
        (["run-center", "--s", "2", "--lambda-s", "5e-324"],
         "raise the pull increment or lower the point counts"),
        # the work spacing, the increment squared, underflows to 0
        (["run-center", "--lambda-s", "1e-170"],
         "raise the pull increment or lower the point counts"),
    ], ids=["wide-window", "wide-m", "fine-x", "zero-w"])
    def test_infinite_grids_name_their_cause(self, argv, remedy, tmp_path, capsys):
        out = tmp_path / "out"
        assert main([*argv, "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: grid-too-large: the grids need infinitely many nodes; " + remedy + "\n")
        assert not out.exists()

    def test_grid_over_budget_rejected(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(protocol, "GRID_BUDGET", 1000)
        out = tmp_path / "out"
        assert main(["run-center", "--s", "3", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: grid-too-large:")
        assert len(err.splitlines()) == 1
        assert not out.exists()


class TestExport:
    def test_format_rows_pins(self):
        # "%d" for the int fields, "%.12g" for the floats, the first row's line per row
        floats = (0.1 + 0.2, 1.0 / 3.0, np.float64(2.5e-7), math.nan, math.inf, -math.inf,
                  -0.0, 1e-300)
        rows = export.format_rows([(7, -3, *floats), (0, 12, *floats[::-1])])
        assert len(rows) == 2
        assert rows.body == (b"7,-3,0.3,0.333333333333,2.5e-07,nan,inf,-inf,-0,1e-300\n"
                             b"0,12,1e-300,-0,-inf,inf,nan,2.5e-07,0.333333333333,0.3\n")
        assert export.format_rows(()).body == b"" and not export.format_rows([])

    @staticmethod
    def _reference_csv(header, rows, meta):
        lines = ["# config: " + json.dumps(meta, sort_keys=True, separators=(",", ":")),
                 ",".join(header)]
        lines += [",".join(format_number(v) for v in row) for row in rows]
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

    def test_write_makes_no_copy_of_the_body(self, tmp_path, traced_peak):
        # the head and then the body go to the file, with no joined copy of both
        grid = protocol.GridSpec(0.0, 1.0, 1_000_000)
        density = workdist.GriddedDensity(grid, np.linspace(0.0, 1.0, grid.points))
        _, rows = export.density_rows(density)
        path = tmp_path / "big.csv"
        peak = traced_peak(lambda: export.write_csv(path, ["W", "rho"], rows, {"case": 1}))
        assert peak < 0.1 * len(rows.body)
        assert path.read_bytes() == b'# config: {"case":1}\nW,rho\n' + rows.body

    def test_template_holds_no_per_node_lines(self, traced_peak):
        # the W column is kept as three words a node, formatted a pass at a
        # time; joining one line per node traced 20.4 float64 values per node
        grid = protocol.GridSpec(-3.0, 7.0, 1_000_000)
        export._row_template.cache_clear()
        try:
            assert traced_peak(lambda: export._row_template(grid)) < 12 * 8 * grid.points
        finally:
            export._row_template.cache_clear()

    def test_comment_lines_follow_config(self, tmp_path):
        path = tmp_path / "t.csv"
        export.write_csv(path, ["x", "y"], [(1, 0.5), (2, 0.25)],
                         [{"b": 1, "a": None}, "fit: slope=1 intercept=0"])
        assert path.read_text() == ('# config: {"a":null,"b":1}\n'
                                    "# fit: slope=1 intercept=0\nx,y\n1,0.5\n2,0.25\n")


class TestStreamedExport:
    """Distribution CSVs written on export.write_densities's writer thread."""

    def test_thread_writes_the_bytes_of_direct_calls(self, tmp_path):
        # seven distributions: more than the writer's queue of two holds
        ledger = run_work_recursion(protocol.build_center_schedule(1.0, 8, 1.0, 10))
        names = [f"workdist_step_{i}.csv" for i in range(2, 9)]
        (tmp_path / "thread").mkdir()
        (tmp_path / "direct").mkdir()
        export.write_densities([tmp_path / "thread" / n for n in names], ledger, {"case": 1})
        for name, density in zip(names, ledger.distributions):
            export.write_csv(tmp_path / "direct" / name, *export.density_rows(density),
                             {"case": 1})
        for name in names:
            assert ((tmp_path / "thread" / name).read_bytes()
                    == (tmp_path / "direct" / name).read_bytes())

    @pytest.mark.parametrize("side", ["builder", "writer"])
    def test_failure_at_any_step_leaves_a_prefix(self, side, tmp_path, monkeypatch):
        # a failure at step k on either side, with the threads switching every
        # microsecond: that failure is raised, the files written are the first
        # ones in order, and the writer thread has ended
        grid, steps = protocol.GridSpec(-1.0, 1.0, 3), 12
        threads, write, switch = threading.active_count(), export.write_csv, sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for k in range(steps):
                written = []

                def densities():
                    for i in range(steps):
                        if side == "builder" and i == k:
                            raise MassLeak(f"step {i}")
                        yield GriddedDensity(grid, np.array([0.0, i + 1.0, 0.0]))

                def fail_at_k(path, *args):
                    if side == "writer" and path.name == f"{k}.csv":
                        raise OSError(f"step {k}")
                    write(path, *args)
                    written.append(path.name)

                monkeypatch.setattr(export, "write_csv", fail_at_k)
                paths = [tmp_path / f"{side}{k}" / f"{i}.csv" for i in range(steps)]
                paths[0].parent.mkdir()
                with pytest.raises((MassLeak, OSError), match=f"^step {k}$"):
                    export.write_densities(paths, densities(), None)
                assert written == [f"{i}.csv" for i in range(len(written))]
                assert len(written) == k if side == "writer" else len(written) <= k
                assert threading.active_count() == threads
        finally:
            sys.setswitchinterval(switch)

    def test_write_failure_on_the_writer_is_one_error_line(self, tmp_path, monkeypatch,
                                                           capsys):
        # the 4th distribution's write fails, after the first three were written
        threads, written, write = threading.active_count(), [], export.write_csv

        def fail_at_step_5(path, *args):
            if os.path.basename(path) == "workdist_step_5.csv":
                raise OSError(errno.ENOSPC, "No space left on device", str(path))
            write(path, *args)
            written.append(os.path.basename(path))

        monkeypatch.setattr(export, "write_csv", fail_at_step_5)
        out = tmp_path / "out"
        assert main(["run-center", "--s", "8", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: output-unwritable: ")
        assert len(err.splitlines()) == 1
        assert written == ["profile.csv", "workdist_step_2.csv", "workdist_step_3.csv",
                           "workdist_step_4.csv"]
        assert threading.active_count() == threads
        assert not out.exists()

    def test_mass_leak_while_files_wait_is_one_error_line(self, tmp_path, monkeypatch, capsys):
        # the distributions are built as they are written, so the leak at
        # step 4 of 6 is found with the writer thread running
        threads, convolve, calls = threading.active_count(), workdist.lattice_convolve, []

        def leak_at_step_4(d1, d2, h):
            # rho_3 is the first convolution and rho_4 the second
            calls.append(h)
            rho = convolve(d1, d2, h)
            return GriddedDensity(rho.grid, rho.values * (0.5 if len(calls) == 2 else 1.0))

        monkeypatch.setattr(workdist, "lattice_convolve", leak_at_step_4)
        out = tmp_path / "out"
        assert main(["run-center", "--s", "6", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: mass-leak: work distribution at step 4")
        assert len(err.splitlines()) == 1
        assert threading.active_count() == threads
        assert not out.exists()

    def test_no_run_loads_process_machinery(self, tmp_path):
        probe = textwrap.dedent("""
            import sys
            machinery = ["concurrent.futures.process", "multiprocessing"]
            def loaded():
                return [m for m in machinery if m in sys.modules]
            import stepwork.cli
            assert loaded() == [], loaded()
            for argv in (["run-center"], ["run-spring"],
                         ["run-center", "--s", "101", "--a", "1", "--nmax", "10",
                          "--lambda-s", "1"]):
                assert stepwork.cli.main([*argv, "--out", sys.argv[1]]) == 0
                assert loaded() == [], (argv, loaded())
        """)
        src = str(Path(export.__file__).resolve().parents[1])
        proc = subprocess.run([sys.executable, "-c", probe, str(tmp_path)],
                              env=dict(os.environ, PYTHONPATH=src), capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr

    def test_max_rss_grows_by_one_export_per_row(self, tmp_path):
        # each run from a helper process of its own, which reads the run's max
        # RSS alone: the figure of this process's children is a running max over
        # all of them.  A held distribution and its export cost
        # ROW_VALUES + 1 values per row, measured at 6.8
        helper = textwrap.dedent("""
            import resource, subprocess, sys
            subprocess.run([sys.executable, "-m", "stepwork.cli", *sys.argv[1:]],
                           check=True, stdout=subprocess.DEVNULL)
            print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
        """)
        src = str(Path(export.__file__).resolve().parents[1])
        runs = []
        for points in (1_000_000, 3_000_000):
            out = tmp_path / str(points)
            proc = subprocess.run([sys.executable, "-c", helper, "run-spring", "--s", "2",
                                   "--w-points", str(points), "--out", str(out)],
                                  env=dict(os.environ, PYTHONPATH=src), capture_output=True,
                                  text=True, timeout=300)
            assert proc.returncode == 0, proc.stderr
            with open(out / "workdist_step_2.csv", "rb") as fh:
                rows = sum(1 for _ in fh) - 2  # below the config and header lines
            runs.append((rows, 1024 * int(proc.stdout)))  # ru_maxrss is in KiB
        (rows_small, rss_small), (rows_large, rss_large) = runs
        per_row = (rss_large - rss_small) / (rows_large - rows_small)
        assert per_row <= (export.ROW_VALUES + 1) * 8, runs
