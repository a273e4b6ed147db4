"""The benchmark's closed-form oracles accept small runs of every command.

bench/oracles.py imports nothing from stepwork, so these checks compare the
CLI's printed free energies with the physics rather than with the pipeline.
"""

import pytest

from stepwork.cli import main


@pytest.mark.parametrize("argv, check, params", [
    (["run-center", "--s", "11", "--a", "1", "--nmax", "10", "--lambda-s", "1"],
     "check_run_center",
     {"s": 11, "a": 1.0, "n_max": 10, "lambda_s": 1.0, "df_tol": 1e-9}),
    (["sweep", "--protocol", "center", "--param", "a", "--s", "11", "--nmax", "10",
      "--values", "0.0625,1,16"],
     "check_sweep",
     {"protocol": "center", "s": 11, "n_max": 10, "lambda_s": 1.0,
      "values": [0.0625, 1.0, 16.0], "df_tol": 1e-9}),
    (["sweep", "--protocol", "spring", "--param", "a", "--s", "11", "--nmax", "20",
      "--omega-ratio", "1.3", "--values", "50,100"],
     "check_sweep",
     {"protocol": "spring", "s": 11, "omega_ratio": 1.3, "values": [50.0, 100.0],
      "df_tol": 1e-9}),
    (["pathways", "--s", "4", "--nmax", "5", "--a", "1", "--lambda-s", "1"],
     "check_pathways",
     {"s": 4, "a": 1.0, "n_max": 5, "lambda_s": 1.0, "df_tol": 1e-9}),
], ids=["run-center", "center-sweep", "spring-sweep", "pathways"])
def test_outputs_pass_the_oracles(argv, check, params, tmp_path, capsys, oracles):
    assert main(argv + ["--out", str(tmp_path)]) == 0
    report = getattr(oracles, check)(str(tmp_path), capsys.readouterr().out, params)
    assert report.ok, report.problems
    assert report.residuals
