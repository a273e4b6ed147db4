"""The benchmark's layer tracer still finds every layer it times.

bench/layertrace.py wraps functions by module attribute; a renamed or
rebound function would silently read 0 ms in the per-layer metrics.
"""

import importlib.util
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "bench" / "layertrace.py"

_RUN = {"cli.main", "spectra.OscillatorSpectrum.all_densities",
        "workdist.fluctuation_density", "workdist.pushforward_step_density",
        "workdist.lattice_convolve", "workdist.run_work_recursion",
        "free_energy.free_energy_profile", "export.density_rows", "export.profile_rows",
        "export.write_csv"}


def _layer_of():
    spec = importlib.util.spec_from_file_location("layertrace", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYER_OF


def _trace(argv, tmp_path):
    """Run the CLI under the tracer; returns its spans file's contents."""
    spans_path = tmp_path / "spans.json"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, str(TRACER), str(spans_path), *argv,
                           "--out", str(tmp_path / "out")],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(spans_path.read_text())


@pytest.mark.parametrize("argv, reached", [
    (["run-center", "--s", "3"], _RUN | {"protocol.build_center_schedule"}),
    (["run-spring", "--s", "3", "--nmax", "5"], _RUN | {"protocol.build_spring_schedule"}),
    (["pathways", "--s", "3", "--nmax", "2"],
     {"cli.main", "protocol.build_center_schedule", "spectra.OscillatorSpectrum.all_densities",
      "workdist.fluctuation_density", "export.write_csv", "export.write_json",
      "pathways.find_optimal_transitions", "pathways.decompose_free_energy",
      "pathways.overlap_measure"}),
])
def test_every_reached_layer_is_traced(argv, reached, tmp_path):
    assert reached <= set(_layer_of())
    spans = _trace(argv, tmp_path)["spans"]
    assert reached <= {name for name, *_ in spans}


def test_export_rows_count_data_lines(tmp_path):
    counts = _trace(["run-center", "--s", "3"], tmp_path)["counts"]
    csvs = list((tmp_path / "out").glob("*.csv"))
    # every file: comment lines, one header line, then the data lines
    data_lines = sum(sum(1 for ln in f.read_text().splitlines() if not ln.startswith("#")) - 1
                     for f in csvs)
    assert len(csvs) == 3
    assert counts["export.rows"] == data_lines


def test_pathway_records_count_data_lines(tmp_path):
    counts = _trace(["pathways", "--s", "3", "--nmax", "2"], tmp_path)["counts"]
    lines = (tmp_path / "out" / "transitions.csv").read_text().splitlines()
    data_lines = sum(1 for ln in lines if not ln.startswith("#")) - 1
    assert data_lines > 0
    assert counts["pathways.records"] == data_lines


def test_streamed_run_counts_every_row(tmp_path):
    s = 61
    trace = _trace(["run-center", "--s", str(s)], tmp_path)
    csvs = list((tmp_path / "out").glob("*.csv"))
    data_lines = sum(sum(1 for ln in f.read_text().splitlines() if not ln.startswith("#")) - 1
                     for f in csvs)
    # the distribution bodies were formatted and written on the writer thread
    assert trace["counts"]["export.rows"] == data_lines
    names = Counter(name for name, *_ in trace["spans"])
    assert names["export.write_csv"] == len(csvs) == s
    assert names["export.density_rows"] == s - 1


@pytest.mark.parametrize("argv", [["sweep", "--param", "dlambda", "--values", "0.001,0.002"],
                                  ["pathways", "--s", "500", "--nmax", "0"],
                                  ["sweep", "--protocol", "center", "--param", "nmax",
                                   "--values", "100000000", "--s", "3"],
                                  ["sweep", "--protocol", "spring", "--param", "nmax",
                                   "--values", "100000000", "--s", "3"]])
def test_traced_run_refused_only_where_the_plain_run_is(argv, tmp_path):
    # none of these runs builds a work distribution, and the n_max = 1e8
    # sweeps build no density either, so reading the grids to count their
    # points charges none to the budget
    _trace(argv, tmp_path)
