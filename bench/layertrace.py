"""Run the stepwork CLI in process with timing wrappers around each layer.

Usage: python layertrace.py SPANS_JSON CLI_ARG...

The wrappers are installed from here, on the module attributes the CLI
calls through, so the program itself is unchanged.  Every call becomes a
span (name, parent, start, end); counts are computed from the call's
arguments and result.  Spans stay in memory and are written to SPANS_JSON
when the run ends.  ``layer_metrics`` turns that file into per-layer self
times (a span's duration minus the part its child spans cover) and counts.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import Counter

# exponential_average switches to log space above this beta*W span
_LOG_SPACE_SPAN = 300.0
# an operand counts as useful when it is at least this share of its own peak
_USEFUL_RELATIVE = 1e-16
# bookkeeping done by the wrappers themselves; charged to no layer
_BOOKKEEPING = "trace.bookkeeping"

# span name -> per-layer self-time metric
LAYER_OF = {
    "cli.main": "cli.self_ms",
    "protocol.build_center_schedule": "protocol.schedule_ms",
    "protocol.build_spring_schedule": "protocol.schedule_ms",
    "spectra.OscillatorSpectrum.all_densities": "spectra.densities_ms",
    "workdist.fluctuation_density": "workdist.fluct_ms",
    "workdist.pushforward_step_density": "workdist.pushforward_ms",
    "workdist.lattice_convolve": "workdist.convolve_ms",
    "workdist.run_work_recursion": "workdist.recursion_self_ms",
    "free_energy.free_energy_profile": "free_energy.profile_self_ms",
    "free_energy.exponential_average": "free_energy.expavg_ms",
    "workdist.work_moments": "free_energy.moments_ms",
    "export.density_rows": "export.rows_ms",
    "export.profile_rows": "export.rows_ms",
    "export.write_csv": "export.write_ms",
    "export.write_json": "export.write_ms",
    "pathways.find_optimal_transitions": "pathways.scan_ms",
    "pathways.decompose_free_energy": "pathways.decompose_ms",
    "pathways.overlap_measure": "pathways.overlap_ms",
}

COUNTS = ("export.rows", "export.bytes", "workdist.convolve_calls",
          "workdist.convolve_macs", "workdist.convolve_useful_macs",
          "spectra.hermite_evals", "workdist.lattice_nodes",
          "free_energy.logspace_calls", "protocol.x_points", "protocol.w_points",
          "pathways.records")
# the output of a run that recorded nothing
EMPTY = {"spans": [], "counts": {name: 0 for name in COUNTS}, "import_ms": 0.0}


class Tracer:
    def __init__(self):
        self.spans = []   # [name, parent index or -1, start, end]
        self.stack = []
        self.counts = Counter({name: 0 for name in COUNTS})

    def wrap(self, name, fn, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self.stack[-1] if self.stack else -1
            index = len(self.spans)
            self.spans.append([name, parent, time.perf_counter(), 0.0])
            self.stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.stack.pop()
                self.spans[index][3] = time.perf_counter()
            if count is not None:
                start = time.perf_counter()
                count(self.counts, result, *args, **kwargs)
                self.spans.append([_BOOKKEEPING, parent, start, time.perf_counter()])
            return result
        return traced


def _count_schedule(c, schedule, *args, **kwargs):
    c["protocol.x_points"] += schedule.x_grid.points
    c["protocol.w_points"] += schedule.w_grid.points


def _count_densities(c, result, spectrum, x):
    c["spectra.hermite_evals"] += (spectrum.n_max + 1) * len(x)


def _useful(values):
    return int((values >= _USEFUL_RELATIVE * values.max()).sum())


def _count_convolve(c, result, d1, d2, h):
    c["workdist.convolve_calls"] += 1
    if d1.is_point_mass or d2.is_point_mass:
        return
    c["workdist.convolve_macs"] += d1.values.size * d2.values.size
    c["workdist.convolve_useful_macs"] += _useful(d1.values) * _useful(d2.values)


def _count_recursion(c, ledger, schedule):
    c["workdist.lattice_nodes"] += sum(d.values.size for d in ledger.distributions
                                       if not d.is_point_mass)


def _count_expavg(c, result, rho, beta):
    if not rho.is_point_mass and beta * (rho.grid.max - rho.grid.min) > _LOG_SPACE_SPAN:
        c["free_energy.logspace_calls"] += 1


def _count_write_csv(c, result, path, header, rows, meta=None):
    c["export.rows"] += len(rows)
    c["export.bytes"] += os.path.getsize(path)


def _count_write_json(c, result, path, payload):
    c["export.bytes"] += os.path.getsize(path)


def _count_scan(c, scan, *args, **kwargs):
    c["pathways.records"] += len(scan.records)


def install(tracer):
    """Wrap each traced function everywhere the package binds it."""
    from stepwork import cli, export, free_energy, pathways, protocol, spectra, workdist

    modules = (cli, export, free_energy, pathways, protocol, spectra, workdist)
    targets = [
        ("protocol.build_center_schedule", protocol.build_center_schedule, _count_schedule),
        ("protocol.build_spring_schedule", protocol.build_spring_schedule, _count_schedule),
        ("workdist.fluctuation_density", workdist.fluctuation_density, None),
        ("workdist.pushforward_step_density", workdist.pushforward_step_density, None),
        ("workdist.lattice_convolve", workdist.lattice_convolve, _count_convolve),
        ("workdist.run_work_recursion", workdist.run_work_recursion, _count_recursion),
        ("free_energy.free_energy_profile", free_energy.free_energy_profile, None),
        ("free_energy.exponential_average", free_energy.exponential_average, _count_expavg),
        ("workdist.work_moments", workdist.work_moments, None),
        ("export.density_rows", export.density_rows, None),
        ("export.profile_rows", export.profile_rows, None),
        ("export.write_csv", export.write_csv, _count_write_csv),
        ("export.write_json", export.write_json, _count_write_json),
        ("pathways.find_optimal_transitions", pathways.find_optimal_transitions, _count_scan),
        ("pathways.decompose_free_energy", pathways.decompose_free_energy, None),
        ("pathways.overlap_measure", pathways.overlap_measure, None),
    ]
    for name, fn, count in targets:
        traced = tracer.wrap(name, fn, count)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, attr, traced)
    spectrum = spectra.OscillatorSpectrum
    spectrum.all_densities = tracer.wrap("spectra.OscillatorSpectrum.all_densities",
                                         spectrum.all_densities, _count_densities)
    return cli


def layer_metrics(trace):
    """Per-layer self times (ms) and counts from one layertrace output."""
    spans = trace["spans"]
    child_time = [0.0] * len(spans)
    for name, parent, start, end in spans:
        if parent >= 0:
            child_time[parent] += end - start
    metrics = {metric: 0.0 for metric in LAYER_OF.values()}
    for (name, _parent, start, end), inner in zip(spans, child_time):
        if name in LAYER_OF:
            metrics[LAYER_OF[name]] += 1e3 * (end - start - inner)
    counts = dict(trace["counts"])
    useful = counts.pop("workdist.convolve_useful_macs")
    macs = counts["workdist.convolve_macs"]
    metrics["workdist.convolve_useful_frac"] = useful / macs if macs else 0.0
    metrics["import.stepwork_ms"] = trace["import_ms"]
    metrics.update(counts)
    return metrics


def main(argv):
    spans_path, cli_args = argv[0], argv[1:]
    start = time.perf_counter()
    import stepwork.cli  # noqa: F401  (timed: interpreter already up, package not yet)
    import_ms = 1e3 * (time.perf_counter() - start)
    tracer = Tracer()
    cli = install(tracer)
    code = tracer.wrap("cli.main", cli.main)(cli_args)
    with open(spans_path, "w") as fh:
        json.dump({"import_ms": import_ms, "exit": code, "spans": tracer.spans,
                   "counts": tracer.counts}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
