"""stepwork benchmark: fixed CLI workloads, end-to-end and per-layer metrics.

Usage, from the repository root:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

With --trace 0 the workload's `stepwork` command runs as a subprocess
(`python -m stepwork.cli`, `src` on PYTHONPATH) again and again for S seconds
(at least MIN_INVOCATIONS times), and the end-to-end metrics are medians over
those invocations.  With --trace 1 untraced and traced invocations alternate;
the traced one runs the CLI in process under layertrace.py and the per-layer
metrics are medians over the traced invocations.

Wall times are calibrated: every timed child runs between two runs of the
fixed load in calibrate.py, and its wall time is scaled by CAL_REF_S over
their mean.  The raw times are kept in the result record.

Every invocation is checked: exit code 0, outputs byte-identical to the first
invocation, and the first invocation's outputs pass the oracles in
oracles.py.  The checks run outside the timed region.  The last stdout line
is one JSON object: correct, attempted, failed, metrics.  A full record
(environment, every invocation, output fingerprint) goes to bench/results/.

stepwork takes no random input, so each workload is one fixed command and
the seed only labels the run; equal seeds give equal inputs.
"""

from __future__ import annotations

import argparse
import contextlib
import fcntl
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import layertrace
import oracles

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = "bench/work"          # relative to ROOT; outputs live here while a run lasts
OUT = f"{WORK}/out"          # the same --out path every time, so outputs compare bytewise
FIRST = f"{WORK}/first"      # the first invocation's outputs, kept for the checks
RESULTS = BENCH / "results"
FINGERPRINTS = BENCH / "fingerprints.json"

MIN_INVOCATIONS = 3          # a median needs three samples
SETUP_PROBES = 5
RUN_DEADLINE_S = 150.0       # children still running this long after start are killed
# calibrate.py's wall time at which calibrated and raw seconds coincide: its
# typical time on the unloaded 2-core Intel Xeon the baseline was measured on
CAL_REF_S = 0.25

# one thread per BLAS/OpenMP pool, so `weights @ dens` cannot oversubscribe the cores
THREADS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
CHILD_ENV = {"PATH": os.environ.get("PATH", os.defpath), "PYTHONPATH": str(ROOT / "src"),
             "PYTHONHASHSEED": "0", **THREADS}

A_SWEEP = [2.0 ** e for e in range(-4, 5)]
SPRING_A = [0.05, 0.1, 0.25, 1.0, 4.0, 16.0, 50.0, 100.0]


def _values(values):
    return ",".join(repr(v) for v in values)


# name -> (CLI arguments, output check, check parameters).  Every parameter an
# oracle needs is passed explicitly, so a changed CLI default cannot move a
# workload.  df_tol is the oracle tolerance of the correctness check; the
# residual itself is the df_abs_err metric.
WORKLOADS = {
    # headline run: export dominates (101 CSVs, 90 MB), convolution second
    "center-s101": (
        ["run-center", "--s", "101", "--a", "1", "--nmax", "10", "--lambda-s", "1"],
        oracles.check_run_center,
        {"s": 101, "a": 1.0, "n_max": 10, "lambda_s": 1.0, "df_tol": 1e-9}),
    # compute path with export bypassed: convolution dominates, window 12k..48k nodes
    "center-sweep": (
        ["sweep", "--protocol", "center", "--param", "a", "--s", "51", "--nmax", "10",
         "--values", _values(A_SWEEP)],
        oracles.check_sweep,
        {"protocol": "center", "s": 51, "n_max": 10, "lambda_s": 1.0, "values": A_SWEEP,
         "df_tol": 1e-9}),
    # Hermite recurrences dominate; quadratic pushforward on a fixed 8001-node lattice.
    # The cold points a0 = 50, 100 carry the known spring spike error (~4e-6).
    "spring-sweep": (
        ["sweep", "--protocol", "spring", "--param", "a", "--nmax", "200", "--s", "61",
         "--omega-ratio", "1.3", "--values", _values(SPRING_A)],
        oracles.check_sweep,
        {"protocol": "spring", "s": 61, "omega_ratio": 1.3, "values": SPRING_A,
         "df_tol": 1e-4}),
    # the only workload that loads pathways; its total comes from a 21-point
    # subsampled enumeration, hence the loose tolerance
    "pathways": (
        ["pathways", "--s", "4", "--nmax", "5", "--a", "1", "--lambda-s", "1"],
        oracles.check_pathways,
        {"s": 4, "a": 1.0, "n_max": 5, "lambda_s": 1.0, "df_tol": 1e-2}),
}


class Deadline(Exception):
    pass


def _raise_deadline(signum, frame):
    raise Deadline


def spawn(argv, log, deadline):
    """Run `python argv` to exit; returns (wall seconds, exit code, peak RSS in MB).

    stdout goes to `log`, stderr to `log.err`.  The child is killed if the
    run's deadline passes, or if this process is interrupted.
    """
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise Deadline
    actions = [(os.POSIX_SPAWN_OPEN, 1, log, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
               (os.POSIX_SPAWN_OPEN, 2, log + ".err", os.O_WRONLY | os.O_CREAT | os.O_TRUNC,
                0o644)]
    signal.setitimer(signal.ITIMER_REAL, remaining)
    reaped = False
    try:
        start = time.perf_counter()
        pid = os.posix_spawn(sys.executable, [sys.executable, *argv], CHILD_ENV,
                             file_actions=actions)
        try:
            _, status, usage = os.wait4(pid, 0)
            reaped = True
            wall = time.perf_counter() - start
        finally:
            if not reaped:
                with contextlib.suppress(ProcessLookupError, ChildProcessError):
                    os.kill(pid, signal.SIGKILL)
                    os.waitpid(pid, 0)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    return wall, os.waitstatus_to_exitcode(status), usage.ru_maxrss * 1024 / 1e6


def _hash_dir(path):
    files = {}
    for name in sorted(os.listdir(path)):
        with open(os.path.join(path, name), "rb") as fh:
            files[name] = hashlib.file_digest(fh, "sha256").hexdigest()
    return files


def _dir_bytes(path):
    return sum(os.path.getsize(os.path.join(path, name)) for name in os.listdir(path))


class Session:
    """The invocations of one benchmark run and their correctness verdicts."""

    def __init__(self, cli_args, check, params, deadline):
        self.cli_args = cli_args
        self.check = check
        self.params = params
        self.deadline = deadline
        self.invocations = []
        self.first = None        # {"files", "stdout", "bytes"} of the first invocation
        self.report = None
        self.calibration_s = None  # the latest calibrate.py wall time

    def _calibrate(self):
        wall, code, _ = spawn([str(BENCH / "calibrate.py"), f"{WORK}/calibration.csv"],
                              f"{WORK}/calibration", self.deadline)
        if code != 0:
            raise RuntimeError("the calibration load failed")
        return wall

    def timed(self, argv, log):
        """Run one child between two calibration loads.

        Returns (raw wall, calibrated wall, exit code, peak RSS in MB).  The
        machine's speed drifts by up to 1.5x over minutes under other tenants'
        load; scaling by the mean of the calibration times just before and
        after the child cancels most of that drift.
        """
        if self.calibration_s is None:
            self.calibration_s = self._calibrate()
        wall, code, rss = spawn(argv, log, self.deadline)
        before, self.calibration_s = self.calibration_s, self._calibrate()
        return wall, wall * CAL_REF_S / (0.5 * (before + self.calibration_s)), code, rss

    def invoke(self, argv, kind):
        """One invocation into OUT; compared with the first, which is kept."""
        shutil.rmtree(OUT, ignore_errors=True)
        log = f"{WORK}/stdout"
        try:
            raw, wall, code, rss = self.timed(argv, log)
        except Deadline:
            self.invocations.append({"kind": kind, "ok": False, "problem": "deadline"})
            raise
        with open(log) as fh:
            stdout = fh.read()
        entry = {"kind": kind, "wall_s": wall, "raw_wall_s": raw, "exit": code,
                 "peak_rss_mb": rss}
        outputs = {"files": _hash_dir(OUT), "stdout": stdout} if os.path.isdir(OUT) else None
        if self.first is None and outputs is not None:
            self.first = {**outputs, "bytes": _dir_bytes(OUT)}
            os.replace(OUT, FIRST)
        same = outputs is not None and all(v == self.first[k] for k, v in outputs.items())
        entry["ok"] = code == 0 and same
        if code != 0:
            with open(log + ".err") as fh:
                entry["problem"] = fh.read()[-2000:]
        elif not same:
            entry["problem"] = "outputs differ from the first invocation"
        self.invocations.append(entry)
        return entry

    def run_checks(self):
        """Oracle checks on the first invocation; a failed check fails every invocation."""
        if self.first is None or not os.path.isdir(FIRST):
            self.report = oracles.Report()
            self.report.require(False, "the first invocation left no outputs")
        else:
            self.report = self.check(FIRST, self.first["stdout"], self.params)
        if not self.report.ok:
            for entry in self.invocations:
                entry["ok"] = False

    @property
    def failed(self):
        return sum(not entry["ok"] for entry in self.invocations)


def _cli(args):
    return ["-m", "stepwork.cli", *args, "--out", OUT]


def _entries(session, kind):
    return [e for e in session.invocations if e["kind"] == kind and "wall_s" in e]


def _median(values):
    values = list(values)
    return statistics.median(values) if values else 0.0


def run_plain(session, seconds):
    """End-to-end metrics: set-up probes, then the timed invocations."""
    probe = ["-c", "import stepwork.cli"]
    spawn(probe, f"{WORK}/setup", session.deadline)   # fills the bytecode cache
    probes = []
    for _ in range(SETUP_PROBES):
        raw, wall, code, _ = session.timed(probe, f"{WORK}/setup")
        probes.append({"wall_s": wall, "raw_wall_s": raw})
        if code != 0:
            session.invocations.append({"kind": "setup", "ok": False, "exit": code,
                                        "problem": "import stepwork.cli failed"})
    start = time.monotonic()
    with contextlib.suppress(Deadline):
        while (len(_entries(session, "cli")) < MIN_INVOCATIONS
               or time.monotonic() - start < seconds):
            session.invoke(_cli(session.cli_args), "cli")
    session.run_checks()
    timed = _entries(session, "cli")
    return {
        "wall_s": _median(e["wall_s"] for e in timed),
        "setup_s": _median(p["wall_s"] for p in probes),
        "peak_rss_mb": _median(e["peak_rss_mb"] for e in timed),
        "output_mb": session.first["bytes"] / 1e6 if session.first else 0.0,
        "df_abs_err": session.report.df_abs_err,
    }, {"setup_probes_s": probes}


def run_traced(session, seconds):
    """Per-layer metrics: untraced and traced invocations alternate."""
    spans_path = f"{WORK}/spans.json"
    traces = []
    start = time.monotonic()
    with contextlib.suppress(Deadline):
        while not traces or time.monotonic() - start < seconds:
            session.invoke(_cli(session.cli_args), "cli")
            with contextlib.suppress(FileNotFoundError):
                os.remove(spans_path)
            entry = session.invoke([str(BENCH / "layertrace.py"), spans_path,
                                    *session.cli_args, "--out", OUT], "traced")
            if not os.path.exists(spans_path):
                entry["ok"] = False
                break
            with open(spans_path) as fh:
                traces.append(layertrace.layer_metrics(json.load(fh)))
    session.run_checks()
    if not traces:  # every layer reads 0 and the failures are counted
        traces.append(layertrace.layer_metrics(layertrace.EMPTY))
    walls = {kind: _median(e["wall_s"] for e in _entries(session, kind))
             for kind in ("cli", "traced")}
    # counts repeat exactly; times and ratios are medians over the traced invocations
    metrics = {name: traces[0][name] if name in layertrace.COUNTS
               else statistics.median(t[name] for t in traces) for name in traces[0]}
    metrics["trace.wall_s"] = walls["traced"]
    metrics["trace.overhead_s"] = walls["traced"] - walls["cli"]
    return metrics, {"layers_per_traced_invocation": traces}


def environment():
    def git_rev():
        if not (ROOT / ".git").exists():
            return None
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                  text=True, timeout=10, check=True).stdout.strip()
        return None

    def cpu_model():
        with contextlib.suppress(OSError):
            with open("/proc/cpuinfo") as fh:
                for line in fh:
                    if line.startswith("model name"):
                        return line.split(":", 1)[1].strip()
        return platform.processor() or None

    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "stepwork").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"git_rev": git_rev(), "src_sha256": src.hexdigest(),
            "python": platform.python_version(), "numpy": np.__version__,
            "nproc": os.cpu_count(), "cpu_affinity": len(os.sched_getaffinity(0)),
            "cpu_model": cpu_model(), "child_env": {k: CHILD_ENV[k] for k in
                                                    ("PYTHONHASHSEED", *THREADS)}}


def fingerprint_changes(workload, first):
    """Names whose bytes differ from the recorded fingerprint; None if none is recorded."""
    if first is None or not FINGERPRINTS.exists():
        return None
    with open(FINGERPRINTS) as fh:
        reference = json.load(fh).get(workload)
    if reference is None:
        return None
    names = set(reference["files"]) | set(first["files"])
    changed = sorted(n for n in names if reference["files"].get(n) != first["files"].get(n))
    if reference["stdout"] != first["stdout"]:
        changed.append("<stdout>")
    return changed


def _declared_units(trace):
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    os.chdir(ROOT)
    if not (ROOT / "src" / "stepwork" / "cli.py").is_file():
        print(f"error: no stepwork sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # two runs in one checkout would share bench/work
    lock = open(__file__)
    try:
        fcntl.flock(lock, fcntl.LOCK_EX | fcntl.LOCK_NB)
    except BlockingIOError:
        print("error: another benchmark run holds this checkout", file=sys.stderr)
        return 1
    signal.signal(signal.SIGALRM, _raise_deadline)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    cli_args, check, params = WORKLOADS[args.workload]
    shutil.rmtree(WORK, ignore_errors=True)
    os.makedirs(WORK)
    session = Session(cli_args, check, params, time.monotonic() + RUN_DEADLINE_S)
    try:
        runner = run_traced if args.trace else run_plain
        metrics, details = runner(session, args.seconds)
    except Deadline:
        print("error: a set-up probe outlived the run's deadline", file=sys.stderr)
        return 1
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    units = _declared_units(args.trace)
    if set(metrics) != set(units):
        print(f"error: metrics {sorted(set(metrics) ^ set(units))} disagree with BENCHMARK.json",
              file=sys.stderr)
        return 1
    changed = fingerprint_changes(args.workload, session.first)
    attempted, failed = len(session.invocations), session.failed
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "command": ["stepwork", *cli_args],
              "environment": environment(), "metrics": metrics,
              "problems": session.report.problems, "delta_f": session.report.delta_f,
              "invocations": session.invocations,
              "fingerprint": session.first, "fingerprint_changed": changed, **details}
    RESULTS.mkdir(exist_ok=True)
    with open(RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=1)

    for problem in session.report.problems[:20]:
        print(f"check failed: {problem}")
    raw = _median(e["raw_wall_s"] for e in _entries(session, "cli"))
    print(f"raw wall time: median {raw:.4f} s over {len(_entries(session, 'cli'))} invocations")
    if changed is None:
        print("fingerprint: no reference recorded")
    else:
        shown = ", ".join(changed[:5]) + (", ..." if len(changed) > 5 else "")
        print(f"fingerprint: changed in {len(changed)}: {shown}" if changed
              else "fingerprint: unchanged")
    if args.trace:
        layer_ms = {k: v for k, v in metrics.items()
                    if k.endswith("_ms") and k != "import.stepwork_ms"}
        total = sum(layer_ms.values()) or 1.0
        top = sorted(layer_ms.items(), key=lambda kv: -kv[1])[:4]
        print("top self time after import: "
              + ", ".join(f"{k} {100 * v / total:.0f}%" for k, v in top))
    print(json.dumps({
        "correct": failed == 0 and attempted > 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
