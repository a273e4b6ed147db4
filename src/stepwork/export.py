"""Deterministic CSV/JSON writers for run artifacts.

Numbers are rendered with 12 significant digits and '.' decimals regardless
of locale, so identical configurations produce byte-identical files.

``write_densities`` writes a run's work distributions.  When they hold at
least POOL_MIN_ROWS data rows and more than one CPU is usable, each file's
body is formatted on a pool of worker processes, one per usable CPU, and at
most two files per worker are in flight.  The main process still makes
every density_rows and write_csv call, once per file and in order, and
every body is the same bytes % against the same line template wherever it
runs, so the files do not depend on the CPU count.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import json
import math
import os

from .errors import WorkerLost

__all__ = ["FormattedRows", "format_number", "format_rows", "write_csv", "density_rows",
           "write_densities", "profile_rows", "write_json"]

# data rows from which formatting a run's distributions on worker processes
# pays back the pool's start-up; below it they are formatted in process
POOL_MIN_ROWS = 200_000


def format_number(x):
    return f"{x:.12g}" if isinstance(x, float) else str(x)


def _comment(entry):
    if isinstance(entry, dict):
        return "# config: " + json.dumps(entry, sort_keys=True, separators=(",", ":"))
    return "# " + entry


class FormattedRows:
    """A table's data lines as one bytes block, each line ending in '\n'.

    ``body`` is given as the bytes or as a future of them (a worker's
    result); reading it waits for the result.  ``len()`` is the number of
    data rows, not of bytes.
    """

    __slots__ = ("_body", "count")

    def __init__(self, body, count):
        self._body = body
        self.count = count

    @property
    def body(self):
        if not isinstance(self._body, bytes):
            self._body = self._body.result()
        return self._body

    def __len__(self):
        return self.count


def format_rows(rows):
    """FormattedRows of tuples of scalars, each rendered by format_number."""
    text = "".join(",".join(map(format_number, row)) + "\n" for row in rows)
    return FormattedRows(text.encode(), len(rows))


def write_csv(path, header, rows, meta=None):
    """Write a table under its '#' comment lines, in one binary write.

    ``meta`` is the config dict, written as '# config: {...}', or a list of
    comment entries in order: config dicts and 'tag: text' strings.  Rows
    are FormattedRows (as density_rows makes them) or tuples of scalars,
    which format_rows renders.  Every line ends in '\n' on any platform.
    """
    if not isinstance(rows, FormattedRows):
        rows = format_rows(rows)
    entries = [] if meta is None else [meta] if isinstance(meta, dict) else meta
    head = "".join(_comment(e) + "\n" for e in entries) + ",".join(header) + "\n"
    data = head.encode() + rows.body  # waits for a worker's body before the file opens
    with open(path, "wb") as fh:
        fh.write(data)


@functools.lru_cache(maxsize=1)
def _row_template(grid):
    # one b"W,%.12g\n" line per node, W formatted once per grid: equal
    # GridSpecs have bit-equal nodes, and once the window saturates,
    # successive steps' distributions share one grid
    return b"".join(map(b"%.12g,%%.12g\n".__mod__, grid.nodes().tolist()))


def _format_body(grid, values):
    return _row_template(grid) % tuple(values.tolist())


def density_rows(density, pool=None):
    """Two-column (W, rho) rows, one per grid node.

    The rows come back as FormattedRows: the rho column is formatted in one
    bytes % against the grid's line template, and "%.12g" renders every
    float exactly as format_number does.  With a process ``pool`` the
    formatting is submitted to it, and the body is a future.
    """
    if pool is None:
        body = _format_body(density.grid, density.values)
    else:
        body = pool.submit(_format_body, density.grid, density.values)
    return ["W", "rho"], FormattedRows(body, density.grid.points)


def _usable_cpus():
    # no sched_getaffinity (not Linux): treated as one CPU, so no pool
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


@contextlib.contextmanager
def _worker_pool(workers):
    # imported here, so that importing stepwork and small runs load no
    # process machinery
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    # fork, not spawn: a spawned worker re-imports numpy and the caller's
    # __main__ (0.4-0.6 s to the first result on 2 cores, against 17 ms), and
    # fails when __main__ was read from stdin.  The workers only format
    # bytes, and call neither BLAS nor anything else the parent's threads
    # may hold.
    pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"))
    try:
        yield pool
    except BrokenProcessPool as exc:
        raise WorkerLost("a worker process formatting the distribution CSVs ended "
                         "abruptly") from exc
    finally:
        pool.shutdown(cancel_futures=True)


def write_densities(paths, densities, meta):
    """Write each density's density_rows to its path with write_csv, in order.

    Large runs format the bodies on worker processes (see the module
    docstring); the files are the same either way.
    """
    workers = _usable_cpus()
    total_rows = sum(d.grid.points for d in densities)
    pooled = workers > 1 and total_rows >= POOL_MIN_ROWS
    with _worker_pool(workers) if pooled else contextlib.nullcontext() as pool:
        depth = 2 * workers if pooled else 1
        in_flight = collections.deque()
        for path, density in zip(paths, densities):
            in_flight.append((path, density_rows(density, pool=pool)))
            if len(in_flight) == depth:
                path, (header, rows) = in_flight.popleft()
                write_csv(path, header, rows, meta)
        for path, (header, rows) in in_flight:
            write_csv(path, header, rows, meta)


def profile_rows(profile):
    header = ["step", "control", "delta_F", "delta_F_target",
              "mean_W", "std_W", "F_ref"]
    rows = []
    for i in range(profile.schedule.s):
        rows.append((i + 1, float(profile.schedule.controls[i]),
                     float(profile.delta_f[i]), float(profile.targets[i]),
                     float(profile.mean_work[i]), float(profile.std_work[i]),
                     float(profile.f_ref[i])))
    return header, rows


def write_json(path, payload):
    # infinities appear as strings so the file stays valid JSON
    def _clean(obj):
        if isinstance(obj, dict):
            return {k: _clean(v) for k, v in obj.items()}
        if isinstance(obj, (list, tuple)):
            return [_clean(v) for v in obj]
        if isinstance(obj, float) and not math.isfinite(obj):
            return str(obj)
        return obj

    with open(path, "w", newline="\n") as fh:
        json.dump(_clean(payload), fh, sort_keys=True, indent=2)
        fh.write("\n")
