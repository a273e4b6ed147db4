"""Deterministic CSV/JSON writers for run artifacts.

Every CSV field is "%d" per int and "%.12g" per float, so identical
configurations produce byte-identical files.  A table's body is one bytes %
against a line template.  A work distribution's W,rho body is written by a
numpy kernel that gives the bytes of b"%.12g" % x for every value; it hands
the rare value it cannot place exactly (a 13th digit next to a rounding
tie, an exponent estimate off by one, a value that is not finite) to %.

``write_densities`` writes a run's work distributions as they are built,
on one writer thread: the kernel's numpy passes and the recursion's BLAS
products release the GIL, so the thread can format and write one
distribution while the caller builds the next.  Every file is written by
one density_rows and one write_csv call, in order, at any size and CPU
count.
"""

from __future__ import annotations

import functools
import io
import itertools
import json
import math
import queue
import threading
import types

import numpy as np

__all__ = ["FormattedRows", "format_rows", "write_csv", "density_rows", "write_densities",
           "profile_rows", "write_json"]

# float64 values a distribution's export holds per row (the W words, a
# formatting pass, the body): traced at up to 7.6 in write_densities
ROW_VALUES = 14


def _comment(entry):
    if isinstance(entry, dict):
        return "# config: " + json.dumps(entry, sort_keys=True, separators=(",", ":"))
    return "# " + entry


class FormattedRows:
    """A table's data lines as one bytes ``body``, each line ending in '\n'.
    ``len()`` is the number of data rows, not of bytes."""

    __slots__ = ("body", "count")

    def __init__(self, body, count):
        self.body = body
        self.count = count

    def __len__(self):
        return self.count


def format_rows(rows):
    """FormattedRows of rows with the first row's field types: its line, "%d" per
    int and "%.12g" per float field, repeated per row and filled in one bytes %."""
    line = b",".join(b"%d" if isinstance(v, int) else b"%.12g" for v in next(iter(rows), ()))
    body = (line + b"\n") * len(rows) % tuple(itertools.chain.from_iterable(rows))
    return FormattedRows(body, len(rows))


def write_csv(path, header, rows, meta=None):
    """Write a table under its '#' comment lines: the head, then the body as it is.

    ``meta`` is the config dict, written as '# config: {...}', or a list of
    comment entries in order: config dicts and 'tag: text' strings.  Rows
    are FormattedRows (as density_rows makes them) or tuples of scalars,
    which format_rows renders.  Every line ends in '\n' on any platform.
    """
    if not isinstance(rows, FormattedRows):
        rows = format_rows(rows)
    entries = [] if meta is None else [meta] if isinstance(meta, dict) else meta
    head = "".join(_comment(e) + "\n" for e in entries) + ",".join(header) + "\n"
    with open(path, "wb") as fh:
        fh.writelines((head.encode(), rows.body))


# %.12g in numpy.  Each value becomes three little-endian uint64 words, 24
# bytes that read: its sign (byte 0), "0." and up to two zeros (1-4), 13
# slots for its 12 digits and their point (5-17), "e+XX[X]" (18-22) and a
# separator (23).  Bytes a value does not use are 0, and bytes.translate
# drops them.  In "0.000" the third zero fills the point slot, empty when no
# digit precedes the point.  A value whose scaled mantissa lies within 1e-3
# of a rounding tie (it errs by at most 4.4e-4), whose exponent estimate
# misses, or that is not finite is formatted by Python's %, so every byte is
# that of b"%.12g" % x.
_E0 = 324  # e + _E0 indexes the tables by decimal exponent, e = -324 .. 308
_P0 = 149  # j + _P0 indexes 10**j, j = -149 .. 168
# rows formatted per numpy pass, so that the kernel's temporaries do not grow
# with the grid
CHUNK_ROWS = 1 << 15


@functools.cache
def _g12_tables():
    def words(strings):  # each string zero-padded in one little-endian uint64
        return np.array(strings, "S8").view("<u8")

    def halves(masks):  # 128-bit masks as (low, high) uint64 rows
        return np.array([[m & 2**64 - 1 for m in masks], [m >> 64 for m in masks]], np.uint64)

    q = np.arange(1000, dtype=np.int16)
    e = np.arange(-_E0, 309, dtype=np.int16)
    fixed = (e >= -4) & (e < 12)
    prefix = np.zeros(len(e), "<u8")
    prefix[_E0 - 4:_E0] = words([b"0.000", b"0.00", b"0.0", b"0."])  # e = -4 .. -1
    return types.SimpleNamespace(
        # b"%03d" % q, its first digit in the lowest byte
        triples=(q // 100 + 48 | (q // 10 % 10 + 48) << 8).astype(np.uint64)
        | (q % 10 + 48).astype(np.uint64) << 16,
        # one past the last nonzero digit of q as the j-th of four 3-digit
        # groups, 0 for q = 0
        last=np.where(q == 0, 0, np.arange(0, 12, 3, dtype=np.int16)[:, None] + 3
                      - (q % 10 == 0) - (q % 100 == 0)).astype(np.int8),
        pow10=np.array([float(f"1e{j}") for j in range(-_P0, 169)]),  # correctly rounded
        # the digits before the point: e + 1 in "%f" form, 0 after "0.", 1 in "%e" form
        ints=np.where(fixed, np.maximum(e + 1, 0), 1).astype(np.int8),
        prefix=prefix,
        exponent=words([b"" if -4 <= k < 12 else b"e%+03d" % k for k in range(-_E0, 309)]),
        below=halves([(1 << 8 * i) - 1 for i in range(13)]),  # the bytes below byte i
        unit=halves([1 << 8 * i for i in range(13)]),  # byte i set to 1
    )


def _g12_words(values, sep, out):
    """Write each value's b"%.12g" % value and the byte ``sep`` to the rows of
    ``out``, an (n, 3) little-endian uint64 array, 0 in the bytes not used."""
    t = _g12_tables()
    nonzero = values != 0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        x = np.abs(values)
        e = np.log10(x)
        e[~np.isfinite(e)] = 0.0
        e = np.floor(e).astype(np.intp)
        # y = x 10**(11 - e), whose 12 integer digits are the mantissa's, in two
        # correctly rounded factors so that neither product overflows or goes
        # subnormal
        k = 11 - e
        y = t.pow10.take((k >> 1) + _P0) * x
        y *= t.pow10.take(k - (k >> 1) + _P0)
        slow = nonzero & (~((y >= 1e11) & (y < 1e12 - 0.5))
                          | (np.abs(y - np.floor(y) - 0.5) < 1e-3))
        np.rint(y, out=y)
        y[slow] = 0.0
    # the digits as four 3-digit groups, exact in float64 below 1e12, then as
    # a 12-byte string in (lo, hi) words
    groups = np.empty((4, len(y)), np.intp)
    for j, scale in enumerate((1e9, 1e6, 1e3)):
        group = np.floor(y / scale)
        y -= group * scale
        groups[j] = group
    groups[3] = y
    sig = t.last[0].take(groups[0])  # how many digits up to the last nonzero one
    for j in (1, 2, 3):
        np.maximum(sig, t.last[j].take(groups[j]), out=sig)
    lo = t.triples.take(groups[0])
    lo |= t.triples.take(groups[1]) << 24
    hi = t.triples.take(groups[2])
    lo |= hi << 48
    hi >>= 16
    hi |= t.triples.take(groups[3]) << 8
    del y, group, groups  # each temporary goes once used: _passes budgets the peak
    # cut after the last significant or integer digit, move the digits from
    # byte `ints` on up one byte, and put the point in the gap
    e += _E0
    ints = t.ints.take(e)
    cut = np.maximum(sig, ints)
    lo &= t.below[0].take(cut)
    hi &= t.below[1].take(cut)
    point = ((sig > ints) & (ints > 0)) * np.uint64(46)
    del sig, cut
    head = t.below[0].take(ints)
    tail = lo & ~head
    lo &= head
    lo |= tail << 8
    lo |= point * t.unit[0].take(ints)
    head = t.below[1].take(ints)
    hi = hi & head | (hi & ~head) << 8 | tail >> 56 | point * t.unit[1].take(ints)
    del point, head, tail
    out[:, 0] = np.signbit(values) * np.uint64(45) | t.prefix.take(e) << 8 | lo << 40
    out[:, 1] = lo >> 24 | hi << 40
    out[:, 2] = hi >> 24 | t.exponent.take(e) << 16 | np.uint64(ord(sep) << 56)
    slow = np.flatnonzero(slow)
    if slow.size:
        text = b"".join((b"%.12g" % v).ljust(23, b"\0") + sep for v in values[slow].tolist())
        out[slow] = np.frombuffer(text, "<u8").reshape(-1, 3)


def _passes(rows):
    # slices of at most CHUNK_ROWS rows and at most a quarter of them: a pass
    # holds its row words and the kernel's temporaries, about 155 bytes a row,
    # so under 40 bytes a row of the whole (ROW_VALUES charges 112)
    step = min(CHUNK_ROWS, -(-rows // 4))
    return [slice(start, start + step) for start in range(0, rows, step)]


@functools.lru_cache(maxsize=1)
def _row_template(grid):
    # the W column's words, "%.12g" and ",", for every node, formatted once
    # per grid: equal GridSpecs have bit-equal nodes, and once the window
    # saturates, successive steps' distributions share one grid
    nodes = grid.nodes()
    words = np.empty((grid.points, 3), "<u8")
    for rows in _passes(grid.points):
        _g12_words(nodes[rows], b",", words[rows])
    return words


def _format_body(grid, values):
    # each pass lays the W words and the rho words, ending in "\n", side by
    # side and drops their zero bytes
    template = _row_template(grid)
    body = io.BytesIO()
    for rows in _passes(grid.points):
        words = np.empty((len(template[rows]), 6), "<u8")
        words[:, :3] = template[rows]
        _g12_words(values[rows], b"\n", words[:, 3:])
        body.write(words.tobytes().translate(None, b"\0"))
    return body.getvalue()


def density_rows(density):
    """Two-column (W, rho) rows, one per grid node.

    The rows come back as FormattedRows: the numpy %.12g kernel formats the
    rho column next to the grid's W column, which it formats once per grid
    and keeps, CHUNK_ROWS rows at a time.
    """
    return ["W", "rho"], FormattedRows(_format_body(density.grid, density.values),
                                       density.grid.points)


def write_densities(paths, densities, meta):
    """Write each density's density_rows to its path with write_csv, in order.

    ``densities`` may build each density as it is read.  One writer thread
    takes them through a queue of two and writes them while the next is
    built.  The first exception on either side stops the run once the
    writer is idle and is raised here, after the thread has ended.
    """
    jobs, failed = queue.Queue(2), []

    def writer():
        for path, density in iter(jobs.get, None):
            if not failed:  # after a failure the queued jobs are dropped
                try:
                    write_csv(path, *density_rows(density), meta)
                except BaseException as exc:
                    failed.append(exc)

    thread = threading.Thread(target=writer, name="stepwork-export")
    thread.start()
    try:
        for job in zip(paths, densities):
            if failed:
                break
            jobs.put(job)
    except BaseException as exc:
        failed.append(exc)
    jobs.put(None)
    thread.join()
    if failed:
        raise failed[0]


def profile_rows(profile):
    header = ["step", "control", "delta_F", "delta_F_target", "mean_W", "std_W", "F_ref"]
    columns = (profile.delta_f, profile.targets, profile.mean_work, profile.std_work, profile.f_ref)
    return header, list(zip(range(1, profile.schedule.s + 1), profile.schedule.controls,
                            *(c.tolist() for c in columns)))


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
