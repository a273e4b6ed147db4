"""Deterministic CSV/JSON writers for run artifacts.

Numbers are rendered with 12 significant digits and '.' decimals regardless
of locale, so identical configurations produce byte-identical files.
"""

from __future__ import annotations

import functools
import json
import math

__all__ = ["FormattedRows", "format_number", "format_rows", "write_csv", "density_rows",
           "profile_rows", "write_json"]


def format_number(x):
    return f"{x:.12g}" if isinstance(x, float) else str(x)


def _comment(entry):
    if isinstance(entry, dict):
        return "# config: " + json.dumps(entry, sort_keys=True, separators=(",", ":"))
    return "# " + entry


class FormattedRows:
    """A table's data lines as one bytes block, each line ending in '\n'.

    ``len()`` is the number of data rows, not of bytes.
    """

    __slots__ = ("body", "count")

    def __init__(self, body, count):
        self.body = body
        self.count = count

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
    with open(path, "wb") as fh:
        fh.write(head.encode() + rows.body)


@functools.lru_cache(maxsize=1)
def _row_template(grid):
    # one b"W,%.12g\n" line per node, W formatted once per grid: equal
    # GridSpecs have bit-equal nodes, and once the window saturates,
    # successive steps' distributions share one grid
    return b"".join(map(b"%.12g,%%.12g\n".__mod__, grid.nodes().tolist()))


def density_rows(density, coord_name="W"):
    """Two-column (coordinate, value) rows; a point mass becomes one row.

    The rows come back as FormattedRows: the rho column is formatted in one
    bytes % against the grid's line template, and "%.12g" renders every
    float exactly as format_number does.
    """
    header = [coord_name, "rho"]
    if density.is_point_mass:
        return header, format_rows([(density.location, math.inf)])
    body = _row_template(density.grid) % tuple(density.values.tolist())
    return header, FormattedRows(body, density.grid.points)


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
