"""Deterministic CSV/JSON writers for run artifacts.

Numbers are rendered with 12 significant digits and '.' decimals regardless
of locale, so identical configurations produce byte-identical files.
"""

from __future__ import annotations

import functools
import json
import math

__all__ = ["format_number", "write_csv", "density_rows", "profile_rows", "write_json"]


def format_number(x):
    return f"{x:.12g}" if isinstance(x, float) else str(x)


def _comment(entry):
    if isinstance(entry, dict):
        return "# config: " + json.dumps(entry, sort_keys=True, separators=(",", ":"))
    return "# " + entry


def write_csv(path, header, rows, meta=None):
    """Write a table under its '#' comment lines, in one write.

    ``meta`` is the config dict, written as '# config: {...}', or a list of
    comment entries in order: config dicts and 'tag: text' strings.  Rows are
    tuples of scalars, or lines already formatted (as density_rows makes them).
    """
    entries = [] if meta is None else [meta] if isinstance(meta, dict) else meta
    lines = [_comment(e) for e in entries]
    lines.append(",".join(header))
    if rows and isinstance(rows[0], str):
        lines.extend(rows)
    else:
        lines.extend(",".join(map(format_number, row)) for row in rows)
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


@functools.lru_cache(maxsize=1)
def _row_template(grid):
    # one "W,%.12g" line per node, W formatted once per grid: equal GridSpecs
    # have bit-equal nodes, and once the window saturates, successive steps'
    # distributions share one grid
    return "\n".join(map("%.12g,%%.12g".__mod__, grid.nodes().tolist()))


def density_rows(density, coord_name="W"):
    """Two-column (coordinate, value) rows; a point mass becomes one row.

    Gridded rows come back as formatted lines; "%.12g" renders every float
    exactly as format_number does.
    """
    header = [coord_name, "rho"]
    if density.is_point_mass:
        return header, [(density.location, math.inf)]
    body = _row_template(density.grid) % tuple(density.values.tolist())
    return header, body.split("\n")


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
