"""Deterministic CSV/JSON writers for run artifacts.

Numbers are rendered with 12 significant digits and '.' decimals regardless
of locale, so identical configurations produce byte-identical files.
"""

from __future__ import annotations

import json
import math

__all__ = ["format_number", "write_csv", "density_rows", "profile_rows", "write_json"]


def format_number(x):
    return f"{x:.12g}" if isinstance(x, float) else str(x)


def write_csv(path, header, rows, meta=None):
    """Write rows of scalars with a '# config:' metadata comment line."""
    lines = []
    if meta is not None:
        lines.append("# config: " + json.dumps(meta, sort_keys=True, separators=(",", ":")))
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(format_number(v) for v in row))
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def density_rows(density, coord_name="W"):
    """Two-column (coordinate, value) rows; a point mass becomes one row."""
    if density.is_point_mass:
        return [coord_name, "rho"], [(density.location, math.inf)]
    nodes = density.grid.nodes()
    return [coord_name, "rho"], [(float(w), float(v)) for w, v in zip(nodes, density.values)]


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
