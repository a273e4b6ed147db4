"""Fixed reference load that measures how fast the machine runs right now.

Usage: python calibrate.py OUT_FILE

The benchmark runs it just before and just after every timed child and
rescales the child's wall time by it (see run.py).  It mirrors the kinds of
work the workloads do: interpreter start and numpy import, a lattice
convolution, a Hermite-table recurrence larger than the caches, and CSV
formatting written to disk.  It never imports stepwork and must not change,
or calibrated times stop being comparable across commits.
"""

import math
import sys

import numpy as np

rng = np.random.default_rng(0)
a = rng.random(30000)
b = rng.random(2500)
c = np.convolve(a, b)
y = np.linspace(-8.0, 8.0, 20000)
phi = np.empty((151, y.size))   # 24 MB, so the recurrence streams through memory
phi[0] = np.exp(-0.5 * y * y)
phi[1] = math.sqrt(2.0) * y * phi[0]
for n in range(1, 150):
    phi[n + 1] = math.sqrt(2.0 / (n + 1)) * y * phi[n] - math.sqrt(n / (n + 1)) * phi[n - 1]
density = np.exp(-0.1 * np.arange(151)) @ (phi * phi)
with open(sys.argv[1], "w") as fh:
    fh.write("\n".join(f"{u:.12g},{v:.12g}" for u, v in zip(a.tolist(), c.tolist())) + "\n")
