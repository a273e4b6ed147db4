"""The numpy %.12g kernel of the distribution export against Python's bytes %."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from reference import percent_body, percent_g12

from stepwork import export
from stepwork.protocol import GridSpec, build_center_schedule, build_spring_schedule
from stepwork.workdist import run_work_recursion


def g12(values, sep=b"\n"):
    """The kernel's bytes for ``values``, one pass at a time as the export runs it."""
    values = np.asarray(values, dtype=float)
    words = np.empty((len(values), 3), "<u8")
    for rows in export._passes(len(values)):
        export._g12_words(values[rows], sep, words[rows])
    return words.tobytes().translate(None, b"\0")


def _neighbours(x):
    return [np.nextafter(x, -math.inf), x, np.nextafter(x, math.inf)]


# rounding ties at the 12th digit, the ends of "%f" form (1e-4 .. 1e12) and of
# the mantissa range, a tie on the way to the next power of ten, floats just
# below a power of ten whose log10 rounds up, and the signed zero
EDGES = [0.5, 2.5, 999999999999.5, 123456789012.5,
         *_neighbours(1e-5), *_neighbours(1e-4), *_neighbours(1e11), *_neighbours(1e12),
         9.999999999995e-5, 1e22, 1e23, -0.0, 0.0, 5e-324, 2.2250738585072014e-308,
         1.7976931348623157e308, 0.001, 1234.5, 1e-300, 9.99999999999e99, 1e100]


class TestKernel:
    @settings(max_examples=300, deadline=None)
    @given(hnp.arrays(np.float64, st.integers(1, 300),
                      elements=st.floats(allow_nan=False, allow_infinity=False)))
    def test_bytes_equal_percent_on_any_finite_array(self, values):
        # hypothesis draws negative values, signed zeros, subnormals and both
        # ends of the float64 range
        assert g12(values) == percent_g12(values)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_pinned_edges(self, sign):
        values = sign * np.array(EDGES)
        assert g12(values) == percent_g12(values)
        assert g12(values, b",") == percent_g12(values, b",")

    def test_values_that_are_not_finite_fall_back_to_percent(self):
        values = [math.inf, -math.inf, math.nan, 1.0]
        assert g12(values) == b"inf\n-inf\nnan\n1\n"

    def test_every_decade_and_its_neighbours(self):
        powers = np.array([float(f"1e{k}") for k in range(-320, 309)])
        values = np.concatenate([powers, np.nextafter(powers, 0), np.nextafter(powers, math.inf),
                                 [float(f"3e{k}") for k in range(-320, 309)],
                                 [float(f"1.2345678901234e{k}") for k in range(-310, 309)]])
        assert g12(values) == percent_g12(values)


class TestDistributionBodies:
    @pytest.mark.parametrize("schedule", [build_center_schedule(1.0, 20, 1.0, 10),
                                          build_spring_schedule(1.3, 11, 0.1, 0)],
                             ids=["center-s20", "spring-nmax0"])
    def test_every_body_equals_the_percent_oracle(self, schedule):
        bodies = 0
        for density in run_work_recursion(schedule):
            _, rows = export.density_rows(density)
            assert rows.body == percent_body(density.grid, density.values)
            bodies += 1
        assert bodies == schedule.s - 1

    def test_formatting_holds_one_pass_beyond_the_body(self, traced_peak):
        # the kernel formats CHUNK_ROWS rows at a time: formatting these
        # million rows in one pass traced 155 MB.  A pass holds its row words
        # and temporaries, measured at 155 bytes a row, and the body grows by
        # an eighth at a time
        grid = GridSpec(-3.0, 7.0, 1_000_000)
        values = np.exp(-8.0 * (grid.nodes() - 2.0) ** 2)  # rho down to 1e-87
        export._row_template.cache_clear()
        try:
            export._row_template(grid)
            bodies = []
            peak = traced_peak(lambda: bodies.append(export._format_body(grid, values)))
        finally:
            export._row_template.cache_clear()
        body, = bodies
        assert peak < 1.125 * len(body) + 20 * 8 * export.CHUNK_ROWS
        assert body == percent_body(grid, values)
