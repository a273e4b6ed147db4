import importlib.util
import tracemalloc
from pathlib import Path

import pytest

ORACLES = Path(__file__).resolve().parents[1] / "bench" / "oracles.py"


@pytest.fixture(scope="session")
def oracles():
    """bench/oracles.py: closed forms that import nothing from stepwork."""
    spec = importlib.util.spec_from_file_location("oracles", ORACLES)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def traced_peak():
    """A function that calls run() under tracemalloc and returns the traced peak in bytes."""
    def peak(run):
        tracemalloc.start()
        try:
            run()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    return peak
