import importlib.util
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
