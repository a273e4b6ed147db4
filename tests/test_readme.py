"""The README's library example and command examples run as written."""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from stepwork.cli import main

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text()


def _block_after(heading, fence):
    """The body of the first ``fence`` code block after the line ``heading``."""
    start = README.index(heading + "\n")
    match = re.compile(r"^```" + fence + r"\n(.*?)^```$", re.M | re.S).search(README, start)
    return match.group(1)


def _examples():
    lines = _block_after("Examples:", "").splitlines()
    return [shlex.split(line.split("#")[0])[1:] for line in lines if line.strip()]


def test_library_use_block_runs():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", _block_after("## Library use", "python")],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("argv", _examples(), ids=lambda argv: argv[0])
def test_command_example_runs(argv, tmp_path, capsys):
    at = argv.index("--out")
    argv = argv[:at + 1] + [str(tmp_path)] + argv[at + 2:]
    assert main(argv) == 0
    if argv[0] == "run-center":
        assert "dF=0.242" in capsys.readouterr().out
