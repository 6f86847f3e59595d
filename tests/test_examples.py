"""Every script in ``examples/`` runs to completion.

The examples drive the public API the way a user would, so an API change
that breaks one fails here rather than on a reader's machine.  Each runs in
a fresh interpreter, from a scratch directory, with ``src`` on its path.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))
#: Examples that take about ten seconds each (the rest take well under one).
SLOW = {"capacity_planning.py", "ior_vs_fieldio.py"}


def test_examples_are_found():
    assert len(EXAMPLES) >= 7 and SLOW <= {path.name for path in EXAMPLES}


@pytest.mark.parametrize(
    "example",
    [
        pytest.param(path, id=path.name, marks=[pytest.mark.slow] if path.name in SLOW else [])
        for path in EXAMPLES
    ],
)
def test_example_exits_cleanly(example, tmp_path):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, str(example)],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr[-4000:]
    assert result.stdout.strip()
