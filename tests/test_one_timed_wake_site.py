"""The package times its own wake-ups with bare wakes; ``Timeout`` is API.

A process delay is a ``yield <float>`` on the process's own ``Wake``, and
the flow network arms a ``Wake`` of its own through the same
``sim._schedule`` call.  ``Simulator.timeout`` stays as the one place a
``Timeout`` is built, for tests, examples and the end-to-end benchmark; a
second construction, or a ``.timeout(`` call, in the package is a timed
wake paying for a callback list again, and can come back only together
with an edit to this test.
"""

import re
from pathlib import Path

import repro

_TIMEOUT_BUILT = re.compile(r"(?<!class )\bTimeout\(")
_TIMEOUT_CALL = re.compile(r"\.timeout\(")


def _lines():
    package = Path(repro.__file__).resolve().parent
    sources = sorted(package.rglob("*.py"))
    assert len(sources) > 50, "did not find the package sources"
    for path in sources:
        lines = path.read_text().splitlines()
        for number, line in enumerate(lines, 1):
            yield f"{path.relative_to(package)}:{number}: {line.strip()}", line, lines


def _enclosing_def(lines, number):
    """The name of the innermost ``def`` above line ``number`` (1-based)."""
    for line in reversed(lines[: number - 1]):
        match = re.match(r"\s*def (\w+)", line)
        if match:
            return match.group(1)
    return None


def test_one_timeout_construction_in_simulator_timeout():
    built = [
        (where, _enclosing_def(lines, int(where.split(":")[1])))
        for where, line, lines in _lines()
        if _TIMEOUT_BUILT.search(line)
    ]
    assert len(built) == 1, built
    where, function = built[0]
    assert where.startswith("simulation/core.py:") and function == "timeout", built


def test_src_calls_no_timeout():
    assert [where for where, line, _ in _lines() if _TIMEOUT_CALL.search(line)] == []
