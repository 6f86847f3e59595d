"""Simulated processes speak one dialect, interpreted in one place.

A process body yields one of three things: a ``float`` for a delay, an
``Event`` for a wait and a ``Gate`` for a claim of a resource slot or lock
side.  ``Process._resume`` is the one loop that interprets all three (the
storage client's op driver is a ``Process`` too).  A ``yield sim.timeout(x)`` in the
package is the old Event-only dialect, and a second ``_resume`` a second
interpreter; either can come back only together with an edit to this test.
"""

import re
from pathlib import Path

import repro

_TIMEOUT_YIELD = re.compile(r"yield .*\.timeout\(")
_RESUME_DEF = re.compile(r"\bdef _resume\b")


def _lines():
    package = Path(repro.__file__).resolve().parent
    sources = sorted(package.rglob("*.py"))
    assert len(sources) > 50, "did not find the package sources"
    for path in sources:
        for number, line in enumerate(path.read_text().splitlines(), 1):
            yield f"{path.relative_to(package)}:{number}: {line.strip()}", line


def test_src_yields_no_timeout_event():
    assert [where for where, line in _lines() if _TIMEOUT_YIELD.search(line)] == []


def test_src_has_one_resume_loop():
    resumes = [where for where, line in _lines() if _RESUME_DEF.search(line)]
    assert len(resumes) == 1 and resumes[0].startswith("simulation/process.py:"), resumes
