"""Tracing is not a stage: the op driver emits every op's ``rpc`` span.

``_FastDriver._finish`` sees every launched op end -- bare or staged, a
multi-op's sub-ops and event-queue submissions included -- so it is the one
place an ``rpc`` span is recorded.  A second ``record("rpc", ...)`` site, a
tracing middleware or a ``Middleware.bind`` hook to skip one is the old
design, in which installing a tracer moved clients off the bare launch; it
can come back only together with an edit to this test.
"""

import re
from pathlib import Path

import repro

_SPAN = re.compile(r"""record\(\s*["']rpc["']""")
_STAGE = re.compile(r"TracingMiddleware|def bind\b")


def _sources():
    package = Path(repro.__file__).resolve().parent
    sources = sorted(package.rglob("*.py"))
    assert len(sources) > 50, "did not find the package sources"
    return [(path.relative_to(package).as_posix(), path.read_text()) for path in sources]


def test_one_rpc_span_site_in_the_driver():
    sites = [name for name, text in _sources() for _ in _SPAN.finditer(text)]
    assert sites == ["daos/client.py"]


def test_no_tracing_stage():
    assert [
        f"{name}:{text.count(chr(10), 0, match.start()) + 1}"
        for name, text in _sources()
        for match in _STAGE.finditer(text)
    ] == []
