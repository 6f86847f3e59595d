"""Every grant takes one path: a process yields a gate and its claim decides.

A resource slot or a lock side is taken with ``yield <Gate>``;
``Process._resume`` hands the gate's claim the process's own wake, which
either grants inline (free on a settled instant) or is queued where the
grant goes.  A ``.request()``, ``.acquire_read()`` / ``.acquire_write()``
grant event, a ``try_acquire`` elision or a ``.settled()`` guard in the
package is the old two-path grant; it can come back only together with an
edit to this test.  (posixfs's ``ExtentLock.acquire_read(owner)`` /
``acquire_write(owner)`` are LDLM legs that claim the gates themselves.)
"""

import re
from pathlib import Path

import repro

_OLD_GRANT = re.compile(
    r"\.request\(\)|\.acquire_(read|write)\(\)|try_acquire|\.settled\(\)|release_direct"
)


def _lines():
    package = Path(repro.__file__).resolve().parent
    sources = sorted(package.rglob("*.py"))
    assert len(sources) > 50, "did not find the package sources"
    for path in sources:
        for number, line in enumerate(path.read_text().splitlines(), 1):
            yield f"{path.relative_to(package)}:{number}: {line.strip()}", line


def test_src_grants_only_through_gates():
    assert [where for where, line in _lines() if _OLD_GRANT.search(line)] == []
