"""The simulator takes no switch from the process environment.

Every bit-identical alternate path used to come with an environment
variable that selected it (``REPRO_SCHEDULER``, ``REPRO_SCALAR_SOLVER``,
``REPRO_FLAT_SOLVER``, ``REPRO_RPC_FAST``); all four are gone and
``src/repro`` reads nothing from the environment.  An escape hatch can come
back only together with an edit to this test, where a reviewer sees it.
"""

import re
from pathlib import Path

import repro

_ENV_READ = re.compile(r"\benviron\b|\bgetenv\b")


def test_src_reads_no_environment_variable():
    package = Path(repro.__file__).resolve().parent
    sources = sorted(package.rglob("*.py"))
    assert len(sources) > 50, "did not find the package sources"
    offenders = [
        f"{path.relative_to(package)}:{number}: {line.strip()}"
        for path in sources
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if _ENV_READ.search(line)
    ]
    assert offenders == []
