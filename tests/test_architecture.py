"""Architecture rules of ``src/repro``, one table row each.

Each rule pins a design choice that a grep can see: a construct the package
must not contain, or the one function that may contain it.  A rule can only
come back broken together with an edit to this table, where a reviewer sees
it, and every row carries a seeded offending line that the row must flag,
so no pattern can silently stop matching.

* **One dialect.**  A process body yields a ``float`` (a delay), an
  ``Event`` (a wait) or a ``Gate`` (a claim), and ``Process._resume`` is
  the one loop that interprets all three.  A ``yield sim.timeout(x)`` is
  the old Event-only dialect, a second ``_resume`` a second interpreter.
* **One grant path.**  A resource slot or lock side is taken with ``yield
  <Gate>``.  A ``.request()``, ``.acquire_read()`` / ``.acquire_write()``
  grant event, a ``try_acquire`` elision or a ``.settled()`` guard is the
  old two-path grant.  (posixfs's ``ExtentLock.acquire_read(owner)`` /
  ``acquire_write(owner)`` are LDLM legs that claim the gates themselves.)
* **One span site.**  ``_FastDriver._finish`` sees every launched op end,
  so it records every ``rpc`` span; a tracing stage or a hook to skip one
  would move traced clients off the bare launch.
* **One timed wake.**  A delay is a ``yield <float>`` on the process's own
  ``Wake``, and the flow network arms a bare ``Wake``; ``Simulator.timeout``
  is the one place a ``Timeout`` is built, for tests, examples and the
  end-to-end benchmark.
* **No environment switch.**  The simulator takes no switch from the
  process environment: every escape hatch that selected a bit-identical
  alternate path is gone.
* **One op path.**  ``DaosClient._attempt`` applies a client's whole policy
  -- map refresh, retry, QoS admission, fault injection -- in one loop; a
  stage class, a ``handle`` method or a chain composer is the old stack of
  middleware generators.  ``DaosClient._call`` is the one launcher and the
  loop's one caller: it decides every op's policy and QoS token count,
  multi-ops and event-queue launches included.  A second caller is a
  second launcher (the old request record's), deciding them again with a
  test of its own.
"""

import re
from pathlib import Path
from typing import NamedTuple, Optional

import pytest

import repro


class Rule(NamedTuple):
    #: The row's test id.
    name: str
    #: What a site looks like (matched over whole files, so a call split
    #: over lines still matches).
    pattern: re.Pattern
    #: A line the rule must flag.
    offender: str
    #: ``None``: the package has no site.  Otherwise its one site is in
    #: this file (relative to the package) ...
    path: Optional[str] = None
    #: ... and inside this ``def``, when given.
    function: Optional[str] = None


RULES = [
    Rule("no-timeout-yield", re.compile(r"yield .*\.timeout\("), "yield self.sim.timeout(1.0)"),
    Rule(
        "one-resume-loop",
        re.compile(r"\bdef _resume\b"),
        "    def _resume(self, wake):",
        path="simulation/process.py",
    ),
    Rule(
        "grants-only-through-gates",
        re.compile(
            r"\.request\(\)|\.acquire_(read|write)\(\)|try_acquire|\.settled\(\)|release_direct"
        ),
        "    grant = target.service.request()",
    ),
    Rule(
        "one-rpc-span-site",
        re.compile(r"""record\(\s*["']rpc["']"""),
        'sim.record(\n    "rpc", op=op)',
        path="daos/client.py",
        function="_finish",
    ),
    Rule(
        "no-tracing-stage",
        re.compile(r"TracingMiddleware|def bind\b"),
        "    def bind(self, client):",
    ),
    Rule(
        "one-timeout-construction",
        re.compile(r"(?<!class )\bTimeout\("),
        "        wake = Timeout(sim, delay)",
        path="simulation/core.py",
        function="timeout",
    ),
    Rule("no-timeout-call", re.compile(r"\.timeout\("), "        event = sim.timeout(delay)"),
    Rule(
        "no-environment-reads",
        re.compile(r"\benviron\b|\bgetenv\b"),
        'flat = os.environ.get("REPRO_FLAT_SOLVER")',
    ),
    Rule(
        "no-stage-machinery",
        re.compile(r"Middleware|compose_chain|def handle\("),
        "    def handle(self, client, request, call):",
    ),
    Rule(
        "one-attempt-loop",
        re.compile(r"\bdef _attempt\b"),
        "    def _attempt(self, op, body, args, tokens):",
        path="daos/client.py",
    ),
    Rule(
        "one-launch-decision",
        re.compile(r"self\._attempt\("),
        "        legs = self._attempt(request.op, request.body, (), request.subrequests)",
        path="daos/client.py",
        function="_call",
    ),
]


def _package_sources():
    """``{path relative to the package: text}`` for every module of it."""
    package = Path(repro.__file__).resolve().parent
    sources = sorted(package.rglob("*.py"))
    assert len(sources) > 50, "did not find the package sources"
    return {path.relative_to(package).as_posix(): path.read_text() for path in sources}


def _enclosing_def(text: str, offset: int) -> Optional[str]:
    """The name of the innermost ``def`` above ``offset`` in ``text``."""
    names = re.findall(r"^\s*def (\w+)", text[:offset], re.MULTILINE)
    return names[-1] if names else None


def _violations(rule: Rule, sources) -> list:
    """The sites that break ``rule`` in ``sources`` (empty: it holds)."""
    sites = [
        (path, text.count("\n", 0, match.start()) + 1, _enclosing_def(text, match.start()))
        for path, text in sources.items()
        for match in rule.pattern.finditer(text)
    ]
    if rule.path is None:
        return sites
    if len(sites) == 1:
        path, _, function = sites[0]
        if path == rule.path and rule.function in (None, function):
            return []
    return sites or ["no site"]


@pytest.fixture(scope="module")
def sources():
    return _package_sources()


@pytest.mark.parametrize("rule", RULES, ids=[rule.name for rule in RULES])
def test_rule_holds(rule, sources):
    assert _violations(rule, sources) == []


@pytest.mark.parametrize("rule", RULES, ids=[rule.name for rule in RULES])
def test_rule_flags_its_seeded_offender(rule, sources):
    seeded = {**sources, "seeded.py": f"def seeded():\n{rule.offender}\n"}
    assert _violations(rule, seeded)
