"""Every path README.md and DESIGN.md name in backticks exists in the tree.

A backticked word starting ``src/``, ``scripts/``, ``benchmarks/``,
``tests/`` or ``examples/`` (in an inline span or a fenced block) must name
a file or directory of the repo, after dropping a ``::test`` or ``:line``
suffix; a pattern such as ``examples/*.py`` or ``examples/<name>.py`` must
match something.
"""

import re
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parent.parent
_PREFIXES = ("src/", "scripts/", "benchmarks/", "tests/", "examples/")
_FENCE = re.compile(r"```(.*?)```", re.S)
_SPAN = re.compile(r"`([^`]+)`")


def missing_paths(text, root=_ROOT):
    """The backticked repo paths in ``text`` that name nothing under ``root``."""
    spans = _FENCE.findall(text) + _SPAN.findall(_FENCE.sub("", text))
    missing = []
    for word in (word for span in spans for word in span.split()):
        if word.startswith(_PREFIXES):
            path = re.split(r"::|:\d", word)[0].rstrip(".,;:)/")
            path = re.sub(r"<[^>]*>", "*", path)
            if not any(root.glob(path)):
                missing.append(path)
    return missing


@pytest.mark.parametrize("doc", ["README.md", "DESIGN.md"])
def test_every_path_the_readme_names_exists(doc):
    assert missing_paths((_ROOT / doc).read_text()) == []


def test_a_path_that_is_gone_is_reported():
    text = (
        "Run `scripts/rails.py counts`, then\n`PYTHONPATH=src python scripts/gone.py\n"
        "--record`; see `tests/network/test_flow_reference.py::test_x`, `examples/<name>.py`,\n"
        "`src/repro/network/flow.py:1109` and `src/repro/`.\n"
        "```\npytest benchmarks/nope.py -q\n```\n"
    )
    assert missing_paths(text) == ["benchmarks/nope.py", "scripts/gone.py"]
