"""The documents cite only what exists.

DESIGN.md, README.md and the verify notes name tests, source files and
``REPRO_*`` variables as evidence; a rename or a deletion that leaves a
citation behind sends the reader to nothing, and one the CI workflow
selects fails only there. This checks the names, not what the prose
says about them; and that DESIGN.md documents every honoured variable.
Code and workflows give a reason in words, never a ROADMAP item's
number, which the next re-anchor of the roadmap changes.
"""

from __future__ import annotations

import pathlib
import re

import pytest

from repro import options
from tests.test_options import DELETED

ROOT = pathlib.Path(__file__).resolve().parents[1]
DOCS = ["DESIGN.md", "README.md", ".claude/skills/verify/SKILL.md"]

#: ``test_x`` (a test function), not ``test_x.py`` (a file)
_TEST = re.compile(r"\b(test_\w+)\b(?!\.py)")
#: a module named by its path under ``src`` (with or without the prefix)
_MODULE = re.compile(r"\brepro/[\w/]*\.py\b")
_VARIABLE = re.compile(r"\bREPRO_[A-Z0-9_]*[A-Z0-9]\b")
#: a test file the workflow names, and the node it selects in it if any
_NODE = re.compile(r"(tests/[\w/]+\.py)?::(test_\w+)|(tests/[\w/]+\.py)")
#: a roadmap item cited by its number
_ITEM = re.compile(r"ROADMAP\s+(?:items?\s+)?\d")


def _text(doc: str) -> str:
    return (ROOT / doc).read_text()


def _defs(path: str = "") -> str:
    """The source of the test file ``path``, or of every one."""
    files = [ROOT / path] if path else (ROOT / "tests").rglob("*.py")
    return "\n".join(source.read_text() for source in files)


def _test_defs() -> set:
    return set(re.findall(r"^\s*def (test_\w+)", _defs(), re.M))


@pytest.mark.parametrize("doc", DOCS)
def test_every_test_a_document_cites_is_defined(doc):
    missing = set(_TEST.findall(_text(doc))) - _test_defs()
    assert not missing, f"{doc} cites tests no file under tests/ defines: {sorted(missing)}"


@pytest.mark.parametrize("doc", DOCS)
def test_every_source_file_a_document_names_exists(doc):
    missing = {
        path for path in _MODULE.findall(_text(doc))
        if not (ROOT / "src" / path).is_file()
    }
    assert not missing, f"{doc} names files not under src/: {sorted(missing)}"


@pytest.mark.parametrize("doc", DOCS)
def test_every_variable_a_document_names_is_honoured_or_deleted(doc):
    known = {name for name, _, _ in options.VARIABLES} | set(DELETED)
    missing = set(_VARIABLE.findall(_text(doc))) - known
    assert not missing, f"{doc} names unknown variables: {sorted(missing)}"


def test_every_test_the_ci_workflow_selects_exists():
    missing = []
    for path, node, bare in _NODE.findall(_text(".github/workflows/ci.yml")):
        source = ROOT / (path or bare)
        if (path or bare) and not source.is_file():
            missing.append(path or bare)
        elif node and not re.search(rf"^def {node}\b", _defs(path), re.M):
            missing.append(f"{path}::{node}")
    assert not missing, f"ci.yml selects tests that do not exist: {missing}"


def test_every_honoured_variable_is_documented():
    undocumented = {
        name for name, _, _ in options.VARIABLES if name not in _text("DESIGN.md")
    }
    assert not undocumented, f"DESIGN.md never names {sorted(undocumented)}"


def test_no_code_or_workflow_cites_a_roadmap_item_by_number():
    files = [
        *(ROOT / "src").rglob("*.py"), *(ROOT / "tests").rglob("*.py"),
        *(ROOT / ".github" / "workflows").glob("*.yml"),
    ]
    citing = [str(path.relative_to(ROOT)) for path in files if _ITEM.search(path.read_text())]
    assert not citing, f"these cite a ROADMAP item number, not a reason: {citing}"
