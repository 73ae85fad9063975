"""The sources hold to the Python floor that ``pyproject.toml`` declares.

``requires-python``, ruff's ``target-version`` and the CI matrix name one
oldest Python.  A construct that floor lacks is caught here on any newer
interpreter: every file under ``src/`` and ``tests/`` must parse with the
floor's grammar, and no ``dataclass(...)`` call may pass a keyword added
after it (``slots`` and ``kw_only`` raise ``TypeError`` at import).
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: ``dataclass`` keywords newer than 3.9, with the version that added them.
NEW_DATACLASS_KEYWORDS = {
    "match_args": (3, 10),
    "kw_only": (3, 10),
    "slots": (3, 10),
    "weakref_slot": (3, 11),
}


def _pyproject() -> str:
    return (ROOT / "pyproject.toml").read_text()


def _floor() -> tuple[int, int]:
    match = re.search(r'^requires-python\s*=\s*">=\s*(\d+)\.(\d+)"', _pyproject(), re.M)
    assert match, "pyproject.toml declares no requires-python floor"
    return int(match[1]), int(match[2])


def _sources() -> list[Path]:
    return sorted(path for top in ("src", "tests") for path in (ROOT / top).rglob("*.py"))


def _dataclass_keywords(tree: ast.AST):
    """``(line, keyword)`` of every keyword passed to a ``dataclass(...)`` call."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
        if name == "dataclass":
            for keyword in node.keywords:
                yield node.lineno, keyword.arg


def test_ruff_targets_the_declared_floor():
    major, minor = _floor()
    assert f'target-version = "py{major}{minor}"' in _pyproject()


def test_every_source_parses_with_the_floor_grammar():
    floor = _floor()
    failures = []
    for path in _sources():
        try:
            ast.parse(path.read_text(), filename=str(path), feature_version=floor)
        except SyntaxError as error:
            failures.append(f"{path.relative_to(ROOT)}:{error.lineno}: {error.msg}")
    assert not failures, failures


def test_no_dataclass_keyword_newer_than_the_floor():
    floor = _floor()
    sources = _sources()
    probe = ast.parse("@dataclasses.dataclass(frozen=True, slots=True)\nclass A: ...")
    assert list(_dataclass_keywords(probe)) == [(1, "frozen"), (1, "slots")]
    failures = [
        f"{path.relative_to(ROOT)}:{line}: dataclass({keyword}=...) needs "
        f"{'.'.join(map(str, NEW_DATACLASS_KEYWORDS[keyword]))}"
        for path in sources
        for line, keyword in _dataclass_keywords(ast.parse(path.read_text()))
        if NEW_DATACLASS_KEYWORDS.get(keyword, (0, 0)) > floor
    ]
    assert not failures, failures
