#!/usr/bin/env python
"""Docs linter: docstring coverage + generated catalogue tables.

Two independent checks, selectable from the command line:

**Docstring coverage** (the default, over the paths given): an offline
stand-in for ``pydocstyle`` / ``ruff --select D1`` — the container this
repo builds in has neither, so the Makefile's ``docs-lint`` target falls
back to this checker.  It enforces the missing-docstring subset
(D100/D101/D102/D103/D104):

* every module and package ``__init__`` needs a module docstring;
* every public class, function and method (name not starting with ``_``)
  needs a docstring;
* nested (function-local) definitions and ``__dunder__`` methods other
  than ``__init__``-free classes are exempt.

**Generated catalogue tables** (``--tables``): the workload and topology
tables of README.md and docs/architecture.md live between
``<!-- BEGIN GENERATED: name -->`` / ``<!-- END GENERATED: name -->``
markers and are rendered from the live tables of :mod:`repro.catalogue`
(and the experiment registry).  ``--tables`` fails when a file's table
drifts from its source — e.g. a pattern row was added without
regenerating the docs — and
``--tables --write`` rewrites the regions in place.  Deleting the
markers does not silence the check: every known region must appear in at
least one documentation file.

Usage::

    python tools/docs_lint.py src/repro/experiments src/repro/evaluation
    python tools/docs_lint.py --tables            # check docs vs catalogue
    python tools/docs_lint.py --tables --write    # regenerate the tables
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Documentation files that may carry generated regions.
TABLE_FILES = ("README.md", "docs/architecture.md")

_BEGIN = "<!-- BEGIN GENERATED: {name} -->"
_END = "<!-- END GENERATED: {name} -->"
_REGION = re.compile(
    r"<!-- BEGIN GENERATED: (?P<name>[\w-]+) -->\n"
    r"(?P<body>.*?)"
    r"<!-- END GENERATED: (?P=name) -->",
    re.DOTALL,
)


def _is_public(name: str) -> bool:
    return not name.startswith("_")


def _check_body(
    body: list[ast.stmt], prefix: str, violations: list[str], path: Path
) -> None:
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if _is_public(node.name) and ast.get_docstring(node) is None:
                violations.append(
                    f"{path}:{node.lineno}: missing docstring on "
                    f"function {prefix}{node.name}"
                )
        elif isinstance(node, ast.ClassDef):
            if _is_public(node.name):
                if ast.get_docstring(node) is None:
                    violations.append(
                        f"{path}:{node.lineno}: missing docstring on "
                        f"class {prefix}{node.name}"
                    )
                _check_body(
                    node.body, f"{prefix}{node.name}.", violations, path
                )


def check_file(path: Path) -> list[str]:
    """Return the docstring violations of one Python source file."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    violations: list[str] = []
    docstring = ast.get_docstring(tree)
    if docstring is None or not docstring.strip():
        violations.append(f"{path}:1: missing module docstring")
    _check_body(tree.body, "", violations, path)
    return violations


# --------------------------------------------------------------------------- #
# Generated catalogue tables
# --------------------------------------------------------------------------- #


def _markdown_table(headers: tuple[str, ...], rows: list[tuple[str, ...]]) -> str:
    """Render one GitHub-flavoured markdown table (trailing newline)."""
    lines = [
        "| " + " | ".join(headers) + " |",
        "|" + "|".join("---" for _ in headers) + "|",
    ]
    lines.extend("| " + " | ".join(row) + " |" for row in rows)
    return "\n".join(lines) + "\n"


def _knob_cell(entry) -> str:
    """The knobs column of one catalogue row: sorted, required-annotated."""
    names = sorted(entry.params)
    if not names:
        return "—"
    required = set(entry.required)
    return ", ".join(
        f"`{name}`" + (" (required)" if name in required else "")
        for name in names
    )


def _table_workload_patterns() -> str:
    from repro.catalogue import PATTERNS

    return _markdown_table(
        ("pattern", "destination semantics", "knobs"),
        [
            (f"`{entry.name}`", entry.summary, _knob_cell(entry))
            for entry in PATTERNS.values()
        ],
    )


def _table_workload_injectors() -> str:
    from repro.catalogue import INJECTORS

    return _markdown_table(
        ("injector", "arrival process per core", "knobs"),
        [
            (f"`{entry.name}`", entry.summary, _knob_cell(entry))
            for entry in INJECTORS.values()
        ],
    )


def _table_topologies() -> str:
    from repro.catalogue import TOPOLOGIES

    return _markdown_table(
        ("topology", "structure", "remote zero-load round trip", "knobs"),
        [
            (f"`{entry.name}`", entry.summary, entry.round_trip, _knob_cell(entry))
            for entry in TOPOLOGIES.values()
        ],
    )


def _table_experiments() -> str:
    from repro.experiments.registry import EXPERIMENTS

    return _markdown_table(
        ("experiment", "reproduces"),
        [
            (f"`{name}`", definition.title)
            for name, definition in EXPERIMENTS.items()
        ],
    )


#: Region name -> renderer of the table body between its markers.
GENERATED_TABLES = {
    "workload-patterns": _table_workload_patterns,
    "workload-injectors": _table_workload_injectors,
    "topology-families": _table_topologies,
    "experiments": _table_experiments,
}


def check_tables(write: bool = False, root: Path = REPO_ROOT) -> list[str]:
    """Compare (or ``--write``: regenerate) every generated docs region.

    Returns the violations: drifted regions, regions naming an unknown
    table, and known tables with no region anywhere — each message says
    how to fix it (``--tables --write`` regenerates in place).
    """
    source_root = root / "src"
    if str(source_root) not in sys.path:
        sys.path.insert(0, str(source_root))
    violations: list[str] = []
    seen: set[str] = set()
    for relative in TABLE_FILES:
        path = root / relative
        if not path.exists():
            violations.append(f"{relative}: missing documentation file")
            continue
        text = path.read_text(encoding="utf-8")
        rewritten = text
        for match in _REGION.finditer(text):
            name = match.group("name")
            renderer = GENERATED_TABLES.get(name)
            if renderer is None:
                violations.append(
                    f"{relative}: unknown generated region {name!r}; known: "
                    f"{', '.join(sorted(GENERATED_TABLES))}"
                )
                continue
            seen.add(name)
            expected = _BEGIN.format(name=name) + "\n" + renderer() + _END.format(
                name=name
            )
            if match.group(0) != expected:
                if write:
                    rewritten = rewritten.replace(match.group(0), expected)
                else:
                    violations.append(
                        f"{relative}: generated table {name!r} is out of date "
                        "with its source; run `python tools/docs_lint.py "
                        "--tables --write` and commit the result"
                    )
        if write and rewritten != text:
            path.write_text(rewritten, encoding="utf-8")
            print(f"docs-lint: rewrote generated tables in {relative}")
    for name in sorted(set(GENERATED_TABLES) - seen):
        violations.append(
            f"generated table {name!r} has no "
            f"{_BEGIN.format(name=name)} region in any of: "
            f"{', '.join(TABLE_FILES)}"
        )
    return violations


def main(argv: list[str]) -> int:
    """Lint every ``.py`` file under the given paths; return an exit code."""
    write = "--write" in argv
    tables = "--tables" in argv
    argv = [argument for argument in argv if argument not in ("--tables", "--write")]
    if tables:
        violations = check_tables(write=write)
        for violation in violations:
            print(violation)
        if violations:
            print(f"docs-lint: {len(violations)} table violation(s)")
            return 1
        if not argv:
            print(f"docs-lint: OK ({len(GENERATED_TABLES)} generated tables in sync)")
            return 0
    if not argv:
        print("usage: docs_lint.py [--tables [--write]] PATH [PATH ...]",
              file=sys.stderr)
        return 2
    files: list[Path] = []
    for argument in argv:
        path = Path(argument)
        if path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
        else:
            files.append(path)
    violations: list[str] = []
    for file in files:
        violations.extend(check_file(file))
    for violation in violations:
        print(violation)
    if violations:
        print(f"docs-lint: {len(violations)} violation(s) in {len(files)} file(s)")
        return 1
    print(f"docs-lint: OK ({len(files)} files clean)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
