"""Every script under ``examples/`` imports against the current API.

Only the imports and module-level definitions run: each module is loaded
under its own name, so its ``if __name__ == "__main__"`` block (the slow
part) does not.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

EXAMPLES = sorted((Path(__file__).resolve().parent.parent / "examples").glob("*.py"))


def test_examples_are_found():
    assert len(EXAMPLES) >= 9


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda path: path.stem)
def test_example_imports(path):
    spec = importlib.util.spec_from_file_location(f"example_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.main)
