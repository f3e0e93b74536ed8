"""Every Python file parses under the declared floor, ``requires-python = ">=3.10"``."""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SOURCES = sorted(p for top in ("src", "tests", "bench") for p in (ROOT / top).rglob("*.py"))


def test_sources_found():
    assert any(p.name == "optimize.py" for p in SOURCES)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_parses_as_python_3_10(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))
