"""Checks over the package's source files themselves."""

from importlib import import_module
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "gategroups").glob("*.py"))
MAX_LINE = 100


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_every_exported_name_resolves(path):
    module = import_module(f"gategroups.{path.stem}" if path.stem != "__init__" else "gategroups")
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert missing == [], path.name


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_line_is_over_the_limit(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    long = [n for n, line in enumerate(lines, 1) if len(line) > MAX_LINE]
    assert long == [], f"{path.name}: lines over {MAX_LINE} characters: {long}"
