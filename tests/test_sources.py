"""Checks over the package's source files themselves."""

import os
import re
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

from gategroups import claims, config, groups

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "gategroups").glob("*.py"))
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


def test_every_limit_is_read_and_documented():
    """Each limit is read by a literal ``limit("NAME")``, and only limits are read;
    the README's limit paragraph names exactly the GATEGROUPS_* variables."""
    read = set()
    for path in SOURCES:
        read |= set(re.findall(r'\blimit\("([A-Z_]+)"\)', path.read_text(encoding="utf-8")))
    assert read == set(config._DEFAULTS)
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    paragraph = next(p for p in readme.split("\n\n") if p.startswith("Capacity limits"))
    named = set(re.findall(r"GATEGROUPS_([A-Z_]+)", paragraph))
    assert named == set(config._DEFAULTS)


def test_every_constructor_is_one_recipe_and_documented():
    """Each ``groups`` constructor is a group recipe of the claims grammar and
    is named in the README's list of group expressions."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    start = readme.index("the `groups` constructors")
    listed = set(re.findall(r"`(\w+)", readme[start:readme.index("\n  - ", start)]))
    assert [name for name in groups.__all__ if name not in claims._GROUP_RECIPES] == []
    assert [name for name in groups.__all__ if name not in listed] == []


def test_perm_is_the_bottom_layer():
    """``perm`` holds ``orbit``, which ``cayley`` imports from it: importing
    ``perm`` in a fresh interpreter loads no engine module above it."""
    code = "import sys, gategroups.perm; print(*sorted(m for m in sys.modules if 'gategroups' in m))"
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        check=True,
    ).stdout.split()
    assert out == ["gategroups", "gategroups.config", "gategroups.errors", "gategroups.perm"]
