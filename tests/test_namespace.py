"""The package's public names are its modules' ``__all__``, loaded lazily
where they are not needed to apply operators, and the README's library map
names only what its modules have."""

import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import woplab

ROOT = Path(__file__).resolve().parent.parent
MODULES = ["perm", "pring", "summation", "noncross", "counting", "oracle"]


def test_import_loads_only_the_operator_modules():
    # probing a dunder name, as tools do, imports nothing more
    code = (
        "import sys, woplab; hasattr(woplab, '__wrapped__');"
        "print(*sorted(m for m in sys.modules if 'woplab' in m))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")), timeout=60,
    )
    assert done.stdout.split() == [
        "woplab", "woplab.errors", "woplab.perm", "woplab.pring", "woplab.summation"
    ], done.stderr


@pytest.mark.parametrize("name", MODULES)
def test_every_public_name_resolves_on_the_package(name):
    module = importlib.import_module(f"woplab.{name}")
    listed = dir(woplab)
    assert getattr(woplab, name) is module and name in listed
    for public in module.__all__:
        assert getattr(woplab, public) is getattr(module, public), public
        assert public in listed, public


def test_unknown_and_dunder_names_raise_attribute_error():
    for name in ("no_such_name", "__wrapped__"):
        with pytest.raises(AttributeError, match=name):
            getattr(woplab, name)


def library_map():
    """(module, names) for each row of the README's "Library map" table."""
    text = (ROOT / "README.md").read_text().split("## Library map", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `woplab\.(\w+)` +\|(.*)\|$", text, re.M)
    return [(module, re.findall(r"`(\w+)`", contents)) for module, contents in rows]


def test_library_map_names_resolve_on_their_modules():
    rows = dict(library_map())
    assert set(MODULES) | {"verify", "cli"} == set(rows)
    del rows["cli"]  # names the `woplab` command only
    for module_name, names in rows.items():
        module = importlib.import_module(f"woplab.{module_name}")
        for name in names:
            assert hasattr(module, name), (module_name, name)
            if module_name in MODULES:  # and the package exports it
                assert getattr(woplab, name) is getattr(module, name), (module_name, name)
