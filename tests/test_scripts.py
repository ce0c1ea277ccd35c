"""Every script under scripts/ imports against the current library API."""

import importlib.util
from pathlib import Path

import pytest

SCRIPTS = sorted((Path(__file__).resolve().parent.parent / "scripts").glob("*.py"))


@pytest.mark.parametrize("path", SCRIPTS, ids=[p.stem for p in SCRIPTS])
def test_script_imports(path):
    spec = importlib.util.spec_from_file_location(f"script_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # the __main__ guard keeps main() from running
    assert callable(module.main)


def test_scripts_are_found():
    assert SCRIPTS  # an empty parameter list would silently skip the check above
