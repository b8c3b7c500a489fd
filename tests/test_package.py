"""The package namespace: each public name loads only its own module."""

import importlib
import os
import pathlib
import subprocess
import sys

import pytest

import iocost


def test_naming_two_modules_loads_only_them_and_what_they_import():
    src = str(pathlib.Path(iocost.__file__).parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    code = (
        "import sys\n"
        "from iocost import cachesim, tracemodel\n"
        "print(' '.join(sorted(m for m in sys.modules if m.split('.')[0] == 'iocost')))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.split() == ["iocost", "iocost.cachesim", "iocost.tracemodel", "iocost.units"]


@pytest.mark.parametrize("name", sorted(iocost._MODULE_OF))
def test_every_public_name_is_its_modules_object(name):
    module = importlib.import_module(f"iocost.{iocost._MODULE_OF[name]}")
    assert getattr(iocost, name) is getattr(module, name)
    assert name in dir(iocost)


def test_every_submodule_is_an_attribute():
    for name in iocost._SUBMODULES:
        assert getattr(iocost, name) is importlib.import_module(f"iocost.{name}")
        assert name in dir(iocost)


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'simulat'"):
        iocost.simulat
    with pytest.raises(ImportError):
        from iocost import simulat  # noqa: F401
