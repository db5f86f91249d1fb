"""The package root's export table: one entry per public name, each
module imported on first use."""

import importlib
import subprocess
import sys

import pytest
from conftest import child_env

import sievecycles


def test_import_alone_loads_no_submodule():
    code = ("import sys, sievecycles; "
            "print(sorted(m for m in sys.modules if m.startswith('sievecycles.')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=child_env()).stdout
    assert out == "[]\n"


@pytest.mark.parametrize("module, name", [
    (module, name)
    for module, names in sievecycles._EXPORTS.items() for name in names])
def test_each_name_is_its_defining_modules_object(module, name):
    defining = importlib.import_module(f"sievecycles.{module}")
    assert getattr(sievecycles, name) is getattr(defining, name)


def test_each_name_is_listed_once():
    names = [name for names in sievecycles._EXPORTS.values() for name in names]
    assert sorted(names) == sievecycles.__all__ == sorted(set(names))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        sievecycles.no_such_name
    assert not hasattr(sievecycles, "_legendre")


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from sievecycles import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sievecycles.__all__


def test_dir_lists_every_export():
    listed = dir(sievecycles)
    assert set(sievecycles.__all__) <= set(listed)
    assert "__version__" in listed
