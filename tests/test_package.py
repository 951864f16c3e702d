import importlib
import types

import pytest

import boswit

MODULES = ("basis", "states", "witness", "oracle", "sweep", "checks")


@pytest.mark.parametrize("name", MODULES)
def test_every_listed_name_resolves_and_is_listed_once(name):
    module = importlib.import_module(f"boswit.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
    assert len(set(module.__all__)) == len(module.__all__)


def test_each_public_name_has_one_home():
    homes = {}
    for name in MODULES:
        for public in importlib.import_module(f"boswit.{name}").__all__:
            homes.setdefault(public, []).append(name)
    assert {public: where for public, where in homes.items() if len(where) > 1} == {}


def test_package_root_defines_no_reexports():
    for name in MODULES:
        importlib.import_module(f"boswit.{name}")
    names = [n for n, value in vars(boswit).items() if not n.startswith("_") and not isinstance(value, types.ModuleType)]
    assert names == []
    assert boswit.__version__
