"""Every public export of every `lorentzqrf` module exists on that module."""

import importlib
import pkgutil

import pytest

import lorentzqrf

MODULES = sorted(info.name for info in pkgutil.iter_modules(lorentzqrf.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"lorentzqrf.{name}")
    exports = module.__all__
    assert len(set(exports)) == len(exports), "duplicate names in __all__"
    assert [n for n in exports if not hasattr(module, n)] == []
