"""Every public export of every `lorentzqrf` module exists on that module,
and so does every function the benchmark's tracer wraps."""

import importlib
import pkgutil
import types
from pathlib import Path

import pytest

import lorentzqrf

MODULES = sorted(info.name for info in pkgutil.iter_modules(lorentzqrf.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"lorentzqrf.{name}")
    exports = module.__all__
    assert len(set(exports)) == len(exports), "duplicate names in __all__"
    assert [n for n in exports if not hasattr(module, n)] == []


def test_benchmark_span_targets_resolve():
    """`perfbench/spans.py` wraps each (module, function) of its TARGETS by
    attribute and fails on a missing one, so a rename or deletion that would
    break a traced benchmark run fails here.  The file is read, not imported,
    so no bytecode is written beside it."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spans = types.ModuleType("spans")
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), vars(spans))
    missing = [
        f"{module}.{name}"
        for module, name, *_ in spans.TARGETS
        if not hasattr(importlib.import_module(f"lorentzqrf.{module}"), name)
    ]
    assert spans.TARGETS and missing == []
