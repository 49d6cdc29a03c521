"""Every name the benchmark's tracer wraps is still bound where it looks.

``perfbench/tracer.py`` patches ``(module, name)`` pairs from its
``TARGETS`` table; a program change that drops one of those bindings would
only show as an error in the traced benchmark run.  This test reads the
table (it changes nothing under ``perfbench/``) and looks each name up.
"""

from __future__ import annotations

import importlib
import importlib.util
import sys
from functools import cache
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@cache
def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"_perfbench_{name}", PERFBENCH / f"{name}.py")
    assert spec is not None and spec.loader is not None
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


TRACER = _load("tracer")


@pytest.mark.parametrize(
    "module_name, attr",
    [(module_name, attr) for module_name, attr, _, _ in TRACER.TARGETS],
    ids=[f"{module_name}.{attr}" for module_name, attr, _, _ in TRACER.TARGETS],
)
def test_traced_name_is_bound(module_name, attr):
    if module_name == "workloads":
        module = _load("workloads")
    else:
        module = importlib.import_module(module_name)
    assert callable(getattr(module, attr, None)), f"{module_name}.{attr} is not bound"
