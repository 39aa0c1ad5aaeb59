"""perfbench/tracer.py binds germforge functions and methods by name when it
installs its spans, and its qdim probe reads ``Submodule._basis``. A name it
binds that the package no longer has makes every traced benchmark case fail,
so each one is checked here against the tracer's own table."""

import importlib
import importlib.util
import inspect
import os

import pytest

from germforge.polyring import LOCAL_DS, Ring
from germforge.stdbasis import Submodule

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load_tracer():
    spec = importlib.util.spec_from_file_location(
        "germforge_tracer", os.path.join(ROOT, "perfbench", "tracer.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TARGETS = [(modname, target)
           for modname, targets in _load_tracer().LAYERS.values()
           for target in (targets if isinstance(targets, tuple) else (targets,))]


@pytest.mark.parametrize("modname, target", TARGETS,
                         ids=[f"{m[len('germforge.'):]}.{t}" for m, t in TARGETS])
def test_layer_target_resolves(modname, target):
    module = importlib.import_module(modname)
    if "." in target:
        cls_name, meth = target.split(".")
        fn = vars(getattr(module, cls_name)).get(meth)
    else:
        fn = getattr(module, target, None)
    assert inspect.isfunction(fn), f"{modname}: no function {target}"


def test_qdim_probe_reads_the_cached_basis():
    R = Ring(("x",))
    M = Submodule(R, 1, [(R.var(0),)], LOCAL_DS)
    assert M._basis is None
    M.basis()
    assert M._basis is not None
