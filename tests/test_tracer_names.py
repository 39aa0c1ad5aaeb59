"""perfbench/tracer.py binds germforge functions and methods by name when it
installs its spans, and its qdim probe reads ``Submodule._basis``. A name it
binds that the package no longer has makes every traced benchmark case fail,
so each one is checked here against the tracer's own table, loaded as the
reachability sweep loads it."""

import importlib
import inspect

import pytest

from germforge.polyring import LOCAL_DS, Ring
from germforge.stdbasis import Submodule

from test_reachability import _load_perfbench

TARGETS = [(modname, target)
           for modname, targets in _load_perfbench("tracer").LAYERS.values()
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
    # the global basis shares its cell with the lifter, which the probe
    # must not take for the basis
    R = Ring(("x",))
    M = Submodule(R, 1, [(R.var(0),)], LOCAL_DS)
    M.lifter()
    assert M._basis is None
    assert M.basis() is M._basis is M._shared[0]
