"""The benchmark tracer's hooks: every name it wraps exists in the package,
and installing then uninstalling it leaves the package as it was."""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from smplab.bits import Bits

TRACER_PATH = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("smplab_bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _modules(tracer):
    names = {module for module, _, _ in tracer.PROTOCOL_LAYERS.values()}
    names |= {module for module, *_ in tracer.FUNCTIONS}
    return {name: importlib.import_module(name) for name in sorted(names | {"smplab.rng"})}


def _package_bindings():
    """Every attribute of every loaded smplab module and of the classes in them."""
    seen = {}
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "smplab" or name.startswith("smplab.")):
            continue
        for attr, value in list(vars(module).items()):
            seen[(name, attr)] = value
            if isinstance(value, type) and value.__module__ == name:
                for cls_attr, cls_value in list(vars(value).items()):
                    seen[(name, attr, cls_attr)] = cls_value
    return seen


def test_every_traced_name_exists(tracer):
    modules = _modules(tracer)
    for module, cls_name, rule in tracer.PROTOCOL_LAYERS.values():
        cls = getattr(modules[module], cls_name)
        for method in ("encode", "expected", "referee"):
            assert callable(getattr(cls, method)), (cls_name, method)
        if rule is not None:
            assert callable(getattr(modules[module], rule)), rule
    for module, func, *_ in tracer.FUNCTIONS:
        assert callable(getattr(modules[module], func)), func
    for method, _ in tracer.BITS_METHODS:
        assert method in vars(Bits), method
    assert callable(modules["smplab.rng"].HashRandomness.integer)


def test_install_then_uninstall_restores_the_package(tracer):
    _modules(tracer)
    before = _package_bindings()
    t = tracer.Tracer()
    t.install()
    try:
        changed = [key for key, value in _package_bindings().items()
                   if before.get(key, object()) is not value]
        assert changed, "install wrapped nothing"
    finally:
        t.uninstall()
    after = _package_bindings()
    assert after.keys() == before.keys()
    assert [key for key in before if after[key] is not before[key]] == []
