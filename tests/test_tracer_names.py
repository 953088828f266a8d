"""The benchmark's span tracer wraps library functions by name.

`perfbench/tracer.py` looks each wrapped function up as "module:attr" or
"module:Class.attr" when a traced run starts, so a renamed or deleted
function would only fail there.  This test resolves every name the tracer
lists, so such a change fails the test suite instead.
"""

import importlib
import importlib.util
import os

import pytest

TRACER = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracer.py")


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_TRACER = _tracer()
TARGETS = ([target for _, target in _TRACER.LAYER_FUNCTIONS]
           + [target for _, target in _TRACER.KERNELS])


@pytest.mark.parametrize("target", TARGETS)
def test_traced_name_resolves(target):
    modname, attr = target.split(":")
    obj = importlib.import_module(modname)
    for part in attr.split("."):
        obj = getattr(obj, part)
    assert callable(obj), target


def test_traced_modules_import():
    for modname in _TRACER.TENSPECT_MODULES:
        importlib.import_module(modname)
