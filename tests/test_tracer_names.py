"""
Every function perfbench's tracer wraps still exists in qlink.

`perfbench/tracer.py` looks each `TRACED` entry up with getattr and no
default, so a renamed or deleted function breaks only the traced benchmark
runs, with an AttributeError, while untraced runs still pass.  This test
resolves the same names against the package, `Class.method` entries on the
class itself as the tracer patches them.
"""

import importlib
import importlib.util
import pathlib

import pytest

TRACER = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _traced_names():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.TRACED


@pytest.mark.parametrize("module, attr, group", _traced_names())
def test_traced_name_resolves(module, attr, group):
    mod = importlib.import_module(f"qlink.{module}")
    if "." in attr:
        cls_name, method = attr.split(".")
        assert callable(getattr(mod, cls_name).__dict__[method])
    else:
        assert callable(getattr(mod, attr))
