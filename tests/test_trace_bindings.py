"""The benchmark's layer trace wraps ``surfheat`` functions by name
(``perfbench/tracer.py``); every name it binds must exist, or ``--trace 1``
fails at install time."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
_spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
tracer = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracer)


def module(name):
    return importlib.import_module(f"surfheat.{name}")


@pytest.mark.parametrize("name,attr", [(m, a) for m, a, _ in tracer.BINDINGS],
                         ids=[f"{m}.{a}" for m, a, _ in tracer.BINDINGS])
def test_binding_resolves(name, attr):
    assert callable(getattr(module(name), attr))


@pytest.mark.parametrize("name,cls,attr",
                         [(m, c, a) for m, c, a, _ in tracer.METHODS],
                         ids=[f"{m}.{c}.{a}" for m, c, a, _ in tracer.METHODS])
def test_method_resolves(name, cls, attr):
    assert callable(getattr(getattr(module(name), cls), attr))
