"""Every library name perfbench/tracing.py wraps still exists.

The tracer rebinds names by string when a traced benchmark run starts,
so a renamed or deleted function would otherwise fail only there.  This
module reads the tracer's tables and changes nothing under perfbench/.
"""
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _tracing()
WRAPPED = sorted({(mod, name) for mod, names in tracing.SPANNED.items() for name in names}
                 | set(tracing.COUNTED.values()))


def _resolve(mod: str, qualname: str):
    """The object the tracer wraps: a module attribute, or for Class.attr
    the entry in the class's own __dict__, as Tracer._wrap looks it up."""
    module = importlib.import_module(f"thermoforge.{mod}")
    if "." not in qualname:
        return getattr(module, qualname)
    clsname, attr = qualname.split(".")
    return vars(getattr(module, clsname))[attr]


@pytest.mark.parametrize("mod,qualname", WRAPPED, ids=lambda x: x)
def test_wrapped_name_resolves(mod, qualname):
    assert _resolve(mod, qualname) is not None


@pytest.mark.parametrize("name", ["compiler.reconstruct", "channels.run_gc_eto"])
def test_hooked_functions_take_seq(name):
    # Their hooks read the bound argument "seq".
    assert name in tracing.HOOKS
    assert "seq" in inspect.signature(_resolve(*name.split(".", 1))).parameters
