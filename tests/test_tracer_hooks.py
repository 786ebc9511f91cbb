"""The benchmark tracer counts work by wrapping library functions by name; a
renamed function silently zeroes its counter.  Every hook name must resolve
to something the tracer installs, apart from three known-stale names."""

import importlib
import importlib.util
import inspect
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
# hooks on functions that no longer exist (see ROADMAP, counters at the source)
KNOWN_STALE = {"arith.liouville_squarefree_window", "group.UnitGroup.character_matrix",
               "group.UnitGroup.mult_pos"}


def _tracer_hooks():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.HOOKS


def _resolves(name: str) -> bool:
    """Whether the tracer's install step wraps `layer.func` or `layer.Class.method`."""
    layer, *path = name.split(".")
    mod = importlib.import_module(f"linnik_lab.{layer}")
    obj = vars(mod).get(path[0])
    if obj is None or getattr(obj, "__module__", None) != mod.__name__:
        return False
    if len(path) == 1:
        return callable(obj) and not isinstance(obj, type)
    attr = vars(obj).get(path[1]) if isinstance(obj, type) else None
    return inspect.isfunction(attr) or isinstance(attr, (staticmethod, classmethod, property))


def test_tracer_hook_names_resolve():
    hooks = _tracer_hooks()
    assert hooks
    unresolved = {name for name in hooks if not _resolves(name)}
    assert unresolved <= KNOWN_STALE, sorted(unresolved - KNOWN_STALE)
