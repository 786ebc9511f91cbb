"""Per-layer spans and counters for one linnik_lab process, installed from
outside the library by wrapping each module's public functions and methods.

A span opens where a call crosses from one layer (module) into another; calls
that stay inside the current layer are only counted, since their time already
lies inside that layer's open span.  A layer's self time is the duration of
its spans minus the part covered by their child spans.  Importing each module
is timed as a span of its own layer.  Totals, work counters and the outermost
spans stay in memory and are written as JSON when the process ends; pool
workers forked by the program write their own file next to it.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import multiprocessing.util as mp_util
import os
import sys
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from time import perf_counter

LAYERS = ("arith", "multfunc", "group", "sieve", "setcomb", "densemodel",
          "charsums", "pipeline", "cli")
POOL = "pool"      # time the cli layer spends waiting on its worker processes
# spans nested at most SPAN_DEPTH deep are kept one by one, up to SPAN_LIMIT
# per process; deeper or later ones only add to the totals
SPAN_DEPTH = 1
SPAN_LIMIT = 10_000


def _arg(args, kwargs, i, name):
    return kwargs[name] if name in kwargs else args[i]


def _sieved(t, args, kwargs, result):
    t.counters["arith.integers_sieved"] += max(
        0, _arg(args, kwargs, 1, "hi") - _arg(args, kwargs, 0, "lo"))


def _dense_table(t, args, kwargs, result):
    # a cached table comes back as the same array; count each build once
    if id(result) not in t.tables:
        t.tables[id(result)] = result
        t.counters["group.character_matrix_bytes"] += 16 * args[0].phi ** 2


def _count(key, amount=lambda args, kwargs, result: 1):
    def hook(t, args, kwargs, result):
        t.counters[key] += amount(args, kwargs, result)
    return hook


HOOKS = {
    "group.UnitGroup.__init__": _count("group.unit_groups_built"),
    "group.UnitGroup.character_matrix": _dense_table,
    "group.UnitGroup.mult_pos": _dense_table,
    "group.DirichletCharacter.rotation": _count("group.character_evaluations"),
    "arith.liouville_squarefree_window": _sieved,
    "arith.factor_window": _sieved,
    "arith.factorize": _count("arith.scalar_factorizations"),
    "pipeline.s_function_easy": _count("pipeline.s_tuples_visited",
                                       lambda a, k, r: r[1]["tuples"]),
    "pipeline.s_function_general": _count("pipeline.s_tuples_visited",
                                          lambda a, k, r: r[1]["tuples"]),
    "pipeline.verify_witnesses": _count(
        "pipeline.witnesses_verified",
        lambda a, k, r: sum(len(d) for d in _arg(a, k, 0, "result").witnesses.values())),
    "charsums.class_weights": _count("charsums.class_collapse_terms",
                                     lambda a, k, r: len(_arg(a, k, 1, "ns"))),
    "charsums.all_char_sums": _count("charsums.transform_calls"),
    "densemodel.build_dense_model": _count("densemodel.spectrum_size",
                                           lambda a, k, r: len(r.spectrum)),
    "setcomb.conv2": _count("setcomb.convolutions"),
    "setcomb.conv3": _count("setcomb.convolutions"),
    "setcomb.conv3_transform": _count("setcomb.convolutions"),
    "setcomb.product_set": _count("setcomb.product_set_pairs",
                                  lambda a, k, r: len(_arg(a, k, 1, "A")) * len(_arg(a, k, 2, "B"))),
    "sieve.build_beta_sieve": _count("sieve.support_size",
                                     lambda a, k, r: len(r[0].weights) + len(r[1].weights)),
}


class Tracer:
    """Span stack, per-layer totals and counters of the current process."""

    def __init__(self, path: str):
        self.path = path
        self.stack: list[list] = []   # open spans: [layer, child seconds, span id]
        self.self_s = dict.fromkeys(LAYERS + (POOL,), 0.0)
        self.calls = dict.fromkeys(LAYERS, 0)
        self.counters: Counter = Counter()
        self.spans: list[tuple] = []
        self.tables: dict[int, object] = {}
        self.next_id = 0
        self.spans_dropped = 0

    # -- spans ---------------------------------------------------------------

    def span(self, layer: str, name: str, fn, args, kwargs):
        """Run fn inside a new span of `layer`."""
        stack = self.stack
        depth = len(stack)
        parent = stack[-1][2] if stack else None
        frame = [layer, 0.0, self.next_id]
        self.next_id += 1
        stack.append(frame)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            stack.pop()
            dur = t1 - t0
            self.self_s[layer] += dur - frame[1]
            if stack:
                stack[-1][1] += dur
            if depth <= SPAN_DEPTH:
                if len(self.spans) < SPAN_LIMIT:
                    self.spans.append((frame[2], name, t0, t1, parent))
                else:
                    self.spans_dropped += 1

    def wrap(self, layer: str, name: str, fn):
        hook = HOOKS.get(name)
        calls = self.calls
        stack = self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            calls[layer] += 1
            if stack and stack[-1][0] == layer:
                result = fn(*args, **kwargs)
            else:
                result = self.span(layer, name, fn, args, kwargs)
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return traced

    # -- installation --------------------------------------------------------

    def import_layers(self) -> None:
        """Import linnik_lab module by module, each inside a span of its layer."""
        import linnik_lab.errors  # noqa: F401  (shared exceptions, not a layer)
        for layer in LAYERS:
            self.span(layer, f"{layer}.<import>", importlib.import_module,
                      (f"linnik_lab.{layer}",), {})

    def install(self) -> None:
        for layer in LAYERS:
            mod = sys.modules[f"linnik_lab.{layer}"]
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if isinstance(obj, type):
                    self._install_class(layer, obj)
                elif callable(obj):
                    setattr(mod, name, self.wrap(layer, f"{layer}.{name}", obj))
        self._install_pool_wait()
        mp_util.register_after_fork(self, Tracer._after_fork)

    def _install_class(self, layer: str, cls: type) -> None:
        for name, attr in list(vars(cls).items()):
            if name.startswith("_") and name not in ("__init__", "__call__"):
                continue
            qual = f"{layer}.{cls.__name__}.{name}"
            if isinstance(attr, (staticmethod, classmethod)):
                setattr(cls, name, type(attr)(self.wrap(layer, qual, attr.__func__)))
            elif isinstance(attr, property) and attr.fget is not None:
                setattr(cls, name, property(self.wrap(layer, qual, attr.fget),
                                            attr.fset, attr.fdel, attr.__doc__))
            elif inspect.isfunction(attr):
                setattr(cls, name, self.wrap(layer, qual, attr))

    def _install_pool_wait(self) -> None:
        """Time each wait for a pool result as a span of its own, so the cli
        layer's self time leaves out the work its workers do."""
        original = ProcessPoolExecutor.map
        tracer = self

        @functools.wraps(original)
        def map_(pool, *args, **kwargs):
            results = original(pool, *args, **kwargs)

            def waited():
                while True:
                    try:
                        item = tracer.span(POOL, "pool.wait", next, (results,), {})
                    except StopIteration:
                        return
                    yield item

            return waited()

        ProcessPoolExecutor.map = map_

    # -- output --------------------------------------------------------------

    def _after_fork(self) -> None:
        """In a forked pool worker: start empty and write a file of its own."""
        self.stack.clear()
        self.spans.clear()
        self.spans_dropped = 0
        self.counters.clear()
        for d in (self.self_s, self.calls):
            for k in d:
                d[k] = 0
        self.path = f"{self.path}.{os.getpid()}"
        mp_util.Finalize(self, self.dump, exitpriority=10)

    def dump(self) -> None:
        with open(self.path, "w") as fh:
            json.dump({"pid": os.getpid(), "self_s": self.self_s, "calls": self.calls,
                       "counters": dict(self.counters), "spans_dropped": self.spans_dropped,
                       "spans": [dict(zip(("id", "name", "start", "end", "parent"), s))
                                 for s in self.spans]}, fh)
