"""Per-module call counts and span times for the traced benchmark run.

The tracer wraps public functions and methods of ringlab from outside the
program.  A wrapped function is rebound in every ringlab module that holds
it, because ``harness`` and ``cli`` bind names with ``from .x import y``.
Methods are rebound on the class that defines them.  Private helpers
(names starting with ``_``) are never wrapped.

Each call is a span.  Spans nest on a thread-local stack, so law bodies
running on the ``verify`` thread pool keep their own stacks.  A span's
self time is its duration minus the time of the spans it caused.  Totals
are kept per thread in memory and merged when the tracer is removed.
"""

import dataclasses
import importlib
import inspect
import itertools
import sys
import threading
import time
import weakref

import numpy as np

# (module, qualified name, span name); "Class.method" wraps a method
SPANS = [
    ("exprs", "parse_ring_expr", "exprs.parse_ring_expr"),
    ("exprs", "build_ring", "exprs.build_ring"),
    ("rings", "Ring.add_vec", "rings.add_vec"),
    ("rings", "Ring.mul_vec", "rings.mul_vec"),
    ("rings", "Ring.neg_vec", "rings.neg_vec"),
    ("rings", "Ring.sub_vec", "rings.sub_vec"),
    ("rings", "Ring.add", "rings.scalar.add"),
    ("rings", "Ring.mul", "rings.scalar.mul"),
    ("rings", "Ring.neg", "rings.scalar.neg"),
    ("rings", "additive_closure", "rings.additive_closure"),
    ("rings", "canonical_surjection", "rings.canonical_surjection"),
    ("ideals", "enumerate_ideals", "ideals.enumerate_ideals"),
    ("ideals", "ideal_generate", "ideals.ideal_generate"),
    ("ideals", "principal_ideal", "ideals.principal_ideal"),
    ("ideals", "ideal_product", "ideals.ideal_product"),
    ("ideals", "minimal_generating_set", "ideals.minimal_generating_set"),
    ("ideals", "IdealLattice.product_idx", "ideals.IdealLattice.product_idx"),
    ("ideals", "IdealLattice.is_prime_idx",
     "ideals.IdealLattice.is_prime_idx"),
    ("ideals", "colon_elem_mask", "ideals.colon"),
    ("ideals", "colon_subset_mask", "ideals.colon"),
    ("ideals", "colon_ideal_mask", "ideals.colon"),
    ("radicals", "jacobson_radical", "radicals.jacobson_radical"),
    ("radicals", "prime_radical", "radicals.prime_radical"),
    ("radicals", "j_star", "radicals.j_star"),
    ("subsets", "generated_subset", "subsets.generated_subset"),
    ("subsets", "SubsetS.validate", "subsets.SubsetS.validate"),
    ("harness", "build_context", "harness.build_context"),
    ("harness", "report_json", "harness.report_json"),
    ("cli", "main", "cli.main"),
]

PREDICATES = ("is_J_ideal", "is_n_ideal", "is_S_J_ideal", "is_S_n_ideal",
              "is_S_prime", "is_right_S_prime", "is_right_S_J_ideal")
PAIR_SCAN = ("is_J_ideal", "is_n_ideal", "is_S_J_ideal", "is_S_n_ideal",
             "is_S_prime")
SPANS += [("predicates", p, "predicates." + p) for p in PREDICATES]

VECTOR_OPS = ("rings.add_vec", "rings.mul_vec", "rings.neg_vec",
              "rings.sub_vec")
SCALAR_OPS = ("rings.scalar.add", "rings.scalar.mul", "rings.scalar.neg")
LAW_IDS = ["P%d" % i for i in range(1, 34)]


def _count_metrics():
    """Metric name, unit and better-direction of every traced metric."""
    out = [("exprs.parse_ring_expr.calls", "count", "lower"),
           ("exprs.build_ring.calls", "count", "lower"),
           ("exprs.build_ring.self_s", "s", "lower"),
           ("rings.add_vec.calls", "count", "lower"),
           ("rings.mul_vec.calls", "count", "lower"),
           ("rings.scalar.calls", "count", "lower"),
           ("rings.op.self_s", "s", "lower"),
           ("rings.formula.share", "ratio", "lower")]
    for name in ("rings.additive_closure", "rings.canonical_surjection"):
        out += [(name + ".calls", "count", "lower"),
                (name + ".self_s", "s", "lower")]
    out += [("ideals.enumerate_ideals.calls", "count", "lower"),
            ("ideals.enumerate_ideals.self_s", "s", "lower"),
            ("ideals.enumerate_ideals.ideals_out", "count", "lower")]
    for name in ("ideals.ideal_generate", "ideals.principal_ideal",
                 "ideals.ideal_product", "ideals.minimal_generating_set"):
        out += [(name + ".calls", "count", "lower"),
                (name + ".self_s", "s", "lower")]
    out.append(("ideals.minimal_generating_set.distinct_ratio", "ratio",
                "higher"))
    for name in ("ideals.IdealLattice.product_idx",
                 "ideals.IdealLattice.is_prime_idx", "ideals.colon",
                 "radicals.jacobson_radical", "radicals.prime_radical",
                 "radicals.j_star", "subsets.generated_subset",
                 "subsets.SubsetS.validate"):
        out += [(name + ".calls", "count", "lower"),
                (name + ".self_s", "s", "lower")]
    for p in PREDICATES:
        out += [("predicates.%s.calls" % p, "count", "lower"),
                ("predicates.%s.self_s" % p, "s", "lower")]
    out += [("predicates.distinct_ratio", "ratio", "higher"),
            ("predicates.pair_cells", "cells-computed", "lower"),
            ("harness.build_context.calls", "count", "lower"),
            ("harness.build_context.self_s", "s", "lower")]
    out += [("harness.law.%s.s" % law, "s", "lower") for law in LAW_IDS]
    out += [("harness.report_json.self_s", "s", "lower"),
            ("cli.main.calls", "count", "lower"),
            ("cli.main.self_s", "s", "lower"),
            ("trace.overhead_ratio", "ratio", "lower")]
    return out


METRICS = _count_metrics()


def _mask_bytes(obj):
    mask = getattr(obj, "mask", obj)
    return np.asarray(mask, dtype=bool).tobytes()


class _State:
    """Span stack and totals of one thread."""

    def __init__(self):
        self.stack = []
        self.totals = {}       # span name -> [calls, self_s, total_s]
        self.extra = {"formula_calls": 0, "vector_calls": 0,
                      "ideals_out": 0, "pair_cells": 0}
        self.mgs_keys = set()
        self.pred_keys = set()


class _ThreadLocal(threading.local):
    def __init__(self, register):
        self.state = _State()
        register(self.state)


class Tracer:
    """Install with ``install()``; read ``metrics()`` after ``remove()``."""

    def __init__(self):
        self._states = []
        self._lock = threading.Lock()
        self._tls = _ThreadLocal(self._register)
        self._restore = []
        self._ring_serial = weakref.WeakKeyDictionary()
        self._serials = itertools.count()
        self._lattice_size = weakref.WeakKeyDictionary()

    def _register(self, state):
        with self._lock:
            self._states.append(state)

    def _serial(self, ring):
        with self._lock:
            serial = self._ring_serial.get(ring)
            if serial is None:
                serial = self._ring_serial[ring] = next(self._serials)
            return serial

    # -- wrapping ----------------------------------------------------------

    def _span(self, name, fn, after=None):
        tls = self._tls
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            state = tls.state
            stack = state.stack
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                tot = state.totals.get(name)
                if tot is None:
                    tot = state.totals[name] = [0, 0.0, 0.0]
                tot[0] += 1
                tot[1] += dt - frame[0]
                tot[2] += dt
            if after is not None:
                after(state, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _after_hook(self, span, fn):
        """Extra bookkeeping for the spans that feed derived metrics."""
        if span in VECTOR_OPS:
            limit = sys.modules["ringlab.rings"].TABLE_LIMIT

            def after(st, args, kwargs, result):
                st.extra["vector_calls"] += 1
                if args[0].size > limit:
                    st.extra["formula_calls"] += 1
            return after
        if span == "ideals.enumerate_ideals":
            def after(st, args, kwargs, result):
                st.extra["ideals_out"] += len(result)
                self._lattice_size[args[0]] = len(result)
            return after
        if span == "ideals.minimal_generating_set":
            def after(st, args, kwargs, result):
                ideal = args[0] if args else kwargs["ideal"]
                st.mgs_keys.add((self._serial(ideal.ring),
                                  hash(_mask_bytes(ideal))))
            return after
        if span.startswith("predicates."):
            pred = span.split(".", 1)[1]
            sig = inspect.signature(fn)

            def after(st, args, kwargs, result):
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                a = bound.arguments
                ring = a["ring"]
                subset = a.get("subset")
                st.pred_keys.add((
                    self._serial(ring), hash(_mask_bytes(a["ideal"])),
                    None if subset is None else hash(_mask_bytes(subset)),
                    pred, a.get("mode"), a.get("method")))
                if pred in PAIR_SCAN or a.get("method") == "elementwise":
                    st.extra["pair_cells"] += ring.size ** 2
                else:
                    lattice = a.get("lattice")
                    count = (len(lattice) if lattice is not None
                             else self._lattice_size.get(ring, 0))
                    st.extra["pair_cells"] += count ** 2
            return after
        return None

    def install(self):
        for modname in {m for m, _, _ in SPANS}:
            importlib.import_module("ringlab." + modname)
        mods = {name: mod for name, mod in sys.modules.items()
                if name == "ringlab" or name.startswith("ringlab.")}
        for modname, qual, span in SPANS:
            home = mods["ringlab." + modname]
            if "." in qual:
                cls_name, attr = qual.split(".")
                cls = getattr(home, cls_name)
                orig = cls.__dict__[attr]
                wrapped = self._span(span, orig, self._after_hook(span, orig))
                setattr(cls, attr, wrapped)
                self._restore.append((cls, attr, orig))
                continue
            orig = getattr(home, qual)
            wrapped = self._span(span, orig, self._after_hook(span, orig))
            for mod in mods.values():
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, attr, wrapped)
                        self._restore.append((mod, attr, orig))
        harness = mods["ringlab.harness"]
        self._registry = list(harness.REGISTRY)
        harness.REGISTRY[:] = [
            dataclasses.replace(law, check=self._span(
                "harness.law." + law.id, law.check))
            for law in self._registry]

    def remove(self):
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore = []
        sys.modules["ringlab.harness"].REGISTRY[:] = self._registry

    # -- results -----------------------------------------------------------

    def totals(self):
        merged = {}
        for state in self._states:
            for name, (calls, self_s, total_s) in state.totals.items():
                m = merged.setdefault(name, [0, 0.0, 0.0])
                m[0] += calls
                m[1] += self_s
                m[2] += total_s
        return merged

    def metrics(self, overhead_ratio):
        """Every traced metric as {name: (value, unit)}; 0 where unused."""
        tot = self.totals()
        extra = {}
        mgs_keys, pred_keys = set(), set()
        for state in self._states:
            for k, v in state.extra.items():
                extra[k] = extra.get(k, 0) + v
            mgs_keys |= state.mgs_keys
            pred_keys |= state.pred_keys

        def calls(name):
            return tot.get(name, [0, 0.0, 0.0])[0]

        def self_s(name):
            return tot.get(name, [0, 0.0, 0.0])[1]

        def ratio(num, den):
            return num / den if den else 0.0

        pred_calls = sum(calls("predicates." + p) for p in PREDICATES)
        values = {
            "rings.scalar.calls": sum(calls(n) for n in SCALAR_OPS),
            "rings.op.self_s": sum(self_s(n)
                                   for n in VECTOR_OPS + SCALAR_OPS),
            "rings.formula.share": ratio(extra.get("formula_calls", 0),
                                         extra.get("vector_calls", 0)),
            "ideals.enumerate_ideals.ideals_out": extra.get("ideals_out", 0),
            "ideals.minimal_generating_set.distinct_ratio": ratio(
                len(mgs_keys), calls("ideals.minimal_generating_set")),
            "predicates.distinct_ratio": ratio(len(pred_keys), pred_calls),
            "predicates.pair_cells": extra.get("pair_cells", 0),
            "trace.overhead_ratio": overhead_ratio,
        }
        for law in LAW_IDS:
            values["harness.law.%s.s" % law] = tot.get(
                "harness.law." + law, [0, 0.0, 0.0])[2]
        out = {}
        for name, unit, _ in METRICS:
            if name not in values:
                base, _, kind = name.rpartition(".")
                values[name] = calls(base) if kind == "calls" else self_s(base)
            out[name] = (values[name], unit)
        return out
