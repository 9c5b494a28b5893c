"""Tests of the benchmark itself: run with

    python3 -m pytest perfbench/tests -q

from the root of the checkout.
"""

import itertools
import json
import os
import sys

import pytest

import ringlab
from ringlab import harness, predicates

import tracer
import worker
import workloads as w

SMALL_POOL = ["Z12 x Z24", "M(2, Z6)"]
SMALL_CORPUS = [("Z4", "zn"), ("Z6", "zn"), ("Z2 x Z4", "product"),
                ("trunc(Z2, 2)", "truncation")]
SMALL_DESCRIBE = ["M(2, Z4)", "Z16 x Z16", "trunc(Z2, 8)"]


@pytest.fixture(scope="module")
def pins():
    with open(worker.PINS) as fh:
        return json.load(fh)


@pytest.fixture
def small_pool(monkeypatch):
    monkeypatch.setattr(w, "CHECK_POOL", SMALL_POOL)
    return w.build_pool


def take(stream, n):
    return list(itertools.islice(stream, n))


def test_describe_stream_is_seed_determined():
    a = take(w.describe_stream(3), 40)
    assert a == take(w.describe_stream(3), 40)
    assert a != take(w.describe_stream(4), 40)
    # one draw per stratum, in stratum order
    strata = [choices for _, choices in w.DESCRIBE_STRATA]
    for k, expr in enumerate(a):
        assert expr in strata[k % len(strata)]


def test_check_stream_is_seed_determined(small_pool):
    pool_a, pool_b = small_pool(), small_pool()
    a = take(w.check_stream(5, pool_a), 200)
    assert a == take(w.check_stream(5, pool_b), 200)
    assert a != take(w.check_stream(6, pool_a), 200)
    universe = set(w.check_universe(pool_a))
    assert set(a) <= universe


def test_verify_part_is_seed_determined(pins):
    parts = pins["verify"]["parts"]
    assert w.verify_part(pins, 11) == w.verify_part(pins, 11)
    assert w.verify_part(pins, 11)[0] == 11 % len(parts)
    union = {tuple(e) for part in parts for e in part}
    assert union == set(harness.default_ring_exprs())


def test_every_drawable_input_is_pinned(pins):
    assert set(w.describe_catalog()) <= set(pins["describe"])
    pool = w.build_pool()
    keys = {w.query_key(pool, r, q) for r, q in w.check_universe(pool)}
    assert keys <= set(pins["check"])


def run_traced(fn):
    t = tracer.Tracer()
    t.install()
    try:
        out = fn()
    finally:
        t.remove()
    return out, t


def check_digests(build_pool, n=150):
    pool = build_pool()
    return [w.digest(w.check_op(pool, r, q))
            for r, q in take(w.check_stream(1, pool), n)]


def verify_digest():
    text, ops, gate = w.verify_pass(w.verify_setup(SMALL_CORPUS))
    assert gate and ops > 0
    return w.digest(text)


def describe_digests():
    out = []
    for expr in SMALL_DESCRIBE:
        rc, text = w.describe_op(expr)
        assert rc == 0
        out.append(w.digest(text))
    return out


def test_traced_outputs_equal_untraced(small_pool):
    for fn in (lambda: check_digests(small_pool), verify_digest,
               describe_digests):
        plain = fn()
        traced, t = run_traced(fn)
        assert traced == plain
        assert t.totals()


def test_traced_counts_repeat_exactly(small_pool):
    def counts():
        def work():
            check_digests(small_pool)
            verify_digest()
            describe_digests()
        _, t = run_traced(work)
        m = t.metrics(1.0)
        return {k: v for k, (v, unit) in m.items()
                if unit in ("count", "ratio", "cells-computed")}
    first = counts()
    assert first == counts()
    assert first["predicates.is_S_J_ideal.calls"] > 0
    assert first["harness.build_context.calls"] == len(SMALL_CORPUS)
    assert first["cli.main.calls"] == len(SMALL_DESCRIBE)
    assert first["rings.mul_vec.calls"] > 0


def test_tracer_restores_every_binding():
    before = {name: dict(vars(mod)) for name, mod in list(sys.modules.items())
              if name.startswith("ringlab")}
    registry = list(harness.REGISTRY)
    add_vec = ringlab.rings.Ring.__dict__["add_vec"]
    run_traced(lambda: None)
    for name, attrs in before.items():
        mod = sys.modules[name]
        for attr, val in attrs.items():
            assert getattr(mod, attr) is val, (name, attr)
    assert harness.REGISTRY == registry
    assert ringlab.rings.Ring.__dict__["add_vec"] is add_vec
    assert harness.is_S_J_ideal is predicates.is_S_J_ideal


def test_tracer_metric_names_match_benchmark_json():
    path = os.path.join(os.path.dirname(worker.HERE), "BENCHMARK.json")
    with open(path) as fh:
        spec = json.load(fh)
    assert [m["name"] for m in spec["per_layer"]] == \
        [name for name, _, _ in tracer.METRICS]
    assert [m["unit"] for m in spec["per_layer"]] == \
        [unit for _, unit, _ in tracer.METRICS]


def test_tail_has_ten_samples_beyond():
    xs = list(range(100))
    value, pct, n = worker.tail(xs)
    assert n == 100 and value == 89 and pct == 90.0
    assert sum(x > value for x in xs) == 10
    assert worker.tail([1, 2, 3])[1] is None
