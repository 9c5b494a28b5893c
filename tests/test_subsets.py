"""Multiplicative subsets: closure, validation, transports."""

import numpy as np
import pytest

import naive
from _oracle import singleton_subsets

from ringlab.errors import InvalidSubset
from ringlab.exprs import build_ring, parse_ring_expr
from ringlab.ideals import principal_ideal
from ringlab.rings import canonical_surjection
from ringlab.subsets import (
    SubsetS,
    generated_subset,
    mul_closure,
    subset_amalgamation,
    subset_const_embed,
    subset_idealization,
    subset_product,
    subset_quotient_image,
)


def test_mul_closure_powers():
    ring = build_ring(parse_ring_expr("Z36"))
    assert sorted(mul_closure(ring, [3]).tolist()) == [3, 9, 27]
    assert sorted(mul_closure(ring, [2]).tolist()) \
        == [2, 4, 8, 16, 20, 28, 32]


def test_generated_subset_closes():
    ring = build_ring(parse_ring_expr("Z36"))
    s = generated_subset(ring, [3, 5])
    members = set(map(int, s.members))
    for a in members:
        for b in members:
            assert (a * b) % 36 in members


def test_mulclosed_validation():
    ring = build_ring(parse_ring_expr("Z36"))
    s = SubsetS(ring, [1, 3, 9, 27], kind="mulclosed")
    assert sorted(map(int, s.members)) == [1, 3, 9, 27]
    with pytest.raises(InvalidSubset) as ei:
        SubsetS(ring, [1, 5], kind="mulclosed")
    assert ei.value.details["witness"] == (5, 5)


def test_msystem_validation():
    z8 = build_ring(parse_ring_expr("Z8"))
    # {3}: 3 * 3 * 3 = 27 = 3 mod 8, so the middle element 3 works
    SubsetS(z8, [3], kind="msystem")
    # {2}: 2 * r * 2 = 4r lands in {0, 4}, never back in {2}
    with pytest.raises(InvalidSubset) as ei:
        SubsetS(z8, [2], kind="msystem")
    assert ei.value.details["witness"] == (2, 2)


def test_msystem_matches_naive():
    ring = build_ring(parse_ring_expr("M(2, Z2)"))
    nr = naive.NaiveRing(ring)
    rng = np.random.default_rng(5)
    tried = 0
    for _ in range(40):
        seed = sorted(set(rng.integers(1, ring.size, size=2).tolist()))
        ok_naive = naive.is_msystem(nr, frozenset(seed))
        try:
            SubsetS(ring, seed, kind="msystem")
            ok_fast = True
        except InvalidSubset:
            ok_fast = False
        assert ok_fast == ok_naive
        tried += 1
    assert tried == 40


def test_enumerate_subsets_singletons():
    ring = build_ring(parse_ring_expr("Z36"))
    subs = singleton_subsets(ring)
    assert len({s.key for s in subs}) == len(subs) > 6
    for s in subs:
        members = set(map(int, s.members))
        for a in members:
            for b in members:
                assert (a * b) % 36 in members


def test_subset_product_transport():
    prod = build_ring(parse_ring_expr("Z4 x Z6"))
    s1 = SubsetS(prod.r1, [1, 3], kind="mulclosed")
    s2 = SubsetS(prod.r2, [1], kind="mulclosed")
    s = subset_product(s1, s2, prod)
    want = {int(prod.join(a, b)) for a in (1, 3) for b in (1,)}
    assert set(map(int, s.members)) == want


def test_subset_idealization_transport():
    ring = build_ring(parse_ring_expr("idealize(Z4, 2)"))
    s = SubsetS(ring.base, [1, 3], kind="mulclosed")
    out = subset_idealization(s, ring)
    # full module fiber over each s: (s1,m1)(s2,m2) = (s1 s2, s1 m2 + s2 m1)
    want = {int(ring.join(r, m)) for r in (1, 3) for m in range(2)}
    assert set(map(int, out.members)) == want


def test_subset_amalgamation_transport():
    ring = build_ring(parse_ring_expr("amalg(Z8, Z4, mod, gen(2))"))
    s = SubsetS(ring.base, [1, 3], kind="mulclosed")
    out = subset_amalgamation(s, ring)
    # image is the diagonal pair (r, f(r)), offset zero inside the ideal
    labels = {ring.element_label(int(i)) for i in out.members}
    assert labels == {"(1, 1)", "(3, 3)"}


def test_subset_quotient_image_transport():
    ring = build_ring(parse_ring_expr("Z36"))
    q, hom = canonical_surjection(ring, principal_ideal(ring, 12).mask)
    s = SubsetS(ring, [1, 3, 9, 27], kind="mulclosed")
    out = subset_quotient_image(s, hom)
    assert out.ring is q
    assert set(map(int, out.members)) == {int(hom.map[x])
                                          for x in (1, 3, 9, 27)}


def test_subset_const_embed_transport():
    tr = build_ring(parse_ring_expr("trunc(Z4, 2)"))
    s = SubsetS(tr.base, [1, 3], kind="mulclosed")
    out = subset_const_embed(s, tr)
    labels = {tr.element_label(int(i)) for i in out.members}
    assert labels == {"poly(1,0)", "poly(3,0)"}
