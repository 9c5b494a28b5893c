"""The table-walking oracle itself: tables, derived structure, caps."""

import pytest

import naive

from ringlab.errors import InvalidParameter
from ringlab.exprs import build_ring, parse_ring_expr


@pytest.fixture(scope="module")
def z12():
    return naive.NaiveRing(build_ring(parse_ring_expr("Z12")))


def test_tables_match_ring_ops():
    ring = build_ring(parse_ring_expr("M(2, Z2)"))
    nr = naive.NaiveRing(ring)
    for a in range(ring.size):
        for b in range(ring.size):
            assert nr.add[a][b] == ring.add(a, b)
            assert nr.mul[a][b] == ring.mul(a, b)


def test_structure_rederived_from_tables(z12):
    assert z12.zero == 0
    assert z12.one == 1
    assert z12.commutative
    assert z12.neg[5] == 7


def test_size_cap():
    with pytest.raises(InvalidParameter):
        naive.NaiveRing(build_ring(parse_ring_expr("M(2, Z7)")))  # 2401


def test_size_cap_boundary(monkeypatch):
    monkeypatch.setattr(naive, "NAIVE_LIMIT", 12)
    assert naive.NaiveRing(build_ring(parse_ring_expr("Z12"))).size == 12
    with pytest.raises(InvalidParameter):
        naive.NaiveRing(build_ring(parse_ring_expr("Z13")))


def test_classical_sets(z12):
    assert naive.jacobson(z12) == frozenset({0, 6})
    assert naive.nilpotent_elements(z12) == frozenset({0, 6})
    assert naive.units(z12) == frozenset({1, 5, 7, 11})
    assert naive.prime_radical(z12) == (frozenset({0, 6}), False)


def test_ideal_enumeration_small():
    nr = naive.NaiveRing(build_ring(parse_ring_expr("Z24")))
    got = set(naive.all_ideals(nr))
    divisors = [1, 2, 3, 4, 6, 8, 12, 24]
    want = {frozenset(range(0, 24, d)) for d in divisors}
    assert got == want
    maxes = {frozenset(m) for m in naive.maximal_ideals(nr)}
    assert maxes == {frozenset(range(0, 24, 2)), frozenset(range(0, 24, 3))}


def test_center_of_matrix_ring():
    ring = build_ring(parse_ring_expr("M(2, Z2)"))
    nr = naive.NaiveRing(ring)
    # the center of a full matrix ring is the scalar matrices
    scalars = {0, ring.one}
    assert naive.center(nr) == frozenset(scalars)


def test_msystem_and_mulclosed(z12):
    assert naive.is_mul_closed(z12, frozenset({1, 5}))
    assert not naive.is_mul_closed(z12, frozenset({5, 7}))
    assert naive.is_msystem(z12, frozenset({3}))     # 3*3*3 = 3 mod 12
    assert not naive.is_msystem(z12, frozenset({2}))


def test_colon_and_closure(z12):
    four = frozenset(range(0, 12, 4))
    assert naive.principal(z12, 4) == four
    assert naive.colon_elem(z12, four, 3) == four
    assert naive.ideal_sum(z12, four, frozenset(range(0, 12, 6))) \
        == frozenset(range(0, 12, 2))
    assert naive.ideal_product(z12, four, four) == frozenset({0, 4, 8})
