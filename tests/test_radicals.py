"""Radicals: three routes to J(R), the prime radical, and j-star."""

import numpy as np
import pytest

import _oracle
from _oracle import (
    jacobson_via_quasiregular,
    jacobson_via_units,
    quasi_regular_mask,
)
import naive

from ringlab.errors import NotApplicable
from ringlab.exprs import build_ring, parse_ring_expr
from ringlab.ideals import IdealSet, enumerate_ideals, principal_ideal
from ringlab.radicals import j_star, jacobson_radical, prime_radical
from ringlab.rings import units_mask

SPREAD = [
    "Z2", "Z12", "Z36", "Z4 x Z6", "Z8 x Z9",
    "M(2, Z2)", "M(2, Z4)",
    "quot(Z36, gen(12))",
    "idealize(Z4, 4)",
    "amalg(Z8, Z4, mod, gen(2))",
    "trunc(Z4, 2)",
    "idealring(Z36, gen(6))",
]


@pytest.mark.parametrize("expr", SPREAD)
def test_three_routes_agree(expr):
    ring = build_ring(parse_ring_expr(expr))
    lattice = enumerate_ideals(ring)
    a = jacobson_radical(ring, lattice)
    b = jacobson_via_quasiregular(ring, lattice)
    assert (a.mask == b.mask).all()
    if ring.one is not None:
        c = jacobson_via_units(ring, lattice)
        assert (a.mask == c.mask).all()
    else:
        with pytest.raises(NotApplicable):
            jacobson_via_units(ring, lattice)


def _squarefree_radical(n):
    r, d = 1, 2
    m = n
    while d * d <= m:
        if m % d == 0:
            r *= d
            while m % d == 0:
                m //= d
        d += 1
    return r * (m if m > 1 else 1)


@pytest.mark.parametrize("n", [2, 4, 6, 8, 9, 12, 16, 24, 30, 36, 49])
def test_zn_radical_value(n):
    ring = build_ring(parse_ring_expr("Z%d" % n))
    jac = jacobson_radical(ring)
    step = _squarefree_radical(n)
    assert sorted(map(int, jac.members)) == list(range(0, n, step))


def test_z36_radical_frozen():
    ring = build_ring(parse_ring_expr("Z36"))
    jac = jacobson_radical(ring)
    assert sorted(map(int, jac.members)) == [0, 6, 12, 18, 24, 30]


def test_matrix_radical_is_entrywise():
    """J(M_k(R)) = M_k(J(R)): check by membership masks on M(2, Z4)."""
    base = build_ring(parse_ring_expr("Z4"))
    mat = build_ring(parse_ring_expr("M(2, Z4)"))
    bj = jacobson_radical(base)
    mj = jacobson_radical(mat)
    n = base.size
    digits = np.stack([(np.arange(mat.size) // n ** p) % n
                       for p in range(3, -1, -1)])
    want = bj.mask[digits].all(axis=0)
    assert (mj.mask == want).all()


def test_product_radical_is_componentwise():
    ring = build_ring(parse_ring_expr("Z36 x Z8"))
    jac = jacobson_radical(ring)
    want = {(a, b) for a in range(0, 36, 6) for b in range(0, 8, 2)}
    got = {tuple(map(int, ring.split(i))) for i in map(int, jac.members)}
    assert got == want


@pytest.mark.parametrize("expr", SPREAD)
def test_radicals_match_naive(expr):
    ring = build_ring(parse_ring_expr(expr))
    if ring.size > 300:
        pytest.skip("naive tables get slow")
    nr = naive.NaiveRing(ring)
    lattice = enumerate_ideals(ring)
    jac = jacobson_radical(ring, lattice)
    assert frozenset(map(int, jac.members)) == naive.jacobson(nr)
    assert (frozenset(np.flatnonzero(quasi_regular_mask(ring)).tolist())
            == naive.quasi_regular_set(nr))
    if ring.one is not None:
        assert (frozenset(np.flatnonzero(units_mask(ring)).tolist())
                == naive.units(nr))
    if ring.commutative and ring.one is not None:
        beta, degenerate = prime_radical(ring, lattice)
        assert not degenerate
        assert (frozenset(map(int, beta.members))
                == naive.nilpotent_elements(nr))
        npr, ndeg = naive.prime_radical(nr)
        assert frozenset(map(int, beta.members)) == npr and not ndeg


def test_j_star_matches_naive():
    ring = build_ring(parse_ring_expr("Z36"))
    lattice = enumerate_ideals(ring)
    nr = naive.NaiveRing(ring)
    for ideal in lattice.ideals:
        if not ideal.is_proper:
            continue
        got = j_star(ring, ideal, lattice)
        want = naive.j_star(nr, frozenset(map(int, ideal.members)))
        assert frozenset(map(int, got.members)) == want
    # the maximal ideals above gen(4) are gen(2) alone
    got = j_star(ring, lattice.principal(4), lattice)
    assert sorted(map(int, got.members)) == list(range(0, 36, 2))


def test_j_star_needs_identity():
    ring = build_ring(parse_ring_expr("idealring(Z36, gen(6))"))
    lattice = enumerate_ideals(ring)
    with pytest.raises(NotApplicable):
        j_star(ring, IdealSet(ring, lattice.ideals[0].mask), lattice)


def test_prime_radical_degenerate_case():
    """A ring whose multiplication is identically zero has no proper
    primes, so the intersection defaults to the whole ring."""
    ring = build_ring(parse_ring_expr("idealring(Z36, gen(6))"))
    lattice = enumerate_ideals(ring)
    beta, degenerate = prime_radical(ring, lattice)
    assert degenerate
    assert beta.size == ring.size


def test_crosscheck_cap_boundary(monkeypatch):
    monkeypatch.setattr(_oracle, "_CROSSCHECK_LIMIT", 12)
    at = build_ring(parse_ring_expr("Z12"))
    assert jacobson_via_quasiregular(at) == jacobson_radical(at)
    assert jacobson_via_units(at) == jacobson_radical(at)
    above = build_ring(parse_ring_expr("Z13"))
    with pytest.raises(NotApplicable):
        quasi_regular_mask(above)
    with pytest.raises(NotApplicable):
        jacobson_via_units(above)
