"""Ideal lattice enumeration, lattice ops, colon ideals, flags."""

import numpy as np
import pytest

from ringlab import naive
from ringlab.errors import CapacityExceeded
from ringlab.exprs import build_ring, parse_ring_expr
from ringlab.ideals import (
    IdealSet,
    colon_elem_mask,
    colon_ideal_mask,
    colon_subset_mask,
    enumerate_ideals,
    ideal_generate,
    ideal_intersect,
    ideal_product,
    ideal_sum,
    is_ideal_mask,
    is_modular_ideal,
    minimal_generating_set,
    principal_ideal,
    s_finite_witness,
    zero_ideal,
)
from ringlab.subsets import SubsetS

LATTICE_EXPRS = [
    "Z24",
    "Z4 x Z6",
    "M(2, Z2)",
    "M(2, Z4)",
    "quot(Z36, gen(12))",
    "idealize(Z4, 4)",
    "amalg(Z8, Z4, mod, gen(2))",
    "trunc(Z4, 2)",
    "idealring(Z36, gen(6))",
]


@pytest.fixture(params=LATTICE_EXPRS, scope="module")
def ringlat(request):
    ring = build_ring(parse_ring_expr(request.param))
    return ring, enumerate_ideals(ring), naive.NaiveRing(ring)


def _sets(lattice):
    return {frozenset(map(int, i.members)) for i in lattice.ideals}


def test_enumeration_matches_naive(ringlat):
    ring, lattice, nr = ringlat
    assert _sets(lattice) == set(naive.all_ideals(nr))
    for ideal in lattice.ideals:
        assert is_ideal_mask(ring, ideal.mask)


def test_lattice_ops_match_naive(ringlat):
    ring, lattice, nr = ringlat
    ideals = lattice.ideals
    for i, a in enumerate(ideals):
        sa = frozenset(map(int, a.members))
        for j, b in enumerate(ideals):
            sb = frozenset(map(int, b.members))
            assert frozenset(map(int, ideals[lattice.sum_idx(i, j)].members)) \
                == naive.ideal_sum(nr, sa, sb)
            want = naive.ideal_product(nr, sa, sb)
            assert frozenset(
                map(int, ideals[lattice.product_idx(i, j)].members)) == want
            assert frozenset(
                map(int, ideals[lattice.prod[i, j]].members)) == want
            assert bool(lattice.leq[i, j]) == (sa <= sb)
    assert not lattice.prod.flags.writeable
    with pytest.raises(ValueError):
        lattice.prod[0, 0] = lattice.top_idx


def test_principal_index_matches_naive(ringlat):
    ring, lattice, nr = ringlat
    for x in range(ring.size):
        ideal = lattice.ideals[lattice.principal_of[x]]
        assert frozenset(map(int, ideal.members)) == naive.principal(nr, x)
        assert lattice.principal(x) is ideal


def test_prime_and_maximal_flags_match_naive(ringlat):
    ring, lattice, nr = ringlat
    nprimes = set(naive.prime_ideals(nr))
    nmax = {frozenset(m) for m in naive.maximal_ideals(nr)}
    for i, ideal in enumerate(lattice.ideals):
        s = frozenset(map(int, ideal.members))
        assert lattice.is_prime_idx(i) == (s in nprimes)
        assert lattice.is_maximal_idx(i) == (s in nmax)


def test_nilpotent_and_superfluous_flags_match_naive(ringlat):
    ring, lattice, nr = ringlat
    for i, ideal in enumerate(lattice.ideals):
        s = frozenset(map(int, ideal.members))
        assert lattice.is_nilpotent_idx(i) == naive.is_nilpotent_ideal(nr, s)
        assert lattice.is_superfluous_idx(i) == naive.is_superfluous(nr, s)


def test_modular_flag_matches_naive(ringlat):
    ring, lattice, nr = ringlat
    for ideal in lattice.ideals:
        if not ideal.is_proper:
            continue
        s = frozenset(map(int, ideal.members))
        got = is_modular_ideal(ring, ideal.mask)
        want, _ = naive.is_modular(nr, s)
        assert got == want


def test_colon_masks_match_naive(ringlat):
    ring, lattice, nr = ringlat
    rng = np.random.default_rng(3)
    ideals = [i for i in lattice.ideals if i.is_proper][:4]
    for ideal in ideals:
        s = frozenset(map(int, ideal.members))
        for a in rng.integers(0, ring.size, size=6).tolist():
            got = frozenset(
                np.flatnonzero(colon_elem_mask(ring, ideal.mask, a)).tolist())
            assert got == naive.colon_elem(nr, s, a)
        t = sorted(rng.integers(0, ring.size, size=3).tolist())
        got = frozenset(
            np.flatnonzero(colon_subset_mask(ring, ideal.mask, t)).tolist())
        assert got == naive.colon_set(nr, s, t)


def test_colon_by_ideal_is_largest_solution():
    ring = build_ring(parse_ring_expr("Z36"))
    p = principal_ideal(ring, 4)
    t = principal_ideal(ring, 3)
    mask = colon_ideal_mask(ring, p.mask, t)
    # (gen(4) : gen(3)) = {x : 3x in gen(4)} = gen(4) since 3 is a unit mod 4
    assert sorted(np.flatnonzero(mask).tolist()) == list(range(0, 36, 4))
    assert is_ideal_mask(ring, mask)


def test_minimal_generating_sets(ringlat):
    ring, lattice, nr = ringlat
    for ideal in lattice.ideals:
        gens = minimal_generating_set(ideal)
        mask = ideal_generate(ring, list(gens))
        assert (mask == ideal.mask).all()
        for g in gens:
            rest = [h for h in gens if h != g]
            assert not (ideal_generate(ring, rest) == ideal.mask).all()
        # the generators are kept per ideal; a caller's edit must not leak
        want = list(gens)
        gens.append(ring.zero)
        gens.reverse()
        assert minimal_generating_set(ideal) == want


def test_ideal_algebra_wrappers():
    ring = build_ring(parse_ring_expr("Z24"))
    a = IdealSet(ring, principal_ideal(ring, 4).mask)
    b = IdealSet(ring, principal_ideal(ring, 6).mask)
    assert sorted(map(int, ideal_sum(a, b).members)) == list(range(0, 24, 2))
    assert sorted(map(int, ideal_product(a, b).members)) == [0]
    assert sorted(map(int, ideal_intersect(a, b).members)) == [0, 12]
    assert zero_ideal(ring).is_zero


def test_enumeration_budget():
    ring = build_ring(parse_ring_expr("Z24"))
    with pytest.raises(CapacityExceeded):
        enumerate_ideals(ring, budget=3)


def test_s_finite_witness_on_finite_ring():
    ring = build_ring(parse_ring_expr("Z36"))
    ideal = IdealSet(ring, principal_ideal(ring, 4).mask)
    subset = SubsetS(ring, [1, 3, 9, 27], kind="mulclosed")
    s, gens = s_finite_witness(ideal, subset)
    assert s in {1, 3, 9, 27}
    assert set(gens) <= set(map(int, ideal.members))
    gen_mask = ideal_generate(ring, gens)
    assert not gen_mask[~ideal.mask].any()       # <F> stays inside I
    smem = ring.mul_vec(np.int64(s), ideal.members)
    assert gen_mask[smem].all()                  # s I lands inside <F>
