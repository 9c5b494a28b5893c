"""Ideal lattice enumeration, lattice ops, colon ideals, flags."""

import dataclasses
import random

import numpy as np
import pytest
from _oracle import (
    ideal_intersect,
    is_modular_ideal,
    jacobson_via_quasiregular,
    lattice_sum_idx,
)
import naive
from test_exprs import _rand_ring

from ringlab import exprs as E
from ringlab import ideals, rings
from ringlab.errors import CapacityExceeded, RinglabError
from ringlab.exprs import build_ring, parse_ring_expr, print_ring
from ringlab.ideals import (
    IdealSet,
    colon_elem_mask,
    colon_ideal_mask,
    colon_subset_mask,
    enumerate_ideals,
    ideal_generate,
    ideal_product,
    minimal_generating_set,
    principal_ideal,
    zero_ideal,
)
from ringlab.radicals import jacobson_radical
from ringlab.rings import additive_closure, is_ideal_mask

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
    "idealring(Z8, gen(2))",
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
            assert frozenset(map(int, ideals[lattice_sum_idx(
                lattice, i, j)].members)) == naive.ideal_sum(nr, sa, sb)
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
    assert np.array_equal(colon_elem_mask(ring, p.mask, 3), mask)
    # (J(Z36) : 3) = (gen(6) : 3), the even residues, holds gen(4)
    jcolon = colon_elem_mask(ring, principal_ideal(ring, 6).mask, 3)
    assert sorted(np.flatnonzero(jcolon).tolist()) == list(range(0, 36, 2))


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
    assert sorted(map(int, ideal_product(a, b).members)) == [0]
    assert sorted(map(int, ideal_intersect(a, b).members)) == [0, 12]
    assert zero_ideal(ring).is_zero


def test_enumeration_budget():
    ring = build_ring(parse_ring_expr("Z24"))
    with pytest.raises(CapacityExceeded):
        enumerate_ideals(ring, budget=3)


def test_enumeration_budget_boundary():
    # 12 ideals, 9 of them principal: the sum phase trips the budget
    ring = build_ring(parse_ring_expr("idealize(Z8, 4)"))
    lattice = enumerate_ideals(ring, budget=12)
    assert len(lattice) == 12
    assert len(set(lattice.principal_of.tolist())) == 9
    with pytest.raises(CapacityExceeded) as err:
        enumerate_ideals(ring, budget=11)
    assert len(err.value.partial) == 11


def test_formula_path_lattices_match_table_path(monkeypatch):
    want = {}
    for expr in LATTICE_EXPRS:
        want[expr] = enumerate_ideals(build_ring(parse_ring_expr(expr)))
    monkeypatch.setattr(rings, "TABLE_LIMIT", 0)
    for expr in LATTICE_EXPRS:
        ring = build_ring(parse_ring_expr(expr))
        lattice = enumerate_ideals(ring)
        assert ring._add_table is None, expr
        assert [i.key for i in lattice.ideals] == \
            [i.key for i in want[expr].ideals], expr
        assert (lattice.principal_of == want[expr].principal_of).all(), expr


# --- work counts -------------------------------------------------------------

# Multiplying by the additive generators leaves nearly every element of
# these rings in its own reachability component; the unit multipliers merge
# each class of associates (trunc(Z11, 3): 1,330 closures without, 3 with).
UNIT_ORBIT_EXPRS = ["trunc(Z11, 3)", "Z320", "idealize(Z50, 25)",
                    "amalg(Z60, Z30, mod, gen(2))"]


def _count_closures(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[0].label)
        return additive_closure(*args, **kwargs)

    monkeypatch.setattr(ideals, "additive_closure", counted)
    monkeypatch.setattr(rings, "additive_closure", counted)
    return calls


@pytest.mark.parametrize("expr", UNIT_ORBIT_EXPRS)
def test_enumeration_runs_one_closure_per_ideal(expr, monkeypatch):
    ring = build_ring(parse_ring_expr(expr))
    ring.mul_table
    calls = _count_closures(monkeypatch)
    lattice = enumerate_ideals(ring)
    assert 0 < len(calls) <= len(lattice), expr


@pytest.mark.parametrize("expr", UNIT_ORBIT_EXPRS + [
    "M(2, Z4)", "idealring(Z36, gen(6))", "M(2, Z2) x idealring(Z4, gen(2))"])
def test_lattice_facts_run_no_closure(expr, monkeypatch):
    ring = build_ring(parse_ring_expr(expr))
    lattice = enumerate_ideals(ring)
    calls = _count_closures(monkeypatch)
    lattice.prod
    lattice.prime_indices()
    for i in range(len(lattice)):
        lattice.is_nilpotent_idx(i)
        lattice.is_superfluous_idx(i)
        lattice_sum_idx(lattice, i, lattice.top_idx - i)
    jacobson_radical(ring, lattice)
    assert calls == [], expr
    for flags in (lattice.prime_flags, lattice.nilpotent_flags):
        assert not flags.flags.writeable


def test_products_without_identity_or_commutativity():
    """M(2, 2Z/12) is noncommutative and has no identity, so a principal
    product <x><y> needs the x g y terms as well as xy.  prod is checked
    against the closure route, and the prime and nilpotent flags against
    their definitions over all ideal pairs."""
    ring = build_ring(parse_ring_expr("M(2, idealring(Z12, gen(2)))"))
    lattice = enumerate_ideals(ring)
    ideals_, prod, leq = lattice.ideals, lattice.prod, lattice.leq
    for i, a in enumerate(ideals_):
        for j, b in enumerate(ideals_):
            assert ideals_[prod[i, j]] == ideal_product(a, b)
    for i in range(len(lattice)):
        out = ~leq[:, i]
        assert lattice.is_prime_idx(i) == (
            i != lattice.top_idx and not leq[prod[np.ix_(out, out)], i].any())
        power = i
        while prod[power, i] != power:
            power = prod[power, i]
        assert lattice.is_nilpotent_idx(i) == (power == 0)
    assert jacobson_radical(ring, lattice) == \
        jacobson_via_quasiregular(ring, lattice)


# --- generated rings against the naive oracle -------------------------------

def _size_bound(node):
    """An upper bound on the size of the ring a node builds."""
    if isinstance(node, E.Zn):
        return node.n
    if isinstance(node, (E.Prod, E.Amalg)):
        return _size_bound(node.left) * _size_bound(node.right)
    if isinstance(node, E.Mat):
        return _size_bound(node.inner) ** (node.k * node.k)
    if isinstance(node, E.Idealize):
        return _size_bound(node.inner) * node.k
    if isinstance(node, E.Trunc):
        return _size_bound(node.inner) ** node.d
    return _size_bound(node.inner)          # quotients and ideal rings


def _small_moduli(node):
    """The same expression with every modulus cut to 2..6, so that nested
    products, matrices and truncations stay within a few dozen elements."""
    if isinstance(node, E.Zn):
        return dataclasses.replace(node, n=2 + node.n % 5)
    return dataclasses.replace(node, **{
        f: _small_moduli(getattr(node, f))
        for f in ("left", "right", "inner") if hasattr(node, f)})


# The generator rarely draws a ring without identity, so these are added
# by hand: a zero-product ring, a product and a truncation over one, and a
# noncommutative one.
IDENTITY_FREE_EXPRS = [
    "idealring(Z12, gen(2))",
    "idealring(Z36, gen(6))",
    "idealring(Z4, gen(2)) x Z3",
    "trunc(idealring(Z12, gen(2)), 2)",
    "M(2, Z2) x idealring(Z4, gen(2))",
]

# Noncommutative unital rings that are not simple, so they have non-prime
# ideals (the matrix rings the generator draws are simple).  Walking their
# tables drives the M(2, Z2) factor past its size**2 formula cells, so the
# walk reads the factor by formula first and by its tables after.
MATRIX_PRODUCT_EXPRS = [
    "M(2, Z2) x Z2",
    "Z3 x M(2, Z2)",
]


@pytest.fixture(scope="module")
def generated_rings():
    """30 distinct rings of at most 64 elements, at most 5 per top-level
    constructor, from the round-trip grammar generator, then the rings of
    IDENTITY_FREE_EXPRS and MATRIX_PRODUCT_EXPRS."""
    rng = random.Random(0x1DEA1)
    out, kinds = {}, []
    while len(out) < 30:
        node = _small_moduli(_rand_ring(rng))
        kind = type(node)
        if _size_bound(node) > 256 or kinds.count(kind) >= 5:
            continue
        try:
            ring = build_ring(node)
        except RinglabError:
            continue
        label = print_ring(node)
        if ring.size <= 64 and label not in out:
            out[label] = ring
            kinds.append(kind)
    for expr in IDENTITY_FREE_EXPRS + MATRIX_PRODUCT_EXPRS:
        out[expr] = build_ring(parse_ring_expr(expr))
    return [(label, ring, naive.NaiveRing(ring))
            for label, ring in out.items()]


def test_generated_additive_closure_matches_naive(generated_rings):
    rng = np.random.default_rng(5)
    for label, ring, nr in generated_rings:
        for _ in range(4):
            base = naive.add_closure(
                nr, rng.integers(0, ring.size, size=2).tolist())
            base_mask = np.zeros(ring.size, dtype=bool)
            base_mask[sorted(base)] = True
            seeds = rng.integers(0, ring.size, size=3).tolist()
            got = additive_closure(ring, seeds, base_mask)
            want = naive.add_closure(nr, set(seeds) | base)
            assert frozenset(np.flatnonzero(got).tolist()) == want, label


def test_generated_lattices_match_naive(generated_rings):
    for label, ring, nr in generated_rings:
        lattice = enumerate_ideals(ring)
        assert len(lattice) == len(naive.all_ideals(nr)), label
        assert _sets(lattice) == set(naive.all_ideals(nr)), label
        for x in range(ring.size):
            assert frozenset(map(int, lattice.principal(x).members)) == \
                naive.principal(nr, x), label
        primes = {frozenset(map(int, lattice.ideals[i].members))
                  for i in lattice.prime_indices()}
        assert primes == set(naive.prime_ideals(nr)), label
        sets = [frozenset(map(int, i.members)) for i in lattice.ideals]
        for i, a in enumerate(sets):
            for j, b in enumerate(sets):
                assert sets[lattice.prod[i, j]] == \
                    naive.ideal_product(nr, a, b), label
                assert sets[lattice_sum_idx(lattice, i, j)] == \
                    naive.ideal_sum(nr, a, b), label
            assert lattice.is_nilpotent_idx(i) == \
                naive.is_nilpotent_ideal(nr, a), label
            assert lattice.is_superfluous_idx(i) == \
                naive.is_superfluous(nr, a), label
        jac = jacobson_radical(ring, lattice)
        assert frozenset(map(int, jac.members)) == naive.jacobson(nr), label


# --- strong components against boolean closure ------------------------------

def _reference_components(n, maps):
    """same[x, y]: x and y reach each other, by squaring the reachability
    matrix until it settles."""
    reach = np.eye(n, dtype=bool)
    for f in maps:
        reach[np.arange(n), f] = True
    while True:
        nxt = (reach.astype(np.float32) @ reach.astype(np.float32)) > 0
        if (nxt == reach).all():
            return reach & reach.T
        reach = nxt


def _assert_components(n, maps, label=""):
    n_comp, labels = ideals._strong_components(n, maps)
    assert labels.shape == (n,), label
    assert sorted(set(labels.tolist())) == list(range(n_comp)), label
    same = labels[:, None] == labels[None, :]
    assert (same == _reference_components(n, maps)).all(), label


def test_generated_strong_components_match_closure(generated_rings,
                                                   monkeypatch):
    for label, ring, _ in generated_rings:
        maps = ideals._reachability_maps(ring)
        _assert_components(ring.size, maps, label)
        # the unit classes, as enumerate_ideals passes them, are a head
        # start that changes no label
        cls, reps = ring.unit_classes
        assert (ideals._strong_components(ring.size, maps, reps[cls])[1]
                == ideals._strong_components(ring.size, maps)[1]).all(), label
    # without tables there are no unit multipliers, so the colouring runs
    monkeypatch.setattr(rings, "TABLE_LIMIT", 0)
    for label, _, _ in generated_rings:
        ring = build_ring(parse_ring_expr(label))
        assert ring.mul_table is None, label
        _assert_components(ring.size, ideals._reachability_maps(ring), label)


def test_strong_components_of_one_long_cycle():
    n = 4093
    shift = (np.arange(n) + 1) % n
    n_comp, labels = ideals._strong_components(n, [shift])
    assert n_comp == 1 and not labels.any()


def test_strong_components_of_synthetic_maps():
    ids = np.arange(24)
    falling = np.maximum(ids - 1, 0)           # a chain 23 -> 22 -> ... -> 0
    rising = np.minimum(ids + 1, 23)
    loops = ids.copy()
    loops[::3] = 0                             # self-loops and a sink
    _assert_components(24, [ids], "identity")
    _assert_components(24, [loops], "self-loops")
    _assert_components(24, [falling], "falling chain")
    _assert_components(24, [rising, ids], "rising chain")
    _assert_components(24, [falling, rising], "two-way chain")
    # swaps (2 3) then (1 2): 3 learns its orbit's least element 1 only
    # on a second pass over the permutations
    _assert_components(4, [np.array([0, 1, 3, 2]), np.array([0, 2, 1, 3])],
                       "chained swaps")
    # cycles {0, 4} -> {1, 2} -> {3, 5} of non-permutation maps: the middle
    # one takes colour 4 from the first but belongs to neither root
    _assert_components(7, [np.array([4, 2, 1, 5, 0, 3, 0]),
                           np.array([0, 1, 3, 3, 1, 5, 6])], "dipping cycles")
    rng = np.random.default_rng(9)
    for trial in range(40):
        n = int(rng.integers(1, 40))
        maps = [rng.permutation(n) for _ in range(rng.integers(0, 3))]
        maps += [rng.integers(0, n, n) for _ in range(rng.integers(0, 3))]
        maps += [np.minimum(np.arange(n) + rng.integers(1, 4), n - 1)]
        _assert_components(n, maps, "random %d" % trial)
