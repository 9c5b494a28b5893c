"""CheckResult semantics, error contracts, and differential spot checks."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import naive
from _oracle import singleton_subsets

from ringlab import predicates, rings
from ringlab.errors import (
    CapacityExceeded,
    InvalidIdeal,
    InvalidParameter,
    NotApplicable,
    NotDisjoint,
)
from ringlab.exprs import build_ring, parse_ring_expr
from ringlab.ideals import (IdealSet, enumerate_ideals, minimal_generating_set,
                            principal_ideal)
from ringlab.radicals import jacobson_radical
from ringlab.subsets import SubsetS, generated_subset
from ringlab.predicates import (
    Relation,
    arb_violation,
    first_violations,
    fixed_s_result,
    is_J_ideal,
    is_S_J_ideal,
    is_S_n_ideal,
    is_S_prime,
    is_n_ideal,
    is_right_S_J_ideal,
    is_right_S_prime,
    pair_scan,
    product_hyp_matrix,
    two_sided_matrix,
    two_sided_violations,
)
from test_ideals import generated_rings  # noqa: F401  (fixture)


@pytest.fixture(scope="module")
def z36():
    ring = build_ring(parse_ring_expr("Z36"))
    lattice = enumerate_ideals(ring)
    return ring, lattice, jacobson_radical(ring, lattice)


def test_plain_j_ideal_counterexample(z36):
    ring, lattice, jac = z36
    ideal = IdealSet(ring, principal_ideal(ring, 4).mask)
    r = is_J_ideal(ring, ideal, jacobson=jac, lattice=lattice)
    assert not r.verdict
    assert r.counterexample == (2, 2)


def test_witness_is_smallest_working_s(z36):
    ring, lattice, jac = z36
    ideal = IdealSet(ring, principal_ideal(ring, 4).mask)
    subset = SubsetS(ring, [1, 3, 9, 27], kind="mulclosed")
    r = is_S_J_ideal(ring, ideal, subset, jacobson=jac, lattice=lattice)
    assert r.verdict and r.witness_s == 3
    # replay: 3 clears every pair, and nothing smaller in S does
    nr = naive.NaiveRing(ring)
    iset = frozenset(map(int, ideal.members))
    njac = naive.jacobson(nr)
    assert naive._sj_violation(nr, iset, njac, 3) is None
    assert naive._sj_violation(nr, iset, njac, 1) is not None


def test_false_table_covers_every_s():
    ring = build_ring(parse_ring_expr("Z12"))
    lattice = enumerate_ideals(ring)
    jac = jacobson_radical(ring, lattice)
    ideal = IdealSet(ring, principal_ideal(ring, 4).mask)
    subset = generated_subset(ring, [5])          # {1, 5}
    r = is_S_J_ideal(ring, ideal, subset, jacobson=jac, lattice=lattice)
    assert not r.verdict
    assert r.witness_s is None
    assert r.counterexample == ((1, (2, 2)), (5, (2, 2)))
    covered = [s for s, _ in r.counterexample]
    assert covered == sorted(map(int, subset.members))

    per_pair = is_S_J_ideal(ring, ideal, subset, jacobson=jac,
                            lattice=lattice, mode="per-pair-s")
    assert not per_pair.verdict
    assert per_pair.counterexample == (2, 2)
    # the reported pair really has no rescuing s at all
    nr = naive.NaiveRing(ring)
    a, b = per_pair.counterexample
    for s in map(int, subset.members):
        assert not (nr.mul[s][a] in naive.jacobson(nr)
                    or nr.mul[s][b] in frozenset(map(int, ideal.members)))


def test_fixed_true_implies_per_pair_true(corpus):
    done = 0
    for ctx in corpus.contexts:
        if not ctx.comm_ident or done >= 25:
            continue
        for I in ctx.ideals[:2]:
            for S in ctx.subsets[:2]:
                if I.mask[S.members].any():
                    continue
                f = is_S_J_ideal(ctx.ring, I, S, jacobson=ctx.jac,
                                 lattice=ctx.lattice)
                if not f.verdict:
                    continue
                p = is_S_J_ideal(ctx.ring, I, S, jacobson=ctx.jac,
                                 lattice=ctx.lattice, mode="per-pair-s")
                assert p.verdict
                done += 1
    assert done >= 10


def test_not_disjoint_is_an_error_not_a_verdict(z36):
    ring, lattice, jac = z36
    ideal = IdealSet(ring, principal_ideal(ring, 3).mask)
    subset = SubsetS(ring, [1, 3, 9, 27], kind="mulclosed")
    with pytest.raises(NotDisjoint):
        is_S_J_ideal(ring, ideal, subset, jacobson=jac, lattice=lattice)
    with pytest.raises(NotDisjoint):
        is_S_prime(ring, ideal, subset)


def test_improper_ideal_rejected(z36):
    ring, lattice, jac = z36
    full = IdealSet(ring, np.ones(36, dtype=bool))
    with pytest.raises(InvalidIdeal):
        is_J_ideal(ring, full, jacobson=jac, lattice=lattice)


def test_bare_masks_are_looked_up_in_a_given_lattice(z36, monkeypatch):
    """With a lattice, a bare mask is checked by lookup, not by testing
    ideal closure; a mask off the lattice still raises InvalidIdeal."""
    ring, lattice, jac = z36
    mat = build_ring(parse_ring_expr("M(2, Z2)"))   # simple: 0 and R
    mlat = enumerate_ideals(mat)
    subgroup = np.zeros(mat.size, dtype=bool)
    subgroup[[mat.zero, 1]] = True              # a subgroup, not an ideal
    not_subgroup = np.zeros(ring.size, dtype=bool)
    not_subgroup[[0, 1]] = True

    def no_closure_test(ring, mask, two_sided=True):
        raise AssertionError("mask tested where the lattice holds it")

    monkeypatch.setattr(predicates, "is_ideal_mask", no_closure_test)
    ideal = principal_ideal(ring, 4)
    subset = SubsetS(ring, [1, 3, 9, 27], kind="mulclosed")
    assert is_J_ideal(ring, ideal.mask, jacobson=jac.mask, lattice=lattice) \
        == is_J_ideal(ring, ideal, lattice=lattice)
    assert is_S_J_ideal(ring, ideal.mask, subset, jacobson=jac.mask,
                        lattice=lattice).witness_s == 3
    with pytest.raises(InvalidIdeal):
        is_J_ideal(ring, not_subgroup, jacobson=jac, lattice=lattice)
    with pytest.raises(InvalidIdeal):
        is_S_J_ideal(ring, not_subgroup, subset, lattice=lattice)
    with pytest.raises(InvalidIdeal):
        is_J_ideal(mat, subgroup, lattice=mlat)
    with pytest.raises(InvalidIdeal):
        is_right_S_J_ideal(mat, subgroup, SubsetS(mat, [mat.one]),
                           lattice=mlat)
    monkeypatch.undo()
    with pytest.raises(InvalidIdeal):
        is_J_ideal(mat, subgroup)


def test_commutativity_and_identity_guards():
    mat = build_ring(parse_ring_expr("M(2, Z2)"))
    lattice = enumerate_ideals(mat)
    jac = jacobson_radical(mat, lattice)
    ideal = IdealSet(mat, lattice.ideals[0].mask)
    subset = SubsetS(mat, [mat.one], kind="mulclosed")
    with pytest.raises(NotApplicable):
        is_S_J_ideal(mat, ideal, subset, jacobson=jac, lattice=lattice)
    with pytest.raises(NotApplicable):
        is_n_ideal(mat, ideal, lattice=lattice)

    sub = build_ring(parse_ring_expr("idealring(Z36, gen(2))"))
    assert sub.one is None
    nlat = enumerate_ideals(sub)
    zero = IdealSet(sub, nlat.ideals[0].mask)
    ms = SubsetS(sub, [int(sub.pos[4])], kind="msystem")
    with pytest.raises(NotApplicable):
        is_right_S_J_ideal(sub, zero, ms, lattice=nlat,
                           method="elementwise")


def test_capacity_guards():
    big = build_ring(parse_ring_expr("Z67 x Z67"))
    zero = IdealSet(big, principal_ideal(big, 0).mask)
    subset = SubsetS(big, [big.one], kind="mulclosed")
    with pytest.raises(CapacityExceeded):
        two_sided_matrix(big, zero.mask)
    with pytest.raises(CapacityExceeded):
        product_hyp_matrix(big, zero.mask)
    # the cap is met before any class work
    assert "unit_classes" not in big._facts
    with pytest.raises(CapacityExceeded):
        is_S_J_ideal(big, zero, subset)

    mat = build_ring(parse_ring_expr("M(2, Z6)"))   # 1296 > 300
    lattice = enumerate_ideals(mat)
    jac = jacobson_radical(mat, lattice)
    ideal = IdealSet(mat, lattice.ideals[0].mask)
    subset = SubsetS(mat, [mat.one], kind="mulclosed")
    with pytest.raises(CapacityExceeded):
        is_right_S_J_ideal(mat, ideal, subset, lattice=lattice, jacobson=jac,
                           method="elementwise")


def test_elementwise_cap_boundary(monkeypatch):
    monkeypatch.setattr(predicates, "ELEMENTWISE_LIMIT", 12)

    def check(expr, method):
        ring = build_ring(parse_ring_expr(expr))
        zero = IdealSet(ring, principal_ideal(ring, 0).mask)
        subset = SubsetS(ring, [ring.one], kind="mulclosed")
        return is_right_S_J_ideal(ring, zero, subset, method=method)

    got, want = check("Z12", "elementwise"), check("Z12", "lattice")
    assert (got.verdict, got.witness_s) == (want.verdict, want.witness_s)
    with pytest.raises(CapacityExceeded):
        check("Z13", "elementwise")


def test_parameter_guards(z36):
    ring, lattice, jac = z36
    ideal = IdealSet(ring, principal_ideal(ring, 4).mask)
    subset = SubsetS(ring, [1], kind="mulclosed")
    with pytest.raises(InvalidParameter):
        is_S_J_ideal(ring, ideal, subset, mode="sometimes")
    with pytest.raises(InvalidParameter):
        is_right_S_J_ideal(ring, ideal, subset, lattice=lattice,
                           jacobson=jac, method="magic")


def test_right_forms_on_matrix_ring():
    mat = build_ring(parse_ring_expr("M(2, Z2)"))
    lattice = enumerate_ideals(mat)
    jac = jacobson_radical(mat, lattice)
    nr = naive.NaiveRing(mat)
    njac = naive.jacobson(nr)
    nideals = naive.all_ideals(nr)
    zero = IdealSet(mat, lattice.ideals[0].mask)
    subset = SubsetS(mat, [mat.one], kind="mulclosed")
    iset = frozenset(map(int, zero.members))
    sm = [mat.one]
    r = is_right_S_prime(mat, zero, subset, lattice=lattice)
    nv, nw, _ = naive.right_s_prime(nr, iset, sm, ideals=nideals)
    assert r.verdict == nv and r.witness_s == nw
    r = is_right_S_J_ideal(mat, zero, subset, lattice=lattice, jacobson=jac)
    nv, nw, _ = naive.right_s_j(nr, iset, sm, njac, ideals=nideals)
    assert r.verdict == nv and r.witness_s == nw


@settings(max_examples=40, deadline=None)
@given(n=st.integers(min_value=2, max_value=30),
       ideal_seed=st.integers(min_value=0, max_value=29),
       subset_seed=st.integers(min_value=1, max_value=29))
def test_sj_matches_naive_on_random_zn(n, ideal_seed, subset_seed):
    ring = build_ring(parse_ring_expr("Z%d" % n))
    lattice = enumerate_ideals(ring)
    jac = jacobson_radical(ring, lattice)
    ideal = IdealSet(ring, principal_ideal(ring, ideal_seed % n).mask)
    if not ideal.is_proper:
        return
    try:
        subset = generated_subset(ring, [subset_seed % n])
    except Exception:
        return
    if ideal.mask[subset.members].any():
        return
    nr = naive.NaiveRing(ring)
    iset = frozenset(map(int, ideal.members))
    sm = sorted(map(int, subset.members))
    njac = naive.jacobson(nr)

    r = is_S_J_ideal(ring, ideal, subset, jacobson=jac, lattice=lattice)
    nv, nw, ntab = naive.s_j_check(nr, iset, sm, njac)
    assert r.verdict == nv and r.witness_s == nw
    if not nv:
        assert r.counterexample == tuple(ntab)

    rp = is_S_J_ideal(ring, ideal, subset, jacobson=jac, lattice=lattice,
                      mode="per-pair-s")
    nvp, ncxp = naive.s_j_per_pair(nr, iset, sm, njac)
    assert rp.verdict == nvp and rp.counterexample == ncxp

    rn = is_S_n_ideal(ring, ideal, subset, lattice=lattice)
    nv, nw, _ = naive.s_n_check(nr, iset, sm)
    assert rn.verdict == nv and rn.witness_s == nw

    rs = is_S_prime(ring, ideal, subset)
    nv, nw, _ = naive.s_prime_check(nr, iset, sm)
    assert rs.verdict == nv and rs.witness_s == nw


# --- pair matrices against the naive relation and the streamed scan ---------

@pytest.fixture(scope="module")
def pair_rings(generated_rings):
    """(label, ring, naive ring, lattice) for the generated rings, their
    identity-free rings among them, and two matrix rings."""
    out = list(generated_rings)
    for expr in ("M(2, Z2)", "M(2, Z3)"):
        ring = build_ring(parse_ring_expr(expr))
        out.append((expr, ring, naive.NaiveRing(ring)))
    return [(label, ring, nr, enumerate_ideals(ring))
            for label, ring, nr in out]


def expanded(rel):
    """The n x n matrix of a Relation: H[cls][:, cls]."""
    H, cls = rel
    return H[cls][:, cls]


def dense_first_violation(hyp, a_ok, b_ok):
    """The lex-least violating pair by a scan of the whole n x n matrix."""
    bad = hyp & ~b_ok[None, :]
    rows = bad.any(axis=1) & ~a_ok
    if not rows.any():
        return None
    a = int(np.argmax(rows))
    return (a, int(np.argmax(bad[a])))


def naive_unit_orbits(nr):
    """same[x, y]: y = u x v for some units u and v."""
    mul = np.array(nr.mul)
    units = np.array(sorted(naive.units(nr)), dtype=np.int64)
    same = np.eye(nr.size, dtype=bool)
    if units.size:
        uxv = mul[mul[units][:, :, None], units[None, None, :]]
        for x in range(nr.size):
            same[x, uxv[:, x, :].ravel()] = True
    return same


def test_two_sided_matrix_matches_naive(pair_rings):
    """T[a, b] is the naive aRb-inside-I relation, r ranging over all of
    R, for every ideal of every ring."""
    for label, ring, nr, lattice in pair_rings:
        mul = np.array(nr.mul)
        arb = mul[mul[:, :, None], np.arange(nr.size)[None, None, :]]
        for ideal in lattice.ideals:
            want = ideal.mask[arb].all(axis=1)
            assert (expanded(two_sided_matrix(ring, ideal.mask))
                    == want).all(), label
            assert (expanded(product_hyp_matrix(ring, ideal.mask))
                    == ideal.mask[mul]).all(), label


STACK_HEIGHTS = (1, 2, 5, 16)


def random_rows(rng, k, n, densities):
    """k random masks of length n, row i true with densities[i % len]."""
    dens = np.resize(np.asarray(densities), k)
    return rng.random((k, n)) < dens[:, None]


def test_first_violation_of_two_sided_matrix_is_arb_violation(pair_rings):
    """Row by row, first_violations of k stacked skip rows on the two-sided
    relation is the pair arb_violation streams and the dense scan finds;
    the b rows are random, or each the ideal itself."""
    rng = np.random.default_rng(11)
    for label, ring, nr, lattice in pair_rings:
        for ideal in lattice.ideals:
            T = two_sided_matrix(ring, ideal.mask)
            dense = expanded(T)
            for k in STACK_HEIGHTS:
                a_skip = random_rows(rng, k, ring.size, (0.1, 0.5, 0.9))
                for b_skip in (random_rows(rng, k, ring.size, (0.1, 0.5, 0.9)),
                               np.tile(ideal.mask, (k, 1))):
                    got = first_violations(T, a_skip, b_skip)
                    assert len(got) == k, label
                    for v, a, b in zip(got, a_skip, b_skip):
                        assert v == arb_violation(ring, ideal.mask, a, b), \
                            label
                        assert v == dense_first_violation(dense, a, b), label


def test_unit_classes_are_the_naive_unit_orbits(pair_rings):
    """cls[x] == cls[y] iff y = u x v for units u and v; reps[k] is the
    least member of class k; singletons without an identity."""
    for label, ring, nr, _ in pair_rings:
        cls, reps = ring.unit_classes
        assert ((cls[:, None] == cls[None, :])
                == naive_unit_orbits(nr)).all(), label
        assert (cls[reps] == np.arange(reps.size)).all(), label
        assert (reps[cls] <= np.arange(ring.size)).all(), label
        if ring.one is None:
            assert reps.size == ring.size, label


def test_class_first_violation_matches_the_dense_scan(pair_rings):
    """On k stacked random rows, the class scan of the product and
    two-sided relations finds, row by row, the pair the dense scan of the
    expanded matrix finds; so does the identity partition of the dense
    matrix."""
    rng = np.random.default_rng(13)
    densities = (0.05, 0.3, 0.7, 0.95)
    for label, ring, nr, lattice in pair_rings:
        for ideal in lattice.ideals:
            for rel in (product_hyp_matrix(ring, ideal.mask),
                        two_sided_matrix(ring, ideal.mask)):
                dense = expanded(rel)
                for k in STACK_HEIGHTS:
                    a_ok = random_rows(rng, k, ring.size, densities)
                    b_ok = random_rows(rng, k, ring.size, densities)
                    want = [dense_first_violation(dense, a, b)
                            for a, b in zip(a_ok, b_ok)]
                    assert first_violations(rel, a_ok, b_ok) == want, label
                    assert first_violations(Relation.dense(dense), a_ok,
                                            b_ok) == want, label


@pytest.mark.parametrize("witness_row", [0, 1, 2, 3, 6, 7, 14, None])
def test_fixed_s_blocks_stop_at_the_first_witness(z36, witness_row):
    """The fixed-s scan reads 16 stacked rows in blocks of 1, 2, 4 and 8.
    Whether the one witness row sits at a block's first or last row, or
    nowhere, its verdict is that of a scan of every row, the false table
    of one pair per s included."""
    ring, lattice, _ = z36
    rel = product_hyp_matrix(ring, principal_ideal(ring, 4).mask)
    rng = np.random.default_rng(witness_row or 17)
    members = np.arange(16) * 2 + 1
    # b = 0 fails every b row and a*0 lies in the ideal, so a row's pair
    # is (least a failing it, 0), different from row to row
    a_ok = rng.random((16, ring.size)) < 0.5
    b_ok = rng.random((16, ring.size)) < 0.5
    b_ok[:, 0] = False
    if witness_row is not None:
        a_ok[witness_row] = True
    full = first_violations(rel, a_ok, b_ok)
    assert [v is None for v in full] == [r == witness_row for r in range(16)]
    want = fixed_s_result(members, full)
    assert pair_scan(rel, members, a_ok, b_ok, "fixed-s") == want
    assert want.verdict == (witness_row is not None)
    if witness_row is None:
        assert [s for s, _ in want.counterexample] == members.tolist()
    else:
        assert want.witness_s == members[witness_row]


def naive_scans(pairs, sm, a_in, b_in):
    """Both readings of "a pair (a, b) of pairs forces a_in(a, s) or
    b_in(b, s)", by brute force in the order of pairs: the fixed-s
    (verdict, witness, table of the first violating pair per s) and the
    per-pair-s first pair that fails for every s, or None."""
    table = []
    for s in sm:
        v = next(((a, b) for a, b in pairs
                  if not (a_in(a, s) or b_in(b, s))), None)
        if v is None:
            return (True, s, None), None
        table.append((s, v))
    per = next(((a, b) for a, b in pairs
                if not any(a_in(a, s) or b_in(b, s) for s in sm)), None)
    return (False, None, tuple(table)), per


def test_right_forms_match_naive_on_generated_rings(pair_rings):
    """is_right_S_J_ideal (lattice and elementwise methods) and
    is_right_S_prime, in both modes, against brute force over naive ideal
    pairs in lattice order and naive element pairs in index order:
    verdict, witness, the false tables and the per-pair-s pair.  Every
    subset missing one of three proper ideals is asked, on the generated
    rings, whose matrix products have x<s> inside an ideal where xs alone
    is not enough."""
    checked = {"elementwise-false": 0, "lattice-false": 0}
    for label, ring, nr, lattice in pair_rings:
        mul = np.array(nr.mul)
        jac = jacobson_radical(ring, lattice)
        njac = naive.jacobson(nr)
        jmask = np.zeros(ring.size, dtype=bool)
        jmask[sorted(njac)] = True
        nideals = {i: frozenset(map(int, I.members))
                   for i, I in enumerate(lattice.ideals)}
        assert set(nideals.values()) == set(naive.all_ideals(nr)), label
        subsets = singleton_subsets(ring)
        arb = mul[mul[:, :, None], np.arange(ring.size)[None, None, :]]

        def gens(i):
            return tuple(int(x) for x in
                         minimal_generating_set(lattice.ideals[i]))

        for P in [P for P in lattice.ideals if P.is_proper][:3]:
            pset = nideals[lattice.idx_of(P)]
            free = [S for S in subsets if not (S.mask & P.mask).any()]
            for S in free:
                sm = sorted(map(int, S.members))
                nprin = {s: naive.principal(nr, s) for s in sm}
                ipairs = [(i, j) for i in nideals for j in nideals
                          if naive.product_in(nr, nideals[i], nideals[j],
                                              pset)]
                for target, right in ((njac, is_right_S_J_ideal),
                                      (pset, is_right_S_prime)):
                    (nv, nw, ntab), nper = naive_scans(
                        ipairs, sm,
                        lambda i, s: naive.product_in(
                            nr, nideals[i], nprin[s], target),
                        lambda j, s: naive.product_in(
                            nr, nideals[j], nprin[s], pset))
                    got = right(ring, P, S, lattice=lattice)
                    assert (got.verdict, got.witness_s) == (nv, nw), label
                    assert got.counterexample == (None if nv else tuple(
                        (s, (gens(i), gens(j))) for s, (i, j) in ntab))
                    per = right(ring, P, S, lattice=lattice,
                                mode="per-pair-s")
                    assert per.verdict == (nper is None), label
                    assert per.counterexample == (
                        None if nper is None else (gens(nper[0]),
                                                   gens(nper[1])))
                    checked["lattice-false"] += not nv
                if ring.one is None:
                    continue
                pmask = P.mask
                epairs = [tuple(map(int, xy)) for xy in
                          np.argwhere(pmask[arb].all(axis=1))]
                rows = {s: mul[:, sorted(nprin[s])] for s in sm}
                (nv, nw, ntab), nper = naive_scans(
                    epairs, sm, lambda x, s: jmask[rows[s][x]].all(),
                    lambda y, s: pmask[rows[s][y]].all())
                assert (nv, nw, None if nv else list(ntab)) == \
                    naive.right_s_j_elementwise(nr, pset, sm, njac), label
                for mode, want in (("fixed-s", (nv, nw, ntab)),
                                   ("per-pair-s", (nper is None, None, nper))):
                    got = is_right_S_J_ideal(ring, P, S, lattice=lattice,
                                             jacobson=jac, mode=mode,
                                             method="elementwise")
                    assert (got.verdict, got.witness_s,
                            got.counterexample) == want, (label, mode)
                checked["elementwise-false"] += not nv
    assert min(checked.values()) > 0


@pytest.mark.parametrize("expr, build, classes", [
    ("Z36 x Z36", product_hyp_matrix, 81),
    ("M(2, Z6)", two_sided_matrix, 9),
])
def test_pair_relations_hold_one_cell_per_class_pair(expr, build, classes):
    """On Z36 x Z36 (81 classes of associates) and M(2, Z6) (9 classes
    under x -> uxv) the relation is a classes x classes matrix, and no
    n x n matrix is built on the way."""
    ring = build_ring(parse_ring_expr(expr))
    lattice = enumerate_ideals(ring)       # fills the table and classes
    n = ring.size
    for ideal in lattice.ideals[1:4]:
        tracemalloc.start()
        rel = build(ring, ideal.mask)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert rel.H.shape == (classes, classes)
        assert rel.cls.shape == (n,)
        assert peak < n * n // 8


def test_streamed_formula_scan_matches_dense_table_scan(pair_rings,
                                                       monkeypatch):
    """Above PAIR_SCAN_LIMIT two_sided_violations streams arb_violation
    through the formula path, row by row; it finds the pairs that the
    dense scan of the table ring finds."""
    rng = np.random.default_rng(12)
    cases = []
    for label, ring, nr, lattice in pair_rings:
        for ideal in lattice.ideals:
            T = two_sided_matrix(ring, ideal.mask)
            for density in (0.1, 0.5, 0.9):
                a_skip = rng.random((2, ring.size)) < density
                for b_skip in (rng.random((2, ring.size)) < density,
                               np.tile(ideal.mask, (2, 1))):
                    cases.append((label, ideal.mask, a_skip, b_skip,
                                  first_violations(T, a_skip, b_skip)))
    monkeypatch.setattr(rings, "TABLE_LIMIT", 0)
    monkeypatch.setattr(predicates, "PAIR_SCAN_LIMIT", 0)
    formula = {}
    for label, mask, a_skip, b_skip, want in cases:
        if label not in formula:
            formula[label] = build_ring(parse_ring_expr(label))
            assert formula[label].mul_table is None, label
        assert two_sided_violations(formula[label], mask, a_skip,
                                    b_skip) == want, label


def test_mul_table_is_read_only():
    ring = build_ring(parse_ring_expr("Z4 x Z6"))
    table = ring.mul_table
    assert table[3, 5] == ring.mul(3, 5)
    assert ring.mul_table is table
    with pytest.raises(ValueError):
        table[0, 0] = 1
