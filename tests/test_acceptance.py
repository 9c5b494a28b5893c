"""Nine gate checks, one test each, run against the shipped defaults.

Each test states its budget and the exact frozen values it pins.  The
shared ``corpus``/``suite`` fixtures (conftest) are built once per
session; their wall-clock is carried alongside so the budget checks
here see the true cost.
"""

import json
import subprocess
import sys
import time

import numpy as np

from _oracle import (
    jacobson_via_quasiregular,
    jacobson_via_units,
    oracle_sweep,
)
import naive

from ringlab import harness
from ringlab.exprs import build_ring, parse_ring_expr
from ringlab.ideals import IdealSet, enumerate_ideals, principal_ideal
from ringlab.predicates import is_J_ideal, is_S_J_ideal, is_right_S_J_ideal
from ringlab.radicals import jacobson_radical
from ringlab.subsets import SubsetS


def test_c1_small_modular_example_under_1s():
    """Z36: gen(4) fails the plain radical-membership law at (2, 2) but
    passes the subset-relative one with witness 3, and 3 replays."""
    t0 = time.perf_counter()
    ring = build_ring(parse_ring_expr("Z36"))
    lattice = enumerate_ideals(ring)
    jac = jacobson_radical(ring, lattice)
    ideal = IdealSet(ring, principal_ideal(ring, 4).mask, label="gen(4)")
    subset = SubsetS(ring, [1, 3, 9, 27], kind="mulclosed")

    plain = is_J_ideal(ring, ideal, jacobson=jac, lattice=lattice)
    assert not plain.verdict
    assert plain.counterexample == (2, 2)

    rel = is_S_J_ideal(ring, ideal, subset, jacobson=jac, lattice=lattice)
    assert rel.verdict
    assert rel.witness_s == 3

    # replay: the witness clears every product pair under the naive tables
    nr = naive.NaiveRing(ring)
    iset = frozenset(map(int, ideal.members))
    assert naive._sj_violation(nr, iset, naive.jacobson(nr), 3) is None

    assert time.perf_counter() - t0 < 1.0


def test_c2_radical_values_under_30s():
    """J(Z36) = gen(6); J(Z36 x Z8) = gen(6) x gen(2); J(M(2, Z12)) =
    entrywise multiples of 6.  Includes the full matrix-ring lattice."""
    t0 = time.perf_counter()
    z36 = build_ring(parse_ring_expr("Z36"))
    jac36 = jacobson_radical(z36)
    assert sorted(map(int, jac36.members)) == [0, 6, 12, 18, 24, 30]

    prod = build_ring(parse_ring_expr("Z36 x Z8"))
    jacp = jacobson_radical(prod)
    want = {int(prod.join(a, b))
            for a in range(0, 36, 6) for b in range(0, 8, 2)}
    assert set(map(int, jacp.members)) == want

    mat = build_ring(parse_ring_expr("M(2, Z12)"))
    lattice = enumerate_ideals(mat)
    jacm = jacobson_radical(mat, lattice)
    idx = np.arange(mat.size)
    entrywise = np.ones(mat.size, dtype=bool)
    for p in range(4):
        entrywise &= ((idx // 12 ** p) % 12) % 6 == 0
    assert (jacm.mask == entrywise).all()

    assert time.perf_counter() - t0 < 30.0


def test_c3_matrix_scalar_subset_under_60s():
    """M(2, Z12) with the scalar set {I, 3I, 9I} (a validated m-system):
    M(2, gen(4)) fails the plain law but satisfies the right-sided
    subset-relative one with witness 3I or 9I, and 3I replays."""
    t0 = time.perf_counter()
    mat = build_ring(parse_ring_expr("M(2, Z12)"))
    lattice = enumerate_ideals(mat)
    jac = jacobson_radical(mat, lattice)

    idx = np.arange(mat.size)
    pmask = np.ones(mat.size, dtype=bool)
    for p in range(4):
        pmask &= ((idx // 12 ** p) % 12) % 4 == 0
    ideal = IdealSet(mat, pmask, label="M2(gen(4))")

    scalar = [s * 12 ** 3 + s for s in (1, 3, 9)]
    subset = SubsetS(mat, scalar, kind="msystem")   # validates on build

    plain = is_J_ideal(mat, ideal, jacobson=jac, lattice=lattice)
    assert not plain.verdict

    rel = is_right_S_J_ideal(mat, ideal, subset, lattice=lattice,
                             jacobson=jac)
    assert rel.verdict
    three_i, nine_i = 3 * 12 ** 3 + 3, 9 * 12 ** 3 + 9
    assert int(rel.witness_s) in (three_i, nine_i)

    # replay: 3I alone already carries the law
    solo = SubsetS(mat, [three_i], kind="msystem")
    again = is_right_S_J_ideal(mat, ideal, solo, lattice=lattice,
                               jacobson=jac)
    assert again.verdict and int(again.witness_s) == three_i

    assert time.perf_counter() - t0 < 60.0


def test_c4_quantifier_order_separates():
    """Z36 x Z36: gen(4) x Z36 fails for every s in the paired subset and
    the pair ((2, 1), (2, 1)) witnesses each failure; the Z36 x Z8
    variant holds.  Exact values, no tolerance."""
    prod = build_ring(parse_ring_expr("Z36 x Z36"))
    lattice = enumerate_ideals(prod)
    jac = jacobson_radical(prod, lattice)
    idx = np.arange(prod.size)
    imask = (idx // 36) % 4 == 0          # first coordinate in gen(4)
    ideal = IdealSet(prod, imask)
    s1 = (1, 3, 9, 27)
    smem = [int(prod.join(a, b)) for a in s1 for b in s1]
    subset = SubsetS(prod, smem, kind="mulclosed")

    res = is_S_J_ideal(prod, ideal, subset, jacobson=jac, lattice=lattice)
    assert not res.verdict
    covered = [s for s, _ in res.counterexample]
    assert covered == sorted(smem)

    pair = int(prod.join(2, 1))
    assert imask[prod.mul(pair, pair)]    # the product pair is in the ideal
    for s in smem:
        sa = prod.mul(s, pair)
        assert not jac.mask[sa] and not imask[sa]

    # the mixed-modulus variant with subset S1 x {0, 2, 4} holds
    prod38 = build_ring(parse_ring_expr("Z36 x Z8"))
    lat38 = enumerate_ideals(prod38)
    jac38 = jacobson_radical(prod38, lat38)
    idx38 = np.arange(prod38.size)
    imask38 = (idx38 // 8) % 4 == 0
    ideal38 = IdealSet(prod38, imask38)
    smem38 = [int(prod38.join(a, b)) for a in s1 for b in (0, 2, 4)]
    subset38 = SubsetS(prod38, smem38, kind="mulclosed")
    res38 = is_S_J_ideal(prod38, ideal38, subset38, jacobson=jac38,
                         lattice=lat38)
    assert res38.verdict

    # replay the witness by scanning every pair directly
    w = int(res38.witness_s)
    els = prod38.elements
    hyp = imask38[prod38.mul_vec(els[:, None], els[None, :])]
    srow = prod38.mul_vec(np.int64(w), els)
    rescued = jac38.mask[srow][:, None] | imask38[srow][None, :]
    assert not (hyp & ~rescued).any()


def test_c5_default_suite_clean_under_10min(corpus, suite):
    """Every gating law holds with zero violations over the default
    corpus; the corpus is big enough to mean something."""
    reports, elapsed = suite
    assert corpus.ring_count >= 60
    assert corpus.instance_count >= 500
    gated = set(harness.GATED_IDS)
    seen = set()
    for r in reports:
        if r["property_id"] not in gated:
            continue
        seen.add(r["property_id"])
        assert r["violated"] == 0, (r["property_id"], r["violations"][:2])
        assert r["tested"] >= 5, r["property_id"]
    assert seen == gated
    assert harness.gate_passed(reports)
    assert elapsed < 600.0


def test_c6_naive_oracle_agreement(corpus):
    """Every predicate agrees with the table-walking oracle on every
    corpus instance over rings of at most 200 elements."""
    small = [ctx for ctx in corpus.contexts if ctx.ring.size <= 200]
    assert len(small) >= 100
    checked, bad = oracle_sweep(corpus, size_cap=200)
    assert bad == []
    assert checked >= 10_000


def test_c7_three_radical_routes_agree(corpus):
    """The lattice route, the quasi-regularity route, and (with identity)
    the unit-characterization route name the same radical on every
    corpus ring."""
    assert all(ctx.ring.size <= 4096 for ctx in corpus.contexts)
    for ctx in corpus.contexts:
        a = ctx.jac
        b = jacobson_via_quasiregular(ctx.ring, ctx.lattice)
        assert (a.mask == b.mask).all(), ctx.expr
        if ctx.ring.one is not None:
            c = jacobson_via_units(ctx.ring, ctx.lattice)
            assert (a.mask == c.mask).all(), ctx.expr


def test_c8_left_right_agree_on_commutative_identity(corpus, suite):
    """On commutative rings with identity the left and right
    subset-relative laws are the same predicate."""
    reports, _ = suite
    p24 = next(r for r in reports if r["property_id"] == "P24")
    assert p24["violated"] == 0
    assert p24["tested"] >= 5

    done = 0
    for ctx in corpus.contexts:
        if not ctx.comm_ident or done >= 6:
            continue
        for I in ctx.ideals[:2]:
            for S in ctx.subsets[:2]:
                if I.mask[S.members].any() or done >= 6:
                    continue
                left = is_S_J_ideal(ctx.ring, I, S, jacobson=ctx.jac,
                                    lattice=ctx.lattice)
                right = is_right_S_J_ideal(ctx.ring, I, S,
                                           lattice=ctx.lattice,
                                           jacobson=ctx.jac)
                assert left.verdict == right.verdict, (ctx.expr, I.label)
                done += 1
    assert done >= 6


def test_c9_verify_is_deterministic(tmp_path):
    """Two consecutive full verification runs write byte-identical
    reports."""
    outs = []
    for name in ("one.json", "two.json"):
        out = tmp_path / name
        p = subprocess.run(
            [sys.executable, "-m", "ringlab.cli", "verify",
             "--json", str(out)],
            capture_output=True, text=True, timeout=600)
        assert p.returncode == 0, p.stderr
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    reports = json.loads(outs[0])
    assert all(r["violated"] == 0 for r in reports)
