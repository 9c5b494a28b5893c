"""Corpus construction, law registry, determinism, report format."""

import dataclasses
import hashlib
import json
import threading
import zlib
from pathlib import Path

import jsonschema
import numpy as np
import pytest

import naive

from ringlab import harness, predicates
from ringlab.errors import (
    InvalidIdeal,
    InvalidParameter,
    NotApplicable,
    NotDisjoint,
    RinglabError,
)
from ringlab.ideals import colon_elem_mask
from ringlab.memo import readonly
from ringlab.rings import make_ideal_as_ring
from ringlab.subsets import SubsetS, generated_subset
from test_ideals import generated_rings  # noqa: F401  (fixture)

ROOT = Path(__file__).resolve().parents[1]
SCHEMA_PATH = ROOT / "schemas" / "report.schema.json"
PINS_PATH = ROOT / "perfbench" / "pins.json"


@pytest.fixture(scope="module")
def minimal():
    return harness.build_corpus({})


def test_minimal_corpus_shape(minimal):
    assert [ctx.expr for ctx in minimal.contexts] == ["Z4", "Z6"]
    assert minimal.ring_count == 2
    assert minimal.instance_count > 0
    for ctx in minimal.contexts:
        assert not ctx.skipped
        assert all(i.is_proper for i in ctx.ideals)


def test_minimal_corpus_all_laws_pass(minimal):
    reports = harness.verify_properties(minimal)
    assert len(reports) == len(harness.REGISTRY)
    assert [r["property_id"] for r in reports] \
        == [law.id for law in harness.REGISTRY]
    assert all(r["violated"] == 0 for r in reports)
    assert harness.gate_passed(reports)


def _idealizations(exprs):
    """(n, k) of each idealize(Zn, k) expression, in corpus order."""
    return [tuple(int(v) for v in expr[len("idealize(Z"):-1].split(", "))
            for expr, family in exprs if family == "idealization"]


def test_idealize_cap_boundary(monkeypatch):
    """The default corpus idealizes Z_n by Z_k exactly when n * k is within
    IDEALIZE_CAP: idealize(Z36, 12) sits at the cap (432) and drops when
    the cap is one lower.  Only expressions are listed; no ring is built."""
    pairs = _idealizations(harness.default_ring_exprs())
    assert (36, 12) in pairs
    assert max(n * k for n, k in pairs) == harness.IDEALIZE_CAP == 432
    monkeypatch.setattr(harness, "IDEALIZE_CAP", 431)
    lower = _idealizations(harness.default_ring_exprs())
    assert set(pairs) - set(lower) == {(36, 12)}
    assert max(n * k for n, k in lower) <= 431


def test_registry_ids_and_citations():
    ids = [law.id for law in harness.REGISTRY]
    assert ids == ["P%d" % i for i in range(1, 34)]
    assert len({law.citation for law in harness.REGISTRY}) == len(ids)
    for law in harness.REGISTRY:
        assert law.citation and law.statement
    non_gating = {law.id for law in harness.REGISTRY if not law.gating}
    assert non_gating == {"P18", "P19"}
    corpus_wide = {law.id for law in harness.REGISTRY
                   if law.scope == "corpus"}
    assert corpus_wide == {"P17", "P22"}
    assert set(harness.GATED_IDS) == set(ids) - non_gating


def test_gate_ignores_non_gating_laws():
    fake = [
        {"property_id": "P18", "violated": 3},
        {"property_id": "P1", "violated": 0},
    ]
    assert harness.gate_passed(fake)
    fake.append({"property_id": "P2", "violated": 1})
    assert not harness.gate_passed(fake)


def test_config_rings_override():
    corpus = harness.build_corpus({"rings": ["Z12", "M(2, Z3)"]})
    assert [ctx.expr for ctx in corpus.contexts] == ["Z12", "M(2, Z3)"]


def test_registry_runs_on_zero_rings():
    """In a one-element ring J(R) = R is no J-ideal, since a J-ideal is
    proper: P5 and P18 read that as a failed hypothesis, not an error."""
    corpus = harness.build_corpus(
        {"rings": ["Z1", "quot(Z3, gen(89))", "idealring(Z2, gen(54))"]})
    corpus.contexts.append(harness.build_context("Z1", "zn"))
    assert [ctx.ring.size for ctx in corpus.contexts] == [1] * 4
    assert harness.gate_passed(harness.verify_properties(corpus))


def test_config_max_size_drops_matrix_family():
    corpus = harness.build_corpus({"max_size": 50})
    exprs = [ctx.expr for ctx in corpus.contexts]
    assert exprs
    assert all(ctx.ring.size <= 50 for ctx in corpus.contexts)
    assert not any(e.startswith("M(") for e in exprs)


def test_config_unknown_key_rejected():
    with pytest.raises(InvalidParameter):
        harness.build_corpus({"ringz": ["Z4"]})


def test_unknown_property_id_rejected(minimal):
    with pytest.raises(InvalidParameter):
        harness.verify_properties(minimal, ids=["P1", "P99"])


def test_property_subset_selection(minimal):
    reports = harness.verify_properties(minimal, ids=["P3", "P1"])
    assert [r["property_id"] for r in reports] == ["P1", "P3"]


def test_default_reports_validate_against_schema(suite):
    reports, _ = suite
    with open(SCHEMA_PATH) as fh:
        schema = json.load(fh)
    payload = json.loads(harness.report_json(reports))
    jsonschema.validate(payload, schema)


def test_default_report_bytes_match_the_pin(suite):
    """The full-corpus report is byte-identical to the pinned sha256."""
    reports, _ = suite
    with open(PINS_PATH) as fh:
        pin = json.load(fh)["verify"]["full_corpus_report_sha256"]
    text = harness.report_json(reports)
    assert hashlib.sha256(text.encode()).hexdigest() == pin


def test_default_suite_has_no_skipped_rings(corpus):
    assert not corpus.skipped
    assert all(not ctx.skipped for ctx in corpus.contexts)


def test_out_of_scope_law_reports_zero_instances(suite):
    reports, _ = suite
    p19 = next(r for r in reports if r["property_id"] == "P19")
    assert p19["tested"] == 0
    assert p19["note"]["non_gating"]
    p18 = next(r for r in reports if r["property_id"] == "P18")
    assert p18["note"]["non_gating"]


def test_worked_examples_pass():
    out = harness.run_worked_examples()
    assert out["passed"]
    assert len(out["examples"]) == 5
    assert all(e["passed"] for e in out["examples"])


def test_violation_payloads_are_replayable():
    """Force a fabricated violation through the reporting path and check
    the payload carries a replayable vocabulary."""
    corpus = harness.build_corpus({})
    ctx = corpus.contexts[0]
    rep = harness._Rep()
    rep.tested += 1
    rep.violation(ctx.ring, ctx.ideals[0], ctx.subsets[0], ((1, (2, 2)),))
    v = rep.violations[0]
    assert v["ring_expr"] == ctx.expr
    assert v["mode"] == "fixed-s"
    assert v["ideal_gens"].startswith("gen(")
    from ringlab.exprs import build_ideal, build_ring, parse_ideal_spec, \
        parse_ring_expr
    ring = build_ring(parse_ring_expr(v["ring_expr"]))
    ideal = build_ideal(ring, parse_ideal_spec(v["ideal_gens"]))
    assert (ideal.mask == ctx.ideals[0].mask).all()


CACHE_CORPUS = {"rings": ["Z36", "Z4 x Z6", "M(2, Z2)"]}


def _memos(corpus):
    """The memo of every context and of every quotient it picked."""
    return [c.memo for ctx in corpus.contexts
            for c in (ctx, *(Q.ctx for Q in ctx.quotients))]


def _check_caches_do_not_change_the_report(build):
    """Each law run alone on a fresh corpus reports what it reports inside
    a full registry run; the memos of every context and quotient are empty
    once a run is done (a child kept in a context's memo goes with it),
    and a second run on the same corpus writes the same bytes."""
    warm = build()
    full = harness.verify_properties(warm)
    assert not any(_memos(warm))
    for law, entry in zip(harness.REGISTRY, full):
        assert harness.verify_properties(build(), ids=[law.id]) == [entry]
    again = harness.verify_properties(warm)
    assert not any(_memos(warm))
    assert harness.report_json(again) == harness.report_json(full)


def test_law_caches_do_not_change_the_report():
    """The per-context caches never change an answer."""
    _check_caches_do_not_change_the_report(
        lambda: harness.build_corpus(CACHE_CORPUS))


def test_law_caches_do_not_change_the_report_on_derived_rings():
    """As above on a corpus with families, where P17, P18 and P20-P22 check
    products, truncations, idealizations and an amalgamation."""
    _check_caches_do_not_change_the_report(_cross_context_corpus)


def test_j_check_work_does_not_depend_on_the_argument_form(monkeypatch):
    """Laws pass j_check both IdealSets and bare masks.  Its memo has one
    entry per mask, so the form of whichever call comes first must not
    change what is computed: each mask is validated once either way, by
    a lookup in the context's lattice, not by testing ideal closure."""
    checked = []

    class CountedKeys(dict):
        def __contains__(self, key):
            checked.append(1)
            return super().__contains__(key)

    def no_closure_test(ring, mask):
        raise AssertionError("mask tested where the lattice holds it")

    monkeypatch.setattr(predicates, "is_ideal_mask", no_closure_test)
    seen = []
    for form in (lambda I: I, lambda I: I.mask):
        ctx = harness.build_corpus({"rings": ["Z36"]}).contexts[0]
        ctx.lattice.key_to_idx = CountedKeys(ctx.lattice.key_to_idx)
        checked.clear()
        verdicts = [ctx.j_check(form(I)).verdict for I in ctx.ideals]
        verdicts += [ctx.j_check(I).verdict for I in ctx.ideals]
        seen.append((verdicts, len(checked)))
    assert seen[0] == seen[1]
    assert seen[0][1] == len(ctx.ideals)


def test_verdict_owners_answer_as_the_predicates():
    """ctx.sj and ctx.right_sj give what a direct predicate call gives,
    whether the ideal comes as an IdealSet or a bare mask, also for a
    lattice ideal outside the picks; the witness vector agrees with the
    left verdict."""
    corpus = harness.build_corpus(CACHE_CORPUS)
    checked = unpicked = 0
    for ctx in corpus.contexts:
        picked = {I.key for I in ctx.ideals}
        others = [i for i in ctx.lattice.ideals
                  if i.is_proper and i.key not in picked]
        for k, I in enumerate(list(ctx.ideals) + others[:1]):
            forms = (I, I.mask) if k % 2 else (I.mask, I)
            for S in ctx.subsets:
                if (I.mask & S.mask).any():
                    continue
                right = predicates.is_right_S_J_ideal(
                    ctx.ring, I, S, lattice=ctx.lattice, jacobson=ctx.jac)
                assert [ctx.right_sj(X, S).to_json() for X in forms] \
                    == [right.to_json()] * 2
                if ctx.comm_ident:
                    left = predicates.is_S_J_ideal(
                        ctx.ring, I, S, jacobson=ctx.jac, lattice=ctx.lattice)
                    assert [ctx.sj(X, S).to_json() for X in forms] \
                        == [left.to_json()] * 2
                    wits = ctx.sj_witnesses(I, S)
                    assert wits.any() == ctx.sj(I, S).verdict
                    if wits.any():
                        assert left.witness_s == S.members[wits.argmax()]
                checked += 1
                unpicked += I.key not in picked
    assert checked and unpicked


def _answer(ctx, ideal, subset):
    """What ctx.sj and ctx.sj_witnesses say, or the type of their error."""
    try:
        return (ctx.sj(ideal, subset).to_json(),
                ctx.sj_witnesses(ideal, subset).tolist())
    except RinglabError as err:
        return type(err)


def test_picked_and_other_subsets_get_the_same_answer():
    """ctx.sj answers a subset the context picked as it answers any other
    subset: with the same verdict, or with the same error."""
    z36 = harness.build_context("Z36", "zn")
    picked = next(S for S in z36.subsets if S.members.tolist() == [1, 3, 9, 27])
    other = SubsetS(z36.ring, picked.members, kind="msystem")
    assert other.key not in {S.key for S in z36.subsets}
    not_ideal = np.zeros(36, dtype=bool)
    not_ideal[[0, 4]] = True
    for ideal, want in ((z36.lattice.principal(4), None),
                        (z36.lattice.principal(3), NotDisjoint),
                        (not_ideal, InvalidIdeal)):
        answers = [_answer(z36, ideal, S) for S in (picked, other)]
        assert answers[0] == answers[1]
        if want is None:
            assert answers[0][0]["verdict"]
        else:
            assert answers[0] is want
    m2 = harness.build_context("M(2, Z2)", "matrix")
    picked = m2.subsets[0]
    other = SubsetS(m2.ring, picked.members, kind="msystem", check=False)
    zero = m2.lattice.ideals[0]
    assert [_answer(m2, zero, S) for S in (picked, other)] \
        == [NotApplicable] * 2


def _assert_left_matches_naive(nr, njac, mask, subset, entry):
    """A (wits, verdict) entry against naive.s_j_check: the verdict, the
    witness and the violation table on the whole subset, and each witness
    flag on the singleton {s}."""
    wits, res = entry
    iset = frozenset(np.flatnonzero(mask).tolist())
    members = [int(s) for s in subset.members]
    nv, nw, ntab = naive.s_j_check(nr, iset, members, njac)
    assert (res.verdict, res.witness_s) == (nv, nw)
    assert res.counterexample == (None if nv else tuple(ntab))
    assert wits.tolist() == [naive.s_j_check(nr, iset, [s], njac)[0]
                             for s in members]


def test_left_verdicts_match_naive_on_generated_rings(generated_rings):
    """On each commutative unital generated ring, every proper ideal
    against its picked subsets and a few generated ones."""
    checked = 0
    for label, ring, nr in generated_rings:
        if not ring.commutative or ring.one is None:
            continue
        ctx = harness.build_context(label, "custom")
        njac = naive.jacobson(nr)
        extra = [generated_subset(ctx.ring, [x]) for x in range(2, ring.size)]
        extra = [S for S in extra if not S.contains(ring.zero)][:2]
        for I in ctx.lattice.ideals:
            for S in (*ctx.subsets, *extra):
                if I.is_proper and not I.mask[S.members].any():
                    _assert_left_matches_naive(
                        nr, njac, I.mask, S,
                        (ctx.sj_witnesses(I, S), ctx.sj(I, S)))
                    checked += 1
    assert checked > 100


def test_left_verdicts_match_naive_on_quotients_and_colons():
    """On each picked quotient, every proper ideal against the images of
    the picked subsets; on the context rings, one colon (I : x) that
    meets its subset, as P11 reads it."""
    corpus = harness.build_corpus(CACHE_CORPUS)
    checked = 0
    for ctx in corpus.contexts:
        for Q in ctx.quotients:
            qctx = Q.ctx
            nr = naive.NaiveRing(qctx.ring)
            njac = naive.jacobson(nr)
            for L in qctx.lattice.ideals:
                for simg in map(Q.image, ctx.subsets):
                    if L.is_proper and not L.mask[simg.members].any():
                        _assert_left_matches_naive(
                            nr, njac, L.mask, simg,
                            (qctx.sj_witnesses(L, simg), qctx.sj(L, simg)))
                        checked += 1
    assert checked > 20
    ctx = corpus.contexts[0]
    cmask, S = next((cmask, S) for I, S in ctx.pairs(harness._Rep())
                    for x in np.flatnonzero(~I.mask)
                    for cmask in [ctx.colon(I.mask, x)]
                    if cmask[S.members].any())
    with pytest.raises(NotDisjoint):
        ctx.sj(cmask, S)
    nr = naive.NaiveRing(ctx.ring)
    _assert_left_matches_naive(nr, naive.jacobson(nr), cmask, S,
                               ctx.violations(cmask, S))


def _cross_context_corpus():
    """Z_n contexts and an amalgamation over Z8, so that P17 and P22 read
    other contexts' verdicts."""
    return harness.Corpus(contexts=[
        harness.build_context(expr, family) for expr, family in (
            ("Z4", "zn"), ("Z6", "zn"), ("Z8", "zn"),
            ("amalg(Z8, Z4, mod, gen(2))", "amalgamation"))])


# sha256 of report_json of the forced-failure run below
FORCED_FAILURE_REPORT_SHA256 = \
    "2bdbb2046e2c0707ac9bea891ec287c66b1a49d167f51f4524d477ca6272edfa"


def _flips(mask, k):
    """The fixed rule of the forced-failure test: is the CRC-32 of the
    mask's bytes 1 modulo k?"""
    return zlib.crc32(mask.tobytes()) % k == 1


def _negated(res):
    return dataclasses.replace(res, verdict=not res.verdict)


def test_forced_failure_report_bytes_match_the_pin(monkeypatch):
    """Every law reports no violation on the default corpus, so the report
    pin never reads a violation payload.  Here the three verdict owners
    answer wrongly by a fixed rule on the mask: a left violation-table
    entry (verdict and witness vector) and a j_check verdict flip when
    the mask's CRC-32 is odd, a right verdict when it is 1 modulo 3.  The
    report on CACHE_CORPUS and the cross-context corpus (counts, payloads
    and their order) must match the pin, and 27 laws must report
    violations.  P8, P9, P10, P31 and P33 report none under this rule, and
    P19 has no body."""
    table = harness._violation_table
    right, j_check = harness.RingCtx.right_sj, harness.RingCtx.j_check

    def flipped_table(ring, jm, imask, subsets):
        out = table(ring, jm, imask, subsets)
        if not _flips(imask, 2):
            return out
        return {key: (readonly(~wits), _negated(res))
                for key, (wits, res) in out.items()}

    def flipped_right(ctx, ideal, subset):
        res = right(ctx, ideal, subset)
        return _negated(res) if _flips(getattr(ideal, "mask", ideal), 3) \
            else res

    def flipped_j(ctx, ideal):
        res = j_check(ctx, ideal)
        return _negated(res) if _flips(getattr(ideal, "mask", ideal), 2) \
            else res

    monkeypatch.setattr(harness, "_violation_table", flipped_table)
    monkeypatch.setattr(harness.RingCtx, "right_sj", flipped_right)
    monkeypatch.setattr(harness.RingCtx, "j_check", flipped_j)
    reports = (harness.verify_properties(harness.build_corpus(CACHE_CORPUS))
               + harness.verify_properties(_cross_context_corpus()))
    reached = {r["property_id"] for r in reports if r["violated"]}
    assert len(reached) == 27
    text = harness.report_json(reports)
    assert hashlib.sha256(text.encode()).hexdigest() \
        == FORCED_FAILURE_REPORT_SHA256


def test_left_verdicts_check_their_arguments_as_the_predicate():
    """A bare mask of the wrong length is an InvalidParameter to ctx.sj
    and ctx.sj_witnesses, as to is_S_J_ideal."""
    z36 = harness.build_context("Z36", "zn")
    short, S = np.zeros(35, dtype=bool), z36.subsets[0]
    with pytest.raises(InvalidParameter):
        predicates.is_S_J_ideal(z36.ring, short, S, lattice=z36.lattice)
    assert _answer(z36, short, S) is InvalidParameter
    with pytest.raises(InvalidParameter):
        z36.sj_witnesses(short, S)


def test_registry_evaluates_each_context_verdict_once(monkeypatch):
    """Over a full registry run, each (ring, mask, subset) entry of a left
    violation table is filled at most once, and each lattice-method right
    verdict evaluated at most once, whichever laws ask, on every ring the
    registry touches: the context rings, their picked quotients and the
    rings P17, P18, P20 and P21 derive, however often such a ring is
    built.  So is each colon (I : s) and (I : <s>) of a context ring.  On
    the second, cross-context corpus P17, P18, P20, P21 and P22 test
    instances: a context whose memo were released before P17 and P22 ran,
    or an idealization P21 rebuilt after P20, would be evaluated twice."""
    ctx_rings, quotient_rings, seen = set(), set(), {}

    def count(kind, ring, ideal, subset_key):
        if id(ring) in quotient_rings:
            kind = "quotient_" + kind
        elif id(ring) not in ctx_rings:
            if kind.startswith("colon"):
                return
            kind = "child_" + kind
        # a label is a ring expression: rings built twice share it
        key = (kind, ring.label, getattr(ideal, "mask", ideal).tobytes(),
               subset_key)
        seen[key] = seen.get(key, 0) + 1

    table, right = harness._violation_table, harness.is_right_S_J_ideal

    def counted_table(ring, jm, imask, subsets):
        out = table(ring, jm, imask, subsets)
        for subset_key in out:
            count("left", ring, imask, subset_key)
        return out

    def counted_right(ring, ideal, subset, **kwargs):
        if kwargs.get("method", "lattice") == "lattice":
            count("right", ring, ideal, subset.key)
        return right(ring, ideal, subset, **kwargs)

    monkeypatch.setattr(harness, "_violation_table", counted_table)
    monkeypatch.setattr(harness, "is_right_S_J_ideal", counted_right)
    elem_colon, ideal_colon = harness.colon_elem_mask, harness.colon_ideal_mask

    def counted_elem_colon(ring, imask, a, **kwargs):
        count("colon", ring, imask, int(a))
        return elem_colon(ring, imask, a, **kwargs)

    def counted_ideal_colon(ring, pmask, t_ideal, **kwargs):
        count("colon_ideal", ring, pmask, t_ideal.key)
        return ideal_colon(ring, pmask, t_ideal, **kwargs)

    monkeypatch.setattr(harness, "colon_elem_mask", counted_elem_colon)
    monkeypatch.setattr(harness, "colon_ideal_mask", counted_ideal_colon)
    kinds = {"left", "right", "colon", "colon_ideal", "quotient_left",
             "quotient_right"}
    for corpus, derived in ((harness.build_corpus(CACHE_CORPUS), set()),
                            (_cross_context_corpus(), {"child_left"})):
        ctx_rings.clear()
        ctx_rings.update(id(ctx.ring) for ctx in corpus.contexts)
        quotient_rings.clear()
        quotient_rings.update(id(Q.ctx.ring) for ctx in corpus.contexts
                              for Q in ctx.quotients)
        seen.clear()
        reports = {r["property_id"]: r
                   for r in harness.verify_properties(corpus)}
        assert {key[0] for key in seen} == kinds | derived
        assert max(seen.values()) == 1
    assert {i: reports[i]["tested"] for i in ("P17", "P18", "P20", "P21",
                                              "P22")} \
        == {"P17": 40, "P18": 32, "P20": 50, "P21": 64, "P22": 12}


def test_registry_lifts_each_subset_once(monkeypatch):
    """P18, P20, P21 and P22 carry picked subsets into derived rings.
    Each lift is kept in the derived context's memo, so on the cross-
    context corpus each (derived ring, subset) is carried once, P21
    reading the idealizations' lifts that P20 made."""
    lifted = []
    for name in ("subset_const_embed", "subset_idealization",
                 "subset_amalgamation"):
        def counted(subset, ring, _carry=getattr(harness, name), _name=name):
            lifted.append((_name, ring.label, subset.key))
            return _carry(subset, ring)

        monkeypatch.setattr(harness, name, counted)
    reports = harness.verify_properties(_cross_context_corpus(),
                                        ids=["P18", "P20", "P21", "P22"])
    assert all(r["tested"] for r in reports)
    assert {name for name, _, _ in lifted} == {
        "subset_const_embed", "subset_idealization", "subset_amalgamation"}
    assert len(set(lifted)) == len(lifted)


def test_registry_builds_each_two_sided_matrix_once(monkeypatch):
    """Over a full registry run, each (context ring, mask) two-sided
    matrix aRb-inside-I is built at most once, and only on context
    rings."""
    corpus = harness.build_corpus(CACHE_CORPUS)
    ctx_rings = {id(ctx.ring) for ctx in corpus.contexts}
    built = []
    build = harness.two_sided_matrix

    def counted(ring, imask):
        built.append((id(ring), imask.tobytes()))
        return build(ring, imask)

    monkeypatch.setattr(harness, "two_sided_matrix", counted)
    harness.verify_properties(corpus)
    assert built and len(set(built)) == len(built)
    assert {ring for ring, _ in built} <= ctx_rings


def test_registry_builds_each_hypothesis_relation_once(monkeypatch):
    """Over a full registry run, each (context ring, mask) product relation
    ab-inside-I is built at most once through the harness: the violation
    tables, P3 and P6/P7 all read the context's kept one.  The picked
    quotients' rings count as context rings."""
    corpus = harness.build_corpus(CACHE_CORPUS)
    ctx_rings = {id(c.ring) for ctx in corpus.contexts
                 for c in (ctx, *(Q.ctx for Q in ctx.quotients))}
    built = []
    build = harness.product_hyp_matrix

    def counted(ring, imask):
        built.append((id(ring), imask.tobytes()))
        return build(ring, imask)

    monkeypatch.setattr(harness, "product_hyp_matrix", counted)
    harness.verify_properties(corpus)
    on_contexts = [key for key in built if key[0] in ctx_rings]
    assert on_contexts and len(set(on_contexts)) == len(on_contexts)


def test_colon_unions_read_on_unit_classes_match_the_elementwise_union(
        generated_rings):
    """P6 and P7 read the union of the colons (I : a) over the a outside
    (T : s) on the unit classes, for all s of S at once.  On each
    commutative unital generated ring it equals I.mask[mul_table[~skip]]
    .any(0) with skip = (T : s), for every picked (I, S), every s of S and
    T in (J(R), I)."""
    checked = classed = 0
    for label, ring, _ in generated_rings:
        if not ring.commutative or ring.one is None:
            continue
        ctx = harness.build_context(label, "custom")
        table, (cls, reps) = ctx.ring.mul_table, ctx.ring.unit_classes
        classed += reps.size < ctx.ring.size
        for I, S in ctx.pairs(harness._Rep()):
            for t in (ctx.jac.mask, I.mask):
                unions = harness._colon_unions(
                    ctx, I.mask, harness._class_colons(ctx, t, S))
                for s, union in zip(S.members, unions):
                    want = I.mask[table[~ctx.colon(t, s)]].any(axis=0)
                    assert np.array_equal(union[cls], want), (label, s)
                    checked += 1
    assert checked > 100 and classed > 5


def test_colon_stable_ideals_are_read_by_their_proof(generated_rings):
    """P8 keeps the inner ideals P with (P : m) = P for every nonzero m.
    _colon_stable reads them by proof (the whole ring, and 0 when no
    nonzero m has a nonzero annihilator); on every generated ring with two
    or more elements, and on the ideal-as-rings of its proper nonzero
    ideals, it agrees with testing each P against each m."""
    seen = set()
    for label, ring, _ in generated_rings:
        base = harness._context(ring)
        rings = [ring] + [make_ideal_as_ring(ring, I.mask)
                          for I in base.lattice.ideals
                          if I.is_proper and I.size > 1]
        for inner in rings:
            if inner.size < 2:
                continue
            sub = harness._context(inner)
            nonzero = [m for m in range(inner.size) if m != inner.zero]
            want = [all(np.array_equal(colon_elem_mask(inner, P.mask, m),
                                       P.mask) for m in nonzero)
                    for P in sub.lattice.ideals]
            assert harness._colon_stable(sub) == want, (label, inner.label)
            seen.add(tuple(want[:1]))
    # both forms of 0 occur: stable (no zero divisors) and not
    assert seen == {(True,), (False,)}


def test_p31_streams_its_scan_above_the_pair_scan_limit(monkeypatch):
    """Above PAIR_SCAN_LIMIT P31 streams the aRb scan, builds no dense
    matrix, and reports what the dense scan reports."""
    dense = harness.verify_properties(harness.build_corpus(CACHE_CORPUS),
                                      ids=["P31"])
    assert dense[0]["tested"]

    def no_matrix(ring, imask):
        raise AssertionError("dense two-sided matrix above the limit")

    monkeypatch.setattr(predicates, "PAIR_SCAN_LIMIT", 0)
    monkeypatch.setattr(harness, "two_sided_matrix", no_matrix)
    assert harness.verify_properties(harness.build_corpus(CACHE_CORPUS),
                                     ids=["P31"]) == dense


def test_p31_runs_on_a_noncommutative_ring_above_the_pair_scan_limit():
    corpus = harness.build_corpus({"rings": ["M(2, Z2) x Z257"]})
    assert corpus.contexts[0].ring.size > predicates.PAIR_SCAN_LIMIT
    (rep,) = harness.verify_properties(corpus, ids=["P31"])
    assert rep["tested"] and not rep["violated"]


def test_verify_runs_every_law_on_the_calling_thread(monkeypatch, minimal):
    threads = set()

    def on_this_thread(check):
        def wrapper(corpus, rep):
            threads.add(threading.get_ident())
            return check(corpus, rep)
        return wrapper

    monkeypatch.setattr(harness, "REGISTRY", [
        dataclasses.replace(law, check=on_this_thread(law.check))
        for law in harness.REGISTRY])
    harness.verify_properties(minimal)
    assert threads == {threading.get_ident()}
