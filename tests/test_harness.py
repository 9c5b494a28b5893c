"""Corpus construction, law registry, determinism, report format."""

import json
import threading
from pathlib import Path

import jsonschema
import pytest

from ringlab import harness, ideals, predicates, rings
from ringlab.errors import InvalidParameter

SCHEMA_PATH = Path(__file__).resolve().parents[1] / "schemas" \
    / "report.schema.json"


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


def test_registry_ids_and_citations():
    ids = [law.id for law in harness.REGISTRY]
    assert ids == ["P%d" % i for i in range(1, 34)]
    assert len({law.citation for law in harness.REGISTRY}) == len(ids)
    for law in harness.REGISTRY:
        assert law.citation and law.statement
    non_gating = {law.id for law in harness.REGISTRY if not law.gating}
    assert non_gating == {"P18", "P19"}
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


def test_thread_count_does_not_change_the_report(minimal):
    one = harness.verify_properties(minimal, threads=1)
    four = harness.verify_properties(minimal, threads=4)
    assert harness.report_json(one) == harness.report_json(four)


def test_default_reports_validate_against_schema(suite):
    reports, _ = suite
    with open(SCHEMA_PATH) as fh:
        schema = json.load(fh)
    payload = json.loads(harness.report_json(reports))
    jsonschema.validate(payload, schema)


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


def test_law_caches_do_not_change_the_report():
    """Each law run alone on a fresh corpus reports what it reports inside
    a full registry run, and a second run on the warmed corpus writes the
    same bytes: the per-context caches never change an answer."""
    warm = harness.build_corpus(CACHE_CORPUS)
    full = harness.verify_properties(warm, threads=1)
    for law, entry in zip(harness.REGISTRY, full):
        alone = harness.verify_properties(harness.build_corpus(CACHE_CORPUS),
                                          ids=[law.id], threads=1)
        assert alone == [entry]
    again = harness.verify_properties(warm, threads=1)
    assert harness.report_json(again) == harness.report_json(full)


def test_thread_count_does_not_change_the_work(monkeypatch):
    """Threads share the corpus caches, and each cached fact is computed
    once however they interleave: a threaded run makes exactly the
    is_J_ideal, ideal-product and additive-closure calls of a serial
    run."""
    corpora = [harness.build_corpus(CACHE_CORPUS) for _ in range(2)]
    lock = threading.Lock()
    calls = {}

    def counted(fn):
        def wrapper(*args, **kwargs):
            with lock:
                calls[fn.__name__] = calls.get(fn.__name__, 0) + 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(harness, "is_J_ideal", counted(harness.is_J_ideal))
    monkeypatch.setattr(ideals, "ideal_product",
                        counted(ideals.ideal_product))
    for mod in (rings, ideals):
        monkeypatch.setattr(mod, "additive_closure",
                            counted(rings.additive_closure))
    seen = []
    for corpus, threads in zip(corpora, (1, 8)):
        calls.clear()
        harness.verify_properties(corpus, threads=threads)
        seen.append(dict(calls))
    assert seen[0] == seen[1]
    assert seen[0]["is_J_ideal"] > 0 and seen[0]["ideal_product"] > 0


def test_j_check_work_does_not_depend_on_the_argument_form(monkeypatch):
    """Laws pass j_check both IdealSets and bare masks.  Its memo has one
    entry per mask, so the form of whichever call comes first must not
    change what is computed: each mask is validated once either way."""
    checked = []
    validate = predicates.is_ideal_mask
    monkeypatch.setattr(predicates, "is_ideal_mask",
                        lambda ring, mask: checked.append(1)
                        or validate(ring, mask))
    seen = []
    for form in (lambda I: I, lambda I: I.mask):
        ctx = harness.build_corpus({"rings": ["Z36"]}).contexts[0]
        checked.clear()
        verdicts = [ctx.j_check(form(I)).verdict for I in ctx.ideals]
        verdicts += [ctx.j_check(I).verdict for I in ctx.ideals]
        seen.append((verdicts, len(checked)))
    assert seen[0] == seen[1]
    assert seen[0][1] == len(ctx.ideals)
