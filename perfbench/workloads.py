"""Seeded inputs and single operations of the three benchmark workloads.

Everything here drives ringlab through its public functions, looked up on
the module at call time so that the tracer's rebinding reaches them.

verify    the law registry over one part of the default corpus, as
          ``ringlab verify`` runs it: ``build_context`` per ring, then
          ``verify_properties`` with the default thread count, then
          ``report_json``.  The parts split ``default_ring_exprs()`` into
          family-stratified groups of equal cost (see pins.json); the seed
          picks the part.
describe  a stream of ``ringlab describe EXPR`` calls through ``cli.main``,
          stdout captured.  Expressions are drawn per stratum (family and
          cost band, on both sides of ``rings.TABLE_LIMIT``) in a fixed
          round-robin order, so every prefix of the stream has the same mix.
check     a stream of single predicate calls against a pool of rings built
          in setup with their lattices and radicals.  Only well-posed
          queries are drawn: the ideal is proper and disjoint from S, left
          forms run only on commutative rings with identity, subsets of
          noncommutative rings are m-systems, and the elementwise right form
          runs only up to ``predicates.ELEMENTWISE_LIMIT`` elements.
"""

import contextlib
import hashlib
import io
import json
import random

from ringlab import cli, harness, ideals, predicates, radicals, subsets
from ringlab import exprs
from ringlab.errors import InvalidSubset


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def verify_part(pins, seed):
    """(part index, [(expr, family), ...]) for this seed."""
    parts = pins["verify"]["parts"]
    k = seed % len(parts)
    return k, [tuple(e) for e in parts[k]]


def verify_setup(entries):
    contexts = [harness.build_context(expr, family)
                for expr, family in entries]
    return harness.Corpus(contexts=contexts)


def verify_pass(corpus):
    """Run the registry; returns (report text, ops, gate passed)."""
    reports = harness.verify_properties(corpus)
    text = harness.report_json(reports)
    ops = sum(r["tested"] + r["vacuous"] for r in reports)
    return text, ops, harness.gate_passed(reports)


# ---------------------------------------------------------------------------
# describe
# ---------------------------------------------------------------------------

# Strata in stream order.  Table-side rings stay at or below 2401 elements
# (a table ring of n elements holds two n x n int32 tables); formula-side
# rings lie between TABLE_LIMIT and 6561 elements.  Cyclic rings above 320
# elements and idealizations or amalgamations above TABLE_LIMIT are left
# out: their additive-closure walks take 10 s to minutes per call.
DESCRIBE_STRATA = [
    ("zn", ["Z%d" % n for n in range(256, 321, 8)]),
    ("product-light", [
        "Z16 x Z20", "Z18 x Z18", "Z10 x Z36", "Z20 x Z20", "Z27 x Z27",
        "Z9 x Z81", "Z14 x Z28", "Z21 x Z21", "Z4 x Z8 x Z8",
        "Z3 x Z9 x Z27", "Z2 x Z3 x Z6 x Z9", "Z2 x Z5 x Z7 x Z9",
        "Z3 x Z4 x Z5 x Z7", "Z2 x Z2 x Z8 x Z9", "Z7 x Z8 x Z9",
        "Z3 x Z5 x Z7 x Z11"]),
    ("product-heavy", [
        "Z24 x Z24", "Z16 x Z64", "Z25 x Z40", "Z32 x Z32", "Z18 x Z30",
        "Z6 x Z6 x Z8", "Z4 x Z6 x Z12", "Z8 x Z9 x Z10",
        "Z4 x Z4 x Z4 x Z4"]),
    ("matrix", ["M(2, Z6)", "M(2, Z2 x Z3)", "M(2, Z3 x Z2)"]),
    ("trunc", [
        "trunc(Z2, 9)", "trunc(Z3, 6)", "trunc(Z4, 5)", "trunc(Z5, 4)",
        "trunc(Z6, 4)", "trunc(Z8, 3)", "trunc(Z9, 3)", "trunc(Z10, 3)",
        "trunc(Z11, 3)", "trunc(Z2 x Z3, 4)"]),
    ("idealize", [
        "idealize(Z24, 12)", "idealize(Z36, 12)", "idealize(Z32, 32)",
        "idealize(Z27, 27)", "idealize(Z20, 20)", "idealize(Z30, 30)",
        "idealize(Z40, 20)", "idealize(Z60, 12)", "idealize(Z45, 15)",
        "idealize(Z50, 25)"]),
    ("amalg", [
        "amalg(Z32, Z32, mod, gen(2))", "amalg(Z48, Z48, mod, gen(6))",
        "amalg(Z72, Z36, mod, gen(6))", "amalg(Z100, Z50, mod, gen(10))",
        "amalg(Z54, Z27, mod, gen(3))", "amalg(Z50, Z50, mod, gen(5))",
        "amalg(Z36, Z36, mod, gen(2))", "amalg(Z81, Z81, mod, gen(9))",
        "amalg(Z60, Z30, mod, gen(2))"]),
    ("formula-light", ["M(2, Z9)", "trunc(M(2, Z3), 2)"]),
    ("formula-heavy", [
        "Z4 x M(2, Z6)", "Z2 x Z2 x M(2, Z6)", "Z2 x M(2, Z7)",
        "M(2, Z6) x Z4"]),
]


def describe_catalog():
    return [e for _, exprs_ in DESCRIBE_STRATA for e in exprs_]


def cycled(rng, choices):
    """Endless draws without replacement: a fresh shuffle per round."""
    while True:
        order = list(choices)
        rng.shuffle(order)
        yield from order


def describe_stream(seed):
    """Endless seeded stream of expressions, one per stratum in turn.

    Each stratum deals its expressions in a seeded shuffled order, so a
    run sees each stratum's members nearly evenly whatever the seed.
    """
    rng = random.Random("describe:%d" % seed)
    draws = [cycled(rng, choices) for _, choices in DESCRIBE_STRATA]
    while True:
        for draw in draws:
            yield next(draw)


def describe_op(expr):
    """One ``ringlab describe``; returns (exit code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(["describe", expr])
    return rc, out.getvalue()


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------

CHECK_POOL = ["Z12 x Z24", "idealize(Z36, 12)", "trunc(Z8, 3)",
              "Z36 x Z36", "M(2, Z6)", "M(2, Z12)"]
POOL_IDEALS = 16       # proper ideals kept per ring, spread over the lattice
POOL_SUBSETS = 4       # multiplicative subsets kept per ring
MODES = ("fixed-s", "per-pair-s")


class PoolRing:
    """One ring of the check pool with its lattice, radicals and inputs."""

    def __init__(self, expr):
        self.expr = expr
        self.ring = exprs.build_ring(exprs.parse_ring_expr(expr))
        ring = self.ring
        self.lattice = ideals.enumerate_ideals(ring)
        self.jac = radicals.jacobson_radical(ring, self.lattice)
        self.comm_ident = ring.commutative and ring.one is not None
        self.beta = (radicals.prime_radical(ring, self.lattice)[0]
                     if self.comm_ident else None)
        # canonical (size, mask) order, independent of the lattice's own
        proper = sorted((i for i in self.lattice.ideals if i.is_proper),
                        key=lambda i: (i.size, i.mask.tobytes()))
        step = max(1, len(proper) / POOL_IDEALS)
        self.ideals = [proper[int(k * step)]
                       for k in range(min(POOL_IDEALS, len(proper)))]
        self.subsets = self._pick_subsets()

    def _pick_subsets(self):
        ring = self.ring
        order = random.Random(self.expr).sample(range(1, ring.size),
                                                min(ring.size - 1, 400))
        seeds = ([ring.one] if ring.one is not None else []) + order
        out, keys = [], set()
        for x in seeds:
            if len(out) == POOL_SUBSETS:
                break
            if self.jac.mask[x] and x != ring.one:
                continue
            sub = subsets.generated_subset(ring, [x])
            if sub.contains(ring.zero) or sub.key in keys:
                continue
            if not ring.commutative:
                try:
                    sub = subsets.SubsetS(ring, sub.members, kind="msystem")
                except InvalidSubset:
                    continue
            keys.add(sub.key)
            out.append(sub)
        return out

    def variants(self):
        """(predicate, mode, method) triples that are well posed here."""
        out = []
        if self.comm_ident:
            out += [("is_J_ideal", None, None), ("is_n_ideal", None, None)]
            for mode in MODES:
                out += [("is_S_J_ideal", mode, None),
                        ("is_S_n_ideal", mode, None),
                        ("is_S_prime", mode, None)]
        for mode in MODES:
            out += [("is_right_S_prime", mode, None),
                    ("is_right_S_J_ideal", mode, "lattice")]
            if (self.ring.one is not None
                    and self.ring.size <= predicates.ELEMENTWISE_LIMIT):
                out.append(("is_right_S_J_ideal", mode, "elementwise"))
        return out

    def inputs(self, pred):
        """(ideal position, subset position or None) pairs for pred."""
        if pred in ("is_J_ideal", "is_n_ideal"):
            return [(i, None) for i in range(len(self.ideals))]
        return [(i, s) for i, ideal in enumerate(self.ideals)
                for s, sub in enumerate(self.subsets)
                if not (ideal.mask & sub.mask).any()]


def build_pool():
    return [PoolRing(expr) for expr in CHECK_POOL]


def check_universe(pool):
    """Every query the stream can draw, as (ring index, key tuple)."""
    out = []
    for r, pr in enumerate(pool):
        for pred, mode, method in pr.variants():
            for i, s in pr.inputs(pred):
                out.append((r, (i, s, pred, mode, method)))
    return out


def query_key(pool, r, q):
    i, s, pred, mode, method = q
    return "%s|%d|%s|%s|%s|%s" % (pool[r].expr, i, "-" if s is None else s,
                                  pred, mode or "-", method or "-")


def check_stream(seed, pool):
    """Endless seeded stream of (ring index, query), one per stratum
    (ring and predicate variant) in turn."""
    rng = random.Random("check:%d" % seed)
    strata = []
    for r, pr in enumerate(pool):
        for pred, mode, method in pr.variants():
            choices = pr.inputs(pred)
            if choices:
                strata.append((r, pred, mode, method, cycled(rng, choices)))
    while True:
        for r, pred, mode, method, draw in strata:
            i, s = next(draw)
            yield r, (i, s, pred, mode, method)


def check_op(pool, r, q):
    """One predicate call; returns the CheckResult as canonical JSON."""
    pr = pool[r]
    i, s, pred, mode, method = q
    fn = getattr(predicates, pred)
    ideal = pr.ideals[i]
    if pred == "is_J_ideal":
        res = fn(pr.ring, ideal, jacobson=pr.jac, lattice=pr.lattice)
    elif pred == "is_n_ideal":
        res = fn(pr.ring, ideal, beta=pr.beta, lattice=pr.lattice)
    elif pred == "is_S_J_ideal":
        res = fn(pr.ring, ideal, pr.subsets[s], jacobson=pr.jac,
                 lattice=pr.lattice, mode=mode)
    elif pred == "is_S_n_ideal":
        res = fn(pr.ring, ideal, pr.subsets[s], beta=pr.beta,
                 lattice=pr.lattice, mode=mode)
    elif pred == "is_S_prime":
        res = fn(pr.ring, ideal, pr.subsets[s], mode=mode)
    elif pred == "is_right_S_prime":
        res = fn(pr.ring, ideal, pr.subsets[s], lattice=pr.lattice,
                 mode=mode)
    else:
        res = fn(pr.ring, ideal, pr.subsets[s], lattice=pr.lattice,
                 jacobson=pr.jac, method=method, mode=mode)
    return json.dumps(res.to_json(), sort_keys=True)
