"""Law verification harness.

Thirty-three numbered laws about radical-relative ideal classes are run
over a corpus of small finite rings.  Each law is encoded as a checker
that filters instances by the law's hypotheses (vacuous instances are
counted separately), evaluates the conclusion, and reports violations
as fully replayable payloads: ring expression, ideal generators, subset
spec, quantifier mode, and a labeled counterexample.

Reports are deterministic: the corpus is generated in a fixed order, no
randomness is involved, and per-law reports are merged in registry
order no matter how many worker threads run the checks.
"""

import json
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import CapacityExceeded, InvalidParameter, InvalidSubset
from .exprs import build_ring, parse_ring_expr
from .ideals import (
    IdealSet,
    colon_elem_mask,
    colon_ideal_mask,
    colon_subset_mask,
    enumerate_ideals,
    ideal_generate,
    minimal_generating_set,
    unit_ideal,
    zero_ideal,
)
from .memo import once
from .predicates import (
    _arb_violation,
    _first_violation,
    _product_hyp_matrix,
    _scan,
    is_J_ideal,
    is_S_J_ideal,
    is_S_n_ideal,
    is_S_prime,
    is_n_ideal,
    is_right_S_J_ideal,
    is_right_S_prime,
)
from .predicates import ELEMENTWISE_LIMIT
from .radicals import j_star, jacobson_radical, prime_radical
from .rings import (
    canonical_surjection,
    center_mask,
    make_cyclic_module,
    make_ideal_as_ring,
    make_idealization,
    make_product,
    make_truncated_poly,
)
from .subsets import (
    SubsetS,
    generated_subset,
    subset_amalgamation,
    subset_const_embed,
    subset_idealization,
    subset_product,
    subset_quotient_image,
)

MAX_VIOLATIONS_KEPT = 10

# derived-ring size caps keep single instances comfortably vectorizable
IDEALIZE_CAP = 432
AMALG_PAIRS = ((4, 2), (8, 2), (8, 4), (9, 3), (12, 4), (12, 6), (16, 4),
               (18, 6), (24, 6), (27, 9), (36, 6), (36, 12))
IDEALIZE_BASES = (4, 6, 8, 9, 12, 16, 18, 24, 27, 36)


def default_threads():
    env = os.environ.get("RINGLAB_THREADS")
    if env:
        try:
            n = int(env)
        except ValueError:
            raise InvalidParameter("RINGLAB_THREADS must be an integer",
                                   got=env)
        if n < 1:
            raise InvalidParameter("RINGLAB_THREADS must be positive", got=n)
        return n
    return os.cpu_count() or 1


# ---------------------------------------------------------------------------
# corpus
# ---------------------------------------------------------------------------

@dataclass
class RingCtx:
    expr: str
    node: object
    ring: object
    family: str
    lattice: object = None
    jac: object = None
    beta: object = None
    ideals: tuple = ()
    subsets: tuple = ()
    quotients: tuple = ()
    skipped: str = ""
    # memos of sj_witnesses and j_check, keyed by mask bytes
    _sj: dict = field(default_factory=dict, init=False, repr=False,
                      compare=False)
    _j: dict = field(default_factory=dict, init=False, repr=False,
                     compare=False)

    @property
    def comm_ident(self):
        return self.ring.commutative and self.ring.one is not None

    @property
    def ident(self):
        return self.ring.one is not None

    def sj_witnesses(self, ideal, subset):
        """wits[k]: is subset.members[k] a fixed witness of the subset-
        radical law for the ideal?  The subset is one of the context's
        subsets and misses the ideal.

        One hypothesis matrix per ideal yields the vectors of every
        subset of the context that misses it; the vectors are kept.
        """
        return once(self._sj, ideal.key,
                    lambda: self._witness_vectors(ideal))[subset.key]

    def _witness_vectors(self, ideal):
        ring, jm, imask = self.ring, self.jac.mask, ideal.mask
        hyp = _product_hyp_matrix(ring, imask)
        per_subset = {}
        for S in self.subsets:
            if not _disjoint(ideal, S):
                continue
            wits = np.zeros(len(S.members), dtype=bool)
            for k, s in enumerate(S.members):
                row = ring.mul_vec(np.int64(s), ring.elements)
                wits[k] = _first_violation(hyp, jm[row], imask[row]) is None
            wits.setflags(write=False)
            per_subset[S.key] = wits
        return per_subset

    def j_check(self, ideal):
        """is_J_ideal against this context's radical, kept per mask.

        The bare mask is checked, so each mask is validated as an ideal
        once, whichever caller reaches it first.
        """
        mask = getattr(ideal, "mask", ideal)
        return once(self._j, mask.tobytes(), lambda: is_J_ideal(
            self.ring, mask, jacobson=self.jac, lattice=self.lattice))


@dataclass
class Corpus:
    contexts: list
    skipped: list = field(default_factory=list)

    @property
    def ring_count(self):
        return len(self.contexts)

    @property
    def instance_count(self):
        return sum(len(c.ideals) * len(c.subsets) for c in self.contexts)


def _divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


def _gens_label(ring, ideal):
    gens = minimal_generating_set(ideal)
    if not gens:
        gens = [ring.zero]
    return "gen(%s)" % ", ".join(ring.element_label(g) for g in gens)


def default_ring_exprs():
    exprs = []
    for n in range(2, 41):
        exprs.append(("Z%d" % n, "zn"))
    for n in range(2, 13):
        for m in range(n, 13):
            exprs.append(("Z%d x Z%d" % (n, m), "product"))
    for d in (2, 3, 4, 6, 9, 12, 18):
        exprs.append(("quot(Z36, gen(%d))" % d, "quotient"))
    for n in (2, 3, 4, 6):
        exprs.append(("M(2, Z%d)" % n, "matrix"))
    for n in IDEALIZE_BASES:
        for k in _divisors(n):
            if k >= 2 and n * k <= IDEALIZE_CAP:
                exprs.append(("idealize(Z%d, %d)" % (n, k), "idealization"))
    for n, m in AMALG_PAIRS:
        j = _squarefree_radical(m)
        gen = 0 if j == m else j   # <j> = J(Z_m); j == m means J = 0
        exprs.append(("amalg(Z%d, Z%d, mod, gen(%d))" % (n, m, gen),
                      "amalgamation"))
    for n in range(2, 9):
        for d in (2, 3):
            exprs.append(("trunc(Z%d, %d)" % (n, d), "truncation"))
    for d in (2, 3, 4, 6, 9, 12, 18):
        exprs.append(("idealring(Z36, gen(%d))" % d, "idealring"))
    return exprs


def _squarefree_radical(m):
    out = 1
    p = 2
    mm = m
    while p * p <= mm:
        if mm % p == 0:
            out *= p
            while mm % p == 0:
                mm //= p
        p += 1
    if mm > 1:
        out *= mm
    return out


def _pick_ideals(ctx, limit=6):
    lattice = ctx.lattice
    ring = ctx.ring
    proper = [i for i in lattice.ideals if i.is_proper]
    chosen = []
    keys = set()

    def take(idl):
        if idl is not None and idl.key not in keys:
            keys.add(idl.key)
            chosen.append(idl)

    take(next((i for i in proper if i.is_zero), None))
    if ctx.jac.is_proper:
        take(next((i for i in proper if i.key == ctx.jac.key), None))
    for i in proper:
        if len(chosen) >= limit - 2:
            break
        take(i)
    for i in reversed(proper):
        if len(chosen) >= limit:
            break
        take(i)
    out = []
    for idl in chosen:
        out.append(IdealSet(ring, idl.mask, label=_gens_label(ring, idl)))
    return tuple(out)


def _pick_subsets(ctx, limit=5):
    ring = ctx.ring
    jmask = ctx.jac.mask
    out = []
    keys = set()

    def take(sub):
        if sub is not None and sub.key not in keys and len(out) < limit:
            keys.add(sub.key)
            out.append(sub)

    if ring.one is not None:
        take(generated_subset(ring, [ring.one],
                              label="gen_s(%s)" % ring.element_label(ring.one)))
    if ctx.expr == "Z36":
        take(SubsetS(ring, [1, 3, 9, 27], label="mulclosed(1, 3, 9, 27)"))
    if ctx.family == "matrix":
        n = ring.base.size
        for s in (1, 3 % n, n - 1):
            if s == 0:
                continue
            idx = s * ring.base.size ** 3 + s
            sub = generated_subset(ring, [idx],
                                   label="gen_s(%s)" % ring.element_label(idx))
            if not sub.contains(ring.zero):
                take(sub)
    picked = 0
    for x in range(1, ring.size):
        if len(out) >= limit or picked >= 3:
            break
        if jmask[x] or x == ring.one:
            continue
        sub = generated_subset(ring, [x],
                               label="gen_s(%s)" % ring.element_label(x))
        if sub.contains(ring.zero):
            continue
        if ring.one is None:
            # subsets must still be m-systems in identity-free rings
            try:
                SubsetS(ring, sub.members, kind="msystem")
            except InvalidSubset:
                continue
        if sub.key in keys:
            continue
        take(sub)
        picked += 1
    return tuple(out)


def _pick_quotients(ctx, limit=2):
    lattice = ctx.lattice
    ring = ctx.ring
    picks = []
    keys = set()
    inside_jac = next((i for i in lattice.ideals
                       if i.is_proper and not i.is_zero
                       and not (i.mask & ~ctx.jac.mask).any()), None)
    smallest = next((i for i in lattice.ideals
                     if i.is_proper and not i.is_zero), None)
    for k in (inside_jac, smallest):
        if k is None or k.key in keys or len(picks) >= limit:
            continue
        keys.add(k.key)
        qring, hom = canonical_surjection(ring, k.mask)
        gens = minimal_generating_set(k)
        qring.label = "quot(%s, gen(%s))" % (
            ring.label, ", ".join(ring.element_label(g) for g in gens))
        qlat = enumerate_ideals(qring)
        qjac = jacobson_radical(qring, qlat)
        kernel = IdealSet(ring, k.mask, label="gen(%s)" % ", ".join(
            ring.element_label(g) for g in gens))
        picks.append((kernel, qring, hom, qlat, qjac))
    return tuple(picks)


def build_context(expr, family):
    node = parse_ring_expr(expr)
    ring = build_ring(node)
    ctx = RingCtx(expr=expr, node=node, ring=ring, family=family)
    try:
        ctx.lattice = enumerate_ideals(ring)
    except CapacityExceeded as err:
        ctx.skipped = "ideal lattice over budget: %s" % err.message
        return ctx
    ctx.jac = jacobson_radical(ring, ctx.lattice)
    if ring.commutative and ring.one is not None:
        ctx.beta = prime_radical(ring, ctx.lattice)
    ctx.ideals = _pick_ideals(ctx)
    ctx.subsets = _pick_subsets(ctx)
    ctx.quotients = _pick_quotients(ctx)
    return ctx


def build_corpus(config=None):
    """Assemble the verification corpus.

    ``config=None`` builds the full default corpus.  An empty dict asks
    for the minimal corpus {Z4, Z6}.  Recognized keys: ``rings`` (list
    of ring expressions replacing the default list) and ``max_size``
    (drop rings larger than this; setting any cap also drops the
    matrix-ring family wholesale, since those entries exist to exercise
    the lattice-mode path that a size cap is asking to avoid).
    """
    if config is None:
        entries = default_ring_exprs()
        max_size = None
    else:
        unknown = set(config) - {"rings", "max_size"}
        if unknown:
            raise InvalidParameter("unknown corpus config keys",
                                   keys=sorted(unknown))
        if not config:
            entries = [("Z4", "zn"), ("Z6", "zn")]
            max_size = None
        else:
            if "rings" in config:
                entries = [(e, "custom") for e in config["rings"]]
            else:
                entries = default_ring_exprs()
            max_size = config.get("max_size")
    contexts = []
    skipped = []
    for expr, family in entries:
        if max_size is not None and family == "matrix":
            continue
        ctx = build_context(expr, family)
        if max_size is not None and ctx.ring.size > max_size:
            continue
        if ctx.skipped:
            skipped.append({"ring_expr": expr, "reason": ctx.skipped})
            continue
        contexts.append(ctx)
    return Corpus(contexts=contexts, skipped=skipped)


# ---------------------------------------------------------------------------
# report plumbing
# ---------------------------------------------------------------------------

class _Rep:
    def __init__(self):
        self.tested = 0
        self.vacuous = 0
        self.violated = 0
        self.violations = []
        self.notes = {}

    def violation(self, ring, ideal, subset, counterexample, mode="fixed-s"):
        self.violated += 1
        if len(self.violations) >= MAX_VIOLATIONS_KEPT:
            return
        if isinstance(ideal, IdealSet):
            gens = _gens_label(ring, ideal)
        else:
            gens = ideal
        self.violations.append({
            "ring_expr": ring.label,
            "ideal_gens": gens,
            "subset": getattr(subset, "label", subset),
            "mode": mode,
            "counterexample": counterexample,
        })


def _lbl(ring, obj):
    """Map element indices inside a nested counterexample to labels."""
    if obj is None:
        return None
    if isinstance(obj, (int, np.integer)):
        return ring.element_label(int(obj))
    if isinstance(obj, (tuple, list)):
        return [_lbl(ring, x) for x in obj]
    return obj


def _labeled_result(ring, res):
    return {
        "verdict": bool(res.verdict),
        "witness_s": _lbl(ring, res.witness_s),
        "counterexample": _lbl(ring, res.counterexample),
        "quantifier_mode": res.quantifier_mode,
        "method": res.method,
    }


def _disjoint(ideal, subset):
    return not (ideal.mask & subset.mask).any()


def _ideal_times_s_inside(ring, lattice, s, target_mask):
    """Per lattice ideal A: is the set A*s inside the target?"""
    out = np.empty(len(lattice), dtype=bool)
    s64 = np.int64(s)
    for i, idl in enumerate(lattice.ideals):
        gens = idl.addgens
        if not gens:
            out[i] = True
            continue
        prods = ring.mul_vec(np.asarray(gens, dtype=np.int64), s64)
        out[i] = bool(target_mask[prods].all())
    return out


def _right_witness(lattice, hyp, pidx, jidx, s):
    col = lattice.prod[:, lattice.principal_of[int(s)]]
    a_ok = lattice.leq[col, jidx]
    b_ok = lattice.leq[col, pidx]
    return _first_violation(hyp, a_ok, b_ok) is None


# ---------------------------------------------------------------------------
# law checkers
# ---------------------------------------------------------------------------

def _p1(corpus, rep):
    # a fixed witness s forces the whole ideal into (J(R) : s)
    for ctx in corpus.contexts:
        if not ctx.comm_ident:
            continue
        ring, jm = ctx.ring, ctx.jac.mask
        for I in ctx.ideals:
            for S in ctx.subsets:
                if not _disjoint(I, S):
                    rep.vacuous += 1
                    continue
                wits = ctx.sj_witnesses(I, S)
                if not wits.any():
                    rep.vacuous += 1
                    continue
                rep.tested += 1
                for s, ok in zip(S.members, wits):
                    if not ok:
                        continue
                    colon = colon_elem_mask(ring, jm, int(s))
                    if (I.mask & ~colon).any():
                        bad = int(np.flatnonzero(I.mask & ~colon)[0])
                        rep.violation(ring, I, S, {
                            "witness_s": ring.element_label(int(s)),
                            "ideal_element_outside_colon":
                                ring.element_label(bad)})
                        break


def _p2(corpus, rep):
    # radical-membership ideals sit inside the radical
    for ctx in corpus.contexts:
        if not ctx.comm_ident:
            continue
        ring = ctx.ring
        for I in ctx.ideals:
            if not ctx.j_check(I).verdict:
                rep.vacuous += 1
                continue
            rep.tested += 1
            if (I.mask & ~ctx.jac.mask).any():
                bad = int(np.flatnonzero(I.mask & ~ctx.jac.mask)[0])
                rep.violation(ring, I, None,
                              {"element_outside_radical":
                               ring.element_label(bad)})


def _p3(corpus, rep):
    # nilradical-relative implies radical-relative; radical ideal is
    # subset-radical iff subset-prime
    for ctx in corpus.contexts:
        if not ctx.comm_ident:
            continue
        ring = ctx.ring
        beta = ctx.beta[0]
        for I in ctx.ideals:
            sub_free_done = False
            for S in ctx.subsets:
                if not _disjoint(I, S):
                    rep.vacuous += 1
                    continue
                rn = is_S_n_ideal(ring, I, S, beta=beta, lattice=ctx.lattice)
                if rn.verdict:
                    rep.tested += 1
                    rj = is_S_J_ideal(ring, I, S, jacobson=ctx.jac,
                                      lattice=ctx.lattice)
                    if not rj.verdict:
                        rep.violation(ring, I, S, {
                            "part": "subset-nilradical-but-not-subset-radical",
                            "nilradical_check": _labeled_result(ring, rn),
                            "radical_check": _labeled_result(ring, rj)})
                else:
                    rep.vacuous += 1
                if not sub_free_done:
                    sub_free_done = True
                    n_res = is_n_ideal(ring, I, beta=beta, lattice=ctx.lattice)
                    if n_res.verdict:
                        rep.tested += 1
                        j_res = ctx.j_check(I)
                        if not j_res.verdict:
                            rep.violation(ring, I, None, {
                                "part": "nilradical-but-not-radical",
                                "counterexample":
                                    _lbl(ring, j_res.counterexample)})
                    else:
                        rep.vacuous += 1
        if ctx.jac.is_proper:
            for S in ctx.subsets:
                if not _disjoint(ctx.jac, S):
                    rep.vacuous += 1
                    continue
                rep.tested += 1
                rj = is_S_J_ideal(ring, ctx.jac, S, jacobson=ctx.jac,
                                  lattice=ctx.lattice)
                rp = is_S_prime(ring, ctx.jac, S)
                if rj.verdict != rp.verdict:
                    rep.violation(ring, ctx.jac, S, {
                        "part": "radical-subset-radical-vs-subset-prime",
                        "subset_radical": _labeled_result(ring, rj),
                        "subset_prime": _labeled_result(ring, rp)})


def _p4(corpus, rep):
    # elementwise form agrees with the ideal-pair form, witness by witness
    for ctx in corpus.contexts:
        if not ctx.comm_ident:
            continue
        ring, lattice, jm = ctx.ring, ctx.lattice, ctx.jac.mask
        for I in ctx.ideals:
            hyp_lat = lattice.leq[lattice.prod, lattice.idx_of(I)]
            for S in ctx.subsets:
                if not _disjoint(I, S):
                    rep.vacuous += 1
                    continue
                wits = ctx.sj_witnesses(I, S)
                rep.tested += 1
                for s, ok in zip(S.members, wits):
                    a_ok = _ideal_times_s_inside(ring, lattice, s, jm)
                    b_ok = _ideal_times_s_inside(ring, lattice, s, I.mask)
                    pair_ok = _first_violation(hyp_lat, a_ok, b_ok) is None
                    if pair_ok != bool(ok):
                        rep.violation(ring, I, S, {
                            "s": ring.element_label(int(s)),
                            "elementwise_witness": bool(ok),
                            "ideal_pair_witness": pair_ok})
                        break


def _p5(corpus, rep):
    # (I : s) being a radical-membership ideal certifies the witness s;
    # conversely when J(R) is itself such an ideal and misses S
    for ctx in corpus.contexts:
        if not ctx.comm_ident:
            continue
        ring, jm = ctx.ring, ctx.jac.mask
        jac_is_j = ctx.j_check(ctx.jac).verdict
        for I in ctx.ideals:
            for S in ctx.subsets:
                if not _disjoint(I, S):
                    rep.vacuous += 1
                    continue
                wits = ctx.sj_witnesses(I, S)
                conv = jac_is_j and not (jm & S.mask).any()
                colon_j = []
                for s in S.members:
                    cmask = colon_elem_mask(ring, I.mask, int(s))
                    colon_j.append(not cmask.all()
                                   and ctx.j_check(cmask).verdict)
                if not any(colon_j) and not (conv and wits.any()):
                    rep.vacuous += 1
                    continue
                rep.tested += 1
                for s, cj, w in zip(S.members, colon_j, wits):
                    if cj and not w:
                        rep.violation(ring, I, S, {
                            "direction": "colon-certificate-but-no-witness",
                            "s": ring.element_label(int(s))})
                        break
                    if conv and w and not cj:
                        rep.violation(ring, I, S, {
                            "direction": "witness-but-colon-not-certificate",
                            "s": ring.element_label(int(s))})
                        break


def _p6(corpus, rep):
    # witness s  <=>  (I : a) inside (J(R) : s) for every a outside (I : s)
    for ctx in corpus.contexts:
        if not ctx.comm_ident:
            continue
        ring, jm = ctx.ring, ctx.jac.mask
        els = ring.elements
        for I in ctx.ideals:
            for S in ctx.subsets:
                if not _disjoint(I, S):
                    rep.vacuous += 1
                    continue
                wits = ctx.sj_witnesses(I, S)
                rep.tested += 1
                for s, w in zip(S.members, wits):
                    colon_s = colon_elem_mask(ring, I.mask, int(s))
                    jcolon_s = colon_elem_mask(ring, jm, int(s))
                    bad = np.flatnonzero(~jcolon_s)
                    if bad.size:
                        viol_a = I.mask[ring.mul_vec(bad[:, None],
                                                     els[None, :])].any(axis=0)
                        rhs = not (viol_a & ~colon_s).any()
                    else:
                        rhs = True
                    if rhs != bool(w):
                        rep.violation(ring, I, S, {
                            "s": ring.element_label(int(s)),
                            "witness": bool(w), "colon_form": rhs})
                        break


def _p7(corpus, rep):
    # witness s  <=>  (I : b) inside (I : s) for every b outside (J(R) : s)
    for ctx in corpus.contexts:
        if not ctx.comm_ident:
            continue
        ring, jm = ctx.ring, ctx.jac.mask
        els = ring.elements
        for I in ctx.ideals:
            for S in ctx.subsets:
                if not _disjoint(I, S):
                    rep.vacuous += 1
                    continue
                wits = ctx.sj_witnesses(I, S)
                rep.tested += 1
                for s, w in zip(S.members, wits):
                    colon_s = colon_elem_mask(ring, I.mask, int(s))
                    jcolon_s = colon_elem_mask(ring, jm, int(s))
                    bad = np.flatnonzero(~colon_s)
                    if bad.size:
                        viol_b = I.mask[ring.mul_vec(bad[:, None],
                                                     els[None, :])].any(axis=0)
                        rhs = not (viol_b & ~jcolon_s).any()
                    else:
                        rhs = True
                    if rhs != bool(w):
                        rep.violation(ring, I, S, {
                            "s": ring.element_label(int(s)),
                            "witness": bool(w), "colon_form": rhs})
                        break


def _p8(corpus, rep):
    # inside an ideal viewed as a ring, colon-stable ideals inherit the
    # subset-radical law (radical of the small ring, same witness pool)
    for ctx in corpus.contexts:
        if not ctx.comm_ident:
            continue
        ring = ctx.ring
        for I in ctx.ideals:
            if I.size < 2:
                continue
            sub_ring = None
            for S in ctx.subsets:
                if not _disjoint(I, S):
                    rep.vacuous += 1
                    continue
                if not ctx.sj_witnesses(I, S).any():
                    rep.vacuous += 1
                    continue
                if sub_ring is None:
                    sub_ring = make_ideal_as_ring(ring, I.mask)
                    sub_lat = enumerate_ideals(sub_ring)
                    sub_jac = jacobson_radical(sub_ring, sub_lat)
                    base_members = I.members
                    nonzero = [int(sub_ring.pos[x]) for x in base_members
                               if int(x) != ring.zero]
                for P in sub_lat.ideals:
                    stable = all(
                        np.array_equal(
                            colon_elem_mask(sub_ring, P.mask, m), P.mask)
                        for m in nonzero)
                    if not stable:
                        rep.vacuous += 1
                        continue
                    rep.tested += 1
                    sub_hyp = _product_hyp_matrix(sub_ring, P.mask)
                    witnessed = False
                    for s in S.members:
                        row_base = ring.mul_vec(np.int64(s), base_members)
                        row = sub_ring.pos[row_base]
                        if _first_violation(sub_hyp, sub_jac.mask[row],
                                            P.mask[row]) is None:
                            witnessed = True
                            break
                    if not witnessed:
                        rep.violation(ring, I, S, {
                            "inner_ideal": [sub_ring.element_label(int(g))
                                            for g in P.members],
                            "note": "no member of S witnesses the law "
                                    "inside the ideal-as-ring"})


def _p9(corpus, rep):
    # intersections of maximal ideals that satisfy the law force the
    # radical to be subset-finite (trivially true in finite rings)
    rep.notes["degenerate"] = ("every ideal of a finite ring is finitely "
                               "generated, so subset-finiteness always holds;"
                               " the hypothesis chain is still exercised")
    for ctx in corpus.contexts:
        if not ctx.comm_ident:
            continue
        ring, jm = ctx.ring, ctx.jac.mask
        for I in ctx.ideals:
            jstar = j_star(ring, I, ctx.lattice)
            if jstar.key != I.key:
                rep.vacuous += 1
                continue
            for S in ctx.subsets:
                if not _disjoint(I, S):
                    rep.vacuous += 1
                    continue
                if not ctx.sj_witnesses(I, S).any():
                    rep.vacuous += 1
                    continue
                rep.tested += 1
                s = int(S.members.min())
                fin = minimal_generating_set(ctx.jac)
                fmask = ideal_generate(ring, fin)
                js = ring.mul_vec(ctx.jac.members, np.int64(s))
                if not (fmask[js].all() and not (fmask & ~jm).any()):
                    rep.violation(ring, I, S, {
                        "note": "no finite sandwich for the radical",
                        "s": ring.element_label(s)})


def _p10(corpus, rep):
    # cancellation against an ideal never inside (J(R) : s): equal
    # products force subset-finiteness (degenerate-true here)
    rep.notes["degenerate"] = ("subset-finiteness is automatic in finite "
                               "rings; hypotheses are still exercised")
    for ctx in corpus.contexts:
        if not ctx.comm_ident:
            continue
        ring, lattice, jm = ctx.ring, ctx.lattice, ctx.jac.mask
        a_pool = list(ctx.ideals) + [unit_ideal(ring)]
        for S in ctx.subsets:
            sj = {I.key: ctx.sj_witnesses(I, S).any()
                  for I in ctx.ideals if _disjoint(I, S)}
            for A in a_pool:
                if A.key not in lattice.key_to_idx:
                    continue
                big = all((A.mask & ~colon_elem_mask(ring, jm, int(s))).any()
                          for s in S.members)
                if not big:
                    rep.vacuous += 1
                    continue
                aidx = lattice.idx_of(A)
                for I in ctx.ideals:
                    iidx = lattice.idx_of(I)
                    if I.key in sj:
                        for J in ctx.ideals:
                            if J.key not in sj:
                                continue
                            if not (sj[I.key] and sj[J.key]):
                                rep.vacuous += 1
                                continue
                            ai = lattice.product_idx(aidx, iidx)
                            aj = lattice.product_idx(aidx,
                                                     lattice.idx_of(J))
                            if ai != aj:
                                rep.vacuous += 1
                                continue
                            rep.tested += 1
                            s = int(S.members.min())
                            js = ring.mul_vec(J.members, np.int64(s))
                            if not J.mask[js].all():
                                rep.violation(ring, J, S, {
                                    "note": "J*s escaped J",
                                    "s": ring.element_label(s)})
                    # part two: a subset-radical product AI bounds I
                    ai_ideal = lattice.ideals[lattice.product_idx(aidx,
                                                                  iidx)]
                    if not _disjoint(ai_ideal, S):
                        rep.vacuous += 1
                        continue
                    if not ctx.sj_witnesses(ai_ideal, S).any():
                        rep.vacuous += 1
                        continue
                    rep.tested += 1
                    s = int(S.members.min())
                    is_ = ring.mul_vec(I.members, np.int64(s))
                    if not I.mask[is_].all():
                        rep.violation(ring, I, S, {
                            "note": "I*s escaped I",
                            "s": ring.element_label(s)})


def _p11(corpus, rep):
    # the colon of a subset-radical ideal by any set X outside it keeps
    # the quantifier form of the law (disjointness tracked separately)
    meets = 0
    for ctx in corpus.contexts:
        if not ctx.comm_ident:
            continue
        ring, jm = ctx.ring, ctx.jac.mask
        els = ring.elements
        for I in ctx.ideals:
            for S in ctx.subsets:
                if not _disjoint(I, S):
                    rep.vacuous += 1
                    continue
                if not ctx.sj_witnesses(I, S).any():
                    rep.vacuous += 1
                    continue
                xsets = []
                outside = [int(x) for x in range(ring.size)
                           if not I.mask[x]][:2]
                xsets.extend([x] for x in outside)
                xsets.append([int(x) for x in S.members])
                for xs in xsets:
                    cmask = colon_subset_mask(ring, I.mask, xs)
                    rep.tested += 1
                    if (cmask & S.mask).any():
                        meets += 1
                    chyp = _product_hyp_matrix(ring, cmask)

                    def disjuncts(s):
                        row = ring.mul_vec(np.int64(s), els)
                        return jm[row], cmask[row]

                    res = _scan(ring, chyp, S.members, disjuncts, "fixed-s")
                    if not res.verdict:
                        rep.violation(ring, I, S, {
                            "x_set": [ring.element_label(x) for x in xs],
                            "colon_check": _labeled_result(ring, res)})
    if meets:
        rep.notes["colon_meets_subset"] = meets


def _p12(corpus, rep):
    # ideals maximal for the law are prime; primes equal to (J(R) : s)
    # are maximal for the law
    for ctx in corpus.contexts:
        if not ctx.comm_ident:
            continue
        ring, lattice, jm = ctx.ring, ctx.lattice, ctx.jac.mask
        for S in ctx.subsets:
            flags = [idl.is_proper and _disjoint(idl, S)
                     and ctx.sj_witnesses(idl, S).any()
                     for idl in lattice.ideals]
            sj_idx = [i for i, f in enumerate(flags) if f]
            if sj_idx:
                rep.tested += 1
                maximal = [i for i in sj_idx
                           if not any(j != i and lattice.leq[i, j]
                                      for j in sj_idx)]
                for i in maximal:
                    if not lattice.is_prime_idx(i):
                        rep.violation(ring, lattice.ideals[i], S, {
                            "part": "maximal-for-the-law-but-not-prime"})
            else:
                rep.vacuous += 1
            for i in range(len(lattice)):
                idl = lattice.ideals[i]
                if not lattice.is_prime_idx(i) or (idl.mask & S.mask).any():
                    continue
                hit = any(
                    np.array_equal(colon_elem_mask(ring, jm, int(s)),
                                   idl.mask)
                    for s in S.members)
                if not hit:
                    continue
                rep.tested += 1
                others = [j for j in sj_idx
                          if j != i and lattice.leq[i, j]]
                if i not in sj_idx or others:
                    rep.violation(ring, idl, S, {
                        "part": "prime-colon-form-not-maximal",
                        "strictly_above": [
                            [ring.element_label(g) for g in
                             minimal_generating_set(lattice.ideals[j])]
                            for j in others]})


def _p13(corpus, rep):
    # when (J(R) : s) = J(R), the witness law rewrites through the
    # maximal-intersection radical of I
    for ctx in corpus.contexts:
        if not ctx.comm_ident:
            continue
        ring, jm = ctx.ring, ctx.jac.mask
        els = ring.elements
        for I in ctx.ideals:
            hyp = None
            jstar = None
            for S in ctx.subsets:
                if not _disjoint(I, S):
                    rep.vacuous += 1
                    continue
                good_s = [int(s) for s in S.members
                          if np.array_equal(
                              colon_elem_mask(ring, jm, int(s)), jm)]
                if not good_s:
                    rep.vacuous += 1
                    continue
                if hyp is None:
                    hyp = _product_hyp_matrix(ring, I.mask)
                if jstar is None:
                    jstar = j_star(ring, I, ctx.lattice)
                rep.tested += 1
                for s in good_s:
                    row_l = ring.mul_vec(np.int64(s), els)
                    lhs = _first_violation(hyp, jm[row_l],
                                           I.mask[row_l]) is None
                    row_r = ring.mul_vec(els, np.int64(s))
                    pair_ok = _first_violation(hyp, jstar.mask[row_r],
                                               I.mask[row_r]) is None
                    contain = not (I.mask & ~colon_elem_mask(
                        ring, jm, s)).any()
                    rhs = pair_ok and contain
                    if lhs != rhs:
                        rep.violation(ring, I, S, {
                            "s": ring.element_label(s),
                            "witness": lhs, "rewritten_form": rhs})
                        break


def _p14(corpus, rep):
    # the law transfers along surjections: forward when the kernel sits
    # inside the ideal, backward when it sits inside the radical
    for ctx in corpus.contexts:
        if not ctx.comm_ident:
            continue
        ring, jm = ctx.ring, ctx.jac.mask
        for kernel, qring, hom, qlat, qjac in ctx.quotients:
            for S in ctx.subsets:
                simg = subset_quotient_image(
                    S, hom, label="mulclosed(%s)" % ", ".join(
                        qring.element_label(int(m))
                        for m in np.unique(hom.map[S.members])))
                for I in ctx.ideals:
                    if not _disjoint(I, S):
                        rep.vacuous += 1
                        continue
                    if not (kernel.mask & ~I.mask).any():
                        res = is_S_J_ideal(ring, I, S, jacobson=ctx.jac,
                                           lattice=ctx.lattice)
                        if res.verdict:
                            rep.tested += 1
                            qmask = np.zeros(qring.size, dtype=bool)
                            qmask[hom.map[I.members]] = True
                            if (qmask & simg.mask).any():
                                rep.violation(ring, I, S, {
                                    "part": "image-meets-image-subset"})
                                continue
                            qres = is_S_J_ideal(qring, qmask, simg,
                                                jacobson=qjac, lattice=qlat)
                            if not qres.verdict:
                                rep.violation(ring, I, S, {
                                    "part": "image-loses-the-law",
                                    "quotient": qring.label,
                                    "image_check":
                                        _labeled_result(qring, qres)})
                        else:
                            rep.vacuous += 1
                if (kernel.mask & ~jm).any():
                    continue
                for L in qlat.ideals:
                    if not L.is_proper:
                        continue
                    if (L.mask & simg.mask).any():
                        rep.vacuous += 1
                        continue
                    qres = is_S_J_ideal(qring, L, simg, jacobson=qjac,
                                        lattice=qlat)
                    if not qres.verdict:
                        rep.vacuous += 1
                        continue
                    rep.tested += 1
                    pre = L.mask[hom.map]
                    res = is_S_J_ideal(ring, pre, S, jacobson=ctx.jac,
                                       lattice=ctx.lattice)
                    if not res.verdict:
                        rep.violation(ring, IdealSet(ring, pre), S, {
                            "part": "preimage-loses-the-law",
                            "quotient": qring.label,
                            "base_check": _labeled_result(ring, res)})


def _p15(corpus, rep):
    # quotient correspondence: the law passes to P2/P1 and, when P1 is
    # small enough (inside the radical, or radical-membership), back up
    for ctx in corpus.contexts:
        if not ctx.comm_ident:
            continue
        ring, jm = ctx.ring, ctx.jac.mask
        for kernel, qring, hom, qlat, qjac in ctx.quotients:
            k_in_jac = not (kernel.mask & ~jm).any()
            k_is_j = ctx.j_check(kernel).verdict
            uppers = [i for i in ctx.lattice.ideals
                      if i.is_proper and not (kernel.mask & ~i.mask).any()]
            for S in ctx.subsets:
                simg = subset_quotient_image(
                    S, hom, label="mulclosed(%s)" % ", ".join(
                        qring.element_label(int(m))
                        for m in np.unique(hom.map[S.members])))
                for P2 in uppers:
                    if (P2.mask & S.mask).any():
                        rep.vacuous += 1
                        continue
                    qmask = np.zeros(qring.size, dtype=bool)
                    qmask[hom.map[P2.members]] = True
                    down = is_S_J_ideal(ring, P2, S, jacobson=ctx.jac,
                                        lattice=ctx.lattice)
                    up = is_S_J_ideal(qring, qmask, simg, jacobson=qjac,
                                      lattice=qlat) \
                        if not (qmask & simg.mask).any() else None
                    hit = False
                    if down.verdict:
                        hit = True
                        if up is None or not up.verdict:
                            rep.violation(ring, P2, S, {
                                "part": "law-lost-in-quotient",
                                "quotient": qring.label})
                    if up is not None and up.verdict and (k_in_jac or k_is_j):
                        hit = True
                        if not down.verdict:
                            rep.violation(ring, P2, S, {
                                "part": "law-not-lifted-from-quotient",
                                "quotient": qring.label,
                                "kernel_inside_radical": k_in_jac,
                                "kernel_is_radical_membership": k_is_j})
                    if hit:
                        rep.tested += 1
                    else:
                        rep.vacuous += 1


def _p16(corpus, rep):
    # the intersection of two ideals satisfying the law satisfies it
    for ctx in corpus.contexts:
        if not ctx.comm_ident:
            continue
        ring, jm = ctx.ring, ctx.jac.mask
        for S in ctx.subsets:
            holders = []
            for I in ctx.ideals:
                if not _disjoint(I, S):
                    continue
                res = is_S_J_ideal(ring, I, S, jacobson=ctx.jac,
                                   lattice=ctx.lattice)
                if res.verdict:
                    holders.append(I)
            if len(holders) < 2:
                rep.vacuous += 1
                continue
            for i in range(len(holders)):
                for j in range(i + 1, len(holders)):
                    rep.tested += 1
                    mask = holders[i].mask & holders[j].mask
                    res = is_S_J_ideal(ring, mask, S, jacobson=ctx.jac,
                                       lattice=ctx.lattice)
                    if not res.verdict:
                        rep.violation(ring, IdealSet(ring, mask), S, {
                            "intersection_of": [holders[i].label,
                                                holders[j].label],
                            "check": _labeled_result(ring, res)})


def _p17(corpus, rep):
    # componentwise law on direct products: I1 x R2 works iff I1 works
    # and the second subset meets the second radical
    zns = {c.expr: c for c in corpus.contexts if c.family == "zn"}
    pair_names = [(2, 3), (2, 8), (3, 4), (4, 6), (4, 9), (6, 8), (6, 12),
                  (8, 9), (9, 12), (12, 12), (5, 7), (10, 11)]
    for n, m in pair_names:
        c1 = zns.get("Z%d" % n)
        c2 = zns.get("Z%d" % m)
        if c1 is None or c2 is None:
            continue
        prod = make_product(c1.ring, c2.ring,
                            label="%s x %s" % (c1.expr, c2.expr))
        plat = enumerate_ideals(prod)
        pjac = jacobson_radical(prod, plat)
        for first in (True, False):
            ca, cb = (c1, c2) if first else (c2, c1)
            for I in ca.ideals[:3]:
                for Sa in ca.subsets[:2]:
                    if not _disjoint(I, Sa):
                        rep.vacuous += 1
                        continue
                    comp = is_S_J_ideal(ca.ring, I, Sa, jacobson=ca.jac,
                                        lattice=ca.lattice)
                    for Sb in cb.subsets[:2]:
                        rep.tested += 1
                        meets = bool((cb.jac.mask & Sb.mask).any())
                        if first:
                            s12 = subset_product(Sa, Sb, prod)
                            mask = np.zeros(prod.size, dtype=bool)
                            block = (I.members[:, None] * cb.ring.size
                                     + np.arange(cb.ring.size)[None, :])
                        else:
                            s12 = subset_product(Sb, Sa, prod)
                            mask = np.zeros(prod.size, dtype=bool)
                            block = (np.arange(cb.ring.size)[:, None]
                                     * ca.ring.size + I.members[None, :])
                        mask[block.ravel()] = True
                        s12.label = "mulclosed(%s)" % ", ".join(
                            prod.element_label(int(x)) for x in s12.members)
                        whole = is_S_J_ideal(prod, mask, s12, jacobson=pjac,
                                             lattice=plat)
                        expect = comp.verdict and meets
                        if whole.verdict != expect:
                            rep.violation(prod, IdealSet(prod, mask), s12, {
                                "component_ring": ca.expr,
                                "component_verdict": comp.verdict,
                                "radical_meets_other_subset": meets,
                                "product_verdict": whole.verdict})


def _p18(corpus, rep):
    # truncated-polynomial analog of the power-series transfer; reported
    # but non-gating
    rep.notes["non_gating"] = ("finite analog on R[x]/(x^d); the source "
                               "statement concerns full power series")
    for ctx in corpus.contexts:
        if not ctx.comm_ident or ctx.family != "zn" or ctx.ring.size > 8:
            continue
        ring, jm = ctx.ring, ctx.jac.mask
        if not ctx.j_check(ctx.jac).verdict:
            rep.vacuous += 1
            continue
        n = ring.size
        for d in (2, 3):
            trunc = make_truncated_poly(ring, d,
                                        label="trunc(%s, %d)" % (ctx.expr, d))
            tlat = enumerate_ideals(trunc)
            tjac = jacobson_radical(trunc, tlat)
            lift_expected = jm[np.arange(trunc.size) % n]
            if not np.array_equal(tjac.mask, lift_expected):
                rep.tested += 1
                rep.violation(trunc, tjac, None, {
                    "part": "radical-shape",
                    "note": "radical of the truncated ring is not "
                            "constant-term-in-radical"})
                continue
            for I in ctx.ideals:
                lift = np.ones(trunc.size, dtype=bool)
                c = np.arange(trunc.size)
                for _ in range(d):
                    lift &= I.mask[c % n]
                    c //= n
                for S in ctx.subsets:
                    if not _disjoint(I, S):
                        rep.vacuous += 1
                        continue
                    rep.tested += 1
                    sc = subset_const_embed(
                        S, trunc, label="mulclosed(%s)" % ", ".join(
                            trunc.element_label(int(x)) for x in S.members))
                    base = is_S_J_ideal(ring, I, S, jacobson=ctx.jac,
                                        lattice=ctx.lattice)
                    up = is_S_J_ideal(trunc, lift, sc, jacobson=tjac,
                                      lattice=tlat)
                    if base.verdict != up.verdict:
                        rep.violation(trunc, IdealSet(trunc, lift), sc, {
                            "base_ring": ctx.expr,
                            "base_verdict": base.verdict,
                            "lifted_verdict": up.verdict})


def _p19(corpus, rep):
    rep.notes["out_of_scope"] = ("the statement quantifies over a full "
                                 "polynomial ring, which is infinite; no "
                                 "finite instance represents it faithfully")


def _p20(corpus, rep):
    # trivial-extension equivalence: I+M works iff I works
    for ctx in corpus.contexts:
        if not ctx.comm_ident or ctx.family != "zn":
            continue
        ring, n = ctx.ring, ctx.ring.size
        ks = [k for k in _divisors(n) if k >= 2 and n * k <= IDEALIZE_CAP]
        picks = []
        if ks:
            picks.append(ks[0])
            if len(ks) > 1:
                picks.append(ks[-1])
        for k in dict.fromkeys(picks):
            ext = make_idealization(ring, make_cyclic_module(ring, k),
                                    label="idealize(%s, %d)" % (ctx.expr, k))
            elat = enumerate_ideals(ext)
            ejac = jacobson_radical(ext, elat)
            for I in ctx.ideals:
                emask = np.zeros(ext.size, dtype=bool)
                emask[(I.members[:, None] * k
                       + np.arange(k)[None, :]).ravel()] = True
                for S in ctx.subsets:
                    if not _disjoint(I, S):
                        rep.vacuous += 1
                        continue
                    rep.tested += 1
                    se = subset_idealization(S, ext)
                    se.label = "mulclosed(%s)" % ", ".join(
                        ext.element_label(int(x)) for x in se.members)
                    base = is_S_J_ideal(ring, I, S, jacobson=ctx.jac,
                                        lattice=ctx.lattice)
                    up = is_S_J_ideal(ext, emask, se, jacobson=ejac,
                                      lattice=elat)
                    if base.verdict != up.verdict:
                        rep.violation(ext, IdealSet(ext, emask), se, {
                            "base_ring": ctx.expr,
                            "base_verdict": base.verdict,
                            "extension_verdict": up.verdict})


def _p21(corpus, rep):
    # trivial extension, proper submodule: the law for I+N forces it for I
    for ctx in corpus.contexts:
        if not ctx.comm_ident or ctx.family != "zn":
            continue
        ring, n = ctx.ring, ctx.ring.size
        ks = [k for k in _divisors(n) if k >= 2 and n * k <= IDEALIZE_CAP]
        for k in ks[-1:]:
            ext = make_idealization(ring, make_cyclic_module(ring, k),
                                    label="idealize(%s, %d)" % (ctx.expr, k))
            elat = enumerate_ideals(ext)
            ejac = jacobson_radical(ext, elat)
            for I in ctx.ideals:
                prods = (I.members[:, None] * np.arange(k)[None, :]) % k
                for t in _divisors(k):
                    nmem = np.arange(0, k, t, dtype=np.int64)
                    nmask = np.zeros(k, dtype=bool)
                    nmask[nmem] = True
                    if not nmask[prods].all():
                        continue
                    emask = np.zeros(ext.size, dtype=bool)
                    emask[(I.members[:, None] * k
                           + nmem[None, :]).ravel()] = True
                    for S in ctx.subsets:
                        if not _disjoint(I, S):
                            rep.vacuous += 1
                            continue
                        se = subset_idealization(S, ext)
                        se.label = "mulclosed(%s)" % ", ".join(
                            ext.element_label(int(x)) for x in se.members)
                        up = is_S_J_ideal(ext, emask, se, jacobson=ejac,
                                          lattice=elat)
                        if not up.verdict:
                            rep.vacuous += 1
                            continue
                        rep.tested += 1
                        base = is_S_J_ideal(ring, I, S, jacobson=ctx.jac,
                                            lattice=ctx.lattice)
                        if not base.verdict:
                            rep.violation(ext, IdealSet(ext, emask), se, {
                                "base_ring": ctx.expr,
                                "submodule_index": t,
                                "base_check": _labeled_result(ring, base)})


def _p22(corpus, rep):
    # amalgamation transfer: down always, up when J sits in the target
    # radical (the corpus guarantees it does)
    for ctx in corpus.contexts:
        if ctx.family != "amalgamation":
            continue
        amalg = ctx.ring
        base_expr = "Z%d" % amalg.base.size
        base_ctx = next((c for c in corpus.contexts
                         if c.expr == base_expr), None)
        if base_ctx is None:
            continue
        bring = amalg.base
        blat = enumerate_ideals(bring)
        bjac = jacobson_radical(bring, blat)
        nj = len(amalg.jmembers)
        for I in base_ctx.ideals:
            amask = np.zeros(amalg.size, dtype=bool)
            amask[(I.members[:, None] * nj
                   + np.arange(nj)[None, :]).ravel()] = True
            for S in base_ctx.subsets:
                if not _disjoint(I, S):
                    rep.vacuous += 1
                    continue
                rep.tested += 1
                sb = SubsetS(bring, S.members, kind=S.kind, check=False,
                             label=S.label)
                sa = subset_amalgamation(sb, amalg)
                sa.label = "mulclosed(%s)" % ", ".join(
                    amalg.element_label(int(x)) for x in sa.members)
                base = is_S_J_ideal(bring, IdealSet(bring, I.mask), sb,
                                    jacobson=bjac, lattice=blat)
                up = is_S_J_ideal(amalg, amask, sa, jacobson=ctx.jac,
                                  lattice=ctx.lattice)
                if base.verdict != up.verdict:
                    rep.violation(amalg, IdealSet(amalg, amask), sa, {
                        "base_ring": base_expr,
                        "base_verdict": base.verdict,
                        "amalgamation_verdict": up.verdict})


def _p23(corpus, rep):
    # three faces of the right-sided law: full ideal pairs, principal
    # pairs, and the elementwise two-sided form
    for ctx in corpus.contexts:
        if not ctx.ident:
            continue
        ring, lattice = ctx.ring, ctx.lattice
        prod = lattice.prod
        jidx = lattice.idx_of(ctx.jac)
        prin = np.unique(lattice.principal_of)
        for P in ctx.ideals:
            pidx = lattice.idx_of(P)
            hyp = lattice.leq[prod, pidx]
            hyp_pr = hyp[np.ix_(prin, prin)]
            for S in ctx.subsets:
                if not _disjoint(P, S):
                    rep.vacuous += 1
                    continue
                rep.tested += 1
                full = is_right_S_J_ideal(ring, P, S, lattice=lattice,
                                          jacobson=ctx.jac)
                pair = False
                for s in S.members:
                    col = prod[:, lattice.principal_of[int(s)]]
                    a_ok = lattice.leq[col, jidx][prin]
                    b_ok = lattice.leq[col, pidx][prin]
                    if _first_violation(hyp_pr, a_ok, b_ok) is None:
                        pair = True
                        break
                verdicts = {"ideal_pairs": full.verdict,
                            "principal_pairs": pair}
                if ring.size <= ELEMENTWISE_LIMIT:
                    el = is_right_S_J_ideal(ring, P, S, lattice=lattice,
                                            jacobson=ctx.jac,
                                            method="elementwise")
                    verdicts["elementwise"] = el.verdict
                if len(set(verdicts.values())) > 1:
                    rep.violation(ring, P, S, verdicts)


def _p24(corpus, rep):
    # on commutative identity rings the elementwise and right-sided
    # definitions agree
    for ctx in corpus.contexts:
        if not ctx.comm_ident:
            continue
        ring = ctx.ring
        for P in ctx.ideals:
            for S in ctx.subsets:
                if not _disjoint(P, S):
                    rep.vacuous += 1
                    continue
                rep.tested += 1
                left = is_S_J_ideal(ring, P, S, jacobson=ctx.jac,
                                    lattice=ctx.lattice)
                right = is_right_S_J_ideal(ring, P, S, lattice=ctx.lattice,
                                           jacobson=ctx.jac)
                if left.verdict != right.verdict:
                    rep.violation(ring, P, S, {
                        "elementwise": _labeled_result(ring, left),
                        "ideal_pairs": _labeled_result(ring, right)})


def _p25(corpus, rep):
    # right subset-prime ideals inside the radical satisfy the right law
    for ctx in corpus.contexts:
        ring = ctx.ring
        for P in ctx.ideals:
            inside = not (P.mask & ~ctx.jac.mask).any()
            for S in ctx.subsets:
                if not inside or not _disjoint(P, S):
                    rep.vacuous += 1
                    continue
                pr = is_right_S_prime(ring, P, S, lattice=ctx.lattice)
                if not pr.verdict:
                    rep.vacuous += 1
                    continue
                rep.tested += 1
                res = is_right_S_J_ideal(ring, P, S, lattice=ctx.lattice,
                                         jacobson=ctx.jac)
                if not res.verdict:
                    rep.violation(ring, P, S, {
                        "check": _labeled_result(ring, res)})


def _p26(corpus, rep):
    # (P : <s>) satisfies the right law for some s iff P does
    for ctx in corpus.contexts:
        if not ctx.ident:
            continue
        ring = ctx.ring
        for P in ctx.ideals:
            for S in ctx.subsets:
                if not _disjoint(P, S):
                    rep.vacuous += 1
                    continue
                rep.tested += 1
                rhs = is_right_S_J_ideal(ring, P, S, lattice=ctx.lattice,
                                         jacobson=ctx.jac)
                lhs = False
                for s in S.members:
                    q = colon_ideal_mask(ring, P.mask,
                                         ctx.lattice.principal(s))
                    if (q & S.mask).any() or q.all():
                        continue
                    if is_right_S_J_ideal(ring, q, S, lattice=ctx.lattice,
                                          jacobson=ctx.jac).verdict:
                        lhs = True
                        break
                if lhs != rhs.verdict:
                    rep.violation(ring, P, S, {
                        "colon_side": lhs, "direct_side": rhs.verdict})


def _p27(corpus, rep):
    # (P : <s>) being a radical-membership ideal certifies the right law
    for ctx in corpus.contexts:
        if not ctx.ident:
            continue
        ring = ctx.ring
        for P in ctx.ideals:
            for S in ctx.subsets:
                if not _disjoint(P, S):
                    rep.vacuous += 1
                    continue
                cert = None
                for s in S.members:
                    q = colon_ideal_mask(ring, P.mask,
                                         ctx.lattice.principal(s))
                    if q.all():
                        continue
                    if ctx.j_check(q).verdict:
                        cert = int(s)
                        break
                if cert is None:
                    rep.vacuous += 1
                    continue
                rep.tested += 1
                res = is_right_S_J_ideal(ring, P, S, lattice=ctx.lattice,
                                         jacobson=ctx.jac)
                if not res.verdict:
                    rep.violation(ring, P, S, {
                        "certifying_s": ring.element_label(cert),
                        "check": _labeled_result(ring, res)})


def _p28(corpus, rep):
    # converse of the colon certificate under central S and a stable
    # radical colon
    for ctx in corpus.contexts:
        if not ctx.ident:
            continue
        ring, jm = ctx.ring, ctx.jac.mask
        cmask = center_mask(ring)
        for S in ctx.subsets:
            if not cmask[S.members].all():
                rep.vacuous += 1
                continue
            good = []
            for s in S.members:
                qj = colon_ideal_mask(ring, jm, ctx.lattice.principal(s))
                if qj.all() or (qj & S.mask).any():
                    continue
                if ctx.j_check(qj).verdict:
                    good.append(int(s))
            if not good:
                rep.vacuous += 1
                continue
            for P in ctx.ideals:
                if not _disjoint(P, S):
                    rep.vacuous += 1
                    continue
                if not is_right_S_J_ideal(ring, P, S, lattice=ctx.lattice,
                                          jacobson=ctx.jac).verdict:
                    rep.vacuous += 1
                    continue
                rep.tested += 1
                for s in good:
                    q = colon_ideal_mask(ring, P.mask,
                                         ctx.lattice.principal(s))
                    if q.all() or not ctx.j_check(q).verdict:
                        rep.violation(ring, P, S, {
                            "s": ring.element_label(s),
                            "colon_is_whole_ring": bool(q.all())})
                        break


def _p29(corpus, rep):
    # right law pushes forward along surjections with kernel inside P
    for ctx in corpus.contexts:
        ring = ctx.ring
        for kernel, qring, hom, qlat, qjac in ctx.quotients:
            for P in ctx.ideals:
                if (kernel.mask & ~P.mask).any():
                    rep.vacuous += 1
                    continue
                for S in ctx.subsets:
                    if not _disjoint(P, S):
                        rep.vacuous += 1
                        continue
                    res = is_right_S_J_ideal(ring, P, S, lattice=ctx.lattice,
                                             jacobson=ctx.jac)
                    if not res.verdict:
                        rep.vacuous += 1
                        continue
                    rep.tested += 1
                    qmask = np.zeros(qring.size, dtype=bool)
                    qmask[hom.map[P.members]] = True
                    simg = subset_quotient_image(S, hom)
                    simg.label = "mulclosed(%s)" % ", ".join(
                        qring.element_label(int(m)) for m in simg.members)
                    if (qmask & simg.mask).any():
                        rep.violation(ring, P, S, {
                            "part": "image-meets-image-subset",
                            "quotient": qring.label})
                        continue
                    qres = is_right_S_J_ideal(qring, qmask, simg,
                                              lattice=qlat, jacobson=qjac)
                    if not qres.verdict:
                        rep.violation(ring, P, S, {
                            "quotient": qring.label,
                            "image_check": _labeled_result(qring, qres)})


def _p30(corpus, rep):
    # right law pulls back when the kernel sits in both P and the radical
    for ctx in corpus.contexts:
        ring, jm = ctx.ring, ctx.jac.mask
        for kernel, qring, hom, qlat, qjac in ctx.quotients:
            if (kernel.mask & ~jm).any():
                continue
            for P in ctx.ideals:
                if (kernel.mask & ~P.mask).any():
                    rep.vacuous += 1
                    continue
                for S in ctx.subsets:
                    if not _disjoint(P, S):
                        rep.vacuous += 1
                        continue
                    qmask = np.zeros(qring.size, dtype=bool)
                    qmask[hom.map[P.members]] = True
                    simg = subset_quotient_image(S, hom)
                    simg.label = "mulclosed(%s)" % ", ".join(
                        qring.element_label(int(m)) for m in simg.members)
                    if (qmask & simg.mask).any():
                        rep.vacuous += 1
                        continue
                    qres = is_right_S_J_ideal(qring, qmask, simg,
                                              lattice=qlat, jacobson=qjac)
                    if not qres.verdict:
                        rep.vacuous += 1
                        continue
                    rep.tested += 1
                    res = is_right_S_J_ideal(ring, P, S, lattice=ctx.lattice,
                                             jacobson=ctx.jac)
                    if not res.verdict:
                        rep.violation(ring, P, S, {
                            "quotient": qring.label,
                            "base_check": _labeled_result(ring, res)})


def _p31(corpus, rep):
    # with (J(R) : <s>) = J(R): witness s for the right law iff P sits
    # in the colon and the elementwise two-sided form holds through the
    # maximal-intersection radical
    for ctx in corpus.contexts:
        if not ctx.ident:
            continue
        ring, lattice, jm = ctx.ring, ctx.lattice, ctx.jac.mask
        jidx = lattice.idx_of(ctx.jac)
        for P in ctx.ideals:
            pidx = lattice.idx_of(P)
            hyp = lattice.leq[lattice.prod, pidx]
            jstar = None
            for S in ctx.subsets:
                if not _disjoint(P, S):
                    rep.vacuous += 1
                    continue
                good = [int(s) for s in S.members
                        if np.array_equal(
                            colon_ideal_mask(ring, jm, lattice.principal(s)),
                            jm)]
                if not good:
                    rep.vacuous += 1
                    continue
                if jstar is None:
                    jstar = j_star(ring, P, lattice)
                rep.tested += 1
                for s in good:
                    lhs = _right_witness(lattice, hyp, pidx, jidx, s)
                    sgen = lattice.principal(s)
                    contain = not (P.mask & ~colon_ideal_mask(
                        ring, jm, sgen)).any()
                    a_skip = colon_ideal_mask(ring, jstar.mask, sgen)
                    b_skip = colon_ideal_mask(ring, P.mask, sgen)
                    pair_ok = _arb_violation(ring, P.mask, a_skip,
                                             b_skip) is None
                    rhs = contain and pair_ok
                    if lhs != rhs:
                        rep.violation(ring, P, S, {
                            "s": ring.element_label(s),
                            "witness": lhs, "rewritten_form": rhs})
                        break


def _p32(corpus, rep):
    # right law puts P inside (J(R) : <s>); on the radical itself the
    # right law and right subset-primeness coincide
    for ctx in corpus.contexts:
        if not ctx.ident:
            continue
        ring, jm = ctx.ring, ctx.jac.mask
        for P in ctx.ideals:
            for S in ctx.subsets:
                if not _disjoint(P, S):
                    rep.vacuous += 1
                    continue
                res = is_right_S_J_ideal(ring, P, S, lattice=ctx.lattice,
                                         jacobson=ctx.jac)
                if res.verdict:
                    rep.tested += 1
                    ok = any(
                        not (P.mask & ~colon_ideal_mask(
                            ring, jm, ctx.lattice.principal(s))).any()
                        for s in S.members)
                    if not ok:
                        rep.violation(ring, P, S, {
                            "part": "no-colon-container"})
                else:
                    rep.vacuous += 1
        if ctx.jac.is_proper:
            for S in ctx.subsets:
                if not _disjoint(ctx.jac, S):
                    rep.vacuous += 1
                    continue
                rep.tested += 1
                rj = is_right_S_J_ideal(ring, ctx.jac, S,
                                        lattice=ctx.lattice, jacobson=ctx.jac)
                rp = is_right_S_prime(ring, ctx.jac, S, lattice=ctx.lattice)
                if rj.verdict != rp.verdict:
                    rep.violation(ring, ctx.jac, S, {
                        "part": "radical-right-law-vs-right-prime",
                        "right_law": _labeled_result(ring, rj),
                        "right_prime": _labeled_result(ring, rp)})


def _p33(corpus, rep):
    # in a local identity ring with a radical-membership colon, every
    # ideal satisfying the right law is superfluous
    for ctx in corpus.contexts:
        if not ctx.ident:
            continue
        ring, lattice, jm = ctx.ring, ctx.lattice, ctx.jac.mask
        if len(lattice.maximal_indices()) != 1:
            continue
        for S in ctx.subsets:
            good = False
            for s in S.members:
                q = colon_ideal_mask(ring, jm, lattice.principal(s))
                if not q.all() and ctx.j_check(q).verdict:
                    good = True
                    break
            if not good:
                rep.vacuous += 1
                continue
            for P in ctx.ideals:
                if not _disjoint(P, S):
                    rep.vacuous += 1
                    continue
                if not is_right_S_J_ideal(ring, P, S, lattice=ctx.lattice,
                                          jacobson=ctx.jac).verdict:
                    rep.vacuous += 1
                    continue
                rep.tested += 1
                if not lattice.is_superfluous_idx(lattice.idx_of(P)):
                    rep.violation(ring, P, S, {"part": "not-superfluous"})


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Law:
    id: str
    citation: str
    statement: str
    check: object
    gating: bool = True


REGISTRY = [
    Law("P1", "s-j-containment-in-colon",
        "a fixed witness s forces I inside (J(R) : s)", _p1),
    Law("P2", "j-ideal-inside-radical",
        "radical-membership ideals sit inside J(R)", _p2),
    Law("P3", "s-j-three-part-collapse",
        "nilradical-relative implies radical-relative; J(R) satisfies the "
        "law iff it is subset-prime", _p3),
    Law("P4", "s-j-ideal-pair-form",
        "elementwise law equals the ideal-pair law, witness by witness",
        _p4),
    Law("P5", "colon-j-ideal-criterion",
        "(I : s) radical-membership certifies s; converse under a "
        "radical-membership J(R) disjoint from S", _p5),
    Law("P6", "colon-containment-form-a",
        "witness s iff (I : a) lies in (J(R) : s) for all a outside "
        "(I : s)", _p6),
    Law("P7", "colon-containment-form-b",
        "witness s iff (I : b) lies in (I : s) for all b outside "
        "(J(R) : s)", _p7),
    Law("P8", "s-j-ideal-as-ring",
        "colon-stable ideals of an ideal-as-ring inherit the law", _p8),
    Law("P9", "s-finite-degenerate-true",
        "maximal-intersection ideals with the law make J(R) "
        "subset-finite", _p9),
    Law("P10", "s-finite-cancellation",
        "cancellation through an ideal outside every (J(R) : s)", _p10),
    Law("P11", "colon-by-subset-witness-carry",
        "colons of law-satisfying ideals keep the quantifier form", _p11),
    Law("P12", "maximal-s-j-prime",
        "maximal-for-the-law ideals are prime; primes equal to "
        "(J(R) : s) are maximal for the law", _p12),
    Law("P13", "stable-radical-colon-form",
        "with (J(R) : s) = J(R), the law rewrites through the "
        "maximal-intersection radical", _p13),
    Law("P14", "s-j-epimorphism-transfer",
        "the law transfers along surjections in both directions", _p14),
    Law("P15", "s-j-quotient-correspondence",
        "quotient correspondence for the law", _p15),
    Law("P16", "s-j-intersection-of-two",
        "intersections of law-satisfying ideals satisfy the law", _p16),
    Law("P17", "s-j-product-componentwise",
        "componentwise law on direct products", _p17),
    Law("P18", "trunc-poly-analog",
        "truncated-polynomial analog of the power-series transfer", _p18,
        gating=False),
    Law("P19", "polynomial-ring-out-of-scope",
        "polynomial-ring transfer: out of scope for finite rings", _p19,
        gating=False),
    Law("P20", "idealization-equivalence",
        "trivial-extension equivalence of the law", _p20),
    Law("P21", "idealization-forward",
        "trivial extension with a proper submodule implies the base law",
        _p21),
    Law("P22", "amalgamation-transfer",
        "amalgamation transfer when J sits inside the target radical",
        _p22),
    Law("P23", "right-s-j-pairwise-equivalences",
        "ideal-pair, principal-pair, and elementwise right forms agree",
        _p23),
    Law("P24", "commutative-right-left-agreement",
        "elementwise and right-sided definitions agree on commutative "
        "identity rings", _p24),
    Law("P25", "right-s-prime-inside-radical",
        "right subset-prime ideals inside the radical satisfy the right "
        "law", _p25),
    Law("P26", "right-s-j-principal-colon",
        "(P : <s>) satisfies the right law for some s iff P does", _p26),
    Law("P27", "principal-colon-j-ideal-forward",
        "a radical-membership (P : <s>) certifies the right law", _p27),
    Law("P28", "principal-colon-j-ideal-converse",
        "the colon certificate converse under central S", _p28),
    Law("P29", "right-s-j-epi-image",
        "right law pushes forward along surjections", _p29),
    Law("P30", "right-s-j-epi-preimage",
        "right law pulls back along surjections with small kernel", _p30),
    Law("P31", "right-s-j-stable-radical-form",
        "stable-colon rewriting of the right law", _p31),
    Law("P32", "right-s-j-radical-prime-agreement",
        "right law bounds P by (J(R) : <s>); on J(R) it matches right "
        "subset-primeness", _p32),
    Law("P33", "local-superfluous-right-s-j",
        "in local rings with a radical-membership colon, right-law "
        "ideals are superfluous", _p33),
]

GATED_IDS = tuple(l.id for l in REGISTRY if l.gating)


def verify_properties(corpus=None, ids=None, threads=None):
    """Run the registry (or a subset) and return reports in registry
    order.  Reports are plain dicts ready for JSON serialization."""
    if corpus is None:
        corpus = build_corpus()
    laws = [l for l in REGISTRY if ids is None or l.id in set(ids)]
    if ids is not None:
        known = {l.id for l in REGISTRY}
        bad = sorted(set(ids) - known)
        if bad:
            raise InvalidParameter("unknown property ids", ids=bad)
    workers = threads or default_threads()

    def run(law):
        rep = _Rep()
        law.check(corpus, rep)
        out = {
            "property_id": law.id,
            "citation": law.citation,
            "tested": rep.tested,
            "vacuous": rep.vacuous,
            "passed": rep.tested - rep.violated,
            "violated": rep.violated,
            "violations": rep.violations,
        }
        if not law.gating:
            rep.notes.setdefault("non_gating", True)
        if rep.notes:
            out["note"] = rep.notes
        return out

    if workers == 1 or len(laws) == 1:
        return [run(law) for law in laws]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(run, laws))


def gate_passed(reports):
    gated = set(GATED_IDS)
    return all(r["violated"] == 0 for r in reports
               if r["property_id"] in gated)


def report_json(reports):
    return json.dumps(reports, indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# worked examples
# ---------------------------------------------------------------------------

def _mask_from_base(size, base_mask, coords):
    out = np.ones(size, dtype=bool)
    for c in coords:
        out &= base_mask[c]
    return out


def run_worked_examples():
    """Reproduce the five worked examples with exact expected verdicts."""
    out = []

    # E1: Z36, I = <4>, S = {1, 3, 9, 27}
    r36 = build_ring(parse_ring_expr("Z36"))
    lat36 = enumerate_ideals(r36)
    jac36 = jacobson_radical(r36, lat36)
    i4 = IdealSet(r36, ideal_generate(r36, [4]), label="gen(4)")
    s_named = SubsetS(r36, [1, 3, 9, 27], label="mulclosed(1, 3, 9, 27)")
    plain = is_J_ideal(r36, i4, jacobson=jac36, lattice=lat36)
    rel = is_S_J_ideal(r36, i4, s_named, jacobson=jac36, lattice=lat36)
    ok = (not plain.verdict and plain.counterexample == (2, 2)
          and rel.verdict and rel.witness_s == 3)
    # the chosen witness must replay: no violating pair for s = 3
    hyp = _product_hyp_matrix(r36, i4.mask)
    row = r36.mul_vec(np.int64(3), r36.elements)
    ok = ok and _first_violation(hyp, jac36.mask[row], i4.mask[row]) is None
    out.append({"id": "E1", "passed": bool(ok),
                "description": "Z36: gen(4) fails the plain radical-"
                               "membership law at (2, 2) but holds the "
                               "subset form with witness 3",
                "details": {"plain": _labeled_result(r36, plain),
                            "subset_form": _labeled_result(r36, rel)}})

    # E2: product counterexample; fails for every s, with ((2,1),(2,1))
    prod = build_ring(parse_ring_expr("Z36 x Z36"))
    plat = enumerate_ideals(prod)
    pjac = jacobson_radical(prod, plat)
    n2 = 36
    imask = np.zeros(prod.size, dtype=bool)
    imask[(i4.members[:, None] * n2 + np.arange(n2)[None, :]).ravel()] = True
    smem = [int(a) * n2 + int(b)
            for a in s_named.members for b in s_named.members]
    s_prod = SubsetS(prod, smem, label="mulclosed-product")
    res = is_S_J_ideal(prod, imask, s_prod, jacobson=pjac, lattice=plat)
    pair = 2 * n2 + 1    # the element (2, 1)
    ok = not res.verdict and res.counterexample is not None
    covered = {entry[0] for entry in (res.counterexample or ())}
    ok = ok and covered == {int(x) for x in s_prod.members}
    hyp = _product_hyp_matrix(prod, imask)
    for s in s_prod.members:
        row = prod.mul_vec(np.int64(int(s)), prod.elements)
        ok = ok and bool(hyp[pair, pair]) \
            and not pjac.mask[row[pair]] and not imask[row[pair]]
    out.append({"id": "E2", "passed": bool(ok),
                "description": "gen(4) x Z36 fails the product law for "
                               "every s; ((2, 1), (2, 1)) violates each",
                "details": {"check": _labeled_result(prod, res)}})

    # E3: Z36 x Z8 with S1 x {0, 2, 4} is a true instance
    prod38 = build_ring(parse_ring_expr("Z36 x Z8"))
    plat38 = enumerate_ideals(prod38)
    pjac38 = jacobson_radical(prod38, plat38)
    imask38 = np.zeros(prod38.size, dtype=bool)
    imask38[(i4.members[:, None] * 8 + np.arange(8)[None, :]).ravel()] = True
    smem38 = [int(a) * 8 + b for a in s_named.members for b in (0, 2, 4)]
    s38 = SubsetS(prod38, smem38, label="mulclosed-product")
    res38 = is_S_J_ideal(prod38, imask38, s38, jacobson=pjac38,
                         lattice=plat38)
    ok = bool(res38.verdict)
    if ok:
        hyp = _product_hyp_matrix(prod38, imask38)
        row = prod38.mul_vec(np.int64(int(res38.witness_s)),
                             prod38.elements)
        ok = _first_violation(hyp, pjac38.mask[row],
                              imask38[row]) is None
    out.append({"id": "E3", "passed": bool(ok),
                "description": "gen(4) x Z8 with the paired subset "
                               "satisfies the product law",
                "details": {"check": _labeled_result(prod38, res38)}})

    # E4: M2(Z12), P = M2(<4>), S = scalar {1, 3, 9}
    m12 = build_ring(parse_ring_expr("M(2, Z12)"))
    lat12 = enumerate_ideals(m12)
    jac12 = jacobson_radical(m12, lat12)
    digits = np.arange(m12.size)
    coords = []
    for _ in range(4):
        coords.append(digits % 12)
        digits = digits // 12
    four = np.zeros(12, dtype=bool)
    four[[0, 4, 8]] = True
    pmask = _mask_from_base(m12.size, four, coords)
    smem = [s * 12 ** 3 + s for s in (1, 3, 9)]
    s_r = SubsetS(m12, smem, kind="msystem", label="scalar(1, 3, 9)")
    plain = is_J_ideal(m12, pmask, jacobson=jac12, lattice=lat12)
    rel = is_right_S_J_ideal(m12, pmask, s_r, lattice=lat12, jacobson=jac12)
    three_i = 3 * 12 ** 3 + 3
    ok = (not plain.verdict and rel.verdict
          and int(rel.witness_s) in (three_i, 9 * 12 ** 3 + 9))
    # 3I replays as a witness through the lattice scan
    pidx = lat12.idx_of(IdealSet(m12, pmask))
    jidx = lat12.idx_of(jac12)
    hyp_m = lat12.leq[lat12.prod, pidx]
    ok = ok and _right_witness(lat12, hyp_m, pidx, jidx, three_i)
    out.append({"id": "E4", "passed": bool(ok),
                "description": "M2(Z12): the scalar-subset right law "
                               "holds for M2(gen(4)) with witness 3I, "
                               "though the plain law fails",
                "details": {"plain": _labeled_result(m12, plain),
                            "right_form": _labeled_result(m12, rel)}})

    # E5: radical values on the three rings above
    jac_z36 = np.zeros(36, dtype=bool)
    jac_z36[::6] = True
    six = np.zeros(12, dtype=bool)
    six[[0, 6]] = True
    expect_m12 = _mask_from_base(m12.size, six, coords)
    expect_prod = np.zeros(prod38.size, dtype=bool)
    for a in range(0, 36, 6):
        for b in range(0, 8, 2):
            expect_prod[a * 8 + b] = True
    ok = (np.array_equal(jac36.mask, jac_z36)
          and np.array_equal(jac12.mask, expect_m12)
          and np.array_equal(pjac38.mask, expect_prod))
    out.append({"id": "E5", "passed": bool(ok),
                "description": "radicals: J(Z36) = gen(6), J(M2(Z12)) = "
                               "M2(gen(6)), J(Z36 x Z8) = gen(6) x gen(2)",
                "details": {}})

    return {"examples": out, "passed": all(e["passed"] for e in out)}
