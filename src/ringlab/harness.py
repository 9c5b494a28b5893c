"""Law verification harness.

Thirty-three numbered laws about radical-relative ideal classes are run
over a corpus of small finite rings.  Each law filters instances by its
hypotheses (vacuous instances are counted separately), evaluates the
conclusion, and reports violations as fully replayable payloads: ring
expression, ideal generators, subset spec, quantifier mode, and a
labeled counterexample.

Each corpus ring is a ``RingCtx``: the ring with its ideal lattice, its
radicals, the picked ideals, subsets and quotients, and one owner per
fact that several laws share:

* ``violations``: one table per ideal mask, keyed by subset, of the
  fixed-s subset-radical verdict and its witness vector, which ``sj``,
  ``sj_witnesses`` and P11 read; ``sj`` and ``sj_witnesses`` check their
  arguments once per (IdealSet, SubsetS) pair;
* ``hyp``: the product relation (ab inside I) of a mask, read by the
  violation tables, P3 and P6/P7;
* ``two_sided``: the aRb-inside-I relation that P13, P23 and P31 scan;
* ``lattice_rel``: the lattice relation (AB inside I) of an ideal, read
  by P4, P23 and P31;
* ``jstar``: J*(I), the intersection of the maximal ideals above I;
* ``colon``, ``colon_principal`` and ``colon_idx`` (the lattice index of
  (I : s), read by P4, P12 and P13);
* ``right_sj``, ``j_check`` and ``pairs``.

Each is computed once through ``memo.once`` into the context's one
``memo``.  A law that quantifies over s scans all its s-rows in one
batch, never one scan per s; P4 and P23 scan those of every subset an
ideal misses at once.

A law states its hypotheses and its conclusion, and its ``_Rep`` counts
the instances: ``rep.keep(holds)`` counts a vacuous one when a
hypothesis fails, and ``rep.given(holds)`` a tested or a vacuous one by
the last hypothesis.  ``_pairs(rep, ideals, subsets)`` streams the (I, S)
instances with I missing S, counting each other pair as vacuous;
``RingCtx.pairs`` lists the picked ones, and ``missed_by`` groups them
by ideal.

Every derived ring a law checks is a ``RingCtx`` too, made by
``_context`` with its lattice and radical and no picks, and every
verdict on it is asked of its ``sj``, ``right_sj`` or ``j_check``.  The
picked quotients (P14, P15, P29, P30) are built with their context, the
images of the context's subsets as their subsets, and the idealizations
(P20, P21) into its memo; the products (P17),
truncations (P18) and ideal-as-rings (P8) live only inside the law that
reads them.  A subset that P18 and P20-P22 carry into a derived ring is
built once, by that context's ``lift``.

A law is a scope plus a body that checks one context.  The scope names
the ``RingCtx`` flag a context needs (``comm_ident``, ``ident``, or None
for every context).  Only P17 and P22 read several contexts; their scope
is ``"corpus"`` and their body takes the corpus.  ``verify_properties``
runs those two first, then walks the contexts in corpus order and runs
each selected law in scope on each, into that law's own report.  When
the walk leaves a context it clears the memos of the context and of its
quotients, so the memos hold one context's facts at a time, those of
its derived rings included.

Reports are deterministic: the corpus is built in a fixed order, nothing
is random, everything runs on the calling thread, and each law sees the
contexts in corpus order.
"""

import json
from dataclasses import dataclass, field
from itertools import combinations
from typing import NamedTuple

import numpy as np

from .errors import CapacityExceeded, InvalidParameter, InvalidSubset
from .exprs import build_ring, parse_ring_expr
from .ideals import (
    IdealSet,
    colon_elem_mask,
    colon_ideal_mask,
    enumerate_ideals,
    ideal_generate,
    minimal_generating_set,
    unit_ideal,
)
from .memo import once, readonly
from .predicates import (
    ELEMENTWISE_LIMIT,
    Relation,
    first_violations,
    fixed_s_result,
    is_J_ideal,
    is_S_J_ideal,  # unused here; perfbench/tests reads harness.is_S_J_ideal
    is_right_S_J_ideal,
    is_right_S_prime,
    lattice_colon_rows,
    pair_scan,
    product_hyp_matrix,
    subset_args,
    two_sided_matrix,
    two_sided_violations,
)
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
    """1: verify_properties runs every law on the calling thread.  Kept
    for callers that record the thread count beside their timings."""
    return 1


# ---------------------------------------------------------------------------
# corpus
# ---------------------------------------------------------------------------

@dataclass
class RingCtx:
    expr: str
    ring: object
    family: str
    lattice: object = None
    jac: object = None
    beta: object = None
    ideals: tuple = ()
    subsets: tuple = ()
    quotients: tuple = ()
    skipped: str = ""
    # every fact below, keyed by (kind, ...); cleared when the registry
    # walk leaves this context
    memo: dict = field(default_factory=dict, init=False, repr=False,
                       compare=False)

    @property
    def comm_ident(self):
        return self.ring.commutative and self.ring.one is not None

    @property
    def ident(self):
        return self.ring.one is not None

    def pairs(self, rep):
        """The (I, S) instances of the picked ideals and subsets with I
        missing S, ideal-major; each other pair counts as vacuous, as in
        _pairs.  Which pairs miss is found once per context."""
        grid = once(self.memo, ("pairs",), lambda: [
            (I, S, _disjoint(I, S)) for I in self.ideals for S in self.subsets])
        return [(I, S) for I, S, missed in grid if rep.keep(missed)]

    def missed_by(self, rep):
        """pairs(rep) grouped: (I, the subsets I misses) per picked ideal
        that misses one."""
        groups = {}
        for I, S in self.pairs(rep):
            groups.setdefault(id(I), (I, []))[1].append(S)
        return list(groups.values())

    def sj(self, ideal, subset):
        """The fixed-s subset-radical verdict of an ideal or mask, from its
        violation table; its arguments are checked by the predicate's own
        subset_args, so it raises what is_S_J_ideal raises."""
        return self._checked(ideal, subset)[1]

    def sj_witnesses(self, ideal, subset):
        """wits[k]: is subset.members[k] a fixed witness of the subset-
        radical law for the ideal?  sj(ideal, subset) is read from the
        same table entry, so the two always agree."""
        return self._checked(ideal, subset)[0]

    def _checked(self, ideal, subset):
        """The violation-table entry of an ideal or mask and a subset,
        after subset_args.  For an IdealSet and a SubsetS the check passes
        once per pair of objects: the memo holds both, so their ids name
        them while the entry lives.  A bare mask or member list may change
        between calls, so it is checked on every call."""
        def entry():
            return self.violations(*subset_args(self.ring, ideal, subset,
                                                self.lattice, "fixed-s"))
        if not (isinstance(ideal, IdealSet) and isinstance(subset, SubsetS)):
            return entry()
        return once(self.memo, ("args", id(ideal), id(subset)),
                    lambda: (ideal, subset, entry()))[2]

    def violations(self, mask, subset):
        """The unchecked (wits, verdict) entry of a subset in an ideal
        mask's violation table.  A missing one is filled with those of the
        context subsets that miss the mask and are not in the table yet."""
        table = once(self.memo, ("sj", mask.tobytes()), dict)
        if subset.key not in table:
            todo = {subset.key: subset}
            todo.update((S.key, S) for S in self.subsets
                        if S.key not in table and not (S.mask & mask).any())
            table.update(_violation_table(self.ring, self, mask,
                                          todo.values()))
        return table[subset.key]

    def hyp(self, mask):
        """The product Relation (ab inside the ideal) of a mask on this
        context's ring, kept per mask; the violation table and P6/P7 read
        it."""
        return once(self.memo, ("hyp", mask.tobytes()),
                    lambda: product_hyp_matrix(self.ring, mask))

    def lattice_rel(self, ideal):
        """The dense Relation of the lattice (AB inside the ideal), the
        column leq[prod, i] of an ideal i, kept per ideal; P4, P23 and P31
        read it."""
        return once(self.memo, ("lattice_rel", ideal.key),
                    lambda: Relation.dense(self.lattice.leq[
                        self.lattice.prod, self.lattice.idx_of(ideal)]))

    def jstar(self, ideal):
        """J*(I), the intersection of the maximal ideals above an ideal,
        kept per ideal."""
        return once(self.memo, ("jstar", ideal.key),
                    lambda: j_star(self.ring, ideal, self.lattice))

    def right_sj(self, ideal, subset):
        """is_right_S_J_ideal (lattice method, fixed-s) against this
        context's radical, kept per (mask, subset)."""
        mask = getattr(ideal, "mask", ideal)
        return once(self.memo, ("right", mask.tobytes(), subset.key),
                    lambda: is_right_S_J_ideal(
                        self.ring, mask, subset, lattice=self.lattice,
                        jacobson=self.jac))

    def j_check(self, ideal):
        """is_J_ideal against this context's radical, kept per mask.

        The bare mask is checked, so each mask is validated as an ideal
        once, whichever caller reaches it first.
        """
        mask = getattr(ideal, "mask", ideal)
        return once(self.memo, ("j", mask.tobytes()), lambda: is_J_ideal(
            self.ring, mask, jacobson=self.jac, lattice=self.lattice))

    def two_sided(self, mask):
        """The Relation (aRb inside the ideal) of a mask on this context's
        ring, kept per mask; within PAIR_SCAN_LIMIT only."""
        return once(self.memo, ("two_sided", mask.tobytes()),
                    lambda: two_sided_matrix(self.ring, mask))

    def lift(self, subset, carry):
        """carry(subset): a subset of the ring this derived context is
        built from, carried to this context's ring and labeled by its
        members; built once per subset, so every law that lifts a subset
        into this context passes the same carry."""
        return once(self.memo, ("lift", subset.key),
                    lambda: _mulclosed(carry(subset)))

    def colon(self, mask, s):
        """(I : s) = {x : xs in I} of a mask on this context's ring, kept
        read-only per (mask, s)."""
        return once(self.memo, ("colon", mask.tobytes(), int(s)),
                    lambda: readonly(colon_elem_mask(self.ring, mask, s)))

    def colon_idx(self, mask, s):
        """The lattice index of (I : s), kept per (mask, s)."""
        return once(self.memo, ("colon_idx", mask.tobytes(), int(s)),
                    lambda: self.lattice.key_to_idx[
                        self.colon(mask, s).tobytes()])

    def colon_principal(self, mask, s):
        """(I : <s>) of a mask on this context's ring, kept read-only per
        (mask, <s>)."""
        sgen = self.lattice.principal(s)
        return once(self.memo, ("colon<>", mask.tobytes(), sgen.key),
                    lambda: readonly(colon_ideal_mask(self.ring, mask, sgen)))


def _violation_table(ring, ctx, imask, subsets):
    """{S.key: (wits, verdict)} of the fixed-s law for an ideal mask of ring
    = ctx.ring against ctx's radical, from the mask's kept hypothesis
    relation and one scan of the s-rows of every subset: wits[k] says
    whether members[k] is a witness; the verdict is the fixed-s
    predicate's.  The ring is ctx.ring, passed first as the ring a table
    answers for."""
    subsets = list(subsets)
    rows = ring.mul_table[np.concatenate([S.members for S in subsets])]
    found = first_violations(ctx.hyp(imask), ctx.jac.mask.take(rows),
                             imask.take(rows))
    out, lo = {}, 0
    for S in subsets:
        viols, lo = found[lo:lo + S.size], lo + S.size
        out[S.key] = (readonly(np.array([v is None for v in viols])),
                      fixed_s_result(S.members, viols))
    return out


class _Quotient(NamedTuple):
    """A picked quotient: the kernel (an ideal of the context ring, labeled
    by its generators), the surjection onto the quotient ring, and that
    ring as a context whose subsets are the images of the context's
    subsets, keyed in images by the subset they come from."""
    kernel: IdealSet
    hom: object
    ctx: RingCtx
    images: dict

    def image(self, subset):
        """The image of a context subset, labeled by its members."""
        return self.images[subset.key]

    def image_ideal(self, ideal):
        """The image of a context ideal, the quotient lattice's own
        IdealSet; looked up once per ideal."""
        def lookup():
            qmask = np.zeros(self.ctx.ring.size, dtype=bool)
            qmask[self.hom.map[ideal.members]] = True
            return self.ctx.lattice.ideals[self.ctx.lattice.idx_of(
                IdealSet(self.ctx.ring, qmask))]
        return once(self.ctx.memo, ("image_ideal", ideal.key), lookup)

    def image_verdict(self, ideal, subset, right=False):
        """ctx.sj, or with right=True ctx.right_sj, of the images of a
        context ideal and subset on the quotient; None if they meet."""
        qideal, simg = self.image_ideal(ideal), self.image(subset)
        if not _disjoint(qideal, simg):
            return None
        return (self.ctx.right_sj if right else self.ctx.sj)(qideal, simg)


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


def gens_label(ring, ideal):
    """``gen(...)`` of the ideal's minimal generators, as element labels."""
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
        for k in _idealize_orders(n):
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


def _idealize_orders(n):
    """The orders k >= 2 of the cyclic modules Z_k, k dividing n, by which
    Z_n is idealized within IDEALIZE_CAP, in increasing order."""
    return [k for k in _divisors(n) if k >= 2 and n * k <= IDEALIZE_CAP]


def _squarefree_radical(m):
    """The product of the primes dividing m."""
    return int(np.prod([p for p in _divisors(m) if len(_divisors(p)) == 2]))


def _pick_ideals(ctx):
    lattice, ring = ctx.lattice, ctx.ring
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
        if len(chosen) >= 4:
            break
        take(i)
    for i in reversed(proper):
        if len(chosen) >= 6:
            break
        take(i)
    return tuple(IdealSet(ring, idl.mask, label=gens_label(ring, idl))
                 for idl in chosen)


def _pick_subsets(ctx):
    ring, jmask = ctx.ring, ctx.jac.mask
    out = []
    keys = set()

    def take(sub):
        if sub is not None and sub.key not in keys and len(out) < 5:
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
        if len(out) >= 5 or picked >= 3:
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


def _pick_quotients(ctx):
    lattice, ring = ctx.lattice, ctx.ring
    picks = []
    keys = set()
    inside_jac = next((i for i in lattice.ideals
                       if i.is_proper and not i.is_zero
                       and not (i.mask & ~ctx.jac.mask).any()), None)
    smallest = next((i for i in lattice.ideals
                     if i.is_proper and not i.is_zero), None)
    for k in (inside_jac, smallest):
        if k is None or k.key in keys or len(picks) >= 2:
            continue
        keys.add(k.key)
        qring, hom = canonical_surjection(ring, k.mask)
        kernel = IdealSet(ring, k.mask, label=gens_label(ring, k))
        qring.label = "quot(%s, %s)" % (ring.label, kernel.label)
        qctx = _context(qring)
        images = {S.key: _mulclosed(subset_quotient_image(S, hom))
                  for S in ctx.subsets}
        qctx.subsets = tuple(images.values())
        picks.append(_Quotient(kernel, hom, qctx, images))
    return tuple(picks)


def _context(ring, expr=None, family="derived"):
    """The ring as a RingCtx with its ideal lattice and Jacobson radical
    and no picks; a derived ring's expr is its label."""
    ctx = RingCtx(expr=ring.label if expr is None else expr, ring=ring,
                  family=family)
    ctx.lattice = enumerate_ideals(ring)
    ctx.jac = jacobson_radical(ring, ctx.lattice)
    return ctx


def build_context(expr, family):
    ring = build_ring(parse_ring_expr(expr))
    try:
        ctx = _context(ring, expr, family)
    except CapacityExceeded as err:
        return RingCtx(expr=expr, ring=ring, family=family,
                       skipped="ideal lattice over budget: %s" % err.message)
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

    Entries of ``rings`` get the family ``custom``, and P17, P18 and
    P20-P22 read only the ``zn`` and ``amalgamation`` families: on Z4,
    Z6, Z8 and ``amalg(Z8, Z4, mod, gen(2))`` given as ``rings``, each
    reports 0 tested and 0 vacuous.
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
    """One law's report.  An instance is vacuous when a hypothesis of the
    law fails for it, and tested when every hypothesis holds and the
    conclusion was checked."""

    def __init__(self, notes=()):
        self.tested = 0
        self.vacuous = 0
        self.violated = 0
        self.violations = []
        self.notes = dict(notes)

    def keep(self, holds):
        """holds, a hypothesis of the instance; counted vacuous if false."""
        if not holds:
            self.vacuous += 1
        return holds

    def given(self, holds):
        """holds, the last hypothesis of the instance; counted tested if
        true, else vacuous."""
        if holds:
            self.tested += 1
        else:
            self.vacuous += 1
        return holds

    def violation(self, ring, ideal, subset, counterexample, mode="fixed-s"):
        self.violated += 1
        if len(self.violations) >= MAX_VIOLATIONS_KEPT:
            return
        if isinstance(ideal, IdealSet):
            gens = gens_label(ring, ideal)
        else:
            gens = ideal
        self.violations.append({
            "ring_expr": ring.label,
            "ideal_gens": gens,
            "subset": getattr(subset, "label", subset),
            "mode": mode,
            "counterexample": counterexample,
        })


def label_indices(ring, obj):
    """Map element indices inside a nested counterexample to labels."""
    if obj is None:
        return None
    if isinstance(obj, (int, np.integer)):
        return ring.element_label(int(obj))
    if isinstance(obj, (tuple, list)):
        return [label_indices(ring, x) for x in obj]
    return obj


def _labeled_result(ring, res):
    return {
        "verdict": bool(res.verdict),
        "witness_s": label_indices(ring, res.witness_s),
        "counterexample": label_indices(ring, res.counterexample),
        "quantifier_mode": res.quantifier_mode,
        "method": res.method,
    }


def _disjoint(ideal, subset):
    return not (ideal.mask & subset.mask).any()


def _pairs(rep, ideals, subsets):
    """The (I, S) instances with I missing S, ideal-major; each pair whose
    ideal meets its subset counts as vacuous."""
    return ((I, S) for I in ideals for S in subsets
            if rep.keep(_disjoint(I, S)))


def _mulclosed(subset):
    """Label a subset carried to a derived ring by its members."""
    subset.label = "mulclosed(%s)" % ", ".join(
        subset.ring.element_label(int(x)) for x in subset.members)
    return subset


def _block_mask(ring, rows, cols, width):
    """The mask of the elements rows[i] * width + cols[j]: a block of
    coordinates in a ring laid out as pairs."""
    mask = np.zeros(ring.size, dtype=bool)
    mask[(rows[:, None] * width + cols[None, :]).ravel()] = True
    return mask


# ---------------------------------------------------------------------------
# law checkers: each body checks one context (P17 and P22 the corpus)
# ---------------------------------------------------------------------------

def _p1(ctx, rep):
    # a fixed witness s forces the whole ideal into (J(R) : s)
    ring, jm = ctx.ring, ctx.jac.mask
    for I, S in ctx.pairs(rep):
        wits = ctx.sj_witnesses(I, S)
        if not rep.given(wits.any()):
            continue
        for s, ok in zip(S.members, wits):
            if not ok:
                continue
            colon = ctx.colon(jm, s)
            if (I.mask & ~colon).any():
                bad = int(np.flatnonzero(I.mask & ~colon)[0])
                rep.violation(ring, I, S, {
                    "witness_s": ring.element_label(int(s)),
                    "ideal_element_outside_colon": ring.element_label(bad)})
                break


def _p2(ctx, rep):
    # radical-membership ideals sit inside the radical
    ring = ctx.ring
    for I in ctx.ideals:
        if not rep.given(ctx.j_check(I).verdict):
            continue
        if (I.mask & ~ctx.jac.mask).any():
            bad = int(np.flatnonzero(I.mask & ~ctx.jac.mask)[0])
            rep.violation(ring, I, None,
                          {"element_outside_radical": ring.element_label(bad)})


def _p3(ctx, rep):
    # nilradical-relative implies radical-relative; radical ideal is
    # subset-radical iff subset-prime
    ring, bm = ctx.ring, ctx.beta[0].mask
    sub_free_done = set()
    for I, S in ctx.pairs(rep):
        rn = _fixed_s_scan(ctx, I.mask, bm, S)
        if rep.given(rn.verdict):
            rj = ctx.sj(I, S)
            if not rj.verdict:
                rep.violation(ring, I, S, {
                    "part": "subset-nilradical-but-not-subset-radical",
                    "nilradical_check": _labeled_result(ring, rn),
                    "radical_check": _labeled_result(ring, rj)})
        if I.key not in sub_free_done:
            sub_free_done.add(I.key)
            (n_viol,) = first_violations(ctx.hyp(I.mask), bm[None],
                                         I.mask[None])
            if rep.given(n_viol is None):
                j_res = ctx.j_check(I)
                if not j_res.verdict:
                    rep.violation(ring, I, None, {
                        "part": "nilradical-but-not-radical",
                        "counterexample":
                            label_indices(ring, j_res.counterexample)})
    _radical_vs_prime(ctx, rep, ctx.sj,
                      lambda J, S: _fixed_s_scan(ctx, J.mask, J.mask, S),
                      "radical-subset-radical-vs-subset-prime",
                      "subset_radical", "subset_prime")


def _fixed_s_scan(ctx, imask, amask, subset):
    """The fixed-s CheckResult of: some s of the subset has, whenever ab
    lies in the ideal, s*a in amask or s*b in the ideal; read through the
    ideal's kept hypothesis relation.  With amask the prime radical it is
    is_S_n_ideal, with amask the ideal is_S_prime, of a picked pair of a
    commutative ring with identity."""
    rows = ctx.ring.mul_table[subset.members]
    return pair_scan(ctx.hyp(imask), subset.members, amask.take(rows),
                     imask.take(rows), "fixed-s")


def _radical_vs_prime(ctx, rep, law, prime, part, law_key, prime_key):
    # on a proper J(R), for each subset J(R) misses: J(R) satisfies the
    # law (ctx.sj or ctx.right_sj) iff prime(J(R), S) holds
    ring = ctx.ring
    if not ctx.jac.is_proper:
        return
    for J, S in _pairs(rep, (ctx.jac,), ctx.subsets):
        rep.tested += 1
        rj, rp = law(J, S), prime(J, S)
        if rj.verdict != rp.verdict:
            rep.violation(ring, J, S, {
                "part": part,
                law_key: _labeled_result(ring, rj),
                prime_key: _labeled_result(ring, rp)})


def _p4(ctx, rep):
    # elementwise form agrees with the ideal-pair form, witness by witness
    ring, lattice, jm = ctx.ring, ctx.lattice, ctx.jac.mask
    for I, subsets in ctx.missed_by(rep):
        members = np.concatenate([S.members for S in subsets])
        # A*s lies in T iff A lies in the ideal (T : s)
        viols = first_violations(ctx.lattice_rel(I), *(lattice.leq[:, [
            ctx.colon_idx(t, s) for s in members]].T for t in (jm, I.mask)))
        lo = 0
        for S in subsets:
            rep.tested += 1
            for s, ok, v in zip(S.members, ctx.sj_witnesses(I, S),
                                viols[lo:lo + S.size]):
                if (v is None) != bool(ok):
                    rep.violation(ring, I, S, {
                        "s": ring.element_label(int(s)),
                        "elementwise_witness": bool(ok),
                        "ideal_pair_witness": v is None})
                    break
            lo += S.size


def _p5(ctx, rep):
    # (I : s) being a radical-membership ideal certifies the witness s;
    # conversely when J(R) is itself such an ideal and misses S
    ring, jm = ctx.ring, ctx.jac.mask
    jac_is_j = ctx.jac.is_proper and ctx.j_check(ctx.jac).verdict
    for I, S in ctx.pairs(rep):
        wits = ctx.sj_witnesses(I, S)
        conv = jac_is_j and not (jm & S.mask).any()
        colon_j = []
        for s in S.members:
            cmask = ctx.colon(I.mask, s)
            colon_j.append(not cmask.all() and ctx.j_check(cmask).verdict)
        if not rep.given(any(colon_j) or (conv and wits.any())):
            continue
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


def _class_colons(ctx, mask, subset):
    """Row k: the colon (T : s) of a mask, s = subset.members[k], on the
    unit-class representatives of a commutative ring; the product-table
    rows are gathered once per subset."""
    ring = ctx.ring
    rows = once(ctx.memo, ("class_rows", subset.key), lambda: ring.mul_table[
        np.ix_(subset.members, ring.unit_classes[1])])
    return mask.take(rows)


def _colon_unions(ctx, imask, skip):
    """Row k: the union of the colons (I : a) over the a outside the colon
    ideal whose class row is skip[k], as a class row.  On a commutative
    ring with identity, (I : ua) = (I : a) for a unit u, and a colon is an
    ideal, so a union of unit classes; H[c, d] of the product relation
    says whether class d lies in (I : a) for a in class c, so the union
    is one boolean matrix product."""
    return np.matmul(~skip, ctx.hyp(imask).H)


def _colon_form(ctx, rep, form_b):
    # form a (P6): witness s <=> (I : a) inside (J(R) : s) for every a
    # outside (I : s); form b (P7): witness s <=> (I : b) inside (I : s)
    # for every b outside (J(R) : s).  Every set is a union of unit
    # classes, read on their representatives for all s of S at once
    ring, jm = ctx.ring, ctx.jac.mask
    for I, S in ctx.pairs(rep):
        wits = ctx.sj_witnesses(I, S)
        rep.tested += 1
        skip, inner = (_class_colons(ctx, t, S)
                       for t in ((I.mask, jm) if form_b else (jm, I.mask)))
        rhs = ~(_colon_unions(ctx, I.mask, skip) & ~inner).any(axis=1)
        for s, w, r in zip(S.members, wits, rhs):
            if r != w:
                rep.violation(ring, I, S, {
                    "s": ring.element_label(int(s)),
                    "witness": bool(w), "colon_form": bool(r)})
                break


def _p6(ctx, rep):
    _colon_form(ctx, rep, form_b=False)


def _p7(ctx, rep):
    _colon_form(ctx, rep, form_b=True)


def _p8(ctx, rep):
    # inside an ideal viewed as a ring, colon-stable ideals inherit the
    # subset-radical law (radical of the small ring, same witness pool)
    ring = ctx.ring
    for I in ctx.ideals:
        if I.size < 2:
            continue
        sub = None
        for _, S in _pairs(rep, (I,), ctx.subsets):
            if not rep.keep(ctx.sj_witnesses(I, S).any()):
                continue
            if sub is None:
                sub = _context(make_ideal_as_ring(ring, I.mask))
                # the hypothesis relation of each colon-stable inner ideal
                hyps = [product_hyp_matrix(sub.ring, P.mask) if stable
                        else None for P, stable in zip(sub.lattice.ideals,
                                                       _colon_stable(sub))]
            rows = sub.ring.pos[ring.mul_table[np.ix_(S.members, I.members)]]
            for P, sub_hyp in zip(sub.lattice.ideals, hyps):
                if rep.given(sub_hyp is not None) and not pair_scan(
                        sub_hyp, S.members, sub.jac.mask[rows], P.mask[rows],
                        "fixed-s").verdict:
                    rep.violation(ring, I, S, {
                        "inner_ideal": [sub.ring.element_label(int(g))
                                        for g in P.members],
                        "note": "no member of S witnesses the law "
                                "inside the ideal-as-ring"})


def _colon_stable(sub):
    """Per ideal P of sub.lattice: is (P : m) = P for every nonzero m of
    the ring?  If a nonzero m lies in P, then (P : m) = {x : xm in P} is
    the whole ring, so a stable P holds no nonzero element unless it is
    the whole ring.  The whole ring is stable, and 0 is stable iff no
    nonzero m has a nonzero x with xm = 0; no other ideal is."""
    ring = sub.ring
    nonzero = np.flatnonzero(ring.elements != ring.zero)
    domain = not (ring.mul_table[np.ix_(nonzero, nonzero)] == ring.zero).any()
    return [bool(P.mask.all()) or (domain and P.is_zero)
            for P in sub.lattice.ideals]


def _p9(ctx, rep):
    # intersections of maximal ideals that satisfy the law force the
    # radical to be subset-finite (trivially true in finite rings)
    ring, jm = ctx.ring, ctx.jac.mask
    fmask = None
    fixed = [I for I in ctx.ideals
             if rep.keep(ctx.jstar(I).key == I.key)]
    for I, S in _pairs(rep, fixed, ctx.subsets):
        if not rep.given(ctx.sj_witnesses(I, S).any()):
            continue
        s = int(S.members.min())
        if fmask is None:
            fmask = ideal_generate(ring, minimal_generating_set(ctx.jac))
        js = ring.mul_vec(ctx.jac.members, np.int64(s))
        if not (fmask[js].all() and not (fmask & ~jm).any()):
            rep.violation(ring, I, S, {
                "note": "no finite sandwich for the radical",
                "s": ring.element_label(s)})


def _p10(ctx, rep):
    # cancellation against an ideal never inside (J(R) : s): equal
    # products force subset-finiteness (degenerate-true here)
    ring, lattice, jm = ctx.ring, ctx.lattice, ctx.jac.mask
    a_pool = list(ctx.ideals) + [unit_ideal(ring)]
    idx = [lattice.idx_of(I) for I in ctx.ideals]
    for S in ctx.subsets:
        s = int(S.members.min())
        sj = {I.key: ctx.sj_witnesses(I, S).any()
              for I in ctx.ideals if _disjoint(I, S)}
        # (I, its lattice index, the conclusion of both parts: does I*s
        # stay inside I?)
        picks = [(I, i, I.mask[ring.mul_vec(I.members, np.int64(s))].all())
                 for I, i in zip(ctx.ideals, idx)]
        missed = [pick for pick in picks if pick[0].key in sj]
        for A in a_pool:
            if not rep.keep(all((A.mask & ~ctx.colon(jm, t)).any()
                                for t in S.members)):
                continue
            prods = lattice.prod[lattice.idx_of(A)]
            for I, i, I_kept in picks:
                ai = prods[i]
                for J, j, J_kept in (missed if I.key in sj else ()):
                    if not rep.given(sj[I.key] and sj[J.key]
                                     and ai == prods[j]):
                        continue
                    if not J_kept:
                        rep.violation(ring, J, S, {
                            "note": "J*s escaped J",
                            "s": ring.element_label(s)})
                # part two: a subset-radical product AI bounds I
                ai_ideal = lattice.ideals[ai]
                if not (rep.keep(_disjoint(ai_ideal, S)) and rep.given(
                        ctx.sj_witnesses(ai_ideal, S).any())):
                    continue
                if not I_kept:
                    rep.violation(ring, I, S, {
                        "note": "I*s escaped I",
                        "s": ring.element_label(s)})


def _p11(ctx, rep):
    # the colon of a subset-radical ideal by any set X outside it keeps
    # the quantifier form of the law (disjointness tracked separately)
    ring = ctx.ring
    for I, S in ctx.pairs(rep):
        if not rep.keep(ctx.sj_witnesses(I, S).any()):
            continue
        outside = [int(x) for x in range(ring.size) if not I.mask[x]][:2]
        xsets = [[x] for x in outside] + [[int(x) for x in S.members]]
        for xs in xsets:
            cmask = np.logical_and.reduce(
                [ctx.colon(I.mask, x) for x in xs])
            rep.tested += 1
            if (cmask & S.mask).any():
                rep.notes["colon_meets_subset"] = \
                    rep.notes.get("colon_meets_subset", 0) + 1
            res = ctx.violations(cmask, S)[1]
            if not res.verdict:
                rep.violation(ring, I, S, {
                    "x_set": [ring.element_label(x) for x in xs],
                    "colon_check": _labeled_result(ring, res)})


def _p12(ctx, rep):
    # ideals maximal for the law are prime; primes equal to (J(R) : s)
    # are maximal for the law
    ring, lattice, jm = ctx.ring, ctx.lattice, ctx.jac.mask
    for S in ctx.subsets:
        colons = {ctx.colon_idx(jm, s) for s in S.members}
        sj_idx = [i for i, idl in enumerate(lattice.ideals)
                  if idl.is_proper and _disjoint(idl, S)
                  and ctx.sj_witnesses(idl, S).any()]
        if rep.given(sj_idx):
            maximal = [i for i in sj_idx
                       if not any(j != i and lattice.leq[i, j]
                                  for j in sj_idx)]
            for i in maximal:
                if not lattice.is_prime_idx(i):
                    rep.violation(ring, lattice.ideals[i], S, {
                        "part": "maximal-for-the-law-but-not-prime"})
        for i in range(len(lattice)):
            idl = lattice.ideals[i]
            if not lattice.is_prime_idx(i) or (idl.mask & S.mask).any() \
                    or i not in colons:
                continue
            rep.tested += 1
            others = [j for j in sj_idx if j != i and lattice.leq[i, j]]
            if i not in sj_idx or others:
                rep.violation(ring, idl, S, {
                    "part": "prime-colon-form-not-maximal",
                    "strictly_above": [
                        [ring.element_label(g) for g in
                         minimal_generating_set(lattice.ideals[j])]
                        for j in others]})


def _p13(ctx, rep):
    # when (J(R) : s) = J(R), the witness law rewrites through the
    # maximal-intersection radical of I
    jm, jidx = ctx.jac.mask, ctx.lattice.idx_of(ctx.jac)
    for I, S in ctx.pairs(rep):
        good = [(int(s), bool(w))
                for s, w in zip(S.members, ctx.sj_witnesses(I, S))
                if ctx.colon_idx(jm, s) == jidx]
        if rep.given(good):
            # ab in I forces a*s in J*(I) or b*s in I (aRb = abR here)
            _rewritten_form(ctx, rep, I, S, *zip(*good), ctx.colon)


def _rewritten_form(ctx, rep, I, S, ss, lhs, colon):
    """P13 and P31: each s of ss is a witness (its entry of lhs) iff I
    lies in colon(J(R), s) and aRb inside I forces a into colon(J*(I), s)
    or b into colon(I, s); the first s where the two differ is reported."""
    ring = ctx.ring
    a_skip, b_skip = (np.array([colon(t, s) for s in ss])
                      for t in (ctx.jstar(I).mask, I.mask))
    viols = two_sided_violations(ring, I.mask, a_skip, b_skip, ctx.two_sided)
    for s, w, v in zip(ss, lhs, viols):
        rhs = not (I.mask & ~colon(ctx.jac.mask, s)).any() and v is None
        if w != rhs:
            rep.violation(ring, I, S, {"s": ring.element_label(s),
                                       "witness": w, "rewritten_form": rhs})
            break


def _p14(ctx, rep):
    # the law transfers along surjections: forward when the kernel sits
    # inside the ideal, backward when it sits inside the radical
    ring, jm = ctx.ring, ctx.jac.mask
    for Q in ctx.quotients:
        kernel, qctx = Q.kernel, Q.ctx
        for S in ctx.subsets:
            simg = Q.image(S)
            for I, _ in _pairs(rep, ctx.ideals, (S,)):
                if (kernel.mask & ~I.mask).any() \
                        or not rep.given(ctx.sj(I, S).verdict):
                    continue
                qres = Q.image_verdict(I, S)
                if qres is None:
                    rep.violation(ring, I, S, {
                        "part": "image-meets-image-subset"})
                elif not qres.verdict:
                    rep.violation(ring, I, S, {
                        "part": "image-loses-the-law",
                        "quotient": qctx.expr,
                        "image_check": _labeled_result(qctx.ring, qres)})
            if (kernel.mask & ~jm).any():
                continue
            proper = [L for L in qctx.lattice.ideals if L.is_proper]
            for L, _ in _pairs(rep, proper, (simg,)):
                if not rep.given(qctx.sj(L, simg).verdict):
                    continue
                pre = L.mask[Q.hom.map]
                res = ctx.sj(pre, S)
                if not res.verdict:
                    rep.violation(ring, IdealSet(ring, pre), S, {
                        "part": "preimage-loses-the-law",
                        "quotient": qctx.expr,
                        "base_check": _labeled_result(ring, res)})


def _p15(ctx, rep):
    # quotient correspondence: the law passes to P2/P1 and, when P1 is
    # small enough (inside the radical, or radical-membership), back up
    ring, jm = ctx.ring, ctx.jac.mask
    for Q in ctx.quotients:
        k_in_jac = not (Q.kernel.mask & ~jm).any()
        k_is_j = ctx.j_check(Q.kernel).verdict
        uppers = [i for i in ctx.lattice.ideals
                  if i.is_proper and not (Q.kernel.mask & ~i.mask).any()]
        for S in ctx.subsets:
            for P2, _ in _pairs(rep, uppers, (S,)):
                down, up = ctx.sj(P2, S), Q.image_verdict(P2, S)
                up_lifts = (up is not None and up.verdict
                            and (k_in_jac or k_is_j))
                if not rep.given(down.verdict or up_lifts):
                    continue
                if down.verdict and (up is None or not up.verdict):
                    rep.violation(ring, P2, S, {
                        "part": "law-lost-in-quotient",
                        "quotient": Q.ctx.expr})
                if up_lifts and not down.verdict:
                    rep.violation(ring, P2, S, {
                        "part": "law-not-lifted-from-quotient",
                        "quotient": Q.ctx.expr,
                        "kernel_inside_radical": k_in_jac,
                        "kernel_is_radical_membership": k_is_j})


def _p16(ctx, rep):
    # the intersection of two ideals satisfying the law satisfies it
    ring = ctx.ring
    for S in ctx.subsets:
        holders = [I for I in ctx.ideals
                   if _disjoint(I, S) and ctx.sj(I, S).verdict]
        if not rep.keep(len(holders) >= 2):
            continue
        for I, J in combinations(holders, 2):
            rep.tested += 1
            mask = I.mask & J.mask
            res = ctx.sj(mask, S)
            if not res.verdict:
                rep.violation(ring, IdealSet(ring, mask), S, {
                    "intersection_of": [I.label, J.label],
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
        prod = _context(make_product(c1.ring, c2.ring,
                                     label="%s x %s" % (c1.expr, c2.expr)))
        pring, n1, n2 = prod.ring, c1.ring.size, c2.ring.size
        for first in (True, False):
            ca, cb = (c1, c2) if first else (c2, c1)
            for I, Sa in _pairs(rep, ca.ideals[:3], ca.subsets[:2]):
                comp = ca.sj(I, Sa)
                for Sb in cb.subsets[:2]:
                    rep.tested += 1
                    meets = bool((cb.jac.mask & Sb.mask).any())
                    if first:
                        s12 = subset_product(Sa, Sb, pring)
                        mask = _block_mask(pring, I.members,
                                           np.arange(n2), n2)
                    else:
                        s12 = subset_product(Sb, Sa, pring)
                        mask = _block_mask(pring, np.arange(n1),
                                           I.members, n2)
                    _mulclosed(s12)
                    whole = prod.sj(mask, s12)
                    expect = comp.verdict and meets
                    if whole.verdict != expect:
                        rep.violation(pring, IdealSet(pring, mask), s12, {
                            "component_ring": ca.expr,
                            "component_verdict": comp.verdict,
                            "radical_meets_other_subset": meets,
                            "product_verdict": whole.verdict})


def _p18(ctx, rep):
    # truncated-polynomial analog of the power-series transfer; reported
    # but non-gating
    if ctx.family != "zn" or ctx.ring.size > 8:
        return
    ring, jm = ctx.ring, ctx.jac.mask
    if not rep.keep(ctx.jac.is_proper and ctx.j_check(ctx.jac).verdict):
        return
    n = ring.size
    for d in (2, 3):
        trunc = _context(make_truncated_poly(
            ring, d, label="trunc(%s, %d)" % (ctx.expr, d)))
        coeffs = np.arange(trunc.ring.size)
        if not np.array_equal(trunc.jac.mask, jm[coeffs % n]):
            rep.tested += 1
            rep.violation(trunc.ring, trunc.jac, None, {
                "part": "radical-shape",
                "note": "radical of the truncated ring is not "
                        "constant-term-in-radical"})
            continue
        # a polynomial lies in I[x] iff each of its d coefficients is in I
        coords = [coeffs // n ** i % n for i in range(d)]
        _transfer(rep, ctx, trunc, "lifted",
                  lambda I: _mask_from_base(trunc.ring.size, I.mask, coords),
                  lambda S: subset_const_embed(S, trunc.ring))


def _transfer(rep, base, derived, kind, lift_ideal, lift_subset):
    # a picked (I, S) of the base context satisfies the law iff its lift
    # (lift_ideal(I), lift_subset(S)) does, named <kind>_verdict
    for I, S in base.pairs(rep):
        mask = lift_ideal(I)
        rep.tested += 1
        lifted = derived.lift(S, lift_subset)
        down, up = base.sj(I, S), derived.sj(mask, lifted)
        if down.verdict != up.verdict:
            rep.violation(derived.ring, IdealSet(derived.ring, mask), lifted, {
                "base_ring": base.expr,
                "base_verdict": down.verdict,
                kind + "_verdict": up.verdict})


def _nothing(ctx, rep):
    """The body of a law that no finite instance represents."""


def _extension(ctx, k):
    """The trivial extension of the context ring by Z_k as a context that
    P20 and P21 share, kept in the context's memo until the walk leaves
    the context."""
    return once(ctx.memo, ("idealize", k), lambda: _context(make_idealization(
        ctx.ring, make_cyclic_module(ctx.ring, k),
        label="idealize(%s, %d)" % (ctx.expr, k))))


def _p20(ctx, rep):
    # trivial-extension equivalence: I+M works iff I works
    if ctx.family != "zn":
        return
    ks = _idealize_orders(ctx.ring.size)
    for k in dict.fromkeys(ks[:1] + ks[-1:]):
        ext = _extension(ctx, k)
        _transfer(rep, ctx, ext, "extension",
                  lambda I: _block_mask(ext.ring, I.members, np.arange(k), k),
                  lambda S: subset_idealization(S, ext.ring))


def _p21(ctx, rep):
    # trivial extension, proper submodule: the law for I+N forces it for I
    if ctx.family != "zn":
        return
    for k in _idealize_orders(ctx.ring.size)[-1:]:
        ext = _extension(ctx, k)
        for I in ctx.ideals:
            prods = (I.members[:, None] * np.arange(k)[None, :]) % k
            for t in _divisors(k):
                nmem = np.arange(0, k, t, dtype=np.int64)
                nmask = np.zeros(k, dtype=bool)
                nmask[nmem] = True
                if not nmask[prods].all():
                    continue
                emask = _block_mask(ext.ring, I.members, nmem, k)
                for _, S in _pairs(rep, (I,), ctx.subsets):
                    se = ext.lift(S, lambda S: subset_idealization(
                        S, ext.ring))
                    if not rep.given(ext.sj(emask, se).verdict):
                        continue
                    base = ctx.sj(I, S)
                    if not base.verdict:
                        lifted = IdealSet(ext.ring, emask)
                        rep.violation(ext.ring, lifted, se, {
                            "base_ring": ctx.expr,
                            "submodule_index": t,
                            "base_check": _labeled_result(ctx.ring, base)})


def _p22(corpus, rep):
    # amalgamation transfer: down always, up when J sits in the target
    # radical (the corpus guarantees it does)
    for ctx in corpus.contexts:
        if ctx.family != "amalgamation":
            continue
        amalg = ctx.ring
        base_ctx = next((c for c in corpus.contexts
                         if c.expr == "Z%d" % amalg.base.size), None)
        if base_ctx is None:
            continue
        nj = len(amalg.jmembers)
        _transfer(rep, base_ctx, ctx, "amalgamation",
                  lambda I: _block_mask(amalg, I.members, np.arange(nj), nj),
                  lambda S: subset_amalgamation(SubsetS(
                      amalg.base, S.members, kind=S.kind, check=False,
                      label=S.label), amalg))


def _p23(ctx, rep):
    # three faces of the right-sided law: full ideal pairs, principal
    # pairs, and the elementwise two-sided form; the last two scan the
    # s-rows of every subset P misses at once
    ring, lattice, jm = ctx.ring, ctx.lattice, ctx.jac.mask
    jidx = lattice.idx_of(ctx.jac)
    prin = np.unique(lattice.principal_of)
    for P, subsets in ctx.missed_by(rep):
        members = np.concatenate([S.members for S in subsets])
        pidx = lattice.idx_of(P)
        faces = {"principal_pairs": first_violations(
            Relation.dense(ctx.lattice_rel(P).H[np.ix_(prin, prin)]),
            *(lattice_colon_rows(lattice, t, members)[:, prin]
              for t in (jidx, pidx)))}
        if ring.size <= ELEMENTWISE_LIMIT:
            # xRy inside P forces x<s> into J(R) or y<s> into P
            faces["elementwise"] = first_violations(
                ctx.two_sided(P.mask), *(np.array([
                    ctx.colon_principal(t, s) for s in members])
                    for t in (jm, P.mask)))
        lo = 0
        for S in subsets:
            rep.tested += 1
            verdicts = {"ideal_pairs": ctx.right_sj(P, S).verdict}
            verdicts.update((face, None in found[lo:lo + S.size])
                            for face, found in faces.items())
            lo += S.size
            if len(set(verdicts.values())) > 1:
                rep.violation(ring, P, S, verdicts)


def _p24(ctx, rep):
    # on commutative identity rings the elementwise and right-sided
    # definitions agree
    ring = ctx.ring
    for P, S in ctx.pairs(rep):
        rep.tested += 1
        left, right = ctx.sj(P, S), ctx.right_sj(P, S)
        if left.verdict != right.verdict:
            rep.violation(ring, P, S, {
                "elementwise": _labeled_result(ring, left),
                "ideal_pairs": _labeled_result(ring, right)})


def _p25(ctx, rep):
    # right subset-prime ideals inside the radical satisfy the right law
    ring = ctx.ring
    for P, S in ctx.pairs(rep):
        if not rep.given(not (P.mask & ~ctx.jac.mask).any()
                         and is_right_S_prime(ring, P, S,
                                              lattice=ctx.lattice).verdict):
            continue
        res = ctx.right_sj(P, S)
        if not res.verdict:
            rep.violation(ring, P, S, {"check": _labeled_result(ring, res)})


def _j_colon(ctx, mask, s):
    """Is (I : <s>) a proper radical-membership ideal?"""
    q = ctx.colon_principal(mask, s)
    return not q.all() and ctx.j_check(q).verdict


def _p26(ctx, rep):
    # (P : <s>) satisfies the right law for some s iff P does
    ring = ctx.ring
    for P, S in ctx.pairs(rep):
        rep.tested += 1
        rhs = ctx.right_sj(P, S).verdict
        colons = (ctx.colon_principal(P.mask, s) for s in S.members)
        lhs = any(not ((q & S.mask).any() or q.all())
                  and ctx.right_sj(q, S).verdict for q in colons)
        if lhs != rhs:
            rep.violation(ring, P, S, {"colon_side": lhs, "direct_side": rhs})


def _p27(ctx, rep):
    # (P : <s>) being a radical-membership ideal certifies the right law
    ring = ctx.ring
    for P, S in ctx.pairs(rep):
        cert = next((int(s) for s in S.members
                     if _j_colon(ctx, P.mask, s)), None)
        if not rep.given(cert is not None):
            continue
        res = ctx.right_sj(P, S)
        if not res.verdict:
            rep.violation(ring, P, S, {
                "certifying_s": ring.element_label(cert),
                "check": _labeled_result(ring, res)})


def _p28(ctx, rep):
    # converse of the colon certificate under central S and a stable
    # radical colon
    ring, jm = ctx.ring, ctx.jac.mask
    cmask = center_mask(ring)
    for S in ctx.subsets:
        if not rep.keep(cmask[S.members].all()):
            continue
        good = [int(s) for s in S.members
                if not (ctx.colon_principal(jm, s) & S.mask).any()
                and _j_colon(ctx, jm, s)]
        if not rep.keep(good):
            continue
        for P, _ in _pairs(rep, ctx.ideals, (S,)):
            if not rep.given(ctx.right_sj(P, S).verdict):
                continue
            for s in good:
                q = ctx.colon_principal(P.mask, s)
                if q.all() or not ctx.j_check(q).verdict:
                    rep.violation(ring, P, S, {
                        "s": ring.element_label(s),
                        "colon_is_whole_ring": bool(q.all())})
                    break


def _p29(ctx, rep):
    # right law pushes forward along surjections with kernel inside P
    ring = ctx.ring
    for Q in ctx.quotients:
        for P, S in _pairs(rep, _uppers(rep, Q, ctx.ideals), ctx.subsets):
            if not rep.given(ctx.right_sj(P, S).verdict):
                continue
            qres = Q.image_verdict(P, S, right=True)
            if qres is None:
                rep.violation(ring, P, S, {
                    "part": "image-meets-image-subset",
                    "quotient": Q.ctx.expr})
            elif not qres.verdict:
                rep.violation(ring, P, S, {
                    "quotient": Q.ctx.expr,
                    "image_check": _labeled_result(Q.ctx.ring, qres)})


def _uppers(rep, Q, ideals):
    """The ideals that hold Q's kernel; each other one counts as vacuous."""
    return [P for P in ideals if rep.keep(not (Q.kernel.mask & ~P.mask).any())]


def _p30(ctx, rep):
    # right law pulls back when the kernel sits in both P and the radical
    ring, jm = ctx.ring, ctx.jac.mask
    for Q in ctx.quotients:
        if (Q.kernel.mask & ~jm).any():
            continue
        for P, S in _pairs(rep, _uppers(rep, Q, ctx.ideals), ctx.subsets):
            qres = Q.image_verdict(P, S, right=True)
            if not rep.given(qres is not None and qres.verdict):
                continue
            res = ctx.right_sj(P, S)
            if not res.verdict:
                rep.violation(ring, P, S, {
                    "quotient": Q.ctx.expr,
                    "base_check": _labeled_result(ring, res)})


def _p31(ctx, rep):
    # with (J(R) : <s>) = J(R): witness s for the right law iff P sits
    # in the colon and the elementwise two-sided form holds through the
    # maximal-intersection radical
    lattice, jm = ctx.lattice, ctx.jac.mask
    jidx = lattice.idx_of(ctx.jac)
    for P, S in ctx.pairs(rep):
        good = [int(s) for s in S.members
                if np.array_equal(ctx.colon_principal(jm, s), jm)]
        if not rep.given(good):
            continue
        pidx = lattice.idx_of(P)
        lhs = [v is None for v in first_violations(
            ctx.lattice_rel(P),
            *(lattice_colon_rows(lattice, t, good) for t in (jidx, pidx)))]
        _rewritten_form(ctx, rep, P, S, good, lhs, ctx.colon_principal)


def _p32(ctx, rep):
    # right law puts P inside (J(R) : <s>); on the radical itself the
    # right law and right subset-primeness coincide
    ring, jm = ctx.ring, ctx.jac.mask
    for P, S in ctx.pairs(rep):
        if not rep.given(ctx.right_sj(P, S).verdict):
            continue
        if not any(not (P.mask & ~ctx.colon_principal(jm, s)).any()
                   for s in S.members):
            rep.violation(ring, P, S, {"part": "no-colon-container"})
    _radical_vs_prime(ctx, rep, ctx.right_sj, lambda J, S: is_right_S_prime(
                          ring, J, S, lattice=ctx.lattice),
                      "radical-right-law-vs-right-prime",
                      "right_law", "right_prime")


def _p33(ctx, rep):
    # in a local identity ring with a radical-membership colon, every
    # ideal satisfying the right law is superfluous
    ring, lattice, jm = ctx.ring, ctx.lattice, ctx.jac.mask
    if len(lattice.maximal_indices()) != 1:
        return
    for S in ctx.subsets:
        if not rep.keep(any(_j_colon(ctx, jm, s) for s in S.members)):
            continue
        for P, _ in _pairs(rep, ctx.ideals, (S,)):
            if not rep.given(ctx.right_sj(P, S).verdict):
                continue
            if not lattice.is_superfluous_idx(lattice.idx_of(P)):
                rep.violation(ring, P, S, {"part": "not-superfluous"})


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Law:
    """A numbered law: ``check(ctx, rep)`` runs on each context whose
    ``scope`` flag holds (``comm_ident``, the default, or ``ident``; None
    for every context), or once as ``check(corpus, rep)`` for the scope
    ``"corpus"``.  ``notes`` are constant notes of its report."""
    id: str
    citation: str
    statement: str
    check: object = _nothing
    scope: str = "comm_ident"
    gating: bool = True
    notes: dict = field(default_factory=dict)


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
        "subset-finite", _p9,
        notes={"degenerate": "every ideal of a finite ring is finitely "
               "generated, so subset-finiteness always holds; the "
               "hypothesis chain is still exercised"}),
    Law("P10", "s-finite-cancellation",
        "cancellation through an ideal outside every (J(R) : s)", _p10,
        notes={"degenerate": "subset-finiteness is automatic in finite "
               "rings; hypotheses are still exercised"}),
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
        "componentwise law on direct products", _p17, scope="corpus"),
    Law("P18", "trunc-poly-analog",
        "truncated-polynomial analog of the power-series transfer", _p18,
        gating=False,
        notes={"non_gating": "finite analog on R[x]/(x^d); the source "
               "statement concerns full power series"}),
    Law("P19", "polynomial-ring-out-of-scope",
        "polynomial-ring transfer: out of scope for finite rings",
        gating=False,
        notes={"out_of_scope": "the statement quantifies over a full "
               "polynomial ring, which is infinite; no finite instance "
               "represents it faithfully"}),
    Law("P20", "idealization-equivalence",
        "trivial-extension equivalence of the law", _p20),
    Law("P21", "idealization-forward",
        "trivial extension with a proper submodule implies the base law",
        _p21),
    Law("P22", "amalgamation-transfer",
        "amalgamation transfer when J sits inside the target radical",
        _p22, scope="corpus"),
    Law("P23", "right-s-j-pairwise-equivalences",
        "ideal-pair, principal-pair, and elementwise right forms agree",
        _p23, scope="ident"),
    Law("P24", "commutative-right-left-agreement",
        "elementwise and right-sided definitions agree on commutative "
        "identity rings", _p24),
    Law("P25", "right-s-prime-inside-radical",
        "right subset-prime ideals inside the radical satisfy the right "
        "law", _p25, scope=None),
    Law("P26", "right-s-j-principal-colon",
        "(P : <s>) satisfies the right law for some s iff P does", _p26,
        scope="ident"),
    Law("P27", "principal-colon-j-ideal-forward",
        "a radical-membership (P : <s>) certifies the right law", _p27,
        scope="ident"),
    Law("P28", "principal-colon-j-ideal-converse",
        "the colon certificate converse under central S", _p28,
        scope="ident"),
    Law("P29", "right-s-j-epi-image",
        "right law pushes forward along surjections", _p29, scope=None),
    Law("P30", "right-s-j-epi-preimage",
        "right law pulls back along surjections with small kernel", _p30,
        scope=None),
    Law("P31", "right-s-j-stable-radical-form",
        "stable-colon rewriting of the right law", _p31, scope="ident"),
    Law("P32", "right-s-j-radical-prime-agreement",
        "right law bounds P by (J(R) : <s>); on J(R) it matches right "
        "subset-primeness", _p32, scope="ident"),
    Law("P33", "local-superfluous-right-s-j",
        "in local rings with a radical-membership colon, right-law "
        "ideals are superfluous", _p33, scope="ident"),
]

GATED_IDS = tuple(l.id for l in REGISTRY if l.gating)


def verify_properties(corpus=None, ids=None):
    """Run the registry (or a subset) on the calling thread; the reports
    come in registry order as plain dicts ready for JSON serialization.

    The corpus-scoped laws run first.  Then each context in corpus order
    runs every selected law in its scope, each law into its own report,
    and the memos of the context and its quotients are cleared before
    the next context.
    """
    if corpus is None:
        corpus = build_corpus()
    if ids is not None:
        bad = sorted(set(ids) - {l.id for l in REGISTRY})
        if bad:
            raise InvalidParameter("unknown property ids", ids=bad)
    runs = [(law, _Rep(law.notes)) for law in REGISTRY
            if ids is None or law.id in ids]
    for law, rep in runs:
        if law.scope == "corpus":
            law.check(corpus, rep)
    per_ctx = [(law, rep) for law, rep in runs if law.scope != "corpus"]
    for ctx in corpus.contexts:
        for law, rep in per_ctx:
            if law.scope is None or getattr(ctx, law.scope):
                law.check(ctx, rep)
        for c in (ctx, *(Q.ctx for Q in ctx.quotients)):
            c.memo.clear()

    def report(law, rep):
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

    return [report(law, rep) for law, rep in runs]


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
    z36 = _context(build_ring(parse_ring_expr("Z36")))
    r36 = z36.ring
    i4 = IdealSet(r36, ideal_generate(r36, [4]), label="gen(4)")
    s_named = SubsetS(r36, [1, 3, 9, 27], label="mulclosed(1, 3, 9, 27)")
    plain = z36.j_check(i4)
    rel = z36.sj(i4, s_named)
    ok = (not plain.verdict and plain.counterexample == (2, 2)
          and rel.verdict and rel.witness_s == 3)
    # the chosen witness must replay: no violating pair for s = 3
    hyp = product_hyp_matrix(r36, i4.mask)
    rows = r36.mul_table[[3]]
    ok = ok and first_violations(hyp, z36.jac.mask[rows],
                                 i4.mask[rows]) == [None]
    out.append({"id": "E1", "passed": bool(ok),
                "description": "Z36: gen(4) fails the plain radical-"
                               "membership law at (2, 2) but holds the "
                               "subset form with witness 3",
                "details": {"plain": _labeled_result(r36, plain),
                            "subset_form": _labeled_result(r36, rel)}})

    # E2: product counterexample; fails for every s, with ((2,1),(2,1))
    prod = _context(build_ring(parse_ring_expr("Z36 x Z36")))
    n2 = 36
    imask = _block_mask(prod.ring, i4.members, np.arange(n2), n2)
    smem = [int(a) * n2 + int(b)
            for a in s_named.members for b in s_named.members]
    s_prod = SubsetS(prod.ring, smem, label="mulclosed-product")
    res = prod.sj(imask, s_prod)
    pair = 2 * n2 + 1    # the element (2, 1)
    ok = not res.verdict and res.counterexample is not None
    covered = {entry[0] for entry in (res.counterexample or ())}
    ok = ok and covered == {int(x) for x in s_prod.members}
    H, cls = product_hyp_matrix(prod.ring, imask)
    spair = prod.ring.mul_table[s_prod.members, pair]
    ok = ok and bool(H[cls[pair], cls[pair]]) \
        and not (prod.jac.mask[spair] | imask[spair]).any()
    out.append({"id": "E2", "passed": bool(ok),
                "description": "gen(4) x Z36 fails the product law for "
                               "every s; ((2, 1), (2, 1)) violates each",
                "details": {"check": _labeled_result(prod.ring, res)}})

    # E3: Z36 x Z8 with S1 x {0, 2, 4} is a true instance
    p38 = _context(build_ring(parse_ring_expr("Z36 x Z8")))
    imask38 = _block_mask(p38.ring, i4.members, np.arange(8), 8)
    smem38 = [int(a) * 8 + b for a in s_named.members for b in (0, 2, 4)]
    s38 = SubsetS(p38.ring, smem38, label="mulclosed-product")
    res38 = p38.sj(imask38, s38)
    ok = bool(res38.verdict)
    if ok:
        hyp = product_hyp_matrix(p38.ring, imask38)
        rows = p38.ring.mul_table[[res38.witness_s]]
        ok = first_violations(hyp, p38.jac.mask[rows],
                              imask38[rows]) == [None]
    out.append({"id": "E3", "passed": bool(ok),
                "description": "gen(4) x Z8 with the paired subset "
                               "satisfies the product law",
                "details": {"check": _labeled_result(p38.ring, res38)}})

    # E4: M2(Z12), P = M2(<4>), S = scalar {1, 3, 9}
    m12 = _context(build_ring(parse_ring_expr("M(2, Z12)")))
    lat12 = m12.lattice
    digits = np.arange(m12.ring.size)
    coords = []
    for _ in range(4):
        coords.append(digits % 12)
        digits = digits // 12
    four = np.zeros(12, dtype=bool)
    four[[0, 4, 8]] = True
    pmask = _mask_from_base(m12.ring.size, four, coords)
    smem = [s * 12 ** 3 + s for s in (1, 3, 9)]
    s_r = SubsetS(m12.ring, smem, kind="msystem", label="scalar(1, 3, 9)")
    plain = m12.j_check(pmask)
    rel = m12.right_sj(pmask, s_r)
    three_i = 3 * 12 ** 3 + 3
    ok = (not plain.verdict and rel.verdict
          and int(rel.witness_s) in (three_i, 9 * 12 ** 3 + 9))
    # 3I replays as a witness through the lattice scan
    pidx = lat12.idx_of(IdealSet(m12.ring, pmask))
    jidx = lat12.idx_of(m12.jac)
    hyp_m = Relation.dense(lat12.leq[lat12.prod, pidx])
    ok = ok and first_violations(
        hyp_m, *(lattice_colon_rows(lat12, t, [three_i])
                 for t in (jidx, pidx))) == [None]
    out.append({"id": "E4", "passed": bool(ok),
                "description": "M2(Z12): the scalar-subset right law "
                               "holds for M2(gen(4)) with witness 3I, "
                               "though the plain law fails",
                "details": {"plain": _labeled_result(m12.ring, plain),
                            "right_form": _labeled_result(m12.ring, rel)}})

    # E5: radical values on the three rings above
    jac_z36 = np.zeros(36, dtype=bool)
    jac_z36[::6] = True
    six = np.zeros(12, dtype=bool)
    six[[0, 6]] = True
    expect_m12 = _mask_from_base(m12.ring.size, six, coords)
    expect_prod = _block_mask(p38.ring, np.arange(0, 36, 6),
                              np.arange(0, 8, 2), 8)
    ok = (np.array_equal(z36.jac.mask, jac_z36)
          and np.array_equal(m12.jac.mask, expect_m12)
          and np.array_equal(p38.jac.mask, expect_prod))
    out.append({"id": "E5", "passed": bool(ok),
                "description": "radicals: J(Z36) = gen(6), J(M2(Z12)) = "
                               "M2(gen(6)), J(Z36 x Z8) = gen(6) x gen(2)",
                "details": {}})

    return {"examples": out, "passed": all(e["passed"] for e in out)}
