"""Decision procedures for the ideal classes, with witnesses and minimal
counterexamples.

Conventions shared by every check here:

* ``fixed-s`` mode quantifies a single s over the whole pair scan.  A
  true verdict carries the smallest witnessing s; a false verdict
  carries a violation table with one offending pair per s, so the
  failure is replayable for every choice of s.
* ``per-pair-s`` mode lets each pair pick its own s (diagnostic
  reading).  A false verdict carries one pair that fails for every s.
* Counterexamples are lexicographically least: smallest first
  coordinate, then smallest second.
* Disjointness failures raise, they never become false verdicts.
"""

from dataclasses import dataclass, replace
from typing import Any, NamedTuple, Optional

import numpy as np

from .errors import (
    CapacityExceeded,
    InvalidIdeal,
    InvalidParameter,
    NotApplicable,
    NotDisjoint,
    RingMismatch,
)
from .ideals import (
    IdealSet,
    colon_ideal_mask,
    enumerate_ideals,
    ideal_generate,
    minimal_generating_set,
)
from .memo import readonly
from .rings import TABLE_LIMIT, is_ideal_mask
from .radicals import jacobson_radical, prime_radical
from .subsets import SubsetS

# pair relations are gathered from the product table, so they stop where
# the tables do
PAIR_SCAN_LIMIT = TABLE_LIMIT
# elementwise right-sided checks scan the two-sided relation, and each s
# costs |addgens(<s>)| colon gathers of n on top of that
ELEMENTWISE_LIMIT = 300

MODES = ("fixed-s", "per-pair-s")


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one predicate run.

    counterexample is one of: a pair of element indices, a pair of
    generator tuples (lattice method), or for fixed-s failures a tuple
    of (s, pair) entries covering every s.
    """

    verdict: bool
    witness_s: Optional[int] = None
    counterexample: Any = None
    quantifier_mode: str = "fixed-s"
    method: str = "elementwise"

    def __bool__(self):
        return self.verdict

    def to_json(self):
        return {
            "verdict": bool(self.verdict),
            "witness_s": None if self.witness_s is None else int(self.witness_s),
            "counterexample": _plain(self.counterexample),
            "quantifier_mode": self.quantifier_mode,
            "method": self.method,
        }


def _plain(obj):
    if obj is None:
        return None
    if isinstance(obj, (tuple, list)):
        return [_plain(x) for x in obj]
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    return obj


def _resolve_ideal(ring, ideal, lattice=None):
    """The mask of an IdealSet of this ring, or a bare mask checked to be
    a two-sided ideal: looked up in the ring's lattice when one is given
    (the enumeration is complete, so membership is exact), else tested."""
    if isinstance(ideal, IdealSet):
        if ideal.ring is not ring:
            raise RingMismatch("ideal belongs to a different ring",
                               ring=ring.label, other=ideal.ring.label)
        return ideal.mask
    mask = np.asarray(ideal, dtype=bool)
    if mask.shape != (ring.size,):
        raise InvalidParameter("ideal mask has wrong length",
                               expected=int(ring.size), got=mask.shape)
    if lattice is not None and lattice.ring is ring:
        ok = mask.tobytes() in lattice.key_to_idx
    else:
        ok = is_ideal_mask(ring, mask)
    if not ok:
        raise InvalidIdeal("mask is not a two-sided ideal", ring=ring.label)
    return mask


def _resolve_subset(ring, subset):
    if isinstance(subset, SubsetS):
        if subset.ring is not ring:
            raise RingMismatch("subset belongs to a different ring",
                               ring=ring.label, other=subset.ring.label)
        return subset
    return SubsetS(ring, subset, kind="mulclosed")


def require_disjoint(ring, imask, subset):
    """Raise NotDisjoint, naming the least common element, unless the
    subset misses the ideal mask."""
    hits = subset.members[imask[subset.members]]
    if hits.size:
        raise NotDisjoint("subset meets the ideal",
                          witness=int(hits.min()), ring=ring.label)


def require_comm_identity(ring):
    """Raise NotApplicable unless the ring is commutative with identity."""
    if not ring.commutative:
        raise NotApplicable("check requires a commutative ring",
                            ring=ring.label)
    if ring.one is None:
        raise NotApplicable("check requires a ring with identity",
                            ring=ring.label)


def _jac_mask(ring, jacobson=None, lattice=None):
    if jacobson is None:
        jacobson = jacobson_radical(ring, lattice)
    return _resolve_ideal(ring, jacobson, lattice)


def _check_mode(mode):
    if mode not in MODES:
        raise InvalidParameter("unknown quantifier mode", mode=mode,
                               expected=MODES)


# ---------------------------------------------------------------------------
# pair-scan engine (commutative checks and elementwise forms), shared with
# the law harness.  A pair relation is a Relation (H, cls): rel(a, b) =
# H[cls[a], cls[b]], with H a P x P matrix over classes of elements on
# which the relation is constant.  Within PAIR_SCAN_LIMIT every ring has
# its product table; the product and two-sided relations are gathered
# from it on the ring's unit classes (Ring.unit_classes), so P is the
# number of classes of associates, not n.  Lattice-level scans pass the
# identity partition (Relation.dense).  A quantifier over s in S stacks
# one row of disjunct masks per s, and first_violations finds the
# lex-least violating pair of every row at once: the classes each row
# leaves bad form a k x P array, and one boolean matrix product bad @
# H.T marks the class rows that meet them, in O(k (n + P^2)).  The
# fixed-s quantifier scans its rows in blocks of 1, 2, 4, ... and stops
# at the block holding the first witness; fixed_s_result builds its
# verdict.  Above the limit only the two-sided relation is scanned,
# by arb_violation, which streams row chunks and stops at the first hit;
# two_sided_violations picks between the two by ring size.
# ---------------------------------------------------------------------------

class Relation(NamedTuple):
    """A pair relation read through classes: rel(a, b) = H[cls[a], cls[b]].

    H is a P x P boolean matrix and cls labels each of the n elements
    with its class in range(P).
    """

    H: np.ndarray
    cls: np.ndarray

    @staticmethod
    def dense(matrix):
        """The relation of an n x n matrix: every element its own class."""
        return Relation(matrix, np.arange(len(matrix)))


def _pair_table(ring):
    """The product table, for gathering a pair relation; CapacityExceeded
    above PAIR_SCAN_LIMIT, before any class work."""
    n = int(ring.size)
    if n > PAIR_SCAN_LIMIT:
        raise CapacityExceeded("dense pair scan capped", size=n,
                               limit=PAIR_SCAN_LIMIT)
    return ring.mul_table


def product_hyp_matrix(ring, imask):
    """The Relation rel(a, b) = (a*b lands in the ideal).

    On a commutative ring it is read on the unit classes: for units u and
    v, (ua)(vb) = uv(ab), and uv(ab) lies in the ideal iff ab does, so the
    relation is constant on classes and H = imask[T[reps][:, reps]].  A
    noncommutative ring keeps singleton classes, since (au)b need not be
    a(ub) there.
    """
    table = _pair_table(ring)
    if not ring.commutative:
        return Relation.dense(readonly(imask[table]))
    cls, reps = ring.unit_classes
    return Relation(readonly(imask[table[np.ix_(reps, reps)]]), cls)


def two_sided_matrix(ring, imask):
    """The Relation rel(a, b) = (aRb inside the ideal): the AND over
    additive generators g of (a*g)*b in the ideal, read on the unit
    classes.

    For units u and v, (uav)Rb = u(aRb) since vR = R, and aR(ubv) =
    (aRb)v since Ru = R; a two-sided ideal holds ux and xv iff it holds x,
    so the relation is constant on classes and H = AND_g imask[T[T[reps,
    g]][:, reps]].  Without an identity every class is a singleton.
    """
    table = _pair_table(ring)
    cls, reps = ring.unit_classes
    H = np.ones((reps.size, reps.size), dtype=bool)
    for g in ring.addgens:
        H &= imask[table[np.ix_(table[reps, g], reps)]]
    return Relation(readonly(H), cls)


def first_violations(rel, a_ok, b_ok):
    """Per row of the stacked k x n masks, the lex-least (a, b) with
    rel(a, b) true and a_ok[row, a], b_ok[row, b] both false, or None.

    A class is bad in a row when fewer of its elements pass b_ok there
    than it holds (the passing ones, usually few, are counted); a is the
    least element failing a_ok whose class row of H meets a bad class,
    and b the least element failing b_ok whose class that row holds.
    """
    H, cls = rel
    k, P = len(b_ok), len(H)
    r, x = np.nonzero(b_ok)
    bad = (np.bincount(r * P + cls.take(x), minlength=k * P).reshape(k, P)
           < np.bincount(cls, minlength=P))
    # on masks, x > y is x & ~y
    rows = np.matmul(bad, H.T).take(cls, axis=1) > a_ok
    hit = rows.any(axis=1)
    if not hit.any():
        return [None] * len(hit)
    a = rows.argmax(axis=1)
    b = (H.take(cls.take(a), axis=0).take(cls, axis=1) > b_ok).argmax(axis=1)
    return [(i, j) if h else None
            for h, i, j in zip(hit.tolist(), a.tolist(), b.tolist())]


def fixed_s_result(members, violations):
    """The fixed-s CheckResult of violations[k], the violating pair of s =
    members[k] or None: the first witness, where the list may stop, or
    else one pair per s."""
    for s, v in zip(members, violations):
        if v is None:
            return CheckResult(True, witness_s=int(s))
    return CheckResult(False, counterexample=tuple(
        (int(s), v) for s, v in zip(members, violations)))


def pair_scan(rel, members, a_ok, b_ok, mode):
    """Run the quantifier over s on a Relation: rows k of the stacked
    a_ok and b_ok masks are the disjuncts of s = members[k]."""
    if mode == "fixed-s":
        found, lo, step = [], 0, 1
        while lo < len(members) and None not in found:
            found += first_violations(rel, a_ok[lo:lo + step],
                                      b_ok[lo:lo + step])
            lo, step = lo + step, 2 * step
        return fixed_s_result(members, found)
    (v,) = first_violations(rel, a_ok.any(axis=0, keepdims=True),
                            b_ok.any(axis=0, keepdims=True))
    return CheckResult(v is None, counterexample=v,
                       quantifier_mode="per-pair-s")


def arb_violation(ring, imask, a_skip, b_skip):
    """Lex-least (a, b) with aRb inside the ideal, a and b outside the
    skip masks.  Streams row chunks so huge rings never materialize an
    n x n matrix."""
    n = int(ring.size)
    els = ring.elements
    ag_rows = [ring.mul_vec(els, g) for g in ring.addgens]
    step = max(1, 2_000_000 // n)
    want_a = ~a_skip
    for lo in range(0, n, step):
        hi = min(n, lo + step)
        if not want_a[lo:hi].any():
            continue
        rows = np.ones((hi - lo, n), dtype=bool)
        for ag in ag_rows:
            rows &= imask[ring.mul_vec(ag[lo:hi, None], els[None, :])]
        rows &= want_a[lo:hi, None]
        rows &= ~b_skip[None, :]
        hit = rows.any(axis=1)
        if hit.any():
            off = int(np.argmax(hit))
            return (lo + off, int(np.argmax(rows[off])))
    return None


def two_sided_violations(ring, imask, a_skip, b_skip, matrix=None):
    """arb_violation's pair for each row of the stacked skip masks: read
    from the two-sided relation within PAIR_SCAN_LIMIT (matrix(imask),
    when given, supplies a kept one) and streamed row by row above it."""
    if ring.size > PAIR_SCAN_LIMIT:
        return [arb_violation(ring, imask, a, b)
                for a, b in zip(a_skip, b_skip)]
    T = two_sided_matrix(ring, imask) if matrix is None else matrix(imask)
    return first_violations(T, a_skip, b_skip)


# ---------------------------------------------------------------------------
# one-sided (no subset) checks
# ---------------------------------------------------------------------------

def is_J_ideal(ring, ideal, jacobson=None, lattice=None):
    """Pairs landing in the ideal force membership: if the product is in
    the ideal and the left factor is outside the Jacobson radical, the
    right factor must lie in the ideal.  Commutative rings use plain
    products a*b; noncommutative rings use the two-sided form aRb."""
    imask = _resolve_ideal(ring, ideal, lattice)
    if imask.all():
        raise InvalidIdeal("expected a proper ideal", ring=ring.label)
    jmask = _jac_mask(ring, jacobson, lattice)
    if ring.commutative:
        rel = product_hyp_matrix(ring, imask)
        (v,) = first_violations(rel, jmask[None], imask[None])
    else:
        (v,) = two_sided_violations(ring, imask, jmask[None], imask[None])
    return CheckResult(v is None, counterexample=v)


def is_n_ideal(ring, ideal, beta=None, lattice=None):
    """Like the radical-membership check above but against the prime
    radical: ab in I and a not nilpotent force b in I."""
    require_comm_identity(ring)
    imask = _resolve_ideal(ring, ideal, lattice)
    if imask.all():
        raise InvalidIdeal("expected a proper ideal", ring=ring.label)
    if beta is None:
        beta, _ = prime_radical(ring, lattice)
    bmask = _resolve_ideal(ring, beta, lattice)
    rel = product_hyp_matrix(ring, imask)
    (v,) = first_violations(rel, bmask[None], imask[None])
    return CheckResult(v is None, counterexample=v)


# ---------------------------------------------------------------------------
# subset-relative commutative checks
# ---------------------------------------------------------------------------

def subset_args(ring, ideal, subset, lattice, mode, commutative=True):
    """The checked mask and subset of a subset-relative check; commutative
    ones need a commutative ring with identity."""
    _check_mode(mode)
    if commutative:
        require_comm_identity(ring)
    imask = _resolve_ideal(ring, ideal, lattice)
    subset = _resolve_subset(ring, subset)
    require_disjoint(ring, imask, subset)
    return imask, subset


def _subset_scan(ring, imask, subset, amask, mode):
    """There is an s in S so that ab in the ideal forces s*a into amask or
    s*b into the ideal; the s-rows are one gather of the product table."""
    rel = product_hyp_matrix(ring, imask)
    rows = ring.mul_table[subset.members]
    return pair_scan(rel, subset.members, amask.take(rows),
                     imask.take(rows), mode)


def is_S_J_ideal(ring, ideal, subset, jacobson=None, lattice=None,
                 mode="fixed-s"):
    """There is an s in S so that whenever ab lands in the ideal, either
    s*a falls in the Jacobson radical or s*b falls in the ideal."""
    imask, subset = subset_args(ring, ideal, subset, lattice, mode)
    return _subset_scan(ring, imask, subset,
                        _jac_mask(ring, jacobson, lattice), mode)


def is_S_n_ideal(ring, ideal, subset, beta=None, lattice=None,
                 mode="fixed-s"):
    """There is an s in S so that ab in ideal and a*s not nilpotent force
    b*s into the ideal."""
    imask, subset = subset_args(ring, ideal, subset, lattice, mode)
    if beta is None:
        beta, _ = prime_radical(ring, lattice)
    return _subset_scan(ring, imask, subset,
                        _resolve_ideal(ring, beta, lattice), mode)


def is_S_prime(ring, ideal, subset, mode="fixed-s"):
    """There is an s in S so that ab in the ideal forces a*s or b*s in."""
    imask, subset = subset_args(ring, ideal, subset, None, mode)
    return _subset_scan(ring, imask, subset, imask, mode)


# ---------------------------------------------------------------------------
# right-sided (two-sided-ideal quantified) checks
# ---------------------------------------------------------------------------

def _lattice_context(ring, imask, lattice):
    if lattice is None:
        lattice = enumerate_ideals(ring)
    return lattice, lattice.idx_of(IdealSet(ring, imask))


def lattice_colon_rows(lattice, idx, members):
    """Row k marks the ideals A with A<s> inside ideal idx, s =
    members[k]: the lattice reading of (T : <s>)."""
    cols = lattice.prod[:, lattice.principal_of[np.asarray(members)]]
    return lattice.leq[cols.T, idx]


def _lattice_scan(lattice, pidx, target_a_idx, members, mode):
    """Quantifier over ideal pairs: product below pidx forces the first
    ideal times <s> below target_a_idx, or the second times <s> below
    pidx.  Counterexample pairs are given by minimal generators."""
    def gens_pair(*pair):
        return tuple(tuple(int(x) for x in minimal_generating_set(
            lattice.ideals[i])) for i in pair)

    res = pair_scan(Relation.dense(lattice.leq[lattice.prod, pidx]), members,
                    lattice_colon_rows(lattice, target_a_idx, members),
                    lattice_colon_rows(lattice, pidx, members), mode)
    cex = res.counterexample
    if cex is not None:
        cex = (gens_pair(*cex) if res.quantifier_mode == "per-pair-s"
               else tuple((s, gens_pair(*v)) for s, v in cex))
    return replace(res, counterexample=cex, method="lattice")


def is_right_S_prime(ring, ideal, subset, lattice=None, mode="fixed-s"):
    """There is an s in S so that for all ideals I, K with IK inside P,
    either I<s> or K<s> lands inside P."""
    imask, subset = subset_args(ring, ideal, subset, lattice, mode,
                                 commutative=False)
    lattice, pidx = _lattice_context(ring, imask, lattice)
    return _lattice_scan(lattice, pidx, pidx, subset.members, mode)


def is_right_S_J_ideal(ring, ideal, subset, lattice=None, jacobson=None,
                       method="lattice", mode="fixed-s"):
    """There is an s in S so that for all ideals I, K with IK inside P,
    either I<s> lands in the Jacobson radical or K<s> lands in P.

    method="lattice" quantifies over the full ideal lattice (the
    definition); method="elementwise" runs the equivalent xRy form for
    identity rings up to ELEMENTWISE_LIMIT elements.
    """
    imask, subset = subset_args(ring, ideal, subset, lattice, mode,
                                 commutative=False)
    if method == "lattice":
        lattice, pidx = _lattice_context(ring, imask, lattice)
        jidx = lattice.idx_of(IdealSet(ring, _jac_mask(ring, jacobson,
                                                       lattice)))
        return _lattice_scan(lattice, pidx, jidx, subset.members, mode)
    if method != "elementwise":
        raise InvalidParameter("unknown method", method=method,
                               expected=("lattice", "elementwise"))
    return _right_sj_elementwise(ring, imask, subset, jacobson, lattice, mode)


def _right_sj_elementwise(ring, pmask, subset, jacobson, lattice, mode):
    """xRy inside P forces x<s> into J(R) or y<s> into P.  x<s> lies in an
    ideal T iff x*g does for every additive generator g of <s>, so the
    s-rows are the colon ideals (J(R) : <s>) and (P : <s>)."""
    n = int(ring.size)
    if ring.one is None:
        raise NotApplicable("elementwise form needs an identity",
                            ring=ring.label)
    if n > ELEMENTWISE_LIMIT:
        raise CapacityExceeded("elementwise form refused above size cutoff",
                               size=n, limit=ELEMENTWISE_LIMIT)
    jmask = _jac_mask(ring, jacobson, lattice)
    rel = two_sided_matrix(ring, pmask)
    gens = [lattice.principal(s) if lattice is not None
            else IdealSet(ring, ideal_generate(ring, [s]))
            for s in subset.members]
    a_ok, b_ok = (np.array([colon_ideal_mask(ring, t, g) for g in gens])
                  for t in (jmask, pmask))
    return pair_scan(rel, subset.members, a_ok, b_ok, mode)
