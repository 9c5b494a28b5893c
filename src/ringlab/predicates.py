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

from dataclasses import dataclass
from typing import Any, Optional

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
    IdealLattice,
    IdealSet,
    colon_elem_mask,
    colon_ideal_mask,
    enumerate_ideals,
    ideal_generate,
    minimal_generating_set,
)
from .rings import is_ideal_mask
from .radicals import jacobson_radical, prime_radical
from . import radicals as _radicals
from .subsets import SubsetS

# dense pair scans build an n x n boolean hypothesis matrix
PAIR_SCAN_LIMIT = 4096
# elementwise right-sided checks do |R|^2 colon tests on top of that
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


def _resolve_ideal(ring, ideal):
    if isinstance(ideal, IdealSet):
        if ideal.ring is not ring:
            raise RingMismatch("ideal belongs to a different ring",
                               ring=ring.label, other=ideal.ring.label)
        return ideal.mask
    mask = np.asarray(ideal, dtype=bool)
    if mask.shape != (ring.size,):
        raise InvalidParameter("ideal mask has wrong length",
                               expected=int(ring.size), got=mask.shape)
    if not is_ideal_mask(ring, mask):
        raise InvalidIdeal("mask is not a two-sided ideal", ring=ring.label)
    return mask


def _resolve_subset(ring, subset):
    if isinstance(subset, SubsetS):
        if subset.ring is not ring:
            raise RingMismatch("subset belongs to a different ring",
                               ring=ring.label, other=subset.ring.label)
        return subset
    return SubsetS(ring, subset, kind="mulclosed")


def _require_disjoint(ring, imask, subset):
    hits = subset.members[imask[subset.members]]
    if hits.size:
        raise NotDisjoint("subset meets the ideal",
                          witness=int(hits.min()), ring=ring.label)


def _require_comm_identity(ring):
    if not ring.commutative:
        raise NotApplicable("check requires a commutative ring",
                            ring=ring.label)
    if ring.one is None:
        raise NotApplicable("check requires a ring with identity",
                            ring=ring.label)


def _jac_mask(ring, jacobson=None, lattice=None):
    if jacobson is None:
        jacobson = jacobson_radical(ring, lattice)
    return _resolve_ideal(ring, jacobson)


def _check_mode(mode):
    if mode not in MODES:
        raise InvalidParameter("unknown quantifier mode", mode=mode,
                               expected=MODES)


# ---------------------------------------------------------------------------
# dense pair-scan engine (commutative checks and elementwise forms)
# ---------------------------------------------------------------------------

def _product_hyp_matrix(ring, imask):
    """hyp[a, b] = (a*b lands in the ideal), built in row chunks."""
    n = int(ring.size)
    if n > PAIR_SCAN_LIMIT:
        raise CapacityExceeded("dense pair scan capped", size=n,
                               limit=PAIR_SCAN_LIMIT)
    els = ring.elements
    out = np.empty((n, n), dtype=bool)
    step = max(1, 4_000_000 // n)
    for lo in range(0, n, step):
        hi = min(n, lo + step)
        out[lo:hi] = imask[ring.mul_vec(els[lo:hi, None], els[None, :])]
    return out


def _first_violation(hyp, a_ok, b_ok):
    """Lex-least (a, b) with hyp[a, b] true and both disjuncts false."""
    bad = hyp & ~b_ok[None, :]
    rows = bad.any(axis=1) & ~a_ok
    if not rows.any():
        return None
    a = int(np.argmax(rows))
    b = int(np.argmax(bad[a]))
    return (a, b)


def _scan(ring, hyp, members, disjuncts, mode):
    """Run the quantifier over s; disjuncts(s) -> (a_ok, b_ok) masks."""
    if mode == "fixed-s":
        table = []
        for s in members:
            a_ok, b_ok = disjuncts(int(s))
            v = _first_violation(hyp, a_ok, b_ok)
            if v is None:
                return CheckResult(True, witness_s=int(s))
            table.append((int(s), v))
        return CheckResult(False, counterexample=tuple(table))
    any_a = np.zeros(hyp.shape[0], dtype=bool)
    any_b = np.zeros(hyp.shape[0], dtype=bool)
    for s in members:
        a_ok, b_ok = disjuncts(int(s))
        any_a |= a_ok
        any_b |= b_ok
    v = _first_violation(hyp, any_a, any_b)
    if v is None:
        return CheckResult(True, quantifier_mode="per-pair-s")
    return CheckResult(False, counterexample=v, quantifier_mode="per-pair-s")


# ---------------------------------------------------------------------------
# one-sided (no subset) checks
# ---------------------------------------------------------------------------

def _arb_violation(ring, imask, a_skip, b_skip):
    """Lex-least (a, b) with aRb inside the ideal, a and b outside the
    skip masks.  Streams row chunks so huge rings never materialize an
    n x n matrix."""
    n = int(ring.size)
    els = ring.elements
    gens = [int(g) for g in ring.addgens]
    ag_rows = [ring.mul_vec(els, g) for g in gens]
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


def is_J_ideal(ring, ideal, jacobson=None, lattice=None):
    """Pairs landing in the ideal force membership: if the product is in
    the ideal and the left factor is outside the Jacobson radical, the
    right factor must lie in the ideal.  Commutative rings use plain
    products a*b; noncommutative rings use the two-sided form aRb."""
    imask = _resolve_ideal(ring, ideal)
    if imask.all():
        raise InvalidIdeal("expected a proper ideal", ring=ring.label)
    jmask = _jac_mask(ring, jacobson, lattice)
    if ring.commutative:
        hyp = _product_hyp_matrix(ring, imask)
        v = _first_violation(hyp, jmask, imask)
    else:
        v = _arb_violation(ring, imask, jmask, imask)
    if v is None:
        return CheckResult(True)
    return CheckResult(False, counterexample=v)


def is_n_ideal(ring, ideal, beta=None, lattice=None):
    """Like the radical-membership check above but against the prime
    radical: ab in I and a not nilpotent force b in I."""
    _require_comm_identity(ring)
    imask = _resolve_ideal(ring, ideal)
    if imask.all():
        raise InvalidIdeal("expected a proper ideal", ring=ring.label)
    if beta is None:
        beta, _ = prime_radical(ring, lattice)
    bmask = _resolve_ideal(ring, beta)
    hyp = _product_hyp_matrix(ring, imask)
    v = _first_violation(hyp, bmask, imask)
    if v is None:
        return CheckResult(True)
    return CheckResult(False, counterexample=v)


# ---------------------------------------------------------------------------
# subset-relative commutative checks
# ---------------------------------------------------------------------------

def is_S_J_ideal(ring, ideal, subset, jacobson=None, lattice=None,
                 mode="fixed-s"):
    """There is an s in S so that whenever ab lands in the ideal, either
    s*a falls in the Jacobson radical or s*b falls in the ideal."""
    _check_mode(mode)
    _require_comm_identity(ring)
    imask = _resolve_ideal(ring, ideal)
    subset = _resolve_subset(ring, subset)
    _require_disjoint(ring, imask, subset)
    jmask = _jac_mask(ring, jacobson, lattice)
    hyp = _product_hyp_matrix(ring, imask)
    els = ring.elements

    def disjuncts(s):
        row = ring.mul_vec(s, els)
        return jmask[row], imask[row]

    return _scan(ring, hyp, subset.members, disjuncts, mode)


def is_S_n_ideal(ring, ideal, subset, beta=None, lattice=None,
                 mode="fixed-s"):
    """There is an s in S so that ab in ideal and a*s not nilpotent force
    b*s into the ideal."""
    _check_mode(mode)
    _require_comm_identity(ring)
    imask = _resolve_ideal(ring, ideal)
    subset = _resolve_subset(ring, subset)
    _require_disjoint(ring, imask, subset)
    if beta is None:
        beta, _ = prime_radical(ring, lattice)
    bmask = _resolve_ideal(ring, beta)
    hyp = _product_hyp_matrix(ring, imask)
    els = ring.elements

    def disjuncts(s):
        row = ring.mul_vec(els, s)
        return bmask[row], imask[row]

    return _scan(ring, hyp, subset.members, disjuncts, mode)


def is_S_prime(ring, ideal, subset, mode="fixed-s"):
    """There is an s in S so that ab in the ideal forces a*s or b*s in."""
    _check_mode(mode)
    _require_comm_identity(ring)
    imask = _resolve_ideal(ring, ideal)
    subset = _resolve_subset(ring, subset)
    _require_disjoint(ring, imask, subset)
    hyp = _product_hyp_matrix(ring, imask)
    els = ring.elements

    def disjuncts(s):
        row = imask[ring.mul_vec(els, s)]
        return row, row

    return _scan(ring, hyp, subset.members, disjuncts, mode)


# ---------------------------------------------------------------------------
# right-sided (two-sided-ideal quantified) checks
# ---------------------------------------------------------------------------

def _lattice_context(ring, imask, lattice):
    if lattice is None:
        lattice = enumerate_ideals(ring)
    return lattice, lattice.idx_of(IdealSet(ring, imask))


def _lattice_scan(lattice, pidx, target_a_idx, members, mode):
    """Quantifier over ideal pairs: product below pidx forces the first
    ideal times <s> below target_a_idx, or the second times <s> below
    pidx."""
    leq = lattice.leq
    prod = lattice.prod
    hyp = leq[prod, pidx]
    gidx = lattice.principal_of

    def disjuncts(s):
        col = prod[:, gidx[s]]
        return leq[col, target_a_idx], leq[col, pidx]

    def gens_pair(i, j):
        a = tuple(int(x) for x in minimal_generating_set(lattice.ideals[i]))
        b = tuple(int(x) for x in minimal_generating_set(lattice.ideals[j]))
        return (a, b)

    if mode == "fixed-s":
        table = []
        for s in members:
            a_ok, b_ok = disjuncts(int(s))
            v = _first_violation(hyp, a_ok, b_ok)
            if v is None:
                return CheckResult(True, witness_s=int(s), method="lattice")
            table.append((int(s), gens_pair(*v)))
        return CheckResult(False, counterexample=tuple(table),
                           method="lattice")
    any_a = np.zeros(len(lattice), dtype=bool)
    any_b = np.zeros(len(lattice), dtype=bool)
    for s in members:
        a_ok, b_ok = disjuncts(int(s))
        any_a |= a_ok
        any_b |= b_ok
    v = _first_violation(hyp, any_a, any_b)
    if v is None:
        return CheckResult(True, quantifier_mode="per-pair-s",
                           method="lattice")
    return CheckResult(False, counterexample=gens_pair(*v),
                       quantifier_mode="per-pair-s", method="lattice")


def is_right_S_prime(ring, ideal, subset, lattice=None, mode="fixed-s"):
    """There is an s in S so that for all ideals I, K with IK inside P,
    either I<s> or K<s> lands inside P."""
    _check_mode(mode)
    imask = _resolve_ideal(ring, ideal)
    subset = _resolve_subset(ring, subset)
    _require_disjoint(ring, imask, subset)
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
    _check_mode(mode)
    imask = _resolve_ideal(ring, ideal)
    subset = _resolve_subset(ring, subset)
    _require_disjoint(ring, imask, subset)
    if method == "lattice":
        lattice, pidx = _lattice_context(ring, imask, lattice)
        jac = jacobson_radical(ring, lattice) if jacobson is None else jacobson
        jidx = lattice.idx_of(jac if isinstance(jac, IdealSet)
                              else IdealSet(ring, _resolve_ideal(ring, jac)))
        return _lattice_scan(lattice, pidx, jidx, subset.members, mode)
    if method != "elementwise":
        raise InvalidParameter("unknown method", method=method,
                               expected=("lattice", "elementwise"))
    return _right_sj_elementwise(ring, imask, subset, jacobson, lattice, mode)


def _right_sj_elementwise(ring, pmask, subset, jacobson, lattice, mode):
    n = int(ring.size)
    if ring.one is None:
        raise NotApplicable("elementwise form needs an identity",
                            ring=ring.label)
    if n > ELEMENTWISE_LIMIT:
        raise CapacityExceeded("elementwise form refused above size cutoff",
                               size=n, limit=ELEMENTWISE_LIMIT)
    jmask = _jac_mask(ring, jacobson, lattice)
    els = ring.elements
    hyp = np.ones((n, n), dtype=bool)
    for g in ring.addgens:
        xg = ring.mul_vec(els, int(g))
        hyp &= pmask[ring.mul_vec(xg[:, None], els[None, :])]

    def disjuncts(s):
        smem = np.flatnonzero(ideal_generate(ring, [s]))
        prods = ring.mul_vec(els[:, None], smem[None, :])
        return jmask[prods].all(axis=1), pmask[prods].all(axis=1)

    return _scan(ring, hyp, subset.members, disjuncts, mode)


# ---------------------------------------------------------------------------
# bundled context for one (ring, ideal, subset) triple
# ---------------------------------------------------------------------------

def related_checks(ring, ideal, subset, lattice=None, jacobson=None):
    """One-stop bundle around a verdict: the main check, whether the
    ideal sits inside (J(R) : s) for the witness, the intersection of
    maximals above the ideal, the superfluous flag, and the colon
    ideals (I : s) and (I : <s>) for the witness s."""
    imask = _resolve_ideal(ring, ideal)
    subset = _resolve_subset(ring, subset)
    if lattice is None:
        lattice = enumerate_ideals(ring)
    jac = jacobson_radical(ring, lattice) if jacobson is None else jacobson
    if ring.commutative and ring.one is not None:
        main = is_S_J_ideal(ring, ideal, subset, jacobson=jac,
                            lattice=lattice)
    else:
        main = is_right_S_J_ideal(ring, ideal, subset, lattice=lattice,
                                  jacobson=jac)
    out = {
        "check": main,
        "witness_s": main.witness_s,
        "superfluous": bool(lattice.is_superfluous_idx(
            lattice.idx_of(IdealSet(ring, imask)))),
    }
    if ring.one is not None:
        out["j_star"] = _radicals.j_star(ring, IdealSet(ring, imask), lattice)
    if main.witness_s is not None:
        s = int(main.witness_s)
        jcolon = colon_elem_mask(ring, jac.mask, s)
        out["inside_jacobson_colon"] = bool(jcolon[imask].all())
        out["colon_by_witness"] = IdealSet(
            ring, colon_elem_mask(ring, imask, s))
        out["colon_by_witness_ideal"] = IdealSet(
            ring, colon_ideal_mask(ring, imask, lattice.principal(s)))
    return out
