"""Cross-check routes that only the tests read, and the differential
sweep: every predicate next to its table-walking twin.

The radical routes (quasi-regular elements, units) and the modular-ideal
and intersection helpers are independent of the lattice route that
ringlab computes with; the tests hold the two against each other.  The
lattice-sum and singleton-subset helpers are tools the tests share.

The naive module recomputes everything from scratch out of n-by-n Python
multiplication tables, so agreement here is evidence the vectorized
implementations compute the advertised relations and not something that
merely resembles them.  Witness and counterexample ordering is pinned on
both sides (smallest s, lexicographically least pair), so those are
compared too wherever the shapes match.
"""

import numpy as np

import naive

from ringlab import predicates as P
from ringlab.errors import InternalInconsistency, NotApplicable
from ringlab.ideals import IdealSet, enumerate_ideals, zero_ideal
from ringlab.rings import units_mask
from ringlab.subsets import generated_subset

_CROSSCHECK_LIMIT = 4096


def quasi_regular_mask(ring):
    """x such that some y solves y + x + yx = 0."""
    if ring.size > _CROSSCHECK_LIMIT:
        raise NotApplicable("quasi-regular scan capped",
                            limit=_CROSSCHECK_LIMIT, size=ring.size)
    idx = ring.elements
    out = np.zeros(ring.size, dtype=bool)
    for x in range(ring.size):
        x64 = np.int64(x)
        val = ring.add_vec(ring.add_vec(idx, x64), ring.mul_vec(idx, x64))
        out[x] = bool((val == ring.zero).any())
    return out


def jacobson_via_quasiregular(ring, lattice=None):
    """Largest ideal inside the quasi-regular set.  Cross-check method."""
    q = quasi_regular_mask(ring)
    if lattice is None:
        lattice = enumerate_ideals(ring)
    best = zero_ideal(ring)
    for ideal in lattice.ideals:
        if ideal.size > best.size and not (ideal.mask & ~q).any():
            best = ideal
    return best


def jacobson_via_units(ring, lattice=None):
    """{x : 1 + r x is a unit for every r}.  Cross-check; identity needed."""
    if ring.one is None:
        raise NotApplicable("unit characterization needs an identity",
                            ring=ring.label)
    if ring.size > _CROSSCHECK_LIMIT:
        raise NotApplicable("unit scan capped",
                            limit=_CROSSCHECK_LIMIT, size=ring.size)
    units = units_mask(ring)
    one = np.int64(ring.one)
    idx = ring.elements
    mask = np.zeros(ring.size, dtype=bool)
    for x in range(ring.size):
        vals = ring.add_vec(one, ring.mul_vec(idx, np.int64(x)))
        mask[x] = bool(units[vals].all())
    if lattice is None:
        lattice = enumerate_ideals(ring)
    if mask.tobytes() not in lattice.key_to_idx:
        raise InternalInconsistency("unit characterization is not an ideal",
                                    ring=ring.label)
    return IdealSet(ring, mask)


def lattice_sum_idx(lattice, i, j):
    """Index of the sum of ideals i and j: the least ideal above both, as
    the lattice sorts by size."""
    return int((lattice.leq[i] & lattice.leq[j]).argmax())


def singleton_subsets(ring):
    """The distinct multiplicative closures of single elements, in order
    of their least seed."""
    return list({S.key: S for S in (generated_subset(ring, [x])
                                    for x in range(ring.size))}.values())


def ideal_intersect(a, b):
    return IdealSet(a.ring, a.mask & b.mask)


def is_modular_ideal(ring, imask):
    """Some e acts as identity mod I on both sides.

    r -> er - r is additive in r, so e works iff it works on the ring's
    additive generators; that makes the scan over candidates linear.
    """
    ok = np.ones(ring.size, dtype=bool)
    idx = ring.elements
    for g in ring.addgens:
        g64 = np.int64(g)
        ok &= imask[ring.sub_vec(ring.mul_vec(idx, g64), g64)]
        ok &= imask[ring.sub_vec(ring.mul_vec(g64, idx), g64)]
        if not ok.any():
            return False
    return bool(ok.any())


def _tab(pairs):
    if pairs is None:
        return None
    return tuple((int(s), (int(a), int(b))) for s, (a, b) in pairs)


def oracle_sweep(corpus, size_cap=200):
    """Compare fast and naive verdicts on every instance whose ring has at
    most size_cap elements.  Returns (comparison count, mismatch list)."""
    checked = 0
    bad = []

    def expect(cond, *key):
        nonlocal checked
        checked += 1
        if not cond:
            bad.append(key)

    for ctx in corpus.contexts:
        ring = ctx.ring
        if ring.size > size_cap:
            continue
        nr = naive.NaiveRing(ring)
        njac = naive.jacobson(nr)
        expect(frozenset(map(int, ctx.jac.members)) == njac,
               ring.label, "jacobson")
        nideals = naive.all_ideals(nr)
        expect({frozenset(map(int, i.members)) for i in ctx.lattice.ideals}
               == set(nideals), ring.label, "ideal lattice")
        comm = ring.commutative and ring.one is not None
        nbeta = naive.nilpotent_elements(nr) if comm else None

        for I in ctx.ideals:
            iset = frozenset(map(int, I.members))
            r = P.is_J_ideal(ring, I, jacobson=ctx.jac, lattice=ctx.lattice)
            nv, ncx = naive.is_j_ideal(nr, iset, njac)
            expect(r.verdict == nv and r.counterexample == ncx,
                   ring.label, "j", I.label)
            if comm:
                r = P.is_n_ideal(ring, I, beta=ctx.beta[0],
                                 lattice=ctx.lattice)
                nv, ncx = naive.is_n_ideal(nr, iset, nbeta)
                expect(r.verdict == nv and r.counterexample == ncx,
                       ring.label, "n", I.label)
            for S in ctx.subsets:
                if I.mask[S.members].any():
                    continue
                sm = sorted(int(x) for x in S.members)
                if comm:
                    r = P.is_S_J_ideal(ring, I, S, jacobson=ctx.jac,
                                       lattice=ctx.lattice)
                    nv, nw, ntab = naive.s_j_check(nr, iset, sm, njac)
                    ok = r.verdict == nv and r.witness_s == nw
                    if not nv:
                        ok = ok and _tab(r.counterexample) == _tab(ntab)
                    expect(ok, ring.label, "s-j", I.label, S.label)

                    rp = P.is_S_J_ideal(ring, I, S, jacobson=ctx.jac,
                                        lattice=ctx.lattice,
                                        mode="per-pair-s")
                    nv, ncx = naive.s_j_per_pair(nr, iset, sm, njac)
                    expect(rp.verdict == nv and rp.counterexample == ncx,
                           ring.label, "s-j/per-pair", I.label, S.label)

                    r = P.is_S_n_ideal(ring, I, S, beta=ctx.beta[0],
                                       lattice=ctx.lattice)
                    nv, nw, ntab = naive.s_n_check(nr, iset, sm, nbeta)
                    ok = r.verdict == nv and r.witness_s == nw
                    if not nv:
                        ok = ok and _tab(r.counterexample) == _tab(ntab)
                    expect(ok, ring.label, "s-n", I.label, S.label)

                    r = P.is_S_prime(ring, I, S)
                    nv, nw, ntab = naive.s_prime_check(nr, iset, sm)
                    ok = r.verdict == nv and r.witness_s == nw
                    if not nv:
                        ok = ok and _tab(r.counterexample) == _tab(ntab)
                    expect(ok, ring.label, "s-prime", I.label, S.label)

                r = P.is_right_S_prime(ring, I, S, lattice=ctx.lattice)
                nv, nw, _ = naive.right_s_prime(nr, iset, sm, ideals=nideals)
                expect(r.verdict == nv and r.witness_s == nw,
                       ring.label, "right-s-prime", I.label, S.label)

                r = P.is_right_S_J_ideal(ring, I, S, lattice=ctx.lattice,
                                         jacobson=ctx.jac)
                nv, nw, _ = naive.right_s_j(nr, iset, sm, njac,
                                            ideals=nideals)
                expect(r.verdict == nv and r.witness_s == nw,
                       ring.label, "right-s-j", I.label, S.label)

                if ring.one is not None:
                    r = P.is_right_S_J_ideal(ring, I, S, lattice=ctx.lattice,
                                             jacobson=ctx.jac,
                                             method="elementwise")
                    nv, nw, ntab = naive.right_s_j_elementwise(
                        nr, iset, sm, njac)
                    ok = r.verdict == nv and r.witness_s == nw
                    if not nv:
                        ok = ok and _tab(r.counterexample) == _tab(ntab)
                    expect(ok, ring.label, "right-s-j/elementwise",
                           I.label, S.label)
    return checked, bad
