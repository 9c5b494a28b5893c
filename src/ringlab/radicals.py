"""Radicals and unit groups.

For a finite ring the Jacobson radical equals the largest nilpotent ideal,
which is how the primary routine computes it: a sum of nilpotent ideals is
nilpotent, so the largest nilpotent ideal of the lattice holds the rest.
Two independent characterizations, via quasi-regular elements and via
units, are cross-checks and are used heavily by the test suite.
"""

import numpy as np

from .errors import NotApplicable, InternalInconsistency
from .ideals import IdealSet, enumerate_ideals, zero_ideal, unit_ideal
from .rings import units_mask

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


def jacobson_radical(ring, lattice=None):
    """Largest nilpotent ideal, as an IdealSet."""
    if lattice is None:
        lattice = enumerate_ideals(ring)
    nilpotent = np.flatnonzero(lattice.nilpotent_flags)
    top = int(nilpotent[-1])
    if not lattice.leq[nilpotent, top].all():
        raise InternalInconsistency("join of nilpotent ideals not nilpotent",
                                    ring=ring.label)
    return IdealSet(ring, lattice.ideals[top].mask,
                    label="J(%s)" % ring.label)


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


def prime_radical(ring, lattice=None):
    """Intersection of the proper prime ideals.

    Returns (ideal, degenerate); degenerate is True when no proper prime
    exists, in which case the intersection defaults to the whole ring.
    """
    if lattice is None:
        lattice = enumerate_ideals(ring)
    primes = lattice.prime_indices()
    if not primes:
        return unit_ideal(ring), True
    mask = np.logical_and.reduce([lattice.ideals[i].mask for i in primes])
    return IdealSet(ring, mask, label="beta(%s)" % ring.label), False


def j_star(ring, ideal, lattice=None):
    """Intersection of the maximal ideals containing the given ideal.

    Defined here only for rings with identity (maximal ideals then exist
    for every proper ideal); the whole ring comes back when nothing lies
    above, i.e. for the unit ideal.
    """
    if ring.one is None:
        raise NotApplicable("maximal-ideal intersection needs an identity",
                            ring=ring.label)
    if lattice is None:
        lattice = enumerate_ideals(ring)
    i = lattice.idx_of(ideal)
    above = [lattice.ideals[m].mask for m in lattice.maximal_indices()
             if lattice.leq[i, m]]
    if not above:
        return unit_ideal(ring)
    return IdealSet(ring, np.logical_and.reduce(above))
