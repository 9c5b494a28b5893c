"""Radicals: the Jacobson radical, the prime radical and j-star.

For a finite ring the Jacobson radical equals the largest nilpotent ideal,
which is how it is computed here: a sum of nilpotent ideals is nilpotent,
so the largest nilpotent ideal of the lattice holds the rest.  The test
suite checks it against two independent characterizations, via
quasi-regular elements and via units (``tests/_oracle.py``).
"""

import numpy as np

from .errors import NotApplicable, InternalInconsistency
from .ideals import IdealSet, enumerate_ideals, unit_ideal

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
