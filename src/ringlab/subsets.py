"""Multiplicative subsets and m-systems.

A SubsetS is a nonempty set of ring elements validated at construction:

* ``mulclosed``: closed under pairwise products (s t in S for all s, t);
* ``msystem``: for every a, b in S some r exists with a r b in S.

Validation failures raise InvalidSubset carrying the lexicographically
smallest offending pair, so reports stay reproducible.
"""

import numpy as np

from .errors import InvalidSubset, InvalidParameter, RingMismatch

KINDS = ("mulclosed", "msystem")


class SubsetS:
    def __init__(self, ring, members, kind="mulclosed", check=True, label=None):
        if kind not in KINDS:
            raise InvalidParameter("unknown subset kind", kind=kind)
        members = np.unique(np.asarray(list(members), dtype=np.int64))
        if members.size == 0:
            raise InvalidSubset("subset must be nonempty")
        if members.min() < 0 or members.max() >= ring.size:
            raise InvalidSubset("subset members outside the ring",
                                ring=ring.label)
        self.ring = ring
        self.kind = kind
        self.members = members
        mask = np.zeros(ring.size, dtype=bool)
        mask[members] = True
        mask.setflags(write=False)
        self.mask = mask
        self.label = label
        if check:
            self.validate()

    @property
    def key(self):
        return (self.kind, self.mask.tobytes())

    @property
    def size(self):
        return int(self.members.size)

    def contains(self, x):
        return bool(self.mask[int(x)])

    def validate(self):
        if self.kind == "mulclosed":
            self._validate_mulclosed()
        else:
            self._validate_msystem()

    def _validate_mulclosed(self):
        ring = self.ring
        mem = self.members
        prods = ring.mul_vec(mem[:, None], mem[None, :])
        bad = ~self.mask[prods]
        if bad.any():
            i, j = np.argwhere(bad)[0]
            raise InvalidSubset(
                "subset is not closed under multiplication",
                witness=(int(mem[i]), int(mem[j])), ring=ring.label)

    def _validate_msystem(self):
        ring = self.ring
        idx = ring.elements
        for a in self.members:
            a64 = np.int64(a)
            left = ring.mul_vec(a64, idx)
            for b in self.members:
                hit = self.mask[ring.mul_vec(left, np.int64(b))]
                if not hit.any():
                    raise InvalidSubset(
                        "no middle element for this pair",
                        witness=(int(a), int(b)), ring=ring.label)

    def __eq__(self, other):
        return (isinstance(other, SubsetS) and self.ring is other.ring
                and self.key == other.key)

    def __hash__(self):
        return hash(self.key)

    def __repr__(self):
        name = self.label or "S"
        return "<SubsetS %s %s (%d els)>" % (self.kind, name, self.size)


def mul_closure(ring, seeds):
    """Smallest multiplicatively closed superset of ``seeds``."""
    seeds = np.unique(np.asarray(list(seeds), dtype=np.int64))
    mask = np.zeros(ring.size, dtype=bool)
    mask[seeds] = True
    frontier = seeds
    while frontier.size:
        mem = np.flatnonzero(mask)
        new = np.unique(np.concatenate([
            ring.mul_vec(frontier[:, None], mem[None, :]).ravel(),
            ring.mul_vec(mem[:, None], frontier[None, :]).ravel()]))
        new = new[~mask[new]]
        mask[new] = True
        frontier = new
    return np.flatnonzero(mask)


def generated_subset(ring, seeds, label=None):
    """Multiplicatively closed subset generated by ``seeds``."""
    return SubsetS(ring, mul_closure(ring, seeds), kind="mulclosed",
                   check=False, label=label)


# ---------------------------------------------------------------------------
# transport along ring constructions


def subset_product(s1, s2, prod_ring, kind=None, label=None):
    """S1 x S2 inside a product ring."""
    if prod_ring.r1 is not s1.ring or prod_ring.r2 is not s2.ring:
        raise RingMismatch("subset factors do not match the product ring")
    mem = (s1.members[:, None] * prod_ring.r2.size + s2.members[None, :]).ravel()
    if kind is None:
        kind = s1.kind if s1.kind == s2.kind else "mulclosed"
    return SubsetS(prod_ring, mem, kind=kind, label=label)


def subset_idealization(s, ideal_ring, label=None):
    """S x M inside an idealization; the module part is unrestricted."""
    if ideal_ring.base is not s.ring:
        raise RingMismatch("subset base does not match the idealization")
    msize = ideal_ring.module.size
    mem = (s.members[:, None] * msize
           + np.arange(msize, dtype=np.int64)[None, :]).ravel()
    return SubsetS(ideal_ring, mem, kind=s.kind, label=label)


def subset_amalgamation(s, amalg_ring, label=None):
    """{(s, f(s))} inside an amalgamation, i.e. the j = 0 copy of S."""
    if amalg_ring.base is not s.ring:
        raise RingMismatch("subset base does not match the amalgamation")
    nj = len(amalg_ring.jmembers)
    zpos = int(amalg_ring.jpos[amalg_ring.target.zero])
    mem = s.members * nj + zpos
    return SubsetS(amalg_ring, mem, kind=s.kind, label=label)


def subset_quotient_image(s, hom, label=None):
    """Image of S under a surjection; closure laws push forward."""
    if hom.source is not s.ring:
        raise RingMismatch("subset does not live in the hom source")
    return SubsetS(hom.target, np.unique(hom.map[s.members]), kind=s.kind,
                   label=label)


def subset_const_embed(s, trunc_ring, label=None):
    """S as constant polynomials inside a truncated polynomial ring."""
    if trunc_ring.base is not s.ring:
        raise RingMismatch("subset base does not match the truncated ring")
    return SubsetS(trunc_ring, s.members, kind=s.kind, label=label)
