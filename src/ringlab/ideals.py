"""Two-sided ideals: generation, full lattice enumeration, and operations.

Ideals are stored as boolean membership masks over the ring's element
indices.  Generation works without an identity: the ideal generated by a
set G is the additive closure of the orbit of G under left and right
multiplication by the ring's additive generators, which equals
ZG + RG + GR + RGR.

The lattice is enumerated by condensing the multiplication-reachability
graph: elements in the same strongly connected component generate the same
principal ideal, and principal ideals are built children first along the
condensation DAG; on table rings with identity, unit-group generators join
the additive ones as multipliers, since x, ux and xu generate one ideal.
The components are found in numpy by array sweeps: the cycles of the
multiplications that permute the ring are contracted by pointer doubling,
starting from the ring's unit classes (``Ring.unit_classes``), elements
with no way in or out are peeled off as singletons, and what is left is
split by forward and backward label propagation ("colouring").
Every ideal is a sum of principals, so the rest of the lattice comes from
adding one principal at a time to each ideal found.  Since |A + B| =
|A||B| / |A & B| for subgroups, a known ideal of that size holding both A
and B is their sum, and an additive closure runs only for an ideal not
seen before.  Lattice facts are read from containment, with no closure.
"""

import numpy as np

from .errors import CapacityExceeded, InvalidIdeal
from .memo import fact, once, readonly
from .rings import additive_closure, orbit_least

DEFAULT_IDEAL_BUDGET = 100_000


class IdealSet:
    """A two-sided ideal as an immutable membership mask."""

    def __init__(self, ring, mask, label=None):
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != (ring.size,):
            raise InvalidIdeal("mask length does not match the ring",
                               ring=ring.label)
        self.ring = ring
        self.mask = readonly(mask.copy())
        self.label = label
        self._facts = {}        # members, addgens, mingens

    @fact
    def members(self):
        return np.flatnonzero(self.mask)

    @property
    def size(self):
        return int(self.mask.sum())

    @property
    def key(self):
        return self.mask.tobytes()

    @property
    def is_zero(self):
        return self.size == 1

    @property
    def is_proper(self):
        return self.size < self.ring.size

    def contains(self, x):
        return bool(self.mask[int(x)])

    @fact
    def addgens(self):
        """Additive generators of the ideal's underlying group."""
        ring = self.ring
        cur = np.zeros(ring.size, dtype=bool)
        cur[ring.zero] = True
        gens = []
        for x in self.members:
            if not cur[x]:
                gens.append(int(x))
                cur = additive_closure(ring, [int(x)], cur)
        return gens

    def __eq__(self, other):
        return (isinstance(other, IdealSet) and self.ring is other.ring
                and self.key == other.key)

    def __hash__(self):
        return hash(self.key)

    def __repr__(self):
        name = self.label or "ideal"
        return "<IdealSet %s (%d of %d)>" % (name, self.size, self.ring.size)


def zero_ideal(ring):
    mask = np.zeros(ring.size, dtype=bool)
    mask[ring.zero] = True
    return IdealSet(ring, mask, label="0")


def unit_ideal(ring):
    return IdealSet(ring, np.ones(ring.size, dtype=bool), label="R")


def _orbit(ring, seeds):
    """All elements reachable from seeds by one-sided multiplications."""
    gens = [np.int64(g) for g in ring.addgens]
    reached = np.zeros(ring.size, dtype=bool)
    frontier = np.unique(np.asarray(seeds, dtype=np.int64))
    reached[frontier] = True
    while frontier.size:
        nxt = []
        for g in gens:
            nxt.append(ring.mul_vec(g, frontier))
            nxt.append(ring.mul_vec(frontier, g))
        if not nxt:
            break
        cand = np.unique(np.concatenate(nxt))
        new = cand[~reached[cand]]
        reached[new] = True
        frontier = new
    return reached


def ideal_generate(ring, gens):
    """Membership mask of the two-sided ideal generated by ``gens``."""
    gens = np.asarray(gens, dtype=np.int64).ravel()
    if gens.size == 0:
        return zero_ideal(ring).mask.copy()
    orbit = _orbit(ring, gens)
    return additive_closure(ring, np.flatnonzero(orbit))


def principal_ideal(ring, x, label=None):
    return IdealSet(ring, ideal_generate(ring, [x]),
                    label=label or "gen(%s)" % ring.element_label(x))


# ---------------------------------------------------------------------------
# operations


def ideal_product(a, b):
    """AB = additive closure of pairwise products of additive generators."""
    ring = a.ring
    ga = np.asarray(a.addgens, dtype=np.int64)
    gb = np.asarray(b.addgens, dtype=np.int64)
    if ga.size == 0 or gb.size == 0:
        return zero_ideal(ring)
    prods = ring.mul_vec(ga[:, None], gb[None, :]).ravel()
    return IdealSet(ring, additive_closure(ring, np.unique(prods)))


def colon_elem_mask(ring, imask, a):
    """(I : a) = {x : x a in I} as a mask."""
    return imask[ring.mul_vec(ring.elements, np.int64(a))]


def colon_subset_mask(ring, imask, xs):
    out = np.ones(ring.size, dtype=bool)
    for x in np.asarray(xs, dtype=np.int64).ravel():
        out &= colon_elem_mask(ring, imask, x)
    return out


def colon_ideal_mask(ring, pmask, t_ideal):
    """(P : T) for an ideal T; membership needs only T's additive generators."""
    return colon_subset_mask(ring, pmask, t_ideal.addgens)


def minimal_generating_set(ideal):
    """Small generating set: greedy cover, then drop redundant members.

    Computed once per IdealSet; every call returns a fresh list.
    """
    return list(once(ideal._facts, "mingens",
                     lambda: tuple(_minimal_generating_set(ideal))))


def _minimal_generating_set(ideal):
    ring = ideal.ring
    gens = []
    cur = zero_ideal(ring).mask
    for x in ideal.members:
        if not cur[x]:
            gens.append(int(x))
            cur = ideal_generate(ring, gens)
    # prune: a generator already produced by the others is dropped
    changed = True
    while changed and len(gens) > 1:
        changed = False
        for g in list(gens):
            rest = [h for h in gens if h != g]
            if ideal_generate(ring, rest)[g]:
                gens = rest
                changed = True
                break
    return gens


# ---------------------------------------------------------------------------
# lattice enumeration


class IdealLattice:
    """All two-sided ideals of a ring, canonically ordered by (size, mask)."""

    def __init__(self, ring, ideals, principal_of):
        self.ring = ring
        self.ideals = ideals
        self.principal_of = principal_of
        self.key_to_idx = {ideal.key: i for i, ideal in enumerate(ideals)}
        self._facts = {}        # the @fact properties below

    def __len__(self):
        return len(self.ideals)

    def idx_of(self, ideal):
        try:
            return self.key_to_idx[ideal.key]
        except KeyError:
            raise InvalidIdeal("ideal is not in the lattice",
                               ring=self.ring.label)

    @property
    def top_idx(self):
        return len(self.ideals) - 1

    @fact
    def leq(self):
        """leq[i, j] is True when ideal i is contained in ideal j."""
        masks = np.array([ideal.mask for ideal in self.ideals], dtype=float)
        return readonly(masks @ masks.T == masks.sum(axis=1)[:, None])

    @fact
    def _basis(self):
        """(principal indices, cover, pp).  An ideal is the sum of its
        cover, the largest principal ideals inside it.  pp[a, b] indexes
        <x><y> for generators x, y of principals a and b: the ideal made by
        xy and x g y for additive generators g (terms r xy s, r x r'y s).
        """
        ring, leq, of = self.ring, self.leq, self.principal_of
        pidx, reps = np.unique(of, return_index=True)
        mids = np.array([reps] + [ring.mul_vec(np.int64(g), reps)
                                  for g in ring.addgens])
        pp = np.array([leq[of[ring.mul_vec(x, mids)]].all(axis=0).argmax(1)
                       for x in reps])
        below = leq[pidx]
        # count[a, k]: principal ideals b with <a> inside <b> inside ideal k
        count = (leq[np.ix_(pidx, pidx)].astype(np.float32)
                 @ below.astype(np.float32))
        return pidx, [np.flatnonzero(c) for c in (below & (count == 1)).T], pp

    @fact
    def prod(self):
        """prod[i, j] is the index of the product of ideals i and j.

        Read-only, built on first use; product_idx finds one entry alone.
        Products distribute over sums, so entry (i, j) is the least ideal
        above the principal products of the covers of i and j.
        """
        _, cover, pp = self._basis
        cols = np.concatenate(cover)
        starts = np.cumsum([0] + [len(c) for c in cover[:-1]])
        table = np.array([np.logical_and.reduceat(
            self.leq[pp[np.ix_(rows, cols)]].all(axis=0), starts).argmax(1)
            for rows in cover])
        return readonly(table)

    def principal(self, x):
        """The principal ideal <x>, read from the principal_of index."""
        return self.ideals[self.principal_of[int(x)]]

    def product_idx(self, i, j):
        _, cover, pp = self._basis
        held = self.leq[pp[np.ix_(cover[i], cover[j])].ravel()]
        return int(held.all(axis=0).argmax())

    def is_maximal_idx(self, i):
        """Proper, and only itself and the top lie above it."""
        return i != self.top_idx and int(self.leq[i].sum()) == 2

    @fact
    def prime_flags(self):
        """prime_flags[i] is True when ideal i is prime; read-only.

        A proper P is prime iff no principal <a> outside it has
        <a><b0> inside it, where <b0> is the first principal ideal
        outside P in lattice order, so one of least size.  If P is prime
        no such a exists.  If not, take nonzero ideals A', B' of R/P with
        A'B' = 0 and let A, L be their preimages.  If L<b0> is not inside
        P, some c in L<b0> lies outside P; <c> lies in <b0>, so by
        minimality <c> = <b0>, which lies in L, and any a in A outside P
        has <a><b0> inside AL, inside P.  Otherwise any a in L outside P
        has <a><b0> inside L<b0>, inside P.  The argument needs neither an
        identity nor commutativity.
        """
        pidx, _, pp = self._basis
        outside = ~self.leq[pidx]
        b0 = outside.argmax(axis=0)
        below = self.leq[pp[:, b0], np.arange(len(self.ideals))]
        flags = ~(outside & below).any(axis=0)
        flags[self.top_idx] = False
        return readonly(flags)

    def is_prime_idx(self, i):
        return bool(self.prime_flags[i])

    @fact
    def nilpotent_flags(self):
        """nilpotent_flags[i] is True when ideal i is nilpotent; read-only.
        I, I^2, I^4, ... settles within len(self) steps, at 0 iff nilpotent.
        """
        power = np.array([self.product_idx(i, i) for i in range(len(self))])
        for _ in range(len(self.ideals).bit_length()):
            power = power[power]
        return readonly(power == 0)

    def is_nilpotent_idx(self, i):
        return bool(self.nilpotent_flags[i])

    def is_superfluous_idx(self, i):
        """I + B = R forces B = R: each proper B has a proper bound with I."""
        top, leq = self.top_idx, self.leq
        return bool((leq[i, :top] & leq[:top, :top]).any(axis=1).all())

    def maximal_indices(self):
        return [i for i in range(len(self.ideals)) if self.is_maximal_idx(i)]

    def prime_indices(self):
        return np.flatnonzero(self.prime_flags).tolist()


def _changes(values):
    """True where an entry differs from the one before it, and at 0."""
    return np.concatenate(([True], values[1:] != values[:-1]))[:values.size]


def _distinct(values):
    """Sorted distinct values; np.unique hashes first, which costs far
    more than a sort on the edge keys here."""
    values = np.sort(values)
    return values[_changes(values)]


def _strong_components(n, maps, least=None):
    """(n_comp, labels) of the graph on range(n) with an edge x -> f[x]
    for each map f in ``maps``.

    The cycles of a map that permutes the nodes lie inside one component,
    so each node first takes the least node of its orbit under those maps,
    by pointer doubling (``rings.orbit_least``) from ``least``: when
    given, each node's least orbit-mate under some of those maps, as the
    unit classes give it.  On the contracted graph, a node with no edge in
    or none out is a component alone (trimming).  Of the rest, each node
    takes the largest id that reaches it (forward colouring); a node whose
    colour is its own id is a root, and the nodes of its colour that reach
    it form its component (Fleischer, Hendrickson and Pinar, "On
    identifying strongly connected components in parallel", 2000).
    """
    ids = np.arange(n)
    perms, rest = [], []
    for f in maps:
        (perms if np.bincount(f, minlength=n).max() == 1
         else rest).append(f)
    rep = orbit_least(ids if least is None else least, perms)

    src = np.tile(rep, len(rest))
    dst = rep[np.concatenate([ids[:0]] + rest)]
    pairs = _distinct((src * n + dst)[src != dst])
    src, dst = pairs // n, pairs % n
    comp = ids.copy()
    alive = rep == ids
    while alive.any():
        live = alive[src] & alive[dst]
        src, dst = src[live], dst[live]
        has_in = np.zeros(n, dtype=bool)
        has_out = np.zeros(n, dtype=bool)
        has_in[dst] = True
        has_out[src] = True
        lone = alive & ~(has_in & has_out)
        if lone.any():
            alive &= ~lone
            continue
        colour = np.where(alive, ids, -1)
        while True:
            nxt = colour.copy()
            np.maximum.at(nxt, dst, colour[src])
            if (nxt == colour).all():
                break
            colour = nxt
        reached = alive & (colour == ids)
        same = colour[src] == colour[dst]
        back_src, back_dst = src[same], dst[same]
        while True:
            new = reached[back_dst] & ~reached[back_src]
            if not new.any():
                break
            reached[back_src[new]] = True
        comp[reached] = colour[reached]
        alive &= ~reached
    comp = comp[rep]
    number = np.zeros(n, dtype=np.int64)
    number[comp] = 1
    number = np.cumsum(number) - 1
    return int(number[-1]) + 1, number[comp]


def _condensation_order(labels, n_comp, maps):
    """Children-first levels of the condensation DAG, and its edges.

    The DAG is peeled a level at a time: a component joins a level once
    all its children are in earlier ones.  Edge i runs from component
    ``parents[i]`` to its child ``kids[i]``, sorted by parent.
    """
    cs = np.tile(labels, len(maps))
    cd = labels[np.concatenate([labels[:0]] + maps)]
    keep = cs != cd
    pairs = _distinct(cs[keep] * n_comp + cd[keep])
    parents, kids = pairs // n_comp, pairs % n_comp
    pending = np.bincount(parents, minlength=n_comp)
    levels = []
    level = np.flatnonzero(pending == 0)
    while level.size:
        levels.append(level)
        pending[level] = -1
        done = np.zeros(n_comp, dtype=bool)
        done[level] = True
        pending -= np.bincount(parents[done[kids]], minlength=n_comp)
        level = np.flatnonzero(pending == 0)
    return levels, parents, kids


def _reachability_maps(ring):
    """The multiplication-reachability graph as maps x -> m x and x -> x m,
    for m an additive generator or, on table rings, a unit-group one."""
    mults = list(ring.addgens) + list(ring.unit_generators)
    maps = []
    for m in mults:
        m64 = np.int64(m)
        maps += [ring.mul_vec(m64, ring.elements),
                 ring.mul_vec(ring.elements, m64)]
    return maps


def _budget_error(ring, masks, budget):
    partial = sorted(masks, key=lambda m: (int(m.sum()), m.tobytes()))
    return CapacityExceeded("ideal lattice larger than budget",
                            partial=[IdealSet(ring, m) for m in partial],
                            budget=budget, ring=ring.label)


def enumerate_ideals(ring, budget=DEFAULT_IDEAL_BUDGET):
    """Every two-sided ideal of the ring as an IdealLattice.

    Raises CapacityExceeded (with the ideals found so far attached as
    ``partial``) if more than ``budget`` ideals show up.
    """
    n = ring.size
    maps = _reachability_maps(ring)
    cls, reps = ring.unit_classes
    n_comp, labels = _strong_components(n, maps, reps[cls])
    levels, parents, kids = _condensation_order(labels, n_comp, maps)

    # masks[i] is the i-th distinct ideal found and sizes[i] its size; each
    # is hashed once, and comp_pid[c] indexes the principal ideal of c
    trivial = np.zeros(n, dtype=bool)
    trivial[ring.zero] = True
    masks, sizes = [trivial], [1]
    index_of = {trivial.tobytes(): 0}

    def grow(i, extra):
        """Index of the ideal masks[i] + <extra>, adding it when new."""
        mask = additive_closure(ring, extra, masks[i])
        j = index_of.setdefault(mask.tobytes(), len(masks))
        if j == len(masks):
            masks.append(mask)
            sizes.append(int(mask.sum()))
        return j

    joined = {}

    def join(a, b):
        """Index of the ideal masks[a] + masks[b]; each pair is summed once."""
        if sizes[a] < sizes[b]:
            a, b = b, a
        if (a, b) not in joined:
            extra = np.flatnonzero(masks[b] & ~masks[a])
            joined[a, b] = grow(a, extra) if extra.size else a
        return joined[a, b]

    # principal ideal of each component, a level at a time: the sum of its
    # children's principals, folded two at a time over the distinct ones,
    # then grown by any member that sum does not hold yet
    comp_pid = np.zeros(n_comp, dtype=np.int64)
    for level in levels:
        in_level = np.zeros(n_comp, dtype=bool)
        in_level[level] = True
        edge = in_level[parents]
        comp, pid = parents[edge], comp_pid[kids[edge]]
        while True:
            order = np.lexsort((pid, comp))
            comp, pid = comp[order], pid[order]
            first = _changes(comp)
            keep = first | _changes(pid)
            comp, pid, first = comp[keep], pid[keep], first[keep]
            second = np.flatnonzero(~first)
            second = second[first[second - 1]]
            if not second.size:
                break
            known = len(masks)
            key = pid[second - 1] * known + pid[second]
            pairs = _distinct(key)
            sums = np.array([join(k // known, k % known)
                             for k in pairs.tolist()])
            pid[second - 1] = sums[np.searchsorted(pairs, key)]
            comp, pid = np.delete(comp, second), np.delete(pid, second)
        base = np.zeros(n_comp, dtype=np.int64)
        base[comp] = pid
        comp_pid[level] = base[level]
        x = np.flatnonzero(in_level[labels])
        bx = base[labels[x]]
        held = _distinct(bx)
        inside = np.array([masks[k] for k in held])[
            np.searchsorted(held, bx), x]
        for c in _distinct(labels[x[~inside]]).tolist():
            extra = np.flatnonzero((labels == c) & ~masks[base[c]])
            comp_pid[c] = grow(base[c], extra)

    # every ideal is a sum of principals: add one principal at a time, and
    # close only when no known ideal of size |A||P|/|A & P| holds A and P;
    # meet[k][j] = |ideal k & principal j|, and ideal k holds A iff it holds
    # every principal inside A
    pids = sorted(set(comp_pid.tolist()))
    principals = np.array([masks[i] for i in pids])
    psizes = np.array([sizes[i] for i in pids])
    meet = [np.count_nonzero(principals & mask, axis=1) for mask in masks]
    head = 0
    while head < len(masks):
        a, asize, common = masks[head], sizes[head], meet[head]
        inside = np.array(meet) == psizes
        holds_a = ~(inside[head] & ~inside).any(axis=1)
        head += 1
        js = np.flatnonzero((common != psizes) & (common != asize))
        want = asize * psizes[js] // common[js]
        known = (holds_a[:, None] & inside[:, js]
                 & (np.array(sizes)[:, None] == want)).any(axis=0)
        fresh = []
        for j, size in zip(js[~known].tolist(), want[~known].tolist()):
            if any(sizes[k] == size and meet[k][j] == psizes[j]
                   for k in fresh):
                continue
            if len(masks) >= budget:
                raise _budget_error(ring, masks, budget)
            fresh.append(len(masks))
            masks.append(additive_closure(
                ring, np.flatnonzero(principals[j] & ~a), a))
            sizes.append(size)
            meet.append(np.count_nonzero(principals & masks[-1], axis=1))
    if len(masks) > budget:
        raise _budget_error(ring, masks, budget)

    rank = sorted(range(len(masks)),
                  key=lambda i: (sizes[i], masks[i].tobytes()))
    ideals = [IdealSet(ring, masks[i]) for i in rank]
    position = np.empty(len(masks), dtype=np.int64)
    position[rank] = np.arange(len(masks))
    return IdealLattice(ring, ideals, position[comp_pid[labels]])
