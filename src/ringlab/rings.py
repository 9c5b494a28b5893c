"""Finite ring backends.

A ring is a finite set of element indices 0..size-1.  Each backend
defines addition, multiplication and negation by vectorized index
formulas, which operate on whole numpy arrays at once.  Rings with at
most TABLE_LIMIT elements also get read-only int32 Cayley tables, built
lazily: on the first read of ``mul_table``, or once the vector ops have
evaluated by formula as many cells as the tables hold (size**2), so a
factor that serves a few calls of a product above TABLE_LIMIT never pays
for them.  The formulas give only the rows of the additive generators, and
a walk over the additive group from zero fills every other row from rows
already filled, by one-dimensional takes: a sum row is a take along the
columns of a filled sum row, a product row a flat take into the sum table.
The walk takes rows in blocks that allocate at most _BLOCK_BYTES (1 MiB)
each, so the transient memory beside the tables stays near 1 MiB.
Larger rings (the 2x2 matrices over Z12, for instance) always evaluate
through the formulas.  The matrix and truncated polynomial constructors
refuse rings above MAX_RING_SIZE elements.

Rings without identity are first class: ``one`` is None when no identity
exists and nothing downstream may assume otherwise.
"""

import numpy as np

from .errors import (InvalidParameter, InvalidModule, InvalidIdeal,
                     RingMismatch)
from .memo import fact, readonly

TABLE_LIMIT = 4096
MAX_RING_SIZE = 50_000_000
_BLOCK_BYTES = 1 << 20      # bytes one row block of a large gather allocates


def _as_idx(a):
    return np.asarray(a, dtype=np.int64)


def _row_blocks(rows, row_bytes):
    """Slices covering range(rows), sized so that a block allocates at most
    _BLOCK_BYTES when the work on one row allocates row_bytes (the caller
    counts every array it makes per row, index arrays included)."""
    step = max(1, _BLOCK_BYTES // row_bytes)
    return [slice(lo, lo + step) for lo in range(0, rows, step)]


def _subgroup_extend(mask, x, add_vec):
    """Grow the subgroup ``mask`` by the cyclic group of ``x``, in place.

    mask must already be a subgroup H.  Doubling: with S = H and t = x,
    each step sets S to S | (S + t) and t to 2t, so after i steps S is
    H + {0, ..., 2^i - 1}x and t = 2^i x.  Once t lies in S, the order k
    of x modulo H is at most 2^i, so S is already H + <x>.  An x of order
    k costs ceil(log2 k) vector adds; t rides at the end of the member
    array, so one add also yields 2t.
    """
    t = int(x)
    while not mask[t]:
        members = np.append(np.flatnonzero(mask), t)
        out = add_vec(members, t)
        mask[out[:-1]] = True
        t = int(out[-1])


def _group_addgens(size, zero, add_vec):
    """Greedy additive generating set; at most log2(size) generators."""
    mask = np.zeros(size, dtype=bool)
    mask[zero] = True
    gens = []
    while True:
        nxt = int(np.argmin(mask))
        if mask[nxt]:
            break
        gens.append(nxt)
        _subgroup_extend(mask, nxt, add_vec)
    return gens


class Ring:
    """Base class for all ring backends.

    Subclasses implement ``_add_vec``, ``_mul_vec``, ``_neg_vec`` on int64
    arrays (broadcasting allowed) and may provide ``_one_candidate``.
    These formulas define the ring: they give ``addgens`` and the
    generator rows of the tables, and every op above TABLE_LIMIT.  The
    public ``add_vec``/``mul_vec``/``neg_vec`` read the tables where they
    exist, and build them once their formula cells reach size**2 (rent
    or buy: Karlin, Manasse, Rudolph & Sleator, Algorithmica 1988).
    """

    def __init__(self, size, label, zero):
        if size < 1:
            raise InvalidParameter("ring size must be >= 1", size=size)
        self.size = int(size)
        self.label = label
        self.zero = int(zero)
        self._add_table = None
        self._mul_table = None
        self._neg_table = None
        self._formula_cells = 0     # cells add_vec/mul_vec gave by formula
        self._facts = {}        # elements, addgens, one, unit_*, commutative

    # -- formula interface ------------------------------------------------

    def _add_vec(self, a, b):
        raise NotImplementedError

    def _mul_vec(self, a, b):
        raise NotImplementedError

    def _neg_vec(self, a):
        raise NotImplementedError

    def _one_candidate(self):
        return None

    # -- public vector ops (table-routed when cheap) ----------------------

    def _materialize(self):
        """Fill the Cayley tables by walking the additive group from zero.

        The formulas are evaluated only on the rows of the additive
        generators.  Each generator g grows the filled set S by doubling,
        as in ``_subgroup_extend``: with t = 2^i g, the new rows y = s + t
        (s in S) are gathers of filled rows, add[y] = add[s][add[t]]
        since (s + t) + b = s + (t + b), and add[2t] = add[t][add[t]].
        The product rows replay the same steps on the finished sum table:
        mul[y] = add[mul[s], mul[t]] since (s + t)b = sb + tb, and
        mul[2t] = add[mul[t], mul[t]].

        Both gathers are one-dimensional takes.  A block of sum rows is
        ``np.take(add[s], add[t], axis=1)``: a copied int32 block and its
        int32 take, 8 bytes a cell.  A block of product rows is a take
        from the flat sum table at the intp index mul[s] * n + mul[t],
        built in place: 12 bytes a cell.  ``_row_blocks`` sizes the blocks
        by those bytes, so no step allocates more than _BLOCK_BYTES.
        """
        n = self.size
        idx = self.elements
        add = np.empty((n, n), dtype=np.int32)
        mul = np.empty((n, n), dtype=np.int32)
        add[self.zero] = idx
        mul[self.zero] = self.zero
        filled = np.zeros(n, dtype=bool)
        filled[self.zero] = True
        walk = []                   # (g, [(sources, targets) per doubling])
        for g in self.addgens:
            steps = []
            t, row = g, self._add_vec(np.int64(g), idx).astype(np.int32)
            while not filled[t]:
                src = np.flatnonzero(filled)
                dst = row[src]
                fresh = ~filled[dst]
                src, dst = src[fresh], dst[fresh]
                for b in _row_blocks(src.size, 8 * n):
                    add[dst[b]] = np.take(add[src[b]], row, axis=1)
                filled[dst] = True
                steps.append((src, dst))
                t, row = int(row[t]), row[row]
            walk.append((g, steps))
        flat = add.ravel()
        for g, steps in walk:
            row = self._mul_vec(np.int64(g), idx).astype(np.int32)
            for src, dst in steps:
                for b in _row_blocks(src.size, 12 * n):
                    at = np.multiply(mul[src[b]], n, dtype=np.intp)
                    at += row
                    mul[dst[b]] = flat.take(at)
                    del at      # before the next block's index exists
                row = add[row, row]
        self._add_table, self._mul_table = readonly(add), readonly(mul)
        self._neg_table = readonly(self._neg_vec(idx).astype(np.int32))

    @property
    def mul_table(self):
        """table[a, b] = a*b, read-only, built on the first read; None
        above TABLE_LIMIT."""
        if self._mul_table is None and self.size <= TABLE_LIMIT:
            self._materialize()
        return self._mul_table

    @fact
    def elements(self):
        return np.arange(self.size, dtype=np.int64)

    def _tables_paid(self, a, b):
        """Whether an op on a and b reads the tables, building them when
        this op brings the formula cells to size**2, what they hold."""
        if self._mul_table is None and self.size <= TABLE_LIMIT:
            self._formula_cells += np.broadcast(a, b).size
            if self._formula_cells >= self.size ** 2:
                self._materialize()
        return self._mul_table is not None

    def add_vec(self, a, b):
        """a + b, broadcast; by formula until ``_tables_paid``."""
        a = _as_idx(a)
        b = _as_idx(b)
        if self._tables_paid(a, b):
            return self._add_table[a, b].astype(np.int64)
        return self._add_vec(a, b)

    def mul_vec(self, a, b):
        a = _as_idx(a)
        b = _as_idx(b)
        if self._tables_paid(a, b):
            return self._mul_table[a, b].astype(np.int64)
        return self._mul_vec(a, b)

    def neg_vec(self, a):
        a = _as_idx(a)
        if self._neg_table is not None:
            return self._neg_table[a].astype(np.int64)
        return self._neg_vec(a)

    def sub_vec(self, a, b):
        return self.add_vec(a, self.neg_vec(b))

    # -- scalar wrappers ---------------------------------------------------

    def add(self, a, b):
        return int(self.add_vec(np.int64(a), np.int64(b)))

    def mul(self, a, b):
        return int(self.mul_vec(np.int64(a), np.int64(b)))

    def neg(self, a):
        return int(self.neg_vec(np.int64(a)))

    # -- structure ----------------------------------------------------------

    @fact
    def addgens(self):
        """Additive generating set; every element is a Z-combination of these.

        Found with the formula addition, so the table walk can start from it.
        """
        return _group_addgens(self.size, self.zero, self._add_vec)

    @fact
    def one(self):
        """The identity element, or None when the ring has none."""
        gens = self.addgens or [self.zero]
        cand = self._one_candidate()
        if cand is not None:
            cand = int(cand)
            if all(self.mul(cand, g) == g and self.mul(g, cand) == g
                   for g in gens):
                return cand
        # e acts as identity on an additive generating set iff on everything
        ok = np.ones(self.size, dtype=bool)
        idx = self.elements
        for g in gens:
            ok &= self.mul_vec(idx, np.int64(g)) == g
            ok &= self.mul_vec(np.int64(g), idx) == g
        hits = np.flatnonzero(ok)
        return int(hits[0]) if hits.size else None

    @fact
    def unit_generators(self):
        """Unit-group generators, each the least unit outside the group of
        those before; empty without an identity or a table to walk."""
        table = self.mul_table
        if self.one is None or table is None:
            return ()
        units = units_mask(self)
        reached = np.zeros(self.size, dtype=bool)
        reached[self.one] = True
        gens = []
        while not reached[units].all():
            gens.append(int(np.argmax(units & ~reached)))
            frontier = np.flatnonzero(reached)
            while frontier.size:
                nxt = np.unique(table[frontier[:, None], gens])
                frontier = nxt[~reached[nxt]]
                reached[frontier] = True
        return tuple(gens)

    @fact
    def unit_classes(self):
        """(cls, reps), read-only: cls[x] numbers the orbit of x under
        x -> u x v for units u and v, and reps[k] is the least member of
        class k, so reps rises and reps[cls[x]] is the least element
        associate to x.  The orbits come from the unit generators' rows
        and columns of the table; without them (no identity, or no
        table) every class is a singleton.
        """
        table = self.mul_table
        maps = [m for u in self.unit_generators
                for m in (table[u], table[:, u])]
        least = orbit_least(self.elements, maps)
        reps = np.flatnonzero(least == self.elements)
        return readonly(np.searchsorted(reps, least)), readonly(reps)

    @fact
    def commutative(self):
        gens = self.addgens
        return all(self.mul(g, h) == self.mul(h, g)
                   for i, g in enumerate(gens) for h in gens[i + 1:])

    def element_label(self, i):
        return str(int(i))

    def __repr__(self):
        return "<Ring %s (%d elements)>" % (self.label, self.size)


def additive_closure(ring, seeds, base_mask=None):
    """Smallest additive subgroup containing ``seeds`` and ``base_mask``.

    base_mask, when given, must already be a subgroup.  The subgroup grows
    by the smallest seed it does not yet hold; the closure is the same set
    whatever the order, and seeds it absorbs are dropped in bulk, so the
    number of extensions is at most log2 of the ring size.
    """
    if base_mask is None:
        mask = np.zeros(ring.size, dtype=bool)
        mask[ring.zero] = True
    else:
        mask = base_mask.copy()
    seeds = np.asarray(seeds, dtype=np.int64).ravel()
    while True:
        seeds = seeds[~mask[seeds]]
        if not seeds.size:
            return mask
        _subgroup_extend(mask, int(seeds.min()), ring.add_vec)


def orbit_least(least, perms):
    """Each node's least orbit-mate under the group that the permutation
    maps ``perms`` generate, starting from ``least``: for each x a mate
    no larger than x (x itself will do).

    Pointer doubling: with g a power of a map, least takes the smaller of
    least and least[g], and g squares, until nothing changes; the pass
    repeats over the maps until none changes anything.
    """
    changed = True
    while changed:
        changed = False
        for g in perms:
            while True:
                nxt = np.minimum(least, least[g])
                if (nxt == least).all():
                    break
                least, g, changed = nxt, g[g], True
    return least


def units_mask(ring):
    """Elements with a two-sided inverse; all False without an identity.

    In a finite ring uv = 1 forces vu = 1 (x -> vx is one-to-one, so some
    w has vw = 1, and u = uvw = w): u is a unit iff its row of the
    product table holds 1.  Within TABLE_LIMIT only.
    """
    out = np.zeros(ring.size, dtype=bool)
    if ring.one is None:
        return out
    table = ring.mul_table
    for b in _row_blocks(ring.size, ring.size):     # a bool row per element
        out[b] = (table[b] == ring.one).any(axis=1)
    return out


def is_subgroup_mask(ring, mask):
    if not mask[ring.zero]:
        return False
    clos = additive_closure(ring, np.flatnonzero(mask))
    return bool((clos == mask).all())


def is_ideal_mask(ring, mask, two_sided=True):
    """Check mask is an additive subgroup absorbing ring multiplication."""
    if not is_subgroup_mask(ring, mask):
        return False
    members = np.flatnonzero(mask)
    for g in ring.addgens:
        g = np.int64(g)
        if not mask[ring.mul_vec(g, members)].all():
            return False
        if two_sided and not mask[ring.mul_vec(members, g)].all():
            return False
    return True


def center_mask(ring):
    """Elements commuting with everything (checked against addgens)."""
    ok = np.ones(ring.size, dtype=bool)
    idx = ring.elements
    for g in ring.addgens:
        g = np.int64(g)
        ok &= ring.mul_vec(idx, g) == ring.mul_vec(g, idx)
    return ok


# ---------------------------------------------------------------------------
# concrete backends


class ZnRing(Ring):
    def __init__(self, n):
        if n < 1:
            raise InvalidParameter("modulus must be >= 1", n=n)
        self.n = n
        super().__init__(n, "Z%d" % n, 0)

    def _add_vec(self, a, b):
        return (a + b) % self.n

    def _mul_vec(self, a, b):
        return (a * b) % self.n

    def _neg_vec(self, a):
        return (-a) % self.n

    def _one_candidate(self):
        return 1 % self.n


class ProductRing(Ring):
    """Direct product; index = i1 * |R2| + i2."""

    def __init__(self, r1, r2, label=None):
        self.r1 = r1
        self.r2 = r2
        if label is None:
            label = "%s x %s" % (r1.label, r2.label)
        zero = r1.zero * r2.size + r2.zero
        super().__init__(r1.size * r2.size, label, zero)

    def split(self, e):
        return e // self.r2.size, e % self.r2.size

    def join(self, a, b):
        return a * self.r2.size + b

    def _add_vec(self, a, b):
        a1, a2 = self.split(a)
        b1, b2 = self.split(b)
        return self.join(self.r1.add_vec(a1, b1), self.r2.add_vec(a2, b2))

    def _mul_vec(self, a, b):
        a1, a2 = self.split(a)
        b1, b2 = self.split(b)
        return self.join(self.r1.mul_vec(a1, b1), self.r2.mul_vec(a2, b2))

    def _neg_vec(self, a):
        a1, a2 = self.split(a)
        return self.join(self.r1.neg_vec(a1), self.r2.neg_vec(a2))

    def _one_candidate(self):
        if self.r1.one is None or self.r2.one is None:
            return None
        return self.join(np.int64(self.r1.one), np.int64(self.r2.one))

    def element_label(self, i):
        a, b = self.split(int(i))
        return "(%s, %s)" % (self.r1.element_label(a), self.r2.element_label(b))


class MatrixRing(Ring):
    """k x k matrices over a base ring.

    Index encoding is row major, most significant entry first: for k = 2
    over a base of size n the matrix [[m00, m01], [m10, m11]] has index
    ((m00*n + m01)*n + m10)*n + m11.
    """

    def __init__(self, k, base, label=None):
        if k < 1:
            raise InvalidParameter("matrix dimension must be >= 1", k=k)
        self.k = k
        self.base = base
        size = base.size ** (k * k)
        if size > MAX_RING_SIZE:
            raise InvalidParameter(
                "matrix ring too large to index", size=size)
        if label is None:
            label = "M(%d, %s)" % (k, base.label)
        zero = self._encode([np.int64(base.zero)] * (k * k))
        super().__init__(size, label, int(zero))

    def _decode(self, e):
        n = self.base.size
        kk = self.k * self.k
        out = [None] * kk
        e = _as_idx(e)
        for pos in range(kk - 1, -1, -1):
            out[pos] = e % n
            e = e // n
        return out

    def _encode(self, entries):
        n = self.base.size
        e = entries[0]
        for x in entries[1:]:
            e = e * n + x
        return e

    def _add_vec(self, a, b):
        ea = self._decode(a)
        eb = self._decode(b)
        return self._encode([self.base.add_vec(x, y) for x, y in zip(ea, eb)])

    def _neg_vec(self, a):
        return self._encode([self.base.neg_vec(x) for x in self._decode(a)])

    def _mul_vec(self, a, b):
        k = self.k
        ea = self._decode(a)
        eb = self._decode(b)
        out = []
        for i in range(k):
            for j in range(k):
                acc = None
                for l in range(k):
                    term = self.base.mul_vec(ea[i * k + l], eb[l * k + j])
                    acc = term if acc is None else self.base.add_vec(acc, term)
                out.append(acc)
        return self._encode(out)

    def _one_candidate(self):
        if self.base.one is None:
            return None
        z, o = np.int64(self.base.zero), np.int64(self.base.one)
        entries = [o if i == j else z
                   for i in range(self.k) for j in range(self.k)]
        return int(self._encode(entries))

    def element_label(self, i):
        ent = [int(x) for x in self._decode(np.int64(i))]
        rows = []
        for r in range(self.k):
            row = ",".join(self.base.element_label(ent[r * self.k + c])
                           for c in range(self.k))
            rows.append("[%s]" % row)
        return "[%s]" % ",".join(rows)


class QuotientRing(Ring):
    """R / I with minimal-representative cosets.

    Quotient index q corresponds to the coset of ``reps[q]``; reps are the
    ascending minimal representatives.
    """

    def __init__(self, base, ideal_mask, label=None):
        self.base = base
        n = base.size
        imembers = np.flatnonzero(ideal_mask)
        rep = np.full(n, -1, dtype=np.int64)
        for x in range(n):
            if rep[x] == -1:
                rep[base.add_vec(np.int64(x), imembers)] = x
        self.rep = rep
        self.reps = np.flatnonzero(rep == np.arange(n))
        qidx = np.full(n, -1, dtype=np.int64)
        qidx[self.reps] = np.arange(len(self.reps))
        self.qidx = qidx
        if label is None:
            label = "quot(%s, <%d els>)" % (base.label, len(imembers))
        zero = int(qidx[rep[base.zero]])
        super().__init__(len(self.reps), label, zero)

    def project(self, e):
        """Base index -> quotient index."""
        return self.qidx[self.rep[_as_idx(e)]]

    def _add_vec(self, a, b):
        return self.qidx[self.rep[self.base.add_vec(self.reps[a], self.reps[b])]]

    def _mul_vec(self, a, b):
        return self.qidx[self.rep[self.base.mul_vec(self.reps[a], self.reps[b])]]

    def _neg_vec(self, a):
        return self.qidx[self.rep[self.base.neg_vec(self.reps[a])]]

    def _one_candidate(self):
        if self.base.one is None:
            return None
        return int(self.qidx[self.rep[self.base.one]])

    def element_label(self, i):
        return self.base.element_label(int(self.reps[int(i)]))


class Module:
    """Additive group with a ring action, elements indexed 0..size-1."""

    def __init__(self, ring, size, label):
        self.ring = ring
        self.size = int(size)
        self.label = label
        self.zero = 0
        self._facts = {}

    def madd_vec(self, a, b):
        raise NotImplementedError

    def mneg_vec(self, a):
        raise NotImplementedError

    def act_vec(self, r, m):
        raise NotImplementedError

    def madd(self, a, b):
        return int(self.madd_vec(np.int64(a), np.int64(b)))

    @fact
    def addgens(self):
        return _group_addgens(self.size, self.zero, self.madd_vec)


def additive_closure_mod(module, seeds, base_mask=None):
    if base_mask is None:
        mask = np.zeros(module.size, dtype=bool)
        mask[module.zero] = True
    else:
        mask = base_mask.copy()
    for x in np.asarray(seeds, dtype=np.int64).ravel():
        _subgroup_extend(mask, int(x), module.madd_vec)
    return mask


class CyclicModule(Module):
    """Z_k as a module over Z_n; requires k | n so the action is defined."""

    def __init__(self, ring, k):
        if not isinstance(ring, ZnRing):
            raise InvalidModule("cyclic module needs a Z_n base ring",
                                ring=ring.label)
        if k < 1 or ring.n % k != 0:
            raise InvalidModule("module order must divide the ring modulus",
                                n=ring.n, k=k)
        self.k = k
        super().__init__(ring, k, "Z%d" % k)

    def madd_vec(self, a, b):
        return (a + b) % self.k

    def mneg_vec(self, a):
        return (-a) % self.k

    def act_vec(self, r, m):
        return (r * m) % self.k


def validate_module(module):
    """Check the module axioms; raises InvalidModule with a witness."""
    ring = module.ring
    msize = module.size
    mel = np.arange(msize, dtype=np.int64)
    # additive group
    clos = additive_closure_mod(module, mel)
    if not clos.all():
        raise InvalidModule("module addition does not close", module=module.label)
    for g in module.addgens:
        ok = module.madd_vec(np.int64(g), mel) == module.madd_vec(mel, np.int64(g))
        if not ok.all():
            bad = int(np.flatnonzero(~ok)[0])
            raise InvalidModule("module addition not commutative",
                                witness=(g, bad))
    # additivity in the module argument: r*(g+x) == r*g + r*x
    rel = ring.elements
    for g in module.addgens:
        for x in range(msize):
            left = module.act_vec(rel, np.int64(module.madd(g, x)))
            right = module.madd_vec(module.act_vec(rel, np.int64(g)),
                                    module.act_vec(rel, np.int64(x)))
            bad = np.flatnonzero(left != right)
            if bad.size:
                raise InvalidModule("action not additive in module argument",
                                    witness=(int(bad[0]), g, x))
    # additivity in the ring argument: (g+r)*x == g*x + r*x
    for g in ring.addgens:
        for x in range(msize):
            left = module.act_vec(ring.add_vec(np.int64(g), rel), np.int64(x))
            right = module.madd_vec(module.act_vec(np.int64(g), np.int64(x)),
                                    module.act_vec(rel, np.int64(x)))
            bad = np.flatnonzero(left != right)
            if bad.size:
                raise InvalidModule("action not additive in ring argument",
                                    witness=(g, int(bad[0]), x))
    # associativity on ring generators: (g*h)*x == g*(h*x)
    for g in ring.addgens:
        for h in ring.addgens:
            gh = np.int64(ring.mul(g, h))
            left = module.act_vec(gh, mel)
            right = module.act_vec(np.int64(g), module.act_vec(np.int64(h), mel))
            bad = np.flatnonzero(left != right)
            if bad.size:
                raise InvalidModule("action not associative",
                                    witness=(g, h, int(bad[0])))
    return True


class IdealizationRing(Ring):
    """Trivial extension R (+) M; index = r * |M| + m.

    Multiplication is (r1, m1)(r2, m2) = (r1 r2, r1 m2 + r2 m1), so the
    embedded copy of M squares to zero.
    """

    def __init__(self, base, module, label=None):
        if module.ring is not base:
            raise RingMismatch("module is not over the given ring")
        self.base = base
        self.module = module
        if label is None:
            label = "idealize(%s, %d)" % (base.label, module.size)
        zero = base.zero * module.size + module.zero
        super().__init__(base.size * module.size, label, zero)

    def split(self, e):
        return e // self.module.size, e % self.module.size

    def join(self, r, m):
        return r * self.module.size + m

    def _add_vec(self, a, b):
        r1, m1 = self.split(a)
        r2, m2 = self.split(b)
        return self.join(self.base.add_vec(r1, r2), self.module.madd_vec(m1, m2))

    def _mul_vec(self, a, b):
        r1, m1 = self.split(a)
        r2, m2 = self.split(b)
        m = self.module.madd_vec(self.module.act_vec(r1, m2),
                                 self.module.act_vec(r2, m1))
        return self.join(self.base.mul_vec(r1, r2), m)

    def _neg_vec(self, a):
        r, m = self.split(a)
        return self.join(self.base.neg_vec(r), self.module.mneg_vec(m))

    def _one_candidate(self):
        if self.base.one is None:
            return None
        return int(self.join(np.int64(self.base.one), np.int64(self.module.zero)))

    def element_label(self, i):
        r, m = self.split(int(i))
        return "(%s, %s)" % (self.base.element_label(r), str(m))


class AmalgRing(Ring):
    """Amalgamation of R with A along a hom f, inside an ideal J of A.

    Elements are pairs (r, f(r) + j) with j in J, stored as (r, j-position);
    index = r * |J| + pos(j).
    """

    def __init__(self, base, target, hom, j_mask, label=None):
        from numpy import flatnonzero
        if hom.source is not base or hom.target is not target:
            raise RingMismatch("hom endpoints do not match amalgamation")
        if not is_ideal_mask(target, j_mask):
            raise InvalidIdeal("amalgamation needs an ideal of the target")
        self.base = base
        self.target = target
        self.hom = hom
        self.jmembers = flatnonzero(j_mask)
        jpos = np.full(target.size, -1, dtype=np.int64)
        jpos[self.jmembers] = np.arange(len(self.jmembers))
        self.jpos = jpos
        if label is None:
            label = "amalg(%s, %s, mod, <%d els>)" % (
                base.label, target.label, len(self.jmembers))
        zero = base.zero * len(self.jmembers) + int(jpos[target.zero])
        super().__init__(base.size * len(self.jmembers), label, zero)

    def split(self, e):
        nj = len(self.jmembers)
        return e // nj, self.jmembers[e % nj]

    def join(self, r, j):
        return r * len(self.jmembers) + self.jpos[j]

    def _add_vec(self, a, b):
        r1, j1 = self.split(a)
        r2, j2 = self.split(b)
        return self.join(self.base.add_vec(r1, r2), self.target.add_vec(j1, j2))

    def _mul_vec(self, a, b):
        # (f(r1)+j1)(f(r2)+j2) = f(r1 r2) + [f(r1) j2 + j1 f(r2) + j1 j2]
        r1, j1 = self.split(a)
        r2, j2 = self.split(b)
        f = self.hom.map
        t = self.target
        j = t.add_vec(t.add_vec(t.mul_vec(f[r1], j2), t.mul_vec(j1, f[r2])),
                      t.mul_vec(j1, j2))
        return self.join(self.base.mul_vec(r1, r2), j)

    def _neg_vec(self, a):
        r, j = self.split(a)
        return self.join(self.base.neg_vec(r), self.target.neg_vec(j))

    def _one_candidate(self):
        if self.base.one is None:
            return None
        return int(self.join(np.int64(self.base.one), np.int64(self.target.zero)))

    def element_label(self, i):
        # show the actual pair (r, f(r)+j), not the stored j offset
        r, j = self.split(np.int64(i))
        second = int(self.target.add(int(self.hom.map[int(r)]), int(j)))
        return "(%s, %s)" % (self.base.element_label(int(r)),
                             self.target.element_label(second))


class TruncPolyRing(Ring):
    """R[x] truncated at x^d = 0; d coefficients, little endian.

    Index = c0 + c1*n + ... + c_{d-1}*n^(d-1).  d = 1 reproduces R itself.
    """

    def __init__(self, base, d, label=None):
        if d < 1:
            raise InvalidParameter("need at least one coefficient", d=d)
        self.base = base
        self.d = d
        size = base.size ** d
        if size > MAX_RING_SIZE:
            raise InvalidParameter("truncated ring too large", size=size)
        if label is None:
            label = "trunc(%s, %d)" % (base.label, d)
        zero = 0
        if base.zero != 0:
            zero = int(self._encode([np.int64(base.zero)] * d))
        super().__init__(size, label, zero)

    def _decode(self, e):
        n = self.base.size
        e = _as_idx(e)
        out = []
        for _ in range(self.d):
            out.append(e % n)
            e = e // n
        return out

    def _encode(self, coeffs):
        n = self.base.size
        e = coeffs[-1]
        for c in reversed(coeffs[:-1]):
            e = e * n + c
        return e

    def _add_vec(self, a, b):
        ca = self._decode(a)
        cb = self._decode(b)
        return self._encode([self.base.add_vec(x, y) for x, y in zip(ca, cb)])

    def _neg_vec(self, a):
        return self._encode([self.base.neg_vec(c) for c in self._decode(a)])

    def _mul_vec(self, a, b):
        ca = self._decode(a)
        cb = self._decode(b)
        out = []
        for k in range(self.d):
            acc = None
            for i in range(k + 1):
                term = self.base.mul_vec(ca[i], cb[k - i])
                acc = term if acc is None else self.base.add_vec(acc, term)
            out.append(acc)
        return self._encode(out)

    def _one_candidate(self):
        if self.base.one is None:
            return None
        coeffs = [np.int64(self.base.one)] + [np.int64(self.base.zero)] * (self.d - 1)
        return int(self._encode(coeffs))

    def element_label(self, i):
        cs = [int(c) for c in self._decode(np.int64(i))]
        return "poly(%s)" % ",".join(self.base.element_label(c) for c in cs)


class IdealSubringRing(Ring):
    """An ideal I of R viewed as a ring in its own right (usually no identity)."""

    def __init__(self, base, ideal_mask, label=None):
        if not is_ideal_mask(base, ideal_mask):
            raise InvalidIdeal("ideal-as-ring needs an ideal mask")
        self.base = base
        self.mem = np.flatnonzero(ideal_mask)
        pos = np.full(base.size, -1, dtype=np.int64)
        pos[self.mem] = np.arange(len(self.mem))
        self.pos = pos
        if label is None:
            label = "idealring(%s, <%d els>)" % (base.label, len(self.mem))
        super().__init__(len(self.mem), label, int(pos[base.zero]))

    def _add_vec(self, a, b):
        return self.pos[self.base.add_vec(self.mem[a], self.mem[b])]

    def _mul_vec(self, a, b):
        return self.pos[self.base.mul_vec(self.mem[a], self.mem[b])]

    def _neg_vec(self, a):
        return self.pos[self.base.neg_vec(self.mem[a])]

    def element_label(self, i):
        return self.base.element_label(int(self.mem[int(i)]))


# ---------------------------------------------------------------------------
# homomorphisms


class Hom:
    """Ring homomorphism given by a full map array (source index -> target)."""

    def __init__(self, source, target, map_array, label):
        self.source = source
        self.target = target
        self.map = np.asarray(map_array, dtype=np.int64)
        self.label = label

    def __repr__(self):
        return "<Hom %s>" % self.label


def canonical_surjection(ring, ideal_mask, label=None):
    """Quotient map R -> R/I as a Hom; returns (quotient, hom)."""
    q = QuotientRing(ring, ideal_mask, label=label)
    h = Hom(ring, q, q.project(ring.elements), label="proj(%s)" % q.label)
    return q, h


# ---------------------------------------------------------------------------
# factories


def make_zn(n):
    return ZnRing(n)


def make_product(r1, r2, label=None):
    return ProductRing(r1, r2, label=label)


def make_matrix_ring(k, base, label=None):
    return MatrixRing(k, base, label=label)


def make_cyclic_module(ring, k):
    return CyclicModule(ring, k)


def make_idealization(ring, module, label=None):
    validate_module(module)
    return IdealizationRing(ring, module, label=label)


def make_truncated_poly(base, d, label=None):
    return TruncPolyRing(base, d, label=label)


def make_ideal_as_ring(base, ideal_mask, label=None):
    # accept an IdealSet-like object in place of a raw mask
    mask = getattr(ideal_mask, "mask", ideal_mask)
    return IdealSubringRing(base, mask, label=label)
