"""Finite ring backends.

A ring is a finite set of element indices 0..size-1 with addition,
multiplication and negation given either by stored Cayley tables or by
vectorized index formulas.  Tables are materialized lazily and only for
rings with at most TABLE_LIMIT elements; larger rings (the 2x2 matrices
over Z12, for instance) always evaluate through the formula path, which
operates on whole numpy arrays at once.

Rings without identity are first class: ``one`` is None when no identity
exists and nothing downstream may assume otherwise.
"""

import numpy as np

from .errors import (InvalidParameter, InvalidModule, InvalidHom,
                     InvalidIdeal, RingMismatch)
from .memo import once

TABLE_LIMIT = 4096


def _as_idx(a):
    return np.asarray(a, dtype=np.int64)


def _subgroup_extend(mask, x, add_scalar, add_vec):
    """Grow the subgroup ``mask`` by the cyclic group of ``x``, in place.

    mask must already be a subgroup H.  The result is H + <x>, built as a
    union of cosets H + j*x over the multiples of x that lie outside H.
    """
    if mask[x]:
        return
    reps = []
    r = int(x)
    while not mask[r]:
        reps.append(r)
        r = add_scalar(r, int(x))
    members = np.flatnonzero(mask)
    for rep in reps:
        mask[add_vec(members, rep)] = True


def _group_addgens(size, zero, add_scalar, add_vec):
    """Greedy additive generating set; at most log2(size) generators."""
    mask = np.zeros(size, dtype=bool)
    mask[zero] = True
    gens = []
    while True:
        nxt = int(np.argmin(mask))
        if mask[nxt]:
            break
        gens.append(nxt)
        _subgroup_extend(mask, nxt, add_scalar, add_vec)
    return gens


class Ring:
    """Base class for all ring backends.

    Subclasses implement ``_add_vec``, ``_mul_vec``, ``_neg_vec`` on int64
    arrays (broadcasting allowed) and may provide ``_one_candidate``.
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
        self._facts = {}        # addgens, one (None: no identity), commutative
        self._elements = None

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
        idx = self.elements
        self._add_table = self._add_vec(idx[:, None], idx[None, :]).astype(np.int32)
        self._mul_table = self._mul_vec(idx[:, None], idx[None, :]).astype(np.int32)
        self._neg_table = self._neg_vec(idx).astype(np.int32)

    @property
    def elements(self):
        if self._elements is None:
            self._elements = np.arange(self.size, dtype=np.int64)
        return self._elements

    def add_vec(self, a, b):
        a = _as_idx(a)
        b = _as_idx(b)
        if self._add_table is None and self.size <= TABLE_LIMIT:
            self._materialize()
        if self._add_table is not None:
            return self._add_table[a, b].astype(np.int64)
        return self._add_vec(a, b)

    def mul_vec(self, a, b):
        a = _as_idx(a)
        b = _as_idx(b)
        if self._mul_table is None and self.size <= TABLE_LIMIT:
            self._materialize()
        if self._mul_table is not None:
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

    @property
    def addgens(self):
        """Additive generating set; every element is a Z-combination of these."""
        return once(self._facts, "addgens", lambda: _group_addgens(
            self.size, self.zero, self.add, lambda m, r: self.add_vec(m, r)))

    @property
    def one(self):
        return once(self._facts, "one", self._find_one)

    def _find_one(self):
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

    @property
    def has_one(self):
        return self.one is not None

    @property
    def commutative(self):
        return once(self._facts, "commutative", self._commutes)

    def _commutes(self):
        gens = self.addgens
        return all(self.mul(g, h) == self.mul(h, g)
                   for i, g in enumerate(gens) for h in gens[i + 1:])

    def element_label(self, i):
        return str(int(i))

    def __repr__(self):
        return "<Ring %s (%d elements)>" % (self.label, self.size)


def additive_closure(ring, seeds, base_mask=None):
    """Smallest additive subgroup containing ``seeds`` and ``base_mask``.

    base_mask, when given, must already be a subgroup.  Seeds already
    absorbed by the growing subgroup are dropped in bulk, so the number of
    actual extensions is at most log2 of the ring size.
    """
    if base_mask is None:
        mask = np.zeros(ring.size, dtype=bool)
        mask[ring.zero] = True
    else:
        mask = base_mask.copy()
    add_vec = lambda m, r: ring.add_vec(m, r)
    seeds = np.unique(np.asarray(seeds, dtype=np.int64).ravel())
    while seeds.size:
        seeds = seeds[~mask[seeds]]
        if not seeds.size:
            break
        _subgroup_extend(mask, int(seeds[0]), ring.add, add_vec)
        seeds = seeds[1:]
    return mask


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


class TableRing(Ring):
    """Ring given by explicit Cayley tables.  Used by tests and ad hoc data."""

    def __init__(self, add_table, mul_table, label="table"):
        add_table = np.asarray(add_table, dtype=np.int64)
        mul_table = np.asarray(mul_table, dtype=np.int64)
        n = add_table.shape[0]
        if add_table.shape != (n, n) or mul_table.shape != (n, n):
            raise InvalidParameter("tables must be square and same size")
        if add_table.min() < 0 or add_table.max() >= n or \
           mul_table.min() < 0 or mul_table.max() >= n:
            raise InvalidParameter("table entries out of range")
        zero = None
        idx = np.arange(n)
        for e in range(n):
            if (add_table[e] == idx).all():
                zero = e
                break
        if zero is None:
            raise InvalidParameter("no additive identity in table")
        self._given_add = add_table
        self._given_mul = mul_table
        super().__init__(n, label, zero)

    def _add_vec(self, a, b):
        return self._given_add[a, b]

    def _mul_vec(self, a, b):
        return self._given_mul[a, b]

    def _neg_vec(self, a):
        a = np.atleast_1d(_as_idx(a))
        out = np.empty_like(a)
        for i, x in enumerate(a.ravel()):
            hits = np.flatnonzero(self._given_add[x] == self.zero)
            if hits.size == 0:
                raise InvalidParameter("element %d has no negative" % x)
            out.ravel()[i] = hits[0]
        return out.reshape(np.shape(a))


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
        if size > 50_000_000:
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

    def act(self, r, m):
        return int(self.act_vec(np.int64(r), np.int64(m)))

    @property
    def addgens(self):
        return once(self._facts, "addgens", lambda: _group_addgens(
            self.size, self.zero, self.madd,
            lambda m, r: self.madd_vec(m, np.int64(r))))

    def submodule_masks(self):
        """All submodule masks; generic fixpoint enumeration."""
        elems = np.arange(self.size, dtype=np.int64)
        ridx = self.ring.elements
        seen = {}
        for seed in range(self.size):
            mask = np.zeros(self.size, dtype=bool)
            mask[self.zero] = True
            _subgroup_extend(mask, seed, self.madd,
                             lambda m, r: self.madd_vec(m, np.int64(r)))
            # close under the ring action
            changed = True
            while changed:
                changed = False
                members = np.flatnonzero(mask)
                for g in self.ring.addgens:
                    hit = self.act_vec(np.int64(g), members)
                    new = hit[~mask[hit]]
                    if new.size:
                        for x in np.unique(new):
                            _subgroup_extend(mask, int(x), self.madd,
                                             lambda m, r: self.madd_vec(m, np.int64(r)))
                        changed = True
            seen[mask.tobytes()] = mask
        # close the collection under sums of pairs
        work = list(seen.values())
        while work:
            a = work.pop()
            for b in list(seen.values()):
                u = additive_closure_mod(self, np.flatnonzero(b), a)
                if u.tobytes() not in seen:
                    seen[u.tobytes()] = u
                    work.append(u)
        out = sorted(seen.values(), key=lambda m: (int(m.sum()), m.tobytes()))
        return out


def additive_closure_mod(module, seeds, base_mask=None):
    if base_mask is None:
        mask = np.zeros(module.size, dtype=bool)
        mask[module.zero] = True
    else:
        mask = base_mask.copy()
    for x in np.asarray(seeds, dtype=np.int64).ravel():
        _subgroup_extend(mask, int(x), module.madd,
                         lambda m, r: module.madd_vec(m, np.int64(r)))
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

    def submodule_masks(self):
        out = []
        for d in sorted(d for d in range(1, self.k + 1) if self.k % d == 0):
            mask = np.zeros(self.size, dtype=bool)
            mask[np.arange(0, self.k, d)] = True
            out.append(mask)
        out.sort(key=lambda m: (int(m.sum()), m.tobytes()))
        return out


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
        if size > 50_000_000:
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

    def __init__(self, source, target, map_array, label=""):
        self.source = source
        self.target = target
        self.map = np.asarray(map_array, dtype=np.int64)
        self.label = label or "hom(%s -> %s)" % (source.label, target.label)
        self.kernel_mask = self.map == target.zero
        self.surjective = len(np.unique(self.map)) == target.size

    def apply(self, e):
        return int(self.map[int(e)])

    def image_mask(self, mask):
        out = np.zeros(self.target.size, dtype=bool)
        out[self.map[np.flatnonzero(mask)]] = True
        return out

    def preimage_mask(self, mask):
        return mask[self.map]

    def __repr__(self):
        return "<Hom %s>" % self.label


def make_hom(source, target, map_array, check=True, label=""):
    """Build and (by default) validate a Hom.

    Additivity is verified on (generator, element) pairs and
    multiplicativity on generator pairs, which suffices for full validity.
    """
    h = Hom(source, target, map_array, label=label)
    if check:
        f = h.map
        if f.shape != (source.size,):
            raise InvalidHom("map must cover every source element")
        if f.min() < 0 or f.max() >= target.size:
            raise InvalidHom("map lands outside the target")
        idx = source.elements
        for g in source.addgens:
            g64 = np.int64(g)
            left = f[source.add_vec(g64, idx)]
            right = target.add_vec(f[g], f[idx])
            bad = np.flatnonzero(left != right)
            if bad.size:
                raise InvalidHom("map is not additive",
                                 witness=(g, int(bad[0])))
        for g in source.addgens:
            for k in source.addgens:
                if f[source.mul(g, k)] != target.mul(int(f[g]), int(f[k])):
                    raise InvalidHom("map is not multiplicative",
                                     witness=(g, k))
    return h


def zn_reduction(n, m):
    """The reduction map Z_n -> Z_m for m | n."""
    if m < 1 or n % m != 0:
        raise InvalidParameter("reduction needs m dividing n", n=n, m=m)
    src = make_zn(n)
    dst = make_zn(m)
    return make_hom(src, dst, np.arange(n, dtype=np.int64) % m,
                    label="mod(%d -> %d)" % (n, m))


def canonical_surjection(ring, ideal_mask, label=None):
    """Quotient map R -> R/I as a Hom; returns (quotient, hom)."""
    q = QuotientRing(ring, ideal_mask, label=label)
    h = make_hom(ring, q, q.project(ring.elements), check=False,
                 label="proj(%s)" % q.label)
    return q, h


def make_quotient(ring, ideal_mask, label=None):
    return canonical_surjection(ring, ideal_mask, label=label)


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


def make_amalgamation(base, target, hom, j_mask, label=None):
    return AmalgRing(base, target, hom, j_mask, label=label)


def make_truncated_poly(base, d, label=None):
    return TruncPolyRing(base, d, label=label)


def make_ideal_as_ring(base, ideal_mask, label=None):
    # accept an IdealSet-like object in place of a raw mask
    mask = getattr(ideal_mask, "mask", ideal_mask)
    return IdealSubringRing(base, mask, label=label)


# ---------------------------------------------------------------------------
# axiom checking


_LAWS = ("add-assoc", "add-comm", "zero-identity", "neg-inverse",
         "mul-assoc", "distrib-left", "distrib-right")


def ring_axioms_check(ring, effort="auto", seed=20180614, samples=1_000_000):
    """Verify the ring laws, exhaustively for small rings, sampled above.

    Returns a report dict with ``passed``, the mode used, the sampling seed
    (sampled mode only) and the first violating triple if any.
    """
    n = ring.size
    idx = ring.elements
    exhaustive = effort == "exhaustive" or (effort == "auto" and n <= 256)

    def fail(law, triple):
        return {"passed": False, "mode": "exhaustive" if exhaustive else "sampled",
                "law": law, "witness": tuple(int(t) for t in triple)}

    # pair laws (cheap enough to do exhaustively whenever tables are sane)
    if exhaustive:
        a2 = idx[:, None]
        b2 = idx[None, :]
        if not (ring.add_vec(a2, b2) == ring.add_vec(b2, a2)).all():
            bad = np.argwhere(ring.add_vec(a2, b2) != ring.add_vec(b2, a2))[0]
            return fail("add-comm", (bad[0], bad[1], 0))
        z = np.int64(ring.zero)
        if not (ring.add_vec(idx, z) == idx).all():
            bad = np.flatnonzero(ring.add_vec(idx, z) != idx)[0]
            return fail("zero-identity", (bad, 0, 0))
        if not (ring.add_vec(idx, ring.neg_vec(idx)) == ring.zero).all():
            bad = np.flatnonzero(ring.add_vec(idx, ring.neg_vec(idx)) != ring.zero)[0]
            return fail("neg-inverse", (bad, 0, 0))
        for a in range(n):
            a64 = np.int64(a)
            ab = ring.add_vec(a64, idx)[:, None]
            bc = ring.add_vec(idx[:, None], idx[None, :])
            if not (ring.add_vec(ab, idx[None, :]) == ring.add_vec(a64, bc)).all():
                bad = np.argwhere(ring.add_vec(ab, idx[None, :]) != ring.add_vec(a64, bc))[0]
                return fail("add-assoc", (a, bad[0], bad[1]))
            mab = ring.mul_vec(a64, idx)[:, None]
            mbc = ring.mul_vec(idx[:, None], idx[None, :])
            if not (ring.mul_vec(mab, idx[None, :]) == ring.mul_vec(a64, mbc)).all():
                bad = np.argwhere(ring.mul_vec(mab, idx[None, :]) != ring.mul_vec(a64, mbc))[0]
                return fail("mul-assoc", (a, bad[0], bad[1]))
            sbc = ring.add_vec(idx[:, None], idx[None, :])
            left = ring.mul_vec(a64, sbc)
            right = ring.add_vec(ring.mul_vec(a64, idx)[:, None],
                                 ring.mul_vec(a64, idx)[None, :])
            if not (left == right).all():
                bad = np.argwhere(left != right)[0]
                return fail("distrib-left", (a, bad[0], bad[1]))
            left = ring.mul_vec(sbc, a64)
            right = ring.add_vec(ring.mul_vec(idx, a64)[:, None],
                                 ring.mul_vec(idx, a64)[None, :])
            if not (left == right).all():
                bad = np.argwhere(left != right)[0]
                return fail("distrib-right", (bad[0], bad[1], a))
        return {"passed": True, "mode": "exhaustive",
                "triples_checked": n * n * n, "laws": list(_LAWS)}

    rng = np.random.default_rng(seed)
    a = rng.integers(0, n, size=samples, dtype=np.int64)
    b = rng.integers(0, n, size=samples, dtype=np.int64)
    c = rng.integers(0, n, size=samples, dtype=np.int64)
    checks = (
        ("add-assoc", lambda: ring.add_vec(ring.add_vec(a, b), c)
                              == ring.add_vec(a, ring.add_vec(b, c))),
        ("add-comm", lambda: ring.add_vec(a, b) == ring.add_vec(b, a)),
        ("zero-identity", lambda: ring.add_vec(a, np.int64(ring.zero)) == a),
        ("neg-inverse", lambda: ring.add_vec(a, ring.neg_vec(a)) == ring.zero),
        ("mul-assoc", lambda: ring.mul_vec(ring.mul_vec(a, b), c)
                              == ring.mul_vec(a, ring.mul_vec(b, c))),
        ("distrib-left", lambda: ring.mul_vec(a, ring.add_vec(b, c))
                                 == ring.add_vec(ring.mul_vec(a, b), ring.mul_vec(a, c))),
        ("distrib-right", lambda: ring.mul_vec(ring.add_vec(a, b), c)
                                  == ring.add_vec(ring.mul_vec(a, c), ring.mul_vec(b, c))),
    )
    for law, run in checks:
        ok = run()
        if not ok.all():
            i = int(np.flatnonzero(~ok)[0])
            return fail(law, (a[i], b[i], c[i]))
    return {"passed": True, "mode": "sampled", "seed": seed,
            "triples_checked": samples, "laws": list(_LAWS)}
