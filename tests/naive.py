"""Slow reference implementations used to cross-check the fast paths.

Everything in this module is deliberately written the dumb way: dense
Python list tables, fixpoint loops, and full scans.  Nothing here shares
code with the optimized modules, so a bug has to be made twice (and in
two different styles) before the differential tests let it through.
"""

from ringlab.errors import InvalidParameter

# tables are n^2 Python ints each; past this the cross-checks stop paying rent
NAIVE_LIMIT = 2048


class NaiveRing:
    """Dense add/mul tables built one scalar call at a time.

    zero, negation, the identity and commutativity are all rederived
    from the tables by full scans instead of trusting the source ring.
    """

    def __init__(self, ring):
        if ring.size > NAIVE_LIMIT:
            raise InvalidParameter(
                "naive tables capped at %d elements" % NAIVE_LIMIT,
                size=int(ring.size))
        n = int(ring.size)
        self.size = n
        self.add = [[int(ring.add(i, j)) for j in range(n)] for i in range(n)]
        self.mul = [[int(ring.mul(i, j)) for j in range(n)] for i in range(n)]
        self.zero = self._find_zero()
        self.neg = [self._find_neg(i) for i in range(n)]
        self.one = self._find_one()
        self.commutative = all(
            self.mul[i][j] == self.mul[j][i]
            for i in range(n) for j in range(i))
        self._principal = {}
        self._ideals = None

    def _find_zero(self):
        for z in range(self.size):
            row = self.add[z]
            if all(row[i] == i for i in range(self.size)):
                return z
        raise InvalidParameter("additive identity not found in table")

    def _find_neg(self, i):
        row = self.add[i]
        for j in range(self.size):
            if row[j] == self.zero:
                return j
        raise InvalidParameter("additive inverse not found", element=i)

    def _find_one(self):
        for e in range(self.size):
            if all(self.mul[e][i] == i and self.mul[i][e] == i
                   for i in range(self.size)):
                return e
        return None

    @property
    def all_set(self):
        return frozenset(range(self.size))


def add_closure(nr, seeds):
    """Smallest additive subgroup containing seeds (full-pairs fixpoint)."""
    cur = set(seeds)
    cur.add(nr.zero)
    while True:
        new = {nr.add[a][b] for a in cur for b in cur} - cur
        if not new:
            return frozenset(cur)
        cur |= new


def ideal_closure(nr, seeds):
    """Smallest two-sided ideal containing seeds."""
    cur = set(seeds)
    cur.add(nr.zero)
    n = nr.size
    while True:
        new = set()
        for a in cur:
            arow = nr.add[a]
            for b in cur:
                new.add(arow[b])
        for x in cur:
            xrow = nr.mul[x]
            for r in range(n):
                new.add(xrow[r])
                new.add(nr.mul[r][x])
        new -= cur
        if not new:
            return frozenset(cur)
        cur |= new


def principal(nr, x):
    got = nr._principal.get(x)
    if got is None:
        got = ideal_closure(nr, [x])
        nr._principal[x] = got
    return got


def ideal_sum(nr, a, b):
    return add_closure(nr, set(a) | set(b))


def ideal_product(nr, a, b):
    prods = {nr.mul[x][y] for x in a for y in b}
    return add_closure(nr, prods)


def product_in(nr, a, b, target):
    """a*b subset of target, for target closed under addition."""
    for x in a:
        row = nr.mul[x]
        for y in b:
            if row[y] not in target:
                return False
    return True


def all_ideals(nr):
    """Every two-sided ideal: principals of each element, then join closure."""
    if nr._ideals is not None:
        return nr._ideals
    distinct = {}
    for x in range(nr.size):
        distinct[principal(nr, x)] = None
    work = list(distinct)
    while work:
        a = work.pop()
        for b in list(distinct):
            s = ideal_sum(nr, a, b)
            if s not in distinct:
                distinct[s] = None
                work.append(s)
    out = sorted(distinct, key=lambda f: (len(f), sorted(f)))
    nr._ideals = out
    return out


def quasi_regular_set(nr):
    """x such that some y solves y + x + y*x = 0."""
    out = set()
    for x in range(nr.size):
        for y in range(nr.size):
            if nr.add[nr.add[y][x]][nr.mul[y][x]] == nr.zero:
                out.add(x)
                break
    return frozenset(out)


def jacobson(nr):
    """Elements whose whole principal ideal is quasi-regular."""
    q = quasi_regular_set(nr)
    return frozenset(x for x in range(nr.size) if principal(nr, x) <= q)


def nilpotent_elements(nr):
    out = set()
    for x in range(nr.size):
        p = x
        seen = set()
        while p not in seen:
            if p == nr.zero:
                out.add(x)
                break
            seen.add(p)
            p = nr.mul[p][x]
    return frozenset(out)


def units(nr):
    if nr.one is None:
        return frozenset()
    out = set()
    for x in range(nr.size):
        for y in range(nr.size):
            if nr.mul[x][y] == nr.one and nr.mul[y][x] == nr.one:
                out.add(x)
                break
    return frozenset(out)


def center(nr):
    return frozenset(
        x for x in range(nr.size)
        if all(nr.mul[x][r] == nr.mul[r][x] for r in range(nr.size)))


def prime_ideals(nr):
    """Proper ideals P with AB <= P forcing A <= P or B <= P."""
    ideals = all_ideals(nr)
    full = nr.all_set
    out = []
    for p in ideals:
        if p == full:
            continue
        good = True
        for a in ideals:
            if a <= p:
                continue
            for b in ideals:
                if b <= p:
                    continue
                if product_in(nr, a, b, p):
                    good = False
                    break
            if not good:
                break
        if good:
            out.append(p)
    return out


def prime_radical(nr):
    primes = prime_ideals(nr)
    if not primes:
        return nr.all_set, True
    cur = set(nr.all_set)
    for p in primes:
        cur &= p
    return frozenset(cur), False


def maximal_ideals(nr):
    full = nr.all_set
    proper = [i for i in all_ideals(nr) if i != full]
    return [p for p in proper if not any(p < q for q in proper)]


def j_star(nr, ideal):
    """Intersection of the maximal ideals containing the given one."""
    above = [m for m in maximal_ideals(nr) if frozenset(ideal) <= m]
    if not above:
        return nr.all_set
    cur = set(nr.all_set)
    for m in above:
        cur &= m
    return frozenset(cur)


def is_superfluous(nr, ideal):
    full = nr.all_set
    iset = frozenset(ideal)
    for b in all_ideals(nr):
        if b != full and ideal_sum(nr, iset, b) == full:
            return False
    return True


def is_nilpotent_ideal(nr, ideal):
    cur = frozenset(ideal)
    base = frozenset(ideal)
    zero = frozenset([nr.zero])
    seen = set()
    while cur not in seen:
        if cur == zero:
            return True
        seen.add(cur)
        cur = ideal_product(nr, cur, base)
    return False


def is_modular(nr, ideal):
    """Some e with r - re and r - er in the ideal for every r."""
    iset = frozenset(ideal)
    for e in range(nr.size):
        ok = True
        for r in range(nr.size):
            if nr.add[r][nr.neg[nr.mul[r][e]]] not in iset:
                ok = False
                break
            if nr.add[r][nr.neg[nr.mul[e][r]]] not in iset:
                ok = False
                break
        if ok:
            return True, e
    return False, None


def colon_elem(nr, ideal, a):
    """{x : x*a in ideal}."""
    iset = frozenset(ideal)
    return frozenset(x for x in range(nr.size) if nr.mul[x][a] in iset)


def colon_set(nr, ideal, t):
    """{x : x*y in ideal for every y in t}."""
    iset = frozenset(ideal)
    tt = sorted(t)
    return frozenset(
        x for x in range(nr.size)
        if all(nr.mul[x][y] in iset for y in tt))


def is_mul_closed(nr, subset):
    ss = frozenset(subset)
    return all(nr.mul[a][b] in ss for a in ss for b in ss)


def is_msystem(nr, subset):
    ss = frozenset(subset)
    for a in ss:
        arow = nr.mul[a]
        for b in ss:
            if not any(nr.mul[arow[r]][b] in ss for r in range(nr.size)):
                return False
    return True


# ---------------------------------------------------------------------------
# predicates: triple loops, first (smallest) witness, lex-least violations
# ---------------------------------------------------------------------------

def is_j_ideal(nr, ideal, jac=None):
    """ab-form on commutative rings, aRb-form otherwise."""
    iset = frozenset(ideal)
    if jac is None:
        jac = jacobson(nr)
    n = nr.size
    for a in range(n):
        if a in jac:
            continue
        arow = nr.mul[a]
        for b in range(n):
            if b in iset:
                continue
            if nr.commutative:
                hit = arow[b] in iset
            else:
                hit = all(nr.mul[arow[r]][b] in iset for r in range(n))
            if hit:
                return False, (a, b)
    return True, None


def is_n_ideal(nr, ideal, beta=None):
    iset = frozenset(ideal)
    if beta is None:
        beta = nilpotent_elements(nr)
    for a in range(nr.size):
        if a in beta:
            continue
        arow = nr.mul[a]
        for b in range(nr.size):
            if arow[b] in iset and b not in iset:
                return False, (a, b)
    return True, None


def _sj_violation(nr, iset, jac, s):
    # ab in I, s*a not in J, s*b not in I
    srow = nr.mul[s]
    for a in range(nr.size):
        if srow[a] in jac:
            continue
        arow = nr.mul[a]
        for b in range(nr.size):
            if arow[b] in iset and srow[b] not in iset:
                return (a, b)
    return None


def s_j_check(nr, ideal, subset, jac=None):
    """Fixed-s scan; (verdict, witness, per-s violation table)."""
    iset = frozenset(ideal)
    if jac is None:
        jac = jacobson(nr)
    table = []
    for s in sorted(subset):
        v = _sj_violation(nr, iset, jac, s)
        if v is None:
            return True, s, None
        table.append((s, v))
    return False, None, table


def s_j_per_pair(nr, ideal, subset, jac=None):
    """Inner-exists reading: every pair gets its own s."""
    iset = frozenset(ideal)
    if jac is None:
        jac = jacobson(nr)
    ss = sorted(subset)
    for a in range(nr.size):
        arow = nr.mul[a]
        for b in range(nr.size):
            if arow[b] not in iset:
                continue
            if any(nr.mul[s][a] in jac or nr.mul[s][b] in iset for s in ss):
                continue
            return False, (a, b)
    return True, None


def s_n_check(nr, ideal, subset, beta=None):
    # ab in I and a*s not nilpotent forces b*s in I
    iset = frozenset(ideal)
    if beta is None:
        beta = nilpotent_elements(nr)
    table = []
    for s in sorted(subset):
        v = None
        for a in range(nr.size):
            if nr.mul[a][s] in beta:
                continue
            arow = nr.mul[a]
            for b in range(nr.size):
                if arow[b] in iset and nr.mul[b][s] not in iset:
                    v = (a, b)
                    break
            if v is not None:
                break
        if v is None:
            return True, s, None
        table.append((s, v))
    return False, None, table


def s_prime_check(nr, ideal, subset):
    # ab in I forces a*s in I or b*s in I
    iset = frozenset(ideal)
    table = []
    for s in sorted(subset):
        v = None
        for a in range(nr.size):
            if nr.mul[a][s] in iset:
                continue
            arow = nr.mul[a]
            for b in range(nr.size):
                if arow[b] in iset and nr.mul[b][s] not in iset:
                    v = (a, b)
                    break
            if v is not None:
                break
        if v is None:
            return True, s, None
        table.append((s, v))
    return False, None, table


def right_s_prime(nr, ideal, subset, ideals=None):
    """Ideal-pair form: IK <= P forces I<s> <= P or K<s> <= P."""
    pset = frozenset(ideal)
    if ideals is None:
        ideals = all_ideals(nr)
    pairs = [(a, b) for a in ideals for b in ideals
             if product_in(nr, a, b, pset)]
    table = []
    for s in sorted(subset):
        gs = principal(nr, s)
        v = None
        for a, b in pairs:
            if product_in(nr, a, gs, pset):
                continue
            if product_in(nr, b, gs, pset):
                continue
            v = (a, b)
            break
        if v is None:
            return True, s, None
        table.append((s, v))
    return False, None, table


def right_s_j(nr, ideal, subset, jac=None, ideals=None):
    """Ideal-pair form: IK <= P forces I<s> <= J(R) or K<s> <= P."""
    pset = frozenset(ideal)
    if jac is None:
        jac = jacobson(nr)
    if ideals is None:
        ideals = all_ideals(nr)
    pairs = [(a, b) for a in ideals for b in ideals
             if product_in(nr, a, b, pset)]
    table = []
    for s in sorted(subset):
        gs = principal(nr, s)
        v = None
        for a, b in pairs:
            if product_in(nr, a, gs, jac):
                continue
            if product_in(nr, b, gs, pset):
                continue
            v = (a, b)
            break
        if v is None:
            return True, s, None
        table.append((s, v))
    return False, None, table


def right_s_j_elementwise(nr, ideal, subset, jac=None):
    """xRy <= P forces x<s> <= J(R) or y<s> <= P, one fixed s."""
    pset = frozenset(ideal)
    if jac is None:
        jac = jacobson(nr)
    n = nr.size
    table = []
    for s in sorted(subset):
        gs = sorted(principal(nr, s))
        v = None
        for x in range(n):
            xrow = nr.mul[x]
            if all(xrow[t] in jac for t in gs):
                continue
            for y in range(n):
                if all(nr.mul[y][t] in pset for t in gs):
                    continue
                if all(nr.mul[xrow[r]][y] in pset for r in range(n)):
                    v = (x, y)
                    break
            if v is not None:
                break
        if v is None:
            return True, s, None
        table.append((s, v))
    return False, None, table
