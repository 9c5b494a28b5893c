"""Ring axioms, vector/scalar agreement, homs, centers, flags."""

import tracemalloc

import numpy as np
import pytest

import naive
from test_ideals import generated_rings  # noqa: F401  (fixture)

from ringlab import cli, rings
from ringlab.errors import InvalidParameter
from ringlab.exprs import build_ring, parse_ring_expr
from ringlab.rings import (
    _group_addgens,
    additive_closure,
    canonical_surjection,
    center_mask,
    is_ideal_mask,
    make_matrix_ring,
    make_truncated_poly,
    make_zn,
    units_mask,
)
from ringlab.ideals import principal_ideal

FAMILY_EXPRS = [
    "Z12",
    "Z4 x Z6",
    "M(2, Z3)",
    "quot(Z36, gen(12))",
    "idealize(Z4, 2)",
    "amalg(Z8, Z4, mod, gen(2))",
    "trunc(Z4, 2)",
    "idealring(Z36, gen(6))",
]


@pytest.fixture(params=FAMILY_EXPRS)
def ring(request):
    return build_ring(parse_ring_expr(request.param))


def _sample(ring, rng, k=400):
    return rng.integers(0, ring.size, size=k)


def test_axioms_sampled(ring):
    rng = np.random.default_rng(1)
    a, b, c = (_sample(ring, rng) for _ in range(3))
    add, mul, neg = ring.add_vec, ring.mul_vec, ring.neg_vec
    assert (add(a, b) == add(b, a)).all()
    assert (add(add(a, b), c) == add(a, add(b, c))).all()
    assert (mul(mul(a, b), c) == mul(a, mul(b, c))).all()
    assert (mul(a, add(b, c)) == add(mul(a, b), mul(a, c))).all()
    assert (mul(add(a, b), c) == add(mul(a, c), mul(b, c))).all()
    assert (add(a, neg(a)) == ring.zero).all()
    assert (add(a, ring.zero) == a).all()
    if ring.one is not None:
        assert (mul(a, ring.one) == a).all()
        assert (mul(ring.one, a) == a).all()


def test_scalar_matches_vector(ring):
    rng = np.random.default_rng(2)
    a, b = _sample(ring, rng, 50), _sample(ring, rng, 50)
    for x, y in zip(a.tolist(), b.tolist()):
        assert ring.add(x, y) == int(ring.add_vec(np.int64(x), np.int64(y)))
        assert ring.mul(x, y) == int(ring.mul_vec(np.int64(x), np.int64(y)))
        assert ring.neg(x) == int(ring.neg_vec(np.int64(x)))


def test_flags_match_tables(ring):
    """commutative / identity flags agree with what the tables say."""
    nr = naive.NaiveRing(ring)
    assert nr.commutative == ring.commutative
    assert nr.one == ring.one
    assert nr.zero == ring.zero


def test_addgens_generate_everything(ring):
    mask = additive_closure(ring, list(map(int, ring.addgens)))
    assert mask.all()


def test_element_labels_unique(ring):
    labels = {ring.element_label(i) for i in range(ring.size)}
    assert len(labels) == ring.size


def test_center_mask_brute_force():
    for expr in ("M(2, Z3)", "Z4 x Z6", "amalg(Z8, Z4, mod, gen(2))"):
        ring = build_ring(parse_ring_expr(expr))
        els = ring.elements
        got = center_mask(ring)
        want = np.array([
            bool((ring.mul_vec(np.int64(i), els)
                  == ring.mul_vec(els, np.int64(i))).all())
            for i in range(ring.size)])
        assert (got == want).all()
        if ring.commutative:
            assert got.all()


def test_canonical_surjection_is_a_hom():
    ring = make_zn(36)
    kernel = principal_ideal(ring, 12)
    q, hom = canonical_surjection(ring, kernel.mask)
    assert q.size == 12
    f = hom.map
    els = ring.elements
    pairs_a = np.repeat(els, ring.size)
    pairs_b = np.tile(els, ring.size)
    assert (f[ring.add_vec(pairs_a, pairs_b)]
            == q.add_vec(f[pairs_a], f[pairs_b])).all()
    assert (f[ring.mul_vec(pairs_a, pairs_b)]
            == q.mul_vec(f[pairs_a], f[pairs_b])).all()
    assert (f[els] == q.zero).sum() == kernel.size
    assert is_ideal_mask(ring, kernel.mask)


def test_identityless_families():
    sub = build_ring(parse_ring_expr("idealring(Z36, gen(6))"))
    assert sub.one is None          # products of multiples of 6 vanish mod 36
    assert sub.size == 6
    unit = build_ring(parse_ring_expr("idealring(Z6, gen(2))"))
    assert unit.one is not None     # 4 acts as identity on {0, 2, 4}


def test_matrix_ring_layout():
    mat = build_ring(parse_ring_expr("M(2, Z3)"))
    # row-major base-|R| digits: [[a, b], [c, d]] -> ((a*3 + b)*3 + c)*3 + d
    assert mat.element_label(28) == "[[1,0],[0,1]]"
    assert mat.one == 28
    e12, e21 = 9, 3
    assert mat.element_label(e12) == "[[0,1],[0,0]]"
    assert mat.element_label(e21) == "[[0,0],[1,0]]"
    # e12 * e21 = e11, e21 * e12 = e22: the standard noncommutativity pair
    assert mat.mul(e12, e21) == 27
    assert mat.mul(e21, e12) == 1
    assert not mat.commutative


# --- Cayley tables against the formulas --------------------------------------

TABLE_EXPRS = FAMILY_EXPRS + ["Z1"]       # Z1: the walk has no generators


def _assert_tables_match_formulas(expr, monkeypatch):
    """The walked tables equal the full formula grid of a copy of the ring
    built with no table anywhere, and addgens is the list the greedy
    doubling finds over the tables."""
    ring = build_ring(parse_ring_expr(expr))
    tables = (ring.mul_table, ring._add_table, ring._neg_table)
    for table in tables:
        assert table.dtype == np.int32 and not table.flags.writeable, expr
    with monkeypatch.context() as m:
        m.setattr(rings, "TABLE_LIMIT", 0)
        formula = build_ring(parse_ring_expr(expr))
        idx = formula.elements
        grids = (formula._mul_vec(idx[:, None], idx[None, :]),
                 formula._add_vec(idx[:, None], idx[None, :]),
                 formula._neg_vec(idx))
        assert formula._add_table is None, expr
    for table, grid in zip(tables, grids):
        assert (table == grid).all(), expr
    assert ring.addgens == formula.addgens == _group_addgens(
        ring.size, ring.zero, ring.add_vec), expr


@pytest.mark.parametrize("expr", TABLE_EXPRS)
def test_tables_match_formulas(expr, monkeypatch):
    _assert_tables_match_formulas(expr, monkeypatch)


def test_generated_tables_match_formulas(generated_rings, monkeypatch):
    for label, _, _ in generated_rings:
        _assert_tables_match_formulas(label, monkeypatch)


def test_table_limit_boundary(monkeypatch):
    monkeypatch.setattr(rings, "TABLE_LIMIT", 16)
    at = make_zn(16)
    assert at.mul_table is not None
    assert at.add(9, 9) == 2
    above = make_zn(17)
    idx = above.elements
    for _ in range(10):         # no amount of formula work builds them
        above.add_vec(idx[:, None], idx[None, :])
        above.mul_vec(idx[:, None], idx[None, :])
    assert above.mul_table is None
    assert above.add(9, 9) == 1 and above.mul(4, 5) == 3
    assert above._add_table is None


def _no_tables(ring):
    return ring._add_table is None and ring._mul_table is None


def test_vector_ops_build_tables_once_formula_cells_reach_size_squared():
    """Within TABLE_LIMIT, add_vec and mul_vec run by formula until the
    cells they evaluated reach size**2 in total, then read built tables;
    reading mul_table builds them at once."""
    ring = make_zn(12)
    idx = ring.elements
    assert (ring.add_vec(idx[:, None], idx[None, :11]) ==
            (idx[:, None] + idx[None, :11]) % 12).all()     # 132 cells
    assert (ring.mul_vec(idx[:10], 5) == idx[:10] * 5 % 12).all()
    assert ring.add(7, 8) == 3                              # 143 = 12**2 - 1
    assert _no_tables(ring)
    assert ring.mul(7, 8) == 8                              # 144
    assert not _no_tables(ring) and ring._neg_table is not None

    fresh = make_zn(12)
    assert fresh.mul_table is not None and fresh._add_table is not None


def test_describe_of_a_matrix_product_builds_no_factor_tables(monkeypatch,
                                                              capsys):
    """Describing Z2 x M(2, Z7) (4,802 elements, above TABLE_LIMIT) drives
    its M(2, Z7) factor by formula only: the factor's two 2,401-square
    int32 tables (46 MB at peak to build) are never paid for."""
    built = []

    def recorded(node):
        built.append(build_ring(node))
        return built[-1]

    monkeypatch.setattr(cli, "build_ring", recorded)
    tracemalloc.start()
    try:
        assert cli.main(["describe", "Z2 x M(2, Z7)"]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert "ideal_count: 4" in capsys.readouterr().out
    ring, = built
    assert ring.size == 4802 and ring.r2.label == "M(2, Z7)"
    assert _no_tables(ring.r2) and ring.mul_table is None
    assert peak < 8 * 2**20


def test_max_ring_size_boundary(monkeypatch):
    base2, base4 = make_zn(2), make_zn(4)
    monkeypatch.setattr(rings, "MAX_RING_SIZE", 16)
    assert make_matrix_ring(2, base2).size == 16
    assert make_truncated_poly(base4, 2).size == 16
    monkeypatch.setattr(rings, "MAX_RING_SIZE", 15)
    with pytest.raises(InvalidParameter):
        make_matrix_ring(2, base2)
    with pytest.raises(InvalidParameter):
        make_truncated_poly(base4, 2)


def _table_bytes(ring):
    return sum(t.nbytes for t in (ring._add_table, ring.mul_table,
                                  ring._neg_table))


def test_table_build_peak_memory():
    """The walk and the unit mask read in row blocks: building the Z4096
    tables and its unit mask peaks within 16 MB of the tables' own bytes.
    M(2, Z7) walks 4 generators in 12 doubling steps, and its product
    steps span several blocks: its build peaks within 12 MB of its
    tables, which product steps with an int32 index in blocks of 2^20
    cells (16 MB over) would not."""
    ring = make_zn(4096)
    tracemalloc.start()
    try:
        ring.mul_table
        units = units_mask(ring)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < _table_bytes(ring) + 16 * 2**20
    assert int(units.sum()) == 2048 and units[1] and not units[2]

    mat = build_ring(parse_ring_expr("M(2, Z7)"))
    assert len(mat.addgens) == 4
    tracemalloc.start()
    try:
        mat.mul_table
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < _table_bytes(mat) + 12 * 2**20


# --- metamorphic relations of the walked tables ------------------------------

def _pair_index(a, b, second):
    """Index of (a, b) in a product whose second factor has that size."""
    return a * second + b


def _swap(m, n):
    """R x S -> S x R, (a, b) -> (b, a), for factors of sizes m and n."""
    e = np.arange(m * n)
    return _pair_index(e % n, e // n, m)


def _crt(m, n):
    """Zm x Zn -> Zmn for coprime m and n: (a, b) -> the x with x = a mod m
    and x = b mod n, by inverting x -> (x mod m, x mod n)."""
    x = np.arange(m * n)
    out = np.empty(m * n, dtype=np.int64)
    out[_pair_index(x % m, x % n, n)] = x
    return out


METAMORPHIC = [
    ("Z4 x Z6", "Z6 x Z4", _swap(4, 6)),
    ("Z4 x Z9", "Z36", _crt(4, 9)),
    ("M(2, Z2) x Z3", "Z3 x M(2, Z2)", _swap(16, 3)),
    ("Z16 x Z81", "Z1296", _crt(16, 81)),
] + [("trunc(%s, 1)" % expr, expr, np.arange(size)) for expr, size in (
    ("Z12", 12), ("M(2, Z3)", 81), ("Z4 x Z6", 24),
    ("idealring(Z36, gen(6))", 6), ("amalg(Z8, Z4, mod, gen(2))", 16),
    ("idealize(Z4, 2)", 8))]


@pytest.mark.parametrize("left, right, f", METAMORPHIC,
                         ids=[pair[0] + " ~ " + pair[1]
                              for pair in METAMORPHIC])
def test_walked_tables_agree_through_a_bijection(left, right, f):
    """f maps the elements of ``left`` onto those of ``right`` and carries
    each walked table of one onto the other: f(a + b) = f(a) + f(b),
    f(ab) = f(a)f(b), f(-a) = -f(a).  The two sides of a swap or CRT
    pair are walked from different generators, so those check the walk
    without the formulas; trunc(R, 1) checks the encoding at d = 1."""
    a, b = (build_ring(parse_ring_expr(expr)) for expr in (left, right))
    assert a.size == b.size == f.size <= 1296
    assert sorted(f.tolist()) == list(range(a.size))
    (mul_a, add_a, neg_a), (mul_b, add_b, neg_b) = (
        (r.mul_table, r._add_table, r._neg_table) for r in (a, b))
    assert (add_b[f][:, f] == f[add_a]).all(), (left, right)
    assert (mul_b[f][:, f] == f[mul_a]).all(), (left, right)
    assert (neg_b[f] == f[neg_a]).all(), (left, right)
    assert f[a.zero] == b.zero
    assert (a.one is None) == (b.one is None)
    if a.one is not None:
        assert f[a.one] == b.one
