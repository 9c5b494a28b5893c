"""Ring-construction expressions: parsing, printing, elaboration.

The grammar (hand-written recursive descent):

    ring    := atom ("x" atom)*                 products associate left
    atom    := "Z" INT
             | "M" "(" INT "," ring ")"
             | "quot" "(" ring "," ideal ")"
             | "idealize" "(" ring "," INT ")"  cyclic module Z_k, k | n
             | "amalg" "(" ring "," ring "," "mod" "," ideal ")"
             | "trunc" "(" ring "," INT ")"
             | "idealring" "(" ring "," ideal ")"
             | "(" ring ")"
    ideal   := "gen" "(" elem ("," elem)* ")"
    subset  := ("mulclosed" | "gen_s") "(" elem ("," elem)* ")"
    elem    := INT
             | "(" elem "," elem ")"
             | "[" "[" elem* "]" ... "]"
             | "poly" "(" elem ("," elem)* ")"

Element literals are construction-native (tuples for products, matrices
for matrix rings, poly(...) for truncated polynomials); the amalgamation
literal is the actual pair (r, a) with a - f(r) in J.  parse and print
round-trip: parse(print(node)) == node.
"""

import re
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidParameter, ParseError
from .ideals import IdealSet, ideal_generate
from .rings import (
    MAX_RING_SIZE,
    AmalgRing,
    Hom,
    IdealizationRing,
    IdealSubringRing,
    MatrixRing,
    ProductRing,
    QuotientRing,
    TruncPolyRing,
    ZnRing,
    canonical_surjection,
    make_cyclic_module,
    make_ideal_as_ring,
    make_idealization,
    make_matrix_ring,
    make_product,
    make_truncated_poly,
    make_zn,
)
from .subsets import SubsetS, generated_subset


def _pos_field():
    return field(default=(1, 1), compare=False, repr=False)


# --- element literals ------------------------------------------------------

@dataclass(frozen=True)
class IntLit:
    value: int
    pos: tuple = _pos_field()


@dataclass(frozen=True)
class TupleLit:
    items: tuple
    pos: tuple = _pos_field()


@dataclass(frozen=True)
class MatrixLit:
    rows: tuple
    pos: tuple = _pos_field()


@dataclass(frozen=True)
class PolyLit:
    coeffs: tuple
    pos: tuple = _pos_field()


# --- ideal / subset specs --------------------------------------------------

@dataclass(frozen=True)
class GenSpec:
    elems: tuple
    pos: tuple = _pos_field()


@dataclass(frozen=True)
class SubsetSpec:
    kind: str                  # "mulclosed" or "gen_s"
    elems: tuple
    pos: tuple = _pos_field()


# --- ring expressions ------------------------------------------------------

@dataclass(frozen=True)
class Zn:
    n: int
    pos: tuple = _pos_field()


@dataclass(frozen=True)
class Prod:
    left: object
    right: object
    pos: tuple = _pos_field()


@dataclass(frozen=True)
class Mat:
    k: int
    inner: object
    pos: tuple = _pos_field()


@dataclass(frozen=True)
class Quot:
    inner: object
    ideal: GenSpec
    pos: tuple = _pos_field()


@dataclass(frozen=True)
class Idealize:
    inner: object
    k: int
    pos: tuple = _pos_field()


@dataclass(frozen=True)
class Amalg:
    left: object
    right: object
    ideal: GenSpec
    pos: tuple = _pos_field()


@dataclass(frozen=True)
class Trunc:
    inner: object
    d: int
    pos: tuple = _pos_field()


@dataclass(frozen=True)
class IdealRing:
    inner: object
    ideal: GenSpec
    pos: tuple = _pos_field()


# ---------------------------------------------------------------------------
# printer


def print_elem(lit):
    if isinstance(lit, IntLit):
        return str(lit.value)
    if isinstance(lit, TupleLit):
        return "(%s, %s)" % tuple(print_elem(x) for x in lit.items)
    if isinstance(lit, MatrixLit):
        rows = ", ".join(
            "[%s]" % ", ".join(print_elem(x) for x in row)
            for row in lit.rows)
        return "[%s]" % rows
    if isinstance(lit, PolyLit):
        return "poly(%s)" % ", ".join(print_elem(c) for c in lit.coeffs)
    raise InvalidParameter("not an element literal", got=type(lit).__name__)


def print_ideal(spec):
    return "gen(%s)" % ", ".join(print_elem(e) for e in spec.elems)


def print_subset(spec):
    return "%s(%s)" % (spec.kind, ", ".join(print_elem(e)
                                            for e in spec.elems))


def print_ring(node):
    if isinstance(node, Zn):
        return "Z%d" % node.n
    if isinstance(node, Prod):
        left = print_ring(node.left)
        right = print_ring(node.right)
        if isinstance(node.right, Prod):
            right = "(%s)" % right   # keep the left-associative reading
        return "%s x %s" % (left, right)
    if isinstance(node, Mat):
        return "M(%d, %s)" % (node.k, print_ring(node.inner))
    if isinstance(node, Quot):
        return "quot(%s, %s)" % (print_ring(node.inner),
                                 print_ideal(node.ideal))
    if isinstance(node, Idealize):
        return "idealize(%s, %d)" % (print_ring(node.inner), node.k)
    if isinstance(node, Amalg):
        return "amalg(%s, %s, mod, %s)" % (print_ring(node.left),
                                           print_ring(node.right),
                                           print_ideal(node.ideal))
    if isinstance(node, Trunc):
        return "trunc(%s, %d)" % (print_ring(node.inner), node.d)
    if isinstance(node, IdealRing):
        return "idealring(%s, %s)" % (print_ring(node.inner),
                                      print_ideal(node.ideal))
    raise InvalidParameter("not a ring expression", got=type(node).__name__)


# ---------------------------------------------------------------------------
# lexer


_TOKEN_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*|\d+|[(),\[\]]|\S")


class _Token:
    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind, text, line, col):
        self.kind = kind
        self.text = text
        self.line = line
        self.col = col

    def __repr__(self):
        return "%s(%r)" % (self.kind, self.text)


def _lex(text):
    tokens = []
    line = 1
    linestart = 0
    for m in re.finditer(r"\n|[^\S\n]+|" + _TOKEN_RE.pattern, text):
        tok = m.group(0)
        if tok == "\n":
            line += 1
            linestart = m.end()
            continue
        if tok.isspace():
            continue
        col = m.start() - linestart + 1
        if tok.isdigit():
            kind = "INT"
        elif re.match(r"[A-Za-z_]", tok):
            kind = "NAME"
        elif tok in "()[],":
            kind = tok
        else:
            raise ParseError("unexpected character", line, col,
                             found=tok)
        tokens.append(_Token(kind, tok, line, col))
    tokens.append(_Token("EOF", "", line, len(text) - linestart + 1))
    return tokens


class _Parser:
    def __init__(self, text):
        self.tokens = _lex(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def fail(self, message, expected=()):
        tok = self.peek()
        raise ParseError(message, tok.line, tok.col, expected=expected,
                         found=tok.text or "end of input")

    def expect(self, kind, text=None):
        tok = self.peek()
        if tok.kind != kind or (text is not None and tok.text != text):
            self.fail("expected %s" % (text or kind),
                      expected=(text or kind,))
        return self.next()

    def at_name(self, text):
        tok = self.peek()
        return tok.kind == "NAME" and tok.text == text

    # --- ring grammar ---

    def ring(self):
        node = self.atom()
        while self.at_name("x"):
            self.next()
            right = self.atom()
            node = Prod(node, right, pos=node.pos)
        return node

    def atom(self):
        tok = self.peek()
        if tok.kind == "(":
            self.next()
            node = self.ring()
            self.expect(")")
            return node
        if tok.kind != "NAME":
            self.fail("expected a ring expression",
                      expected=("Z<n>", "M", "quot", "idealize", "amalg",
                                "trunc", "idealring", "("))
        m = re.fullmatch(r"Z(\d+)", tok.text)
        if m:
            self.next()
            n = int(m.group(1))
            if n < 1:
                raise ParseError("modulus must be positive", tok.line,
                                 tok.col, found=tok.text)
            return Zn(n, pos=(tok.line, tok.col))
        if tok.text == "M":
            self.next()
            self.expect("(")
            k = self.int_token()
            self.expect(",")
            inner = self.ring()
            self.expect(")")
            return Mat(k, inner, pos=(tok.line, tok.col))
        if tok.text == "quot":
            self.next()
            self.expect("(")
            inner = self.ring()
            self.expect(",")
            spec = self.ideal_spec()
            self.expect(")")
            return Quot(inner, spec, pos=(tok.line, tok.col))
        if tok.text == "idealize":
            self.next()
            self.expect("(")
            inner = self.ring()
            self.expect(",")
            k = self.int_token()
            self.expect(")")
            return Idealize(inner, k, pos=(tok.line, tok.col))
        if tok.text == "amalg":
            self.next()
            self.expect("(")
            left = self.ring()
            self.expect(",")
            right = self.ring()
            self.expect(",")
            self.expect("NAME", "mod")
            self.expect(",")
            spec = self.ideal_spec()
            self.expect(")")
            return Amalg(left, right, spec, pos=(tok.line, tok.col))
        if tok.text == "trunc":
            self.next()
            self.expect("(")
            inner = self.ring()
            self.expect(",")
            d = self.int_token()
            self.expect(")")
            return Trunc(inner, d, pos=(tok.line, tok.col))
        if tok.text == "idealring":
            self.next()
            self.expect("(")
            inner = self.ring()
            self.expect(",")
            spec = self.ideal_spec()
            self.expect(")")
            return IdealRing(inner, spec, pos=(tok.line, tok.col))
        self.fail("unknown ring constructor",
                  expected=("Z<n>", "M", "quot", "idealize", "amalg",
                            "trunc", "idealring"))

    def int_token(self):
        tok = self.expect("INT")
        return int(tok.text)

    # --- ideal / subset specs ---

    def ideal_spec(self):
        tok = self.peek()
        self.expect("NAME", "gen")
        elems = self.elem_args()
        return GenSpec(tuple(elems), pos=(tok.line, tok.col))

    def subset_spec(self):
        tok = self.peek()
        if tok.kind != "NAME" or tok.text not in ("mulclosed", "gen_s"):
            self.fail("expected a subset spec",
                      expected=("mulclosed", "gen_s"))
        self.next()
        elems = self.elem_args()
        return SubsetSpec(tok.text, tuple(elems), pos=(tok.line, tok.col))

    def elem_args(self):
        self.expect("(")
        elems = [self.elem()]
        while self.peek().kind == ",":
            self.next()
            elems.append(self.elem())
        self.expect(")")
        return elems

    # --- element literals ---

    def elem(self):
        tok = self.peek()
        if tok.kind == "INT":
            self.next()
            return IntLit(int(tok.text), pos=(tok.line, tok.col))
        if tok.kind == "(":
            self.next()
            first = self.elem()
            self.expect(",")
            second = self.elem()
            self.expect(")")
            return TupleLit((first, second), pos=(tok.line, tok.col))
        if tok.kind == "[":
            return self.matrix_lit()
        if tok.kind == "NAME" and tok.text == "poly":
            self.next()
            coeffs = self.elem_args()
            return PolyLit(tuple(coeffs), pos=(tok.line, tok.col))
        self.fail("expected an element literal",
                  expected=("INT", "(", "[", "poly"))

    def matrix_lit(self):
        tok = self.expect("[")
        rows = [self.matrix_row()]
        while self.peek().kind == ",":
            self.next()
            rows.append(self.matrix_row())
        self.expect("]")
        return MatrixLit(tuple(rows), pos=(tok.line, tok.col))

    def matrix_row(self):
        self.expect("[")
        out = [self.elem()]
        while self.peek().kind == ",":
            self.next()
            out.append(self.elem())
        self.expect("]")
        return tuple(out)

    def finish(self):
        tok = self.peek()
        if tok.kind != "EOF":
            self.fail("trailing input", expected=("end of input",))


def parse_ring_expr(text):
    p = _Parser(text)
    node = p.ring()
    p.finish()
    return node


def parse_ideal_spec(text):
    p = _Parser(text)
    spec = p.ideal_spec()
    p.finish()
    return spec


def parse_subset_spec(text):
    p = _Parser(text)
    spec = p.subset_spec()
    p.finish()
    return spec


def parse_element(text):
    p = _Parser(text)
    lit = p.elem()
    p.finish()
    return lit


# ---------------------------------------------------------------------------
# elaboration


def _elab_error(message, node, **details):
    line, col = getattr(node, "pos", (1, 1))
    err = ParseError(message, line, col)
    err.details.update(details)
    return err


def build_ring(node):
    """Elaborate an AST into a validated Ring; labels match the printer."""
    label = print_ring(node)
    if isinstance(node, Zn):
        return make_zn(node.n)
    if isinstance(node, Prod):
        return make_product(build_ring(node.left), build_ring(node.right),
                            label=label)
    if isinstance(node, Mat):
        if node.k < 1:
            raise _elab_error("matrix size must be at least 1", node,
                              k=node.k)
        return make_matrix_ring(node.k, build_ring(node.inner), label=label)
    if isinstance(node, Quot):
        inner = build_ring(node.inner)
        ideal = build_ideal(inner, node.ideal)
        return canonical_surjection(inner, ideal.mask, label=label)[0]
    if isinstance(node, Idealize):
        inner = build_ring(node.inner)
        if not isinstance(inner, ZnRing):
            raise _elab_error("idealize needs a Z_n base ring", node)
        if node.k < 1 or inner.n % node.k != 0:
            raise _elab_error("module order must divide the base modulus",
                              node, n=inner.n, k=node.k)
        module = make_cyclic_module(inner, node.k)
        return make_idealization(inner, module, label=label)
    if isinstance(node, Amalg):
        left = build_ring(node.left)
        right = build_ring(node.right)
        if not isinstance(left, ZnRing) or not isinstance(right, ZnRing):
            raise _elab_error("amalg needs Z_n rings on both sides", node)
        if right.n < 1 or left.n % right.n != 0:
            raise _elab_error("reduction needs the second modulus dividing "
                              "the first", node, n=left.n, m=right.n)
        hom = Hom(left, right, np.arange(left.n, dtype=np.int64) % right.n,
                  label="mod(%d -> %d)" % (left.n, right.n))
        ideal = build_ideal(right, node.ideal)
        return AmalgRing(left, right, hom, ideal.mask, label=label)
    if isinstance(node, Trunc):
        inner = build_ring(node.inner)
        if node.d < 1:
            raise _elab_error("need at least one coefficient", node,
                              d=node.d)
        if inner.size ** node.d > MAX_RING_SIZE:
            raise _elab_error("truncated ring too large", node,
                              size=inner.size ** node.d)
        return make_truncated_poly(inner, node.d, label=label)
    if isinstance(node, IdealRing):
        inner = build_ring(node.inner)
        ideal = build_ideal(inner, node.ideal)
        return make_ideal_as_ring(inner, ideal.mask, label=label)
    raise InvalidParameter("not a ring expression", got=type(node).__name__)


def resolve_element(ring, lit):
    """Turn a construction-native literal into an element index."""
    if isinstance(lit, IntLit):
        if isinstance(ring, ZnRing):
            return int(lit.value % ring.n)
        raise _elab_error("integer literal only addresses Z_n elements",
                          lit, ring=ring.label)
    if isinstance(lit, TupleLit):
        a, b = lit.items
        if isinstance(ring, ProductRing):
            return int(ring.join(resolve_element(ring.r1, a),
                                 resolve_element(ring.r2, b)))
        if isinstance(ring, IdealizationRing):
            r = resolve_element(ring.base, a)
            if not isinstance(b, IntLit):
                raise _elab_error("module coordinate must be an integer",
                                  b)
            m = int(b.value % ring.module.size)
            return int(ring.join(r, m))
        if isinstance(ring, AmalgRing):
            r = resolve_element(ring.base, a)
            second = resolve_element(ring.target, b)
            fr = int(ring.hom.map[r])
            j = int(ring.target.sub_vec(np.int64(second), np.int64(fr)))
            if ring.jpos[j] < 0:
                raise _elab_error("pair is not in the amalgamation "
                                  "(offset falls outside the ideal)", lit,
                                  offset=ring.target.element_label(j))
            return int(r * len(ring.jmembers) + ring.jpos[j])
        raise _elab_error("tuple literal does not fit this ring", lit,
                          ring=ring.label)
    if isinstance(lit, MatrixLit):
        if not isinstance(ring, MatrixRing):
            raise _elab_error("matrix literal does not fit this ring", lit,
                              ring=ring.label)
        k = ring.k
        if len(lit.rows) != k or any(len(r) != k for r in lit.rows):
            raise _elab_error("matrix literal must be %d x %d" % (k, k),
                              lit)
        idx = 0
        for row in lit.rows:
            for entry in row:
                idx = idx * ring.base.size + resolve_element(ring.base,
                                                             entry)
        return int(idx)
    if isinstance(lit, PolyLit):
        if not isinstance(ring, TruncPolyRing):
            raise _elab_error("poly literal does not fit this ring", lit,
                              ring=ring.label)
        if len(lit.coeffs) > ring.d:
            raise _elab_error("too many coefficients", lit, d=ring.d,
                              got=len(lit.coeffs))
        n = ring.base.size
        idx = 0
        for i, c in enumerate(lit.coeffs):
            idx += resolve_element(ring.base, c) * n ** i
        return int(idx)
    raise InvalidParameter("not an element literal", got=type(lit).__name__)


def _resolve_via_base(ring, lit):
    # quotient and ideal-as-ring literals address base-ring elements
    if isinstance(ring, QuotientRing):
        base_idx = _resolve_via_base(ring.base, lit)
        return int(ring.project(base_idx))
    if isinstance(ring, IdealSubringRing):
        base_idx = _resolve_via_base(ring.base, lit)
        if ring.pos[base_idx] < 0:
            raise _elab_error("element lies outside the ideal subring", lit,
                              element=ring.base.element_label(base_idx))
        return int(ring.pos[base_idx])
    return resolve_element(ring, lit)


def element_index(ring, lit):
    """Resolve a literal against any ring, including quotient reps."""
    return _resolve_via_base(ring, lit)


def build_ideal(ring, spec):
    gens = [element_index(ring, e) for e in spec.elems]
    mask = ideal_generate(ring, gens)
    return IdealSet(ring, mask, label=print_ideal(spec))


def build_subset(ring, spec):
    members = [element_index(ring, e) for e in spec.elems]
    if spec.kind == "gen_s":
        out = generated_subset(ring, members, label=print_subset(spec))
        return out
    return SubsetS(ring, members, kind="mulclosed", label=print_subset(spec))
