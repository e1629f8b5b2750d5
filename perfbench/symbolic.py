"""Sympy side of the benchmark's correctness checks.

Package values are only read (exponent -> coefficient maps, real and
imaginary parts) and rebuilt as sympy polynomials over QQ_I; every product,
derivative, bracket, rank and factorization used to judge an answer is then
computed by sympy, never by the package's own arithmetic.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations_with_replacement

import sympy
from sympy import QQ, Poly
from sympy.polys.domains import QQ_I
from sympy.polys.matrices import DomainMatrix

GENS = {
    1: (sympy.Symbol("t"),),
    2: sympy.symbols("x y"),
    3: sympy.symbols("x y z"),
}


def qi(re, im=0):
    """A QQ_I element from two rationals (int, Fraction or decimal string)."""
    re, im = Fraction(re), Fraction(im)
    return QQ_I(QQ(re.numerator, re.denominator), QQ(im.numerator, im.denominator))


def from_terms(dim: int, terms: dict) -> Poly:
    """Poly over QQ_I from {exponent: (re, im)}."""
    return native(GENS[dim], {tuple(e): qi(*c) for e, c in terms.items()})


def native(gens, terms: dict) -> Poly:
    """Poly from {exponent: QQ_I element}; an empty map is the zero polynomial."""
    return Poly.from_dict(terms or {(0,) * len(gens): QQ_I(0, 0)}, *gens, domain=QQ_I)


def homogeneous(p: Poly, k: int) -> Poly:
    return native(p.gens, {e: c for e, c in terms(p).items() if sum(e) == k})


def poly(series) -> Poly:
    """Rebuild a package PolySeries (total or jet: its stored terms)."""
    return from_terms(series.dim, {e: (c.re, c.im) for e, c in series.terms.items()})


def field(vf) -> list[Poly]:
    return [poly(c) for c in vf.comps]


def from_json_terms(dim: int, rows) -> Poly:
    """Poly from the CLI's [[re, im, [exponents]], ...] serialization."""
    return from_terms(dim, {tuple(e): (re, im) for re, im, e in rows})


def terms(p: Poly) -> dict:
    return p.as_dict(native=True) if not p.is_zero else {}


def same(p: Poly, series) -> bool:
    """Exact equality of a sympy polynomial with a package value's terms."""
    return terms(p) == terms(poly(series))


def up_to_degree(p: Poly, n: int) -> dict:
    return {e: c for e, c in terms(p).items() if sum(e) <= n}


def apply(x: list[Poly], f: Poly) -> Poly:
    """X(f) = sum_j X_j df/dz_j."""
    gens = f.gens
    out = f * 0
    for xj, g in zip(x, gens):
        out += xj * f.diff(g)
    return out


def bracket(x: list[Poly], y: list[Poly]) -> list[Poly]:
    return [apply(x, yi) - apply(y, xi) for xi, yi in zip(x, y)]


def det(rows: list[list[Poly]]) -> Poly:
    return sympy.Matrix([[p.as_expr() for p in r] for r in rows]).det(method="berkowitz")


def wedge(fields: list[list[Poly]]):
    """The package's wedge convention: determinant for m = n, the three
    antisymmetric coefficients for two fields in three variables."""
    n, m = len(fields[0]), len(fields)
    if m == n:
        gens = fields[0][0].gens
        if n == 2:
            (a0, a1), (b0, b1) = fields
            return a0 * b1 - a1 * b0
        return Poly(det(fields), *gens, domain=QQ_I)
    a, b = fields
    return [a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0]]


def evaluate(p: Poly, point) -> object:
    """Exact value at a point with QQ_I coordinates."""
    total = QQ_I(0, 0)
    for e, c in terms(p).items():
        v = c
        for coord, k in zip(point, e):
            if k:
                v = v * coord**k
        total = total + v
    return total


def monomials(dim: int, max_deg: int, min_deg: int = 0) -> list[tuple]:
    out = []
    for d in range(min_deg, max_deg + 1):
        for combo in combinations_with_replacement(range(dim), d):
            e = [0] * dim
            for i in combo:
                e[i] += 1
            out.append(tuple(e))
    return out


def rank(vectors: list[dict], ncols: int) -> int:
    """Rank of sparse rows {column: QQ_I value}."""
    if not vectors:
        return 0
    rows = {i: {j: c for j, c in v.items() if c} for i, v in enumerate(vectors)}
    return DomainMatrix(rows, (len(vectors), ncols), QQ_I).rank()


def kernel_constraints(x: list[Poly], max_degree: int, integrals: bool):
    """Independently assembled constraint system of ad_X (or of f -> X(f)).

    Columns are monomial fields z^e d/dz_i with |e| <= N (monomials z^e with
    1 <= |e| <= N for first integrals); rows are (slot, monomial) coefficients
    of the images.  Returns (rows as {column: value}, degree of each row,
    number of columns).
    """
    dim = len(x)
    gens = GENS[dim]
    zero = native(gens, {})
    images = []
    for e in monomials(dim, max_degree, 1 if integrals else 0):
        mono = native(gens, {e: QQ_I(1, 0)})
        if integrals:
            images.append([apply(x, mono)])
            continue
        for i in range(dim):
            images.append(bracket(x, [mono if k == i else zero for k in range(dim)]))
    rows: dict = {}
    for col, image in enumerate(images):
        for slot, p in enumerate(image):
            for e, c in terms(p).items():
                rows.setdefault((slot, e), {})[col] = c
    keys = sorted(rows)
    return [rows[k] for k in keys], [sum(k[1]) for k in keys], len(images)


def field_vector(vf: list[Poly]) -> dict:
    """A field as a sparse vector keyed by (exponent, slot)."""
    return {(e, i): c for i, p in enumerate(vf) for e, c in terms(p).items()}


def span_rank(families: list[list[dict]]) -> int:
    """Rank of the union of sparse vectors keyed by arbitrary labels."""
    labels = sorted({k for fam in families for v in fam for k in v})
    index = {k: j for j, k in enumerate(labels)}
    vecs = [{index[k]: c for k, c in v.items()} for fam in families for v in fam]
    return rank(vecs, len(labels))


def irreducible_over_qqi(p: Poly) -> bool:
    _, factors = sympy.factor_list(p)
    return len(factors) == 1 and factors[0][1] == 1 and factors[0][0].degree() >= 1
