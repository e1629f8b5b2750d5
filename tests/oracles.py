"""Independent brute-force oracles built on sympy.

These recompute kernel dimensions from scratch: a generic field with symbolic
coefficients, the bracket via sympy.diff, and the constraint system solved by
sympy's nullspace.  Nothing here shares code with the package solver, so
agreement is meaningful evidence.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import sympy
from sympy.polys.domains import QQ_I
from sympy.polys.matrices import DomainMatrix

from germfield import PolySeries, VectorFieldJet

_SYMS = sympy.symbols("x y z")


def poly_to_sympy(f: PolySeries):
    expr = sympy.Integer(0)
    for e, c in f.terms.items():
        term = sympy.Rational(c.re) + sympy.Rational(c.im) * sympy.I
        for s, k in zip(_SYMS, e):
            term *= s**k
        expr += term
    return sympy.expand(expr)


def field_to_sympy(x: VectorFieldJet):
    return [poly_to_sympy(c) for c in x.comps]


def sympy_bracket(xs, ys, dim):
    syms = _SYMS[:dim]
    out = []
    for i in range(dim):
        expr = sympy.Integer(0)
        for j in range(dim):
            expr += xs[j] * sympy.diff(ys[i], syms[j]) - ys[j] * sympy.diff(
                xs[i], syms[j]
            )
        out.append(sympy.expand(expr))
    return out


def _monomials(dim, max_deg, min_deg=0):
    syms = _SYMS[:dim]
    out = []
    for total in range(min_deg, max_deg + 1):
        for combo in itertools.combinations_with_replacement(range(dim), total):
            e = [0] * dim
            for i in combo:
                e[i] += 1
            out.append(tuple(e))
    return sorted(set(out))


def brute_force_centralizer_dim(
    x: VectorFieldJet, max_degree: int, exact_only: bool = True
) -> int:
    """Dimension of {Y jet : [X, Y] = 0 (exactly, or mod the horizon)}."""
    dim = x.dim
    syms = _SYMS[:dim]
    xs = field_to_sympy(x)
    horizon = None if exact_only else max_degree + x.mu() - 1
    unknowns = []
    ys = [sympy.Integer(0) for _ in range(dim)]
    for comp in range(dim):
        for e in _monomials(dim, max_degree):
            a = sympy.Symbol(f"a_{comp}_" + "_".join(map(str, e)))
            unknowns.append(a)
            term = a
            for s, k in zip(syms, e):
                term *= s**k
            ys[comp] += term
    bracket = sympy_bracket(xs, ys, dim)
    equations = []
    for expr in bracket:
        poly = sympy.Poly(expr, *syms)
        for monom, coeff in zip(poly.monoms(), poly.coeffs()):
            if horizon is not None and sum(monom) > horizon:
                continue
            equations.append(coeff)
    matrix = sympy.Matrix(
        [[sympy.diff(eq, a) for a in unknowns] for eq in equations]
    )
    return len(unknowns) - matrix.rank()


def brute_force_first_integral_dim(
    x: VectorFieldJet, max_degree: int, exact_only: bool = True
) -> int:
    dim = x.dim
    syms = _SYMS[:dim]
    xs = field_to_sympy(x)
    horizon = None if exact_only else max_degree + x.mu() - 1
    unknowns, f = [], sympy.Integer(0)
    for e in _monomials(dim, max_degree, min_deg=1):
        a = sympy.Symbol("b_" + "_".join(map(str, e)))
        unknowns.append(a)
        term = a
        for s, k in zip(syms, e):
            term *= s**k
        f += term
    derivative = sum(xs[j] * sympy.diff(f, syms[j]) for j in range(dim))
    poly = sympy.Poly(sympy.expand(derivative), *syms)
    equations = []
    for monom, coeff in zip(poly.monoms(), poly.coeffs()):
        if horizon is not None and sum(monom) > horizon:
            continue
        equations.append(coeff)
    matrix = sympy.Matrix(
        [[sympy.diff(eq, a) for a in unknowns] for eq in equations]
    )
    return len(unknowns) - matrix.rank()


# -- exact elimination over Q(i) ------------------------------------------------
# Matrices are lists of rows of (re, im) Fraction pairs, so nothing from the
# package's scalar type or solver is involved.


def _pair(z) -> tuple[Fraction, Fraction]:
    return tuple(Fraction(int(q.numerator), int(q.denominator)) for q in (z.x, z.y))


def sympy_rref(rows, ncols):
    """sympy's DomainMatrix RREF over QQ_I: (nonzero rows, pivot columns)."""
    matrix = DomainMatrix(
        [[QQ_I(re, im) for re, im in row] for row in rows], (len(rows), ncols), QQ_I
    )
    red, pivots = matrix.rref()
    return [[_pair(z) for z in row] for row in red.to_list()[: len(pivots)]], list(pivots)


def sympy_nullspace(rows, ncols):
    """Kernel basis read off sympy's RREF: one vector per free column, in
    column order, 1 at the free column and minus the RREF entries at pivots."""
    red, pivots = sympy_rref(rows, ncols)
    zero = (Fraction(0), Fraction(0))
    basis = []
    for free in range(ncols):
        if free in pivots:
            continue
        v = [zero] * ncols
        v[free] = (Fraction(1), Fraction(0))
        for row, p in zip(red, pivots):
            v[p] = (-row[free][0], -row[free][1])
        basis.append(v)
    return basis


# -- blow-up oracles -------------------------------------------------------------


def sympy_isolated(x: VectorFieldJet) -> bool:
    """Whether a plane field has no common factor of its components through 0.

    Factors the first component over Q(i) and tests each irreducible factor
    that vanishes at 0 for division of the second, instead of taking a gcd.
    """
    xs, ys = _SYMS[:2]
    a, b = field_to_sympy(x)
    if a == 0:
        return b.subs({xs: 0, ys: 0}) != 0
    if b == 0:
        return a.subs({xs: 0, ys: 0}) != 0
    _, factors = sympy.factor_list(a, xs, ys, extension=sympy.I)
    for f, _mult in factors:
        if f.subs({xs: 0, ys: 0}) == 0 and sympy.div(b, f, xs, ys)[1] == 0:
            return False
    return True


def sympy_linear_root(c1, c0) -> tuple[Fraction, Fraction]:
    """The root of c1 t + c0 read off sympy's factor_list over QQ_I; c0, c1
    are (re, im) Fraction pairs."""
    t = sympy.Symbol("t")
    coeff = [sympy.Rational(re) + sympy.Rational(im) * sympy.I for re, im in (c1, c0)]
    _, factors = sympy.factor_list(sympy.Poly(coeff[0] * t + coeff[1], t, domain="QQ_I"))
    ((linear, mult),) = factors
    assert mult == 1 and linear.degree() == 1
    lead, const = linear.all_coeffs()
    root = sympy.expand(-const / lead)
    re_part, im_part = root.as_real_imag()
    return tuple(Fraction(int(q.p), int(q.q)) for q in map(sympy.Rational, (re_part, im_part)))
