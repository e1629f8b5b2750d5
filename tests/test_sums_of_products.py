"""The fused sums of products against sympy.

Brackets, X(f), one-form pairings, wedges and the closedness residual each
sum several products on one denominator.  Here they are recomputed with
sympy's own arithmetic from the operands alone, on random total operands
with Q(i) coefficients.  The second operand of each pair is often the first
plus a small change, so that most products cancel against each other.

The kernel packs each monomial into one int and takes derivatives itself, so
the tests at the end draw derivative pairs with exact and jet operands in
1, 2 and 3 variables, put exponents at the edge of the packing's slots, and
check the degree-0 refusal and the term cap on the same path.
"""

import itertools
import sys
from fractions import Fraction
from pathlib import Path

import hypothesis.strategies as st
import pytest
import sympy
from hypothesis import example, given, settings

sys.path.insert(0, str(Path(__file__).parent))
from oracles import (
    field_to_sympy,
    poly_to_sympy,
    sympy_apply,
    sympy_bracket,
    sympy_closedness_residual,
    sympy_wedge,
)

from germfield import (
    OneFormJet,
    PolySeries,
    TruncationError,
    VectorFieldJet,
    closedness_check,
    integrating_factor_check,
    lie_bracket,
    parse_field,
    parse_poly,
    wedge,
)
from germfield.fields import _sum_of_products
from germfield.gaussian import gq
from germfield.series import TermLimitError

SYMS = sympy.symbols("x y z")

PARTS = st.sampled_from([Fraction(k, d) for k in range(-3, 4) for d in (1, 2, 3, 4)])
SCALARS = st.builds(gq, PARTS, PARTS).filter(bool)


def polys(dim, max_deg=3, max_size=6):
    exps = [e for e in itertools.product(range(max_deg + 1), repeat=dim) if sum(e) <= max_deg]
    return st.dictionaries(st.sampled_from(exps), SCALARS, max_size=max_size).map(
        lambda t: PolySeries(dim, t)
    )


def fields(dim, max_deg=3):
    return st.lists(polys(dim, max_deg), min_size=dim, max_size=dim).map(VectorFieldJet)


def same(ours: PolySeries, theirs) -> bool:
    return sympy.expand(poly_to_sympy(ours) - theirs) == 0


def nearby(big, small):
    """(a, b) where b is a plus a draw of small, or a draw of small alone."""
    return st.tuples(big, small, st.booleans()).map(
        lambda t: (t[0], t[0] + t[1] if t[2] else t[1])
    )


DIMS = st.sampled_from([2, 3])


@given(DIMS.flatmap(lambda n: nearby(fields(n), fields(n, 2))))
@settings(max_examples=25, deadline=None)
def test_lie_bracket(pair):
    x, y = pair
    theirs = sympy_bracket(field_to_sympy(x), field_to_sympy(y), x.dim)
    assert all(same(c, t) for c, t in zip(lie_bracket(x, y).comps, theirs))


@given(DIMS.flatmap(lambda n: st.tuples(fields(n), polys(n))), st.booleans())
@settings(max_examples=25, deadline=None)
def test_apply(pair, own_component):
    x, f = pair
    if own_component:  # X(X_0) sums products that share their monomials
        f = x.comps[0] + f
    assert same(x.apply(f), sympy_apply(field_to_sympy(x), poly_to_sympy(f), x.dim))


@given(DIMS.flatmap(lambda n: nearby(fields(n), fields(n, 2))))
@settings(max_examples=25, deadline=None)
def test_one_form_pairing(pair):
    x, y = pair
    omega = OneFormJet(y.comps)
    theirs = sum(a * c for a, c in zip(field_to_sympy(y), field_to_sympy(x)))
    assert same(omega.apply(x), sympy.expand(theirs))


@given(nearby(fields(2), fields(2, 2)))
@settings(max_examples=25, deadline=None)
def test_plane_wedge(pair):
    assert same(wedge(list(pair)), sympy_wedge([field_to_sympy(f) for f in pair]))


@given(nearby(fields(3, 2), fields(3, 1)), fields(3, 2))
@settings(max_examples=25, deadline=None)
def test_space_wedges(pair, z):
    x, y = pair
    ours = wedge([x, y])
    theirs = sympy_wedge([field_to_sympy(x), field_to_sympy(y)])
    assert all(same(c, t) for c, t in zip(ours, theirs))
    three = [x, y, z]
    assert same(wedge(three), sympy_wedge([field_to_sympy(f) for f in three]))


@given(nearby(polys(2), polys(2, 2, 2)), polys(2).filter(lambda g: not g.is_zero()))
@settings(max_examples=25, deadline=None)
def test_closedness_residual(pq, g):
    p, q = pq
    ok, residual = closedness_check(OneFormJet([p, q]), g)
    theirs = sympy_closedness_residual(poly_to_sympy(p), poly_to_sympy(q), poly_to_sympy(g))
    assert same(residual, theirs)
    assert ok == (theirs == 0)


# -- derivative pairs and packed monomials ---------------------------------------


def same_jet(ours: PolySeries, theirs) -> bool:
    """ours equals theirs in every degree up to ours.trunc (all of it if exact)."""
    diff = sympy.Poly(poly_to_sympy(ours) - theirs, *SYMS[:ours.dim])
    return all(c == 0 or ours.trunc is not None and sum(m) > ours.trunc for m, c in diff.terms())


def jets(dim, max_deg=3):
    """Exact polynomials and jets known mod 0 to 3 of them."""
    return st.tuples(polys(dim, max_deg), st.sampled_from([None, None, 0, 1, 2, 3])).map(
        lambda t: PolySeries(dim, t[0].terms, t[1])
    )


def products(dim):
    """A pair (k, f, g) or a derivative pair (k, f, g, i)."""
    plain = st.tuples(st.sampled_from([1, -1, 2]), jets(dim), jets(dim))
    return st.one_of(plain, st.tuples(plain, st.integers(0, dim - 1)).map(lambda t: t[0] + (t[1],)))


@given(st.sampled_from([1, 2, 3]).flatmap(lambda n: st.lists(products(n), min_size=1, max_size=4)))
@settings(max_examples=60, deadline=None)
@example([(1, parse_poly("x^3 + y", 2), parse_poly("x^2 + x", 2), 0)])  # x^4 and y: top 5
def test_derivative_pairs(pairs):
    # each pair is known to its operands' least degree, a derivative to one less
    known = [n for k, f, g, *i in pairs for n in (f.trunc, g.trunc and g.trunc - len(i)) if n is not None]
    if any(i and g.trunc == 0 for k, f, g, *i in pairs):
        with pytest.raises(TruncationError):
            _sum_of_products(pairs, 10**6)
        return
    ours = _sum_of_products(pairs, 10**6)
    assert ours.trunc == min(known, default=None)
    theirs = sum(
        k * poly_to_sympy(f) * (sympy.diff(poly_to_sympy(g), SYMS[i[0]]) if i else poly_to_sympy(g))
        for k, f, g, *i in pairs
    )
    assert same_jet(ours, sympy.expand(theirs))


def dense(dim, deg, seed=0):
    """Every monomial of degree <= deg, with varied nonzero Q(i) coefficients."""
    exps = [e for e in itertools.product(range(deg + 1), repeat=dim) if sum(e) <= deg]
    return PolySeries(dim, {
        e: gq(Fraction((j + seed) % 5 - 2 or 3, 1 + j % 3), (j * 7 + seed) % 3 - 1)
        for j, e in enumerate(exps)
    })


def as_poly(p: PolySeries):
    return sympy.Poly(poly_to_sympy(p), *SYMS[:p.dim])


BOUNDARY = [(2, top) for top in (3, 4, 7, 8, 15, 16)] + [(3, top) for top in (3, 4, 7, 8)]


@pytest.mark.parametrize("dim,top", BOUNDARY)
def test_exponents_at_the_packing_boundary(dim, top):
    # top = deg f + deg g fills a slot of top.bit_length() bits exactly (2^k - 1)
    # or needs one more (2^k); every monomial of degree <= top is in f * g
    f, g = dense(dim, top // 2), dense(dim, top - top // 2, seed=1)
    assert as_poly(f * g) == as_poly(f) * as_poly(g)
    x = VectorFieldJet([f] + [g] * (dim - 1))
    theirs = sum(as_poly(c) * as_poly(g).diff(s) for c, s in zip(x.comps, SYMS))
    assert as_poly(x.apply(g)) == theirs


def test_large_exponents():
    # top = 1003 + 500: x^1500 y^3 and x^476 y^4 share a key one bit short of 11
    f = PolySeries(2, {(1000, 3): gq(1), (476, 4): gq(2, 1)})
    g = PolySeries(2, {(500, 0): gq(1), (0, 0): gq(Fraction(1, 3))})
    assert same(f * g, sympy.expand(poly_to_sympy(f) * poly_to_sympy(g)))
    x = VectorFieldJet([f, g])
    theirs = sympy_bracket(field_to_sympy(x), field_to_sympy(VectorFieldJet([g, f])), 2)
    assert all(same(c, t) for c, t in zip(lie_bracket(x, VectorFieldJet([g, f])).comps, theirs))


# dense plane operands whose sums of products reach degree 6 with top = 7: a
# slot of 2 bits would let x^4 and x^0 y^1 share a key
X3 = VectorFieldJet([dense(2, 3), dense(2, 3, seed=2)])
Y3 = VectorFieldJet([dense(2, 4, seed=1), dense(2, 4, seed=3)])
G3 = dense(2, 3, seed=4)


@pytest.mark.parametrize("op", ["apply", "lie_bracket", "closedness_check"])
def test_degree_zero_jets_refused(op):
    # a degree-0 jet fixes no coefficient of its derivative; one of degree 1
    # and above is certified to one degree less, as the exact value says
    def run(n):
        x, y, g = (X3, Y3, G3) if n is None else (X3.truncated(n), Y3.truncated(n), G3.truncated(n))
        if op == "apply":
            return [x.apply(g)], [sympy_apply(field_to_sympy(X3), poly_to_sympy(G3), 2)]
        if op == "lie_bracket":
            return list(lie_bracket(x, y).comps), sympy_bracket(field_to_sympy(X3), field_to_sympy(Y3), 2)
        p, q = x.comps
        theirs = sympy_closedness_residual(*map(poly_to_sympy, (*X3.comps, G3)))
        return [closedness_check(OneFormJet([p, q]), g)[1]], [theirs]

    with pytest.raises(TruncationError):
        run(0)
    for n in (1, 3, 6, None):
        ours, theirs = run(n)
        assert all(c.trunc == (None if n is None else n - 1) for c in ours)
        assert all(same_jet(c, t) for c, t in zip(ours, theirs))


def test_integrating_factor_check_with_derivative_pairs():
    # g = 1 integrates every Hamiltonian field, and X(g) = (div X) g fails
    # once g is perturbed; the check sums 2n derivative pairs in one pass
    h = dense(2, 4)
    x = VectorFieldJet([h.partial(1), -h.partial(0)])
    assert integrating_factor_check(x, PolySeries.constant(2, 1))
    assert not integrating_factor_check(x, G3)
    # div X = y - x^4: with top = 5 in 2 bits, x^4 and y would cancel
    assert not integrating_factor_check(parse_field("-1/5*x^5, 1/2*y^2"), PolySeries.constant(2, 1))
    xs = field_to_sympy(X3)
    residual = sympy_apply(xs, poly_to_sympy(G3), 2) - poly_to_sympy(G3) * (
        sympy.diff(xs[0], SYMS[0]) + sympy.diff(xs[1], SYMS[1])
    )
    assert integrating_factor_check(X3, G3) == (sympy.expand(residual) == 0)


def test_bracket_past_the_term_cap(monkeypatch):
    # the dense bracket has this many terms per component, by sympy's count;
    # a cap one below raises, the default cap returns sympy's value
    theirs = sympy_bracket(field_to_sympy(X3), field_to_sympy(Y3), 2)
    size = max(len(sympy.Poly(t, *SYMS[:2]).terms()) for t in theirs)
    assert all(same(c, t) for c, t in zip(lie_bracket(X3, Y3).comps, theirs))
    monkeypatch.setenv("GERM_MAX_TERMS", str(size - 1))
    with pytest.raises(TermLimitError):
        lie_bracket(X3, Y3)
