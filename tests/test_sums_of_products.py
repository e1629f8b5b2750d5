"""The fused sums of products against sympy.

Brackets, X(f), one-form pairings, wedges and the closedness residual each
sum several products on one denominator.  Here they are recomputed with
sympy's own arithmetic from the operands alone, on random total operands
with Q(i) coefficients.  The second operand of each pair is often the first
plus a small change, so that most products cancel against each other.
"""

import itertools
import sys
from fractions import Fraction
from pathlib import Path

import hypothesis.strategies as st
import sympy
from hypothesis import given, settings

sys.path.insert(0, str(Path(__file__).parent))
from oracles import (
    field_to_sympy,
    poly_to_sympy,
    sympy_apply,
    sympy_bracket,
    sympy_closedness_residual,
    sympy_wedge,
)

from germfield import OneFormJet, PolySeries, VectorFieldJet, closedness_check, lie_bracket, wedge
from germfield.gaussian import gq

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
