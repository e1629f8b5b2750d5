"""Jet soundness: an operation on jets claims only what the totals confirm.

For random total polynomials and fields and random truncation degrees, each
operation on the truncated inputs must agree with the truncation of the same
operation on the totals up to the degree it claims, and that claim must be
the one the truncation rules give (so agreement is not vacuous).  Every
result is also checked for well-formed storage: no zero coefficient and no
term past its truncation degree.
"""

import itertools
from fractions import Fraction

import hypothesis.strategies as st
from hypothesis import given, settings

from germfield import (
    OneFormJet, PolySeries, VectorFieldJet, closedness_check, divergence, lie_bracket, wedge,
)
from germfield.gaussian import gq

PARTS = st.sampled_from([Fraction(k, d) for k in range(-4, 5) for d in (1, 2, 3, 6)])
SCALARS = st.builds(gq, PARTS, PARTS)
DEGREES = st.integers(min_value=1, max_value=5)
TRUNCS = st.one_of(st.none(), DEGREES)


def totals(dim=2, max_deg=4, origin=False):
    exps = [
        e for e in itertools.product(range(max_deg + 1), repeat=dim)
        if sum(e) <= max_deg and (sum(e) > 0 or not origin)
    ]
    return st.dictionaries(st.sampled_from(exps), SCALARS, max_size=8).map(
        lambda t: PolySeries(dim, t)
    )


def total_fields(dim=2, max_deg=3):
    return st.lists(totals(dim, max_deg), min_size=dim, max_size=dim).map(VectorFieldJet)


def cut(p, n):
    return p if n is None else p.truncated(n)


def meet(*truncs):
    finite = [n for n in truncs if n is not None]
    return min(finite) if finite else None


def well_formed(p):
    assert all(c for c in p.terms.values()), "stored a zero coefficient"
    assert all(len(e) == p.dim and min(e) >= 0 for e in p.terms)
    assert p.trunc is None or all(sum(e) <= p.trunc for e in p.terms), "stored a term past trunc"


def sound(jet, total, claim):
    """jet claims exactly degree `claim` and agrees with the truncated total."""
    comps = jet.comps if isinstance(jet, VectorFieldJet) else [jet]
    for c in comps:
        well_formed(c)
    assert jet.trunc == claim
    assert jet.jet_equal(cut(total, claim))


@given(totals(), totals(), TRUNCS, TRUNCS)
@settings(max_examples=150, deadline=None)
def test_ring_operations(f, g, n, m):
    fj, gj = cut(f, n), cut(g, m)
    k = meet(n, m)
    sound(fj + gj, f + g, k)
    sound(fj - gj, f - g, k)
    sound(-fj, -f, n)
    sound(fj * gj, f * g, k)
    sound(fj * gq(2, -1), f * gq(2, -1), n)
    sound(fj * 0, f * 0, n)


@given(totals(), DEGREES, st.integers(0, 1))
@settings(max_examples=150, deadline=None)
def test_partial(f, n, i):
    sound(f.truncated(n).partial(i), f.partial(i), n - 1)


@given(totals(), totals(origin=True), totals(origin=True), TRUNCS, TRUNCS, TRUNCS)
@settings(max_examples=100, deadline=None)
def test_substitute(f, a, b, n, m1, m2):
    jet = cut(f, n).substitute([cut(a, m1), cut(b, m2)])
    sound(jet, f.substitute([a, b]), meet(n, m1, m2))


@given(total_fields(), totals(), DEGREES, DEGREES)
@settings(max_examples=100, deadline=None)
def test_apply(x, f, n, m):
    # X(f) = sum X_i df/dz_i: the derivative loses one degree of f's claim
    sound(x.truncated(n).apply(f.truncated(m)), x.apply(f), min(n, m - 1))


@given(total_fields(), total_fields(), DEGREES, DEGREES)
@settings(max_examples=100, deadline=None)
def test_lie_bracket(x, y, n, m):
    sound(lie_bracket(x.truncated(n), y.truncated(m)), lie_bracket(x, y), min(n, m) - 1)


@given(total_fields(), total_fields(), DEGREES, DEGREES)
@settings(max_examples=100, deadline=None)
def test_wedge_plane(x, y, n, m):
    sound(wedge([x.truncated(n), y.truncated(m)]), wedge([x, y]), min(n, m))


@given(total_fields(3, 2), total_fields(3, 2), DEGREES, DEGREES)
@settings(max_examples=60, deadline=None)
def test_wedge_space(x, y, n, m):
    jets = wedge([x.truncated(n), y.truncated(m)])
    for jet, total in zip(jets, wedge([x, y])):
        sound(jet, total, min(n, m))


@given(total_fields(3, 2), total_fields(3, 2), total_fields(3, 2), TRUNCS, TRUNCS, TRUNCS)
@settings(max_examples=40, deadline=None)
def test_wedge_space_determinant(x, y, z, n, m, k):
    jet = wedge([cut(x, n), cut(y, m), cut(z, k)])
    sound(jet, wedge([x, y, z]), meet(n, m, k))


@given(totals(), totals(), total_fields(), TRUNCS, TRUNCS, TRUNCS)
@settings(max_examples=100, deadline=None)
def test_one_form_pairing(a, b, x, n1, n2, m):
    # the coefficients of a form need not share a truncation degree
    jet = OneFormJet([cut(a, n1), cut(b, n2)]).apply(cut(x, m))
    sound(jet, OneFormJet([a, b]).apply(x), meet(n1, n2, m))


@given(total_fields(), DEGREES)
@settings(max_examples=100, deadline=None)
def test_divergence(x, n):
    sound(divergence(x.truncated(n)), divergence(x), n - 1)


@given(totals(), totals(), totals(), TRUNCS, TRUNCS, DEGREES)
@settings(max_examples=100, deadline=None)
def test_closedness_residual(p, q, g, n1, n2, k):
    g = g + (1 - g.constant_term())  # constant term 1: no jet of g is zero
    _, jet = closedness_check(OneFormJet([cut(p, n1), cut(q, n2)]), g.truncated(k))
    _, total = closedness_check(OneFormJet([p, q]), g)
    # every product holds a first derivative of p, q or g
    sound(jet, total, meet(n1, n2, k) - 1)
