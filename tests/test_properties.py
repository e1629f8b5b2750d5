"""Property-based suites for the algebraic invariants.

Coefficients are drawn from a small pool of exact Gaussian rationals, so
every assertion is an exact identity; hypothesis shrinks any failure to a
tiny witness.
"""

from fractions import Fraction

import hypothesis.strategies as st
from hypothesis import given, settings

from germfield import (
    PolySeries,
    VectorFieldJet,
    Weight,
    cauchy_riemann_pair,
    closedness_check,
    divergence,
    dual_form,
    dual_pair,
    hamiltonian_field,
    integrating_factor_check,
    lie_bracket,
    parse_poly,
    poly_divides,
    quasi_decompose,
    radial_field,
    wedge,
)
from germfield.gaussian import gq

COEFFS = st.sampled_from(
    [
        gq(0),
        gq(1),
        gq(-1),
        gq(2),
        gq(-3),
        gq(Fraction(1, 2)),
        gq(Fraction(-2, 3)),
        gq(0, 1),
        gq(1, -1),
        gq(Fraction(3, 4), Fraction(1, 2)),
    ]
)


def monomials(dim, max_deg):
    if dim == 1:
        return [(k,) for k in range(max_deg + 1)]
    if dim == 2:
        return [
            (a, b) for a in range(max_deg + 1) for b in range(max_deg + 1 - a)
        ]
    return [
        (a, b, c)
        for a in range(max_deg + 1)
        for b in range(max_deg + 1 - a)
        for c in range(max_deg + 1 - a - b)
    ]


def polys(max_deg=4, dim=2):
    mons = monomials(dim, max_deg)
    return st.builds(
        lambda cs: PolySeries(dim, dict(zip(mons, cs))),
        st.lists(COEFFS, min_size=len(mons), max_size=len(mons)),
    )


def fields(max_deg=3, dim=2):
    return st.builds(
        lambda a, b: VectorFieldJet([a, b]),
        polys(max_deg, dim),
        polys(max_deg, dim),
    )


# -- ring axioms on the series core -------------------------------------------


@given(polys(), polys(), polys())
@settings(max_examples=100, deadline=None)
def test_ring_axioms(f, g, h):
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h
    assert f * g == g * f


@given(polys(3), polys(3))
@settings(max_examples=100, deadline=None)
def test_order_is_additive(f, g):
    if f.is_zero() or g.is_zero():
        return
    assert (f * g).order() == f.order() + g.order()


@given(polys(3), polys(3))
@settings(max_examples=100, deadline=None)
def test_divides_recovers_quotient(d, q):
    if d.is_zero():
        return
    ok, recovered = poly_divides(d, d * q)
    assert ok and recovered == q


@given(polys(2), polys(2, dim=2), polys(2, dim=2), polys(2, dim=2), polys(2, dim=2))
@settings(max_examples=60, deadline=None)
def test_substitution_functorial(f, m1a, m1b, m2a, m2b):
    def strip_constant(p):
        return p - PolySeries.constant(2, p.constant_term())

    m1 = [strip_constant(m1a), strip_constant(m1b)]
    m2 = [strip_constant(m2a), strip_constant(m2b)]
    composed = [g.substitute(m2) for g in m1]
    assert f.substitute(m1).substitute(m2) == f.substitute(composed)


# -- bracket algebra -----------------------------------------------------------


@given(fields(), fields(), fields())
@settings(max_examples=100, deadline=None)
def test_jacobi_identity(x, y, z):
    total = (
        lie_bracket(x, lie_bracket(y, z))
        + lie_bracket(y, lie_bracket(z, x))
        + lie_bracket(z, lie_bracket(x, y))
    )
    assert total.is_zero()


@given(fields(), fields())
@settings(max_examples=100, deadline=None)
def test_bracket_bilinear_antisymmetric(x, y):
    assert lie_bracket(x, y) == -lie_bracket(y, x)
    assert lie_bracket(x + y, x) == lie_bracket(x, x) + lie_bracket(y, x)


@given(fields(), fields())
@settings(max_examples=100, deadline=None)
def test_bracket_multiplicity_inequality(x, y):
    b = lie_bracket(x, y)
    if x.is_zero() or y.is_zero() or b.is_zero():
        return
    assert b.mu() >= x.mu() + y.mu() - 1


@given(fields(3))
@settings(max_examples=100, deadline=None)
def test_radial_grading(x):
    # [R, X_k] = (k-1) X_k on homogeneous components
    r = radial_field(2)
    for k in range(0, 5):
        part = VectorFieldJet([c.homogeneous_part(k) for c in x.comps])
        if part.is_zero():
            continue
        assert lie_bracket(r, part) == part * (k - 1)


@given(fields(3), fields(3), st.sampled_from([(1, 1), (1, 2), (2, 3), (1, 3)]))
@settings(max_examples=100, deadline=None)
def test_weighted_grading_of_bracket(x, y, pq):
    # [E_k, E_l] lands in E_{k+l}
    w = Weight(pq)
    xs = quasi_decompose(x, w)
    ys = quasi_decompose(y, w)
    for k, xk in xs.items():
        for l, yl in ys.items():
            b = lie_bracket(xk, yl)
            if b.is_zero():
                continue
            parts = quasi_decompose(b, w)
            assert list(parts) == [k + l]


@given(polys(3))
@settings(max_examples=100, deadline=None)
def test_hamiltonian_annihilates(f):
    assert hamiltonian_field(f).apply(f).is_zero()


@given(polys(3), st.sampled_from([(1, 1), (1, 2), (2, 3)]))
@settings(max_examples=100, deadline=None)
def test_wedge_against_euler_is_quasi_homogeneous(f, pq):
    # with S the weighted Euler field and X in E_k, h = wedge(S, X)
    # satisfies S(h) = (k + p + q) h
    from germfield import weighted_euler

    w = Weight(pq)
    s = weighted_euler(w)
    x = hamiltonian_field(f)  # just a source of varied fields
    for k, xk in quasi_decompose(x, w).items():
        h = wedge([s, xk])
        if h.is_zero():
            continue
        assert s.apply(h) == h * (k + w[0] + w[1])


# -- commuting pairs from the Cauchy-Riemann construction ----------------------


def univariate(max_deg=5):
    mons = [(k,) for k in range(max_deg + 1)]
    return st.builds(
        lambda cs: PolySeries(1, dict(zip(mons, cs))),
        st.lists(COEFFS, min_size=len(mons), max_size=len(mons)),
    )


@given(univariate(), st.integers(min_value=2, max_value=6))
@settings(max_examples=100, deadline=None)
def test_cr_pair_commutes(f, n):
    x, y = cauchy_riemann_pair(f, n)
    assert lie_bracket(x, y).is_zero()


@given(univariate(4))
@settings(max_examples=100, deadline=None)
def test_commuting_pair_wedge_satisfies_divergence_identity(f):
    # X(g) = div(X) g for g the wedge coefficient of a commuting pair
    x, y = cauchy_riemann_pair(f.truncated(4).as_total(), 8)
    x, y = x.as_total(), y.as_total()
    g = wedge([x, y])
    assert (x.apply(g) - divergence(x) * g).is_zero()
    assert (y.apply(g) - divergence(y) * g).is_zero()


@given(univariate(4))
@settings(max_examples=100, deadline=None)
def test_dual_pair_duality_and_closedness(f):
    x, y = cauchy_riemann_pair(f.truncated(4).as_total(), 8)
    x, y = x.as_total(), y.as_total()
    if wedge([x, y]).is_zero():
        return
    alpha, beta = dual_pair(x, y)
    one = parse_poly("1")
    assert alpha.form.apply(x) == alpha.denominator
    assert alpha.form.apply(y).is_zero()
    assert beta.form.apply(x).is_zero()
    assert beta.form.apply(y) == beta.denominator
    ok_a, _ = closedness_check(alpha.form, alpha.denominator)
    ok_b, _ = closedness_check(beta.form, beta.denominator)
    assert ok_a and ok_b


@given(fields(2), polys(3))
@settings(max_examples=100, deadline=None)
def test_integrating_factor_equivalent_to_closedness(x, g):
    if g.is_zero():
        return
    lhs = integrating_factor_check(x, g)
    rhs, _ = closedness_check(dual_form(x), g)
    assert lhs == rhs


# -- text grammar ---------------------------------------------------------------


@given(polys(4))
@settings(max_examples=100, deadline=None)
def test_print_parse_round_trip(f):
    from germfield import parse_poly as parse, poly_to_text

    assert parse(poly_to_text(f), 2) == f


@given(polys(3, dim=3), polys(3, dim=3), polys(3, dim=3))
@settings(max_examples=50, deadline=None)
def test_field_print_parse_round_trip(a, b, c):
    from germfield import VectorFieldJet, parse_field
    from germfield.parsing import field_to_text

    x = VectorFieldJet([a, b, c])
    assert parse_field(field_to_text(x), 3) == x


# -- blow-up substitution ------------------------------------------------------


@given(polys(3), polys(3), COEFFS)
@settings(max_examples=100, deadline=None)
def test_multiplicity_monotone_under_blowup(f1, f2, slope):
    if f1.is_zero() or f2.is_zero():
        return
    if f1.order() >= f2.order():
        return
    lead = f1.homogeneous_part(f1.order())
    if lead.evaluate([gq(1), slope]).is_zero():
        return  # p must be generic for f1
    xv, tv = PolySeries.variable(2, 0), PolySeries.variable(2, 1)
    images = [xv, (tv + PolySeries.constant(2, slope)) * xv]
    up1 = f1.substitute(images)
    up2 = f2.substitute(images)
    assert up1.order() < up2.order()
