import re
import sys
from fractions import Fraction
from pathlib import Path

import hypothesis.strategies as st
import pytest
import sympy
from hypothesis import assume, example, given, settings

sys.path.insert(0, str(Path(__file__).parent))
from oracles import (
    field_to_sympy,
    sympy_blowup_pullback,
    sympy_classify_linear,
    sympy_classify_singularity,
    sympy_gaussian_factors,
    sympy_gcd_isolated,
    sympy_isolated,
    sympy_linear_root,
    sympy_square_free,
    sympy_translate,
    sympy_univariate_gcd,
    sympy_witness,
)

from germfield import (
    CHART_SLOPE_Y,
    GermError,
    PolySeries,
    TruncationError,
    VectorFieldJet,
    classify_linear,
    classify_singularity,
    dicritical_test,
    divisor_singularities,
    is_isolated_singularity,
    parse_field,
    parse_poly,
    radial_field,
    resolve,
    strict_transform,
    translate_to_point,
)
from germfield import blowup
from germfield.blowup import (
    MAX_DEPTH, MAX_GERM_DEGREE, _dense, _square_free, _univariate_gcd, gaussian_roots,
)
from germfield.gaussian import gq

F = parse_field
P = parse_poly


def chart_poly(text):
    # chart polynomials read with t written as y
    return parse_poly(text, 2)


def divisor_points(x):
    """The singular points on the divisor of x's blow-up, as the blowup verb
    finds them: both strict transforms and one isolation test of x."""
    return divisor_singularities(strict_transform(x), is_isolated_singularity(x))


# exact plane fields vanishing at 0: random ones, and dicritical ones h R +
# (terms of higher degree) with h homogeneous of degree nu - 1
COEFF = st.sampled_from([gq(1), gq(-1), gq(2), gq(0, 1), gq(Fraction(-1, 2), 1)])


def _homogeneous_parts(lo, hi):
    exps = [(a, d - a) for d in range(lo, hi + 1) for a in range(d + 1)]
    return st.dictionaries(st.sampled_from(exps), COEFF, max_size=3).map(lambda t: PolySeries(2, t))


def _dicritical(h, higher):
    xv, yv = PolySeries.variable(2, 0), PolySeries.variable(2, 1)
    return VectorFieldJet([h * xv + higher[0], h * yv + higher[1]])


VANISHING_FIELDS = st.one_of(
    st.tuples(_homogeneous_parts(1, 3), _homogeneous_parts(1, 3)).map(VectorFieldJet),
    st.integers(1, 3).flatmap(lambda nu: st.builds(
        _dicritical,
        _homogeneous_parts(nu - 1, nu - 1).filter(lambda h: not h.is_zero()),
        st.tuples(_homogeneous_parts(nu + 1, nu + 2), _homogeneous_parts(nu + 1, nu + 2)),
    )),
).filter(lambda x: not x.is_zero())


class TestPullback:
    def test_radial(self):
        assert strict_transform(radial_field(2))[0].pullback == F("x, 0")

    def test_nilpotent_shear(self):
        # y d/dx pulls back to tx d/dx - t^2 d/dt
        assert strict_transform(F("y, 0"))[0].pullback == F("x*y, -y^2")

    def test_level_foliation_field(self):
        got = strict_transform(F("2*x*y, 2*y^2 - x^3"))[0].pullback
        assert got == F("2*x^2*y, -x^2")

    def test_blowing_down_recovers_the_field(self):
        # substitute t = y/x back: A = P(x, y/x), B = x Q(x, y/x) + t P
        x = F("x^2 + y^2, x*y - y^3")
        up = strict_transform(x)[0].pullback
        p, q = up.comps
        deg = max(e[1] for e in list(p.terms) + list(q.terms))
        xv, yv = PolySeries.variable(2, 0), PolySeries.variable(2, 1)

        def clear(f):  # x^deg * f(x, y/x) as a polynomial
            out = PolySeries.zero(2)
            for (a, b), c in f.terms.items():
                out = out + PolySeries.monomial(2, (a + deg - b, b), c)
            return out

        assert clear(p) == x.comps[0] * xv**deg
        assert clear(q) * xv * xv + clear(p) * yv == x.comps[1] * xv ** (deg + 1)

    def test_nonsingular_rejected(self):
        with pytest.raises(GermError):
            strict_transform(F("1, y"))


class TestDicritical:
    def test_radial_dicritical_with_zero_witness(self):
        d = dicritical_test(radial_field(2))
        assert d.dicritical and d.witness.is_zero() and d.nu == 1

    def test_shear_witness(self):
        d = dicritical_test(F("y, 0"))
        assert not d.dicritical
        assert d.witness == PolySeries(1, {(2,): gq(-1)})

    def test_level_foliation_field(self):
        d = dicritical_test(F("2*x*y, 2*y^2 - x^3"))
        assert d.dicritical and d.nu == 2

    @settings(max_examples=150, deadline=None)
    @given(VANISHING_FIELDS)
    @example(F("x, -y"))
    @example(F("y, 0"))
    @example(F("x^2, y^2"))
    @example(F("2*x*y, 2*y^2 - x^3"))
    @example(F("x^2*y, x*y^2"))
    def test_multiplicity_dichotomy(self, x):
        # the divided power is nu - 1 (non-dicritical) or nu (dicritical) in
        # both charts, non-isolated fields such as x^2*y, x*y^2 included;
        # the test's answer is chart 1 itself
        d = dicritical_test(x)
        assert d == strict_transform(x)[0]
        for b in strict_transform(x):
            assert (b.nu, b.dicritical) == (d.nu, d.dicritical)
            assert b.divisor_multiplicity == (d.nu if d.dicritical else d.nu - 1)

    @settings(max_examples=150, deadline=None)
    @given(VANISHING_FIELDS)
    @example(F("y, 0"))
    @example(F("x^2, y^2 + x*y - 2*x^2"))
    @example(F("x, y"))
    @example(F("x*y + y^3, y^2"))
    @example(F("(2 + i)*x^3 - x^2*y + x^4, (2 + i)*x^2*y - x*y^2 + y^5"))
    def test_witness_matches_sympy(self, x):
        # nu, the verdict and W(t) read off chart 1's strict transform
        # against W built from the nu-jet by substitution (tests/oracles.py);
        # VANISHING_FIELDS draws dicritical first jets h R too
        d = dicritical_test(x)
        nu, witness = sympy_witness(x)
        assert (d.nu, _plain(_dense(d.witness))) == (nu, witness)
        assert d.dicritical == (witness == ())

    @settings(max_examples=60, deadline=None)
    @given(VANISHING_FIELDS)
    def test_radial_and_nprs_germs_are_dicritical(self, x):
        # both classes have a first jet h R, so resolve reports
        # would_be_dicritical true for them without running the test
        assume(classify_singularity(x)[0] in ("purely_radial", "nprs"))
        assert dicritical_test(x).dicritical


def _sympy_order(exprs, weights) -> int:
    """The least weighted degree of a term of the nonzero sympy polynomials."""
    xs, ys = sympy.symbols("x y")
    return min(
        sum(w * k for w, k in zip(weights, m))
        for c in exprs if c != 0 for m in sympy.Poly(c, xs, ys).monoms()
    )


class TestChartsAgainstSympy:
    # both charts of strict_transform against a pullback by substitution
    # (tests/oracles.py)
    @settings(max_examples=80, deadline=None)
    @given(VANISHING_FIELDS)
    @example(F("y, 0"))
    @example(F("x^2*y, x*y^2"))
    def test_both_charts(self, x):
        xs = sympy.Symbol("x")
        nu = _sympy_order(field_to_sympy(x), (1, 1))
        for chart, b in zip((1, 2), strict_transform(x)):
            want = sympy_blowup_pullback(x, chart)
            k = _sympy_order(want, (1, 0))  # the largest power of x dividing both
            assert b.chart == chart
            assert all(sympy.expand(p - q) == 0 for p, q in zip(field_to_sympy(b.pullback), want))
            assert b.divisor_multiplicity == k
            assert all(sympy.expand(p - q / xs**k) == 0 for p, q in zip(field_to_sympy(b.strict), want))
            assert b.nu == nu
            assert b.dicritical == (k == nu)


class TestStrictTransform:
    def test_radial(self):
        b = strict_transform(radial_field(2))[0]
        assert b.strict == F("1, 0") and b.divisor_multiplicity == 1 and b.dicritical

    def test_shear_keeps_pullback(self):
        b = strict_transform(F("y, 0"))[0]
        assert b.divisor_multiplicity == 0
        assert b.strict == b.pullback

    def test_two_squares(self):
        b = strict_transform(F("x^2, y^2"))[0]
        assert b.divisor_multiplicity == 1
        assert b.strict == chart_poly("x") * F("1, 0") + F("0, -y + y^2")

    def test_divisor_invariance_when_non_dicritical(self):
        # x divides the slope component of the pullback iff non-dicritical
        for text in ("y, 0", "x^2, y^2", "2*y, 3*x^2", "x, -y"):
            b = strict_transform(F(text))[0]
            slope_on_divisor = PolySeries(
                1, {(k,): c for (a, k), c in b.strict.comps[1].terms.items() if a == 0}
            )
            if not b.dicritical:
                # strict tangent to the divisor: slope component generically
                # nonzero there, x component vanishing
                x_on_divisor = {e for e in b.strict.comps[0].terms if e[0] == 0}
                assert not x_on_divisor


class TestDivisorSingularities:
    def test_shear_single_point(self):
        pts = divisor_points(F("y, 0"))
        assert len(pts) == 1
        pt = pts[0]
        assert pt.chart == CHART_SLOPE_Y and pt.coordinate == gq(0)
        assert pt.multiplicity == 2  # mu of the strict germ at the point
        assert pt.non_isolated

    def test_two_squares_three_points(self):
        pts = divisor_points(F("x^2, y^2"))
        coords = [(p.chart, p.coordinate) for p in pts]
        assert coords == [(1, gq(0)), (1, gq(1)), (2, gq(0))]
        assert [p.classification for p in pts] == [
            "reduced_hyperbolic",
            "purely_radial",
            "reduced_hyperbolic",
        ]

    def test_radial_has_none(self):
        assert divisor_points(radial_field(2)) == []

    def test_gaussian_root_detected(self):
        # witness B_2(1,t) - t A_2(1,t) = t^2 + 1 has roots +-i
        x = F("x^2, y^2 + x*y + x^2")
        d = dicritical_test(x)
        assert d.witness == PolySeries(1, {(2,): gq(1), (0,): gq(1)})
        pts = divisor_points(x)
        coords = {str(p.coordinate) for p in pts if p.coordinate is not None}
        assert {"1i", "-1i"} <= coords

    def test_irrational_root_reported_as_marker(self):
        pts = divisor_points(F("x^2, y^2 + x*y - 2*x^2"))
        markers = [p for p in pts if p.marker is not None]
        assert len(markers) == 1
        assert markers[0].classification == "unresolvable_irrational"
        # witness factor t^2 - 2
        assert markers[0].marker == PolySeries(1, {(2,): gq(1), (0,): gq(-2)})

    def test_roots_found_in_chart_one_only(self, monkeypatch):
        # both charts' witnesses of x^2, y^2 have the roots 0 and 1, but
        # chart 2 adds only its origin, with no root search of its own
        x = F("x^2, y^2")
        blowups = strict_transform(x)
        isolated = is_isolated_singularity(x)
        calls = []

        def counted(f):
            calls.append(f)
            return gaussian_roots(f)

        monkeypatch.setattr(blowup, "gaussian_roots", counted)
        pts = divisor_singularities(blowups, isolated)
        assert len(calls) == 1
        assert [(p.chart, p.coordinate) for p in pts] == [(1, gq(0)), (1, gq(1)), (2, gq(0))]

    # a chart-1 root (t = 1, saddle node), the markers t^2 - 2 and t^2 - 3
    # and the chart-2 origin (reduced hyperbolic)
    EVERY_KIND = "x^6, (y - x)*(y^2 - 2*x^2)*(y^2 - 3*x^2)"

    @staticmethod
    def _sorted_order(points):
        # chart, Q(i) points before markers, slope, marker terms
        def key(p):
            coord = p.coordinate.sort_key() if p.coordinate is not None else None
            return (
                p.chart,
                0 if coord is not None else 1,
                coord or (Fraction(0), Fraction(0)),
                "" if p.marker is None else str(sorted(p.marker.terms.items())),
            )
        return sorted(points, key=key)

    def test_points_come_in_sorted_order(self):
        pts = divisor_points(F(self.EVERY_KIND))
        assert [(p.chart, p.coordinate, p.classification) for p in pts] == [
            (1, gq(1), "saddle_node"),
            (1, None, "unresolvable_irrational"),
            (1, None, "unresolvable_irrational"),
            (2, gq(0), "reduced_hyperbolic"),
        ]
        assert [p.marker for p in pts[1:3]] == [P("x^2 - 2", 1), P("x^2 - 3", 1)]
        assert pts == self._sorted_order(pts)

    @settings(max_examples=20, deadline=None)
    @given(COEFF, COEFF)
    def test_rescaled_points_come_in_sorted_order(self, a, b):
        # (x, y) -> (a x, b y) moves the roots and markers to other slopes
        x = F(self.EVERY_KIND)
        images = [PolySeries.variable(2, 0) * (1 / a), PolySeries.variable(2, 1) * (1 / b)]
        moved = VectorFieldJet([c.substitute(images) * s for c, s in zip(x.comps, (a, b))])
        pts = divisor_points(moved)
        assert len(pts) == 4
        assert pts == self._sorted_order(pts)


class TestGaussianRoots:
    RATIONALS = st.fractions(min_value=-20, max_value=20, max_denominator=12)
    PAIRS = st.tuples(RATIONALS, RATIONALS)

    @settings(max_examples=60, deadline=None)
    @given(PAIRS.filter(any), PAIRS)
    def test_linear_root_matches_sympy(self, c1, c0):
        # the native -c0/c1 path against sympy's factorization over QQ_I
        f = PolySeries(1, {(1,): gq(*c1), (0,): gq(*c0)})
        assert gaussian_roots(f) == ([(gq(*sympy_linear_root(c1, c0)), 1)], [])


# Random univariate polynomials with known factors: a nonzero leading
# constant times powers of linear factors t - r and of factors irreducible
# over Q(i) (t^3 - 2 among them, which only sympy splits).
QI = st.sampled_from([
    gq(0), gq(1), gq(-1), gq(0, 1), gq(Fraction(1, 2)), gq(2, -1), gq(Fraction(-2, 3), Fraction(1, 3)),
])
T = PolySeries.variable(1, 0)
IRREDUCIBLE = [T**2 - 2, T**2 - gq(0, 1), T**2 + T + 1, T**2 - gq(0, 3), T**2 + 2 * T + 3, T**3 - 2]
FACTOR = st.one_of(QI.map(lambda r: T - r), st.sampled_from(IRREDUCIBLE))
FACTORS = st.lists(st.tuples(FACTOR, st.integers(1, 3)), max_size=3)


def _product(lead, factors):
    f = PolySeries.constant(1, lead)
    for factor, mult in factors:
        f = f * factor**mult
    return f


def _plain(coeffs):
    return tuple((k, (c.re, c.im)) for k, c in enumerate(coeffs) if c)


class TestNativeAlgebra:
    # the native gcd, square-free split, roots and isolation certificate
    # against sympy (tests/oracles.py)
    LEAD = QI.filter(bool)

    @settings(max_examples=60, deadline=None)
    @given(LEAD, LEAD, FACTORS, FACTORS, FACTORS)
    def test_gcd_matches_sympy(self, lead_f, lead_g, common, only_f, only_g):
        f, g = _product(lead_f, common + only_f), _product(lead_g, common + only_g)
        assert _plain(_dense(_univariate_gcd(f, g))) == sympy_univariate_gcd(f, g)

    # a square-free polynomial of degree 5, whose split ends at gcd(a, a') = 1,
    # and one with repeated factors, which runs Yun's loop
    SQUARE_FREE = (gq(2, -1), [(T - gq(1), 1), (T - gq(0, 1), 1), (T**3 - 2, 1)])
    REPEATED = (gq(Fraction(1, 2)), [(T - gq(Fraction(-2, 3), Fraction(1, 3)), 2), (T**2 + T + 1, 1), (T - 1, 3)])

    @settings(max_examples=60, deadline=None)
    @given(LEAD, FACTORS.filter(bool))
    @example(*SQUARE_FREE)
    @example(*REPEATED)
    def test_square_free_matches_sympy(self, lead, factors):
        f = _product(lead, factors)
        ours = sorted((_plain(part), k) for part, k in _square_free(_dense(f)))
        assert ours == sympy_square_free(f)

    @settings(max_examples=40, deadline=None)  # sympy's factor_list dominates
    @given(LEAD, FACTORS)
    @example(*SQUARE_FREE)
    @example(*REPEATED)
    def test_gaussian_roots_match_factor_list(self, lead, factors):
        f = _product(lead, factors)
        roots, markers = gaussian_roots(f)
        assert roots == sorted(roots, key=lambda rm: rm[0].sort_key())
        assert (sorted(((r.re, r.im), k) for r, k in roots),
                sorted((_plain(_dense(m)), k) for m, k in markers)) == sympy_gaussian_factors(f)

    MONOMIALS = [(a, b) for a in range(4) for b in range(4 - a)]
    POLY2 = st.dictionaries(st.sampled_from(MONOMIALS), QI.filter(bool), max_size=4).map(
        lambda terms: PolySeries(2, terms)
    )
    # common factors, most of them through 0
    SHARED = st.sampled_from(["1", "x", "y", "y - x^2", "x + y", "x*y + 1", "y^2 - x^3", "x - i*y"])

    @settings(max_examples=100, deadline=None)
    @given(POLY2, POLY2, SHARED)
    def test_isolation_certificate_agrees_with_sympy_gcd(self, a, b, shared):
        h = P(shared, 2)
        x = VectorFieldJet([h * a, h * b])
        if x.is_zero():
            return
        # in particular never "isolated" when the sympy gcd vanishes at 0
        assert is_isolated_singularity(x) == sympy_gcd_isolated(x)


class TestClassify:
    def test_reduced_saddle(self):
        assert classify_singularity(F("x, -y")) == ("reduced_hyperbolic", False)

    def test_saddle_node(self):
        assert classify_singularity(F("x^2, y")) == ("saddle_node", False)

    def test_positive_rational_ratio_not_reduced(self):
        assert classify_singularity(F("x, 2*y")) == ("non_reduced_other", False)

    def test_purely_radial(self):
        cls, caveat = classify_singularity(F("x + y^2, y"))
        assert (cls, caveat) == ("purely_radial", False)

    def test_nprs(self):
        # first jet (x^2+y^2) R, isolated
        x = F("x^3 + x*y^2, x^2*y + y^3")
        assert not is_isolated_singularity(x)  # common factor x^2+y^2
        x = F("x^3 + x*y^2 + y^4, x^2*y + y^3")
        cls, caveat = classify_singularity(x)
        assert cls == "nprs" and not caveat

    def test_non_isolated_flagged(self):
        cls, caveat = classify_singularity(F("y, 0"))
        assert caveat and cls == "non_reduced_other"

    def test_zero_field_is_non_isolated(self):
        assert classify_singularity(F("0, 0")) == ("non_reduced_other", True)


def _linear_plus(m, higher):
    a, b, c, d = m
    return VectorFieldJet([PolySeries(2, {(1, 0): a, (0, 1): b}) + higher[0],
                           PolySeries(2, {(1, 0): c, (0, 1): d}) + higher[1]])


# germs for the classification oracle: the fields vanishing at 0, h R first
# jets among them, random linear parts plus higher terms, and fields times a
# common factor through 0
SHARED_AT_ZERO = st.sampled_from(["x", "y", "x + y", "y - x^2", "x - i*y"]).map(P)
CLASSIFIED_GERMS = st.one_of(
    VANISHING_FIELDS,
    st.builds(
        _linear_plus,
        st.tuples(*[st.sampled_from([gq(1), gq(-1), gq(2), gq(0, 1), gq(Fraction(-1, 3)), gq(0)])] * 4),
        st.tuples(_homogeneous_parts(2, 3), _homogeneous_parts(2, 3)),
    ).filter(lambda x: not x.is_zero()),
    st.builds(lambda h, x: VectorFieldJet([h * c for c in x.comps]), SHARED_AT_ZERO, VANISHING_FIELDS),
)


class TestClassifyAgainstSympy:
    @settings(max_examples=120, deadline=None)
    @given(CLASSIFIED_GERMS)
    @example(F("x, -y"))
    @example(F("x^2, y"))
    @example(F("x, 2*y"))
    @example(F("x + y^2, y"))
    @example(F("x^3 + x*y^2 + y^4, x^2*y + y^3"))
    @example(F("x^3 + x*y^2, x^2*y + y^3"))
    @example(F("y, 0"))
    # linear parts over a denominator D > 1, decided on Gaussian-integer numerators
    @example(F("(1/3 + 1/3*i)*x + y^2, (-2/3 - 2/3*i)*y"))  # ratio -2
    @example(F("(1/3 + 1/3*i)*x + y^2, (2/3 + 2/3*i)*y"))  # ratio 2
    @example(F("(1/5 + 2/5*i)*x + y, (1/5 + 2/5*i)*y"))  # Jordan block
    @example(F("(1/2 + i)*x + y^3, (1/3 - 1/2*i)*y"))  # trace^2/det not real
    def test_matches_the_oracle(self, x):
        assert classify_singularity(x) == sympy_classify_singularity(x)


class TestTranslate:
    def test_affine_recentering(self):
        x = F("x, y^2 - y")
        moved = translate_to_point(x, [gq(0), gq(1)])
        assert moved == F("x, y + y^2")

    @given(VANISHING_FIELDS)
    def test_origin_is_the_identity(self, x):
        assert translate_to_point(x, [gq(0), gq(0)]) == x

    @settings(max_examples=30, deadline=None)
    @given(VANISHING_FIELDS, st.one_of(st.just(gq(0)), COEFF), COEFF)
    @example(F("x*y - y^3, 0"), gq(2), gq(0, -1))  # a component with no terms
    @example(  # slopes with denominators and imaginary parts, over coefficients with denominators
        F("1/2*x^2 + 3*x*y, (2/3 + i)*y^3 - x*y"), gq(Fraction(2, 5), Fraction(-3, 5)),
        gq(Fraction(-1, 2), Fraction(3, 4)),
    )
    @example(F("x^3 - y, x*y^2 + 1/3*x^2"), gq(Fraction(1, 3), 2), gq(0))  # a shift in x alone
    def test_nonzero_point_matches_a_sympy_shift(self, x, a, b):
        moved = translate_to_point(x, [a, b])
        assert field_to_sympy(moved) == sympy_translate(x, [(a.re, a.im), (b.re, b.im)])

    def test_high_degree_rows_match_a_sympy_shift(self):
        # rows of degree 40 to 47 in each variable: every binomial C(k, j)
        # of those rows is carried along the row, none recomputed
        x = F("y^2 + x^3 + 3/2*x^45*y - x^40, x^41*y^2 - 2*y^47 + (1 + 2*i)*x*y^40")
        a, b = gq(1, -1), gq(Fraction(1, 2), 3)
        moved = translate_to_point(x, [a, b])
        assert max(k for c in moved.comps for e in c.terms for k in e) >= 40
        assert field_to_sympy(moved) == sympy_translate(x, [(a.re, a.im), (b.re, b.im)])


class TestGermDegreeBudget:
    @pytest.fixture
    def no_work(self, monkeypatch):
        def ran(*_):
            raise AssertionError("ran past the germ-degree budget")

        monkeypatch.setattr(blowup, "_taylor_shift", ran)
        monkeypatch.setattr(blowup, "is_isolated_singularity", ran)

    def test_refused_before_any_test_or_shift(self, no_work):
        n = MAX_GERM_DEGREE + 1
        x = F(f"y, x^{n}")
        message = f"a germ of degree {n} is past the blow-up budget of degree {MAX_GERM_DEGREE}"
        for run in (resolve, dicritical_test, strict_transform):
            with pytest.raises(GermError, match=message):
                run(x)
        with pytest.raises(GermError, match=message):
            translate_to_point(x, [gq(0), gq(1)])
        # the origin shifts nothing and returns X itself
        assert translate_to_point(x, [gq(0), gq(0)]) is x

    def test_accepted_at_the_budget(self):
        x = F(f"y, x^{MAX_GERM_DEGREE}")
        assert dicritical_test(x).nu == 1
        assert translate_to_point(x, [gq(0), gq(1)]) == F(f"y + 1, x^{MAX_GERM_DEGREE}")

    def test_a_node_past_the_budget_is_refused_before_its_shift(self, monkeypatch):
        # the root has degree n, its chart-1 strict transform x(t^2 - 1),
        # x^(n-2) t^n - t(t^2 - 1) degree 2n - 2, two past the budget
        def ran(*_):
            raise AssertionError("shifted past the germ-degree budget")

        monkeypatch.setattr(blowup, "_taylor_shift", ran)
        n = MAX_GERM_DEGREE // 2 + 2
        with pytest.raises(GermError, match=f"a germ of degree {2 * n - 2} is past"):
            resolve(F(f"y^2 - x^2, y^{n}"))


class TestResolve:
    def test_already_reduced(self):
        tree = resolve(F("x, -y"))
        assert tree.total_blowups() == 0
        assert tree.verdict == "reduced_hyperbolic"

    def test_two_squares_tree(self):
        tree = resolve(F("x^2, y^2"))
        assert tree.depth() == 2
        assert tree.total_blowups() == 1
        assert sorted(tree.leaf_verdicts()) == [
            "purely_radial",
            "reduced_hyperbolic",
            "reduced_hyperbolic",
        ]
        radial_leaf = [l for l in tree.leaves() if l.verdict == "purely_radial"][0]
        assert radial_leaf.would_be_dicritical is True

    def test_cusp_hamiltonian(self):
        tree = resolve(F("2*y, 3*x^2"))
        assert tree.total_blowups() == 3
        assert set(tree.leaf_verdicts()) == {"reduced_hyperbolic"}

    def test_equivariance_under_scaling(self):
        a = resolve(F("2*y, 3*x^2"))
        b = resolve(F("2*y, 3*x^2") * gq(Fraction(-7, 3)))

        def shape(node):
            return (
                node.classification,
                node.verdict,
                tuple(shape(c) for c in node.children),
            )

        assert shape(a) == shape(b)

    def test_depth_budget(self):
        tree = resolve(F("2*y, 3*x^2"), max_depth=1)
        assert "unresolved_depth" in tree.leaf_verdicts()

    def test_depth_beyond_the_budget_refused_first(self, monkeypatch):
        def ran(*_):
            raise AssertionError("ran before the depth budget was checked")

        monkeypatch.setattr(blowup, "is_isolated_singularity", ran)
        monkeypatch.setattr(blowup, "strict_transform", ran)
        with pytest.raises(GermError, match="depth budget"):
            resolve(F("y, x^1100"), max_depth=5000)
        with pytest.raises(GermError, match="depth budget"):
            resolve(F("y, x^2"), max_depth=MAX_DEPTH + 1)

    def test_deep_germ_at_the_budget(self):
        # y d/dx + x^400 d/dy needs 400 blow-ups: the budget runs out first
        tree = resolve(F("y, x^400"), max_depth=MAX_DEPTH)
        assert tree.depth() == MAX_DEPTH + 1
        assert tree.total_blowups() == MAX_DEPTH
        assert tree.leaf_verdicts().count("unresolved_depth") == 1

    def test_irrational_leaf(self):
        tree = resolve(F("x^2, y^2 + x*y - 2*x^2"))
        assert "unresolvable_irrational" in tree.leaf_verdicts()

    def test_marker_history_has_no_slope(self):
        # the points lie at slopes +-sqrt(2); no Q(i) coordinate names them
        tree = resolve(F("x^2, y^2 + x*y - 2*x^2"))
        (leaf,) = [c for c in tree.children if c.marker is not None]
        assert leaf.chart_history == ((1, None),)
        assert [c.chart_history for c in tree.children if c.marker is None] == [((2, gq(0)),)]

    def test_marker_at_the_last_level_stays_a_marker(self):
        # the marker is a stop class: at depth 1 its child keeps its own
        # verdict, not unresolved_depth, and the germ it was found on
        x = F("x^2, y^2 + x*y - 2*x^2")
        tree = resolve(x, max_depth=1)
        marker, origin = tree.children
        assert (marker.classification, marker.verdict) == ("unresolvable_irrational",) * 2
        assert marker.germ == x and marker.would_be_dicritical is None
        assert marker.chart_history == ((1, None),) and marker.children == ()
        assert (origin.chart_history, origin.verdict) == (((2, gq(0)),), "reduced_hyperbolic")

    def test_force_radial_blows_the_radial_point(self):
        tree = resolve(F("x^2, y^2"), force_radial=True)
        assert tree.total_blowups() >= 2

    def test_non_isolated_refused(self):
        with pytest.raises(GermError):
            resolve(F("y, 0"))


class _NoFactoring:
    """Stands in for blowup's sympy where factor_list must not run."""

    def factor_list(self, *args, **kwargs):
        raise AssertionError("factor_list ran past the budget")


class _CountingSympy:
    """Stands in for blowup's sympy: records each gcd and factor_list call
    and hands every lookup on to sympy itself."""

    def __init__(self):
        self.calls = []

    def __getattr__(self, name):
        found = getattr(sympy, name)
        if name not in ("gcd", "factor_list"):
            return found

        def counted(*args, **kwargs):
            self.calls.append(name)
            return found(*args, **kwargs)

        return counted


def _sympy_reduced_hyperbolic(germ):
    """Both eigenvalues nonzero and no ratio of them in Q_+, by the oracle."""
    rows = [[(c.re, c.im) for c in row] for row in germ.linear_part_matrix()]
    case, _, _, ratios, _ = sympy_classify_linear(rows)
    return case == "semisimple" and all(r < 0 for r in ratios)


def _preorder(node):
    """(chart history, classification, verdict, germ, marker) of every node."""
    yield node.chart_history, node.classification, node.verdict, node.germ, node.marker
    for child in node.children:
        yield from _preorder(child)


class TestSympyFallbacks:
    # germs the native algebra cannot decide: each answer is written out in
    # full and checked against the oracles, and the bridge calls are counted;
    # a native gcd and factorizer would leave these call lists empty

    @pytest.fixture
    def bridge(self, monkeypatch):
        counting = _CountingSympy()
        monkeypatch.setattr(blowup, "sympy", counting)
        return counting.calls

    def test_cubic_witness_reaches_factor_list(self, bridge):
        # W(t) = t^3 - 2 has no root in Q(i): chart 1 keeps it as a marker
        x = F("x^4 + y^4, y^3 - 2*x^3")
        tree = resolve(x)
        assert bridge == ["factor_list"]
        origin = F("x - 2*x*y^3, x - y + 2*y^4 + x*y^4")
        assert list(_preorder(tree)) == [
            ((), "non_reduced_other", "blown_up", x, None),
            (((1, None),), "unresolvable_irrational", "unresolvable_irrational", x, T**3 - 2),
            (((2, gq(0)),), "reduced_hyperbolic", "reduced_hyperbolic", origin, None),
        ]
        assert sympy_gaussian_factors(dicritical_test(x).witness) == ([], [(_plain(_dense(T**3 - 2)), 1)])
        assert sympy_isolated(x) and sympy_isolated(origin)
        assert _sympy_reduced_hyperbolic(origin)

    def test_isolated_germ_reaches_gcd(self, bridge):
        # the components share the tangent line y = x, so only the gcd
        # certifies isolation; three blow-ups end in three saddles
        x = F("y - x + x^2, y - x - x^2")
        assert is_isolated_singularity(x)
        assert bridge == ["gcd"]
        tree = resolve(x)
        assert bridge == ["gcd", "gcd"]
        one = (1, gq(1))
        two = (one, (2, gq(0)))
        leaves = [
            (
                (*two, (1, gq(Fraction(-3, 4)))),
                F("1/2*x + 3/4*x^2 - 2*x*y - x^2*y, 27/16*x - 3*y - 9/2*x*y + 4*y^2 + 3*x*y^2"),
            ),
            ((*two, (1, gq(0))), F("-x - 2*x*y - x^2*y, 3*y + 4*y^2 + 3*x*y^2")),
            ((*two, (2, gq(0))), F("2*x + 2*x*y + 2*x^2*y, -4*y - 3*y^2 - 3*x*y^2")),
        ]
        assert list(_preorder(tree)) == [
            ((), "non_reduced_other", "blown_up", x, None),
            ((one,), "non_reduced_other", "blown_up", F("x^2 + x*y, -2*x - x*y - y^2"), None),
            (two, "non_reduced_other", "blown_up", F("-x^2 - 2*x*y - x^2*y, 2*x*y + 2*y^2 + 2*x*y^2"), None),
        ] + [(h, "reduced_hyperbolic", "reduced_hyperbolic", g, None) for h, g in leaves]
        assert sympy_isolated(x) and sympy_gcd_isolated(x)
        assert all(sympy_isolated(g) and _sympy_reduced_hyperbolic(g) for _, g in leaves)

    def test_non_isolated_germ_reaches_gcd(self, bridge):
        # y - x divides both components and vanishes at 0
        x = F("(y - x)*(1 + x), (y - x)*y")
        assert not is_isolated_singularity(x)
        assert bridge == ["gcd"]
        assert not sympy_isolated(x) and not sympy_gcd_isolated(x)
        with pytest.raises(GermError):
            resolve(x)

    def test_factoring_budget(self, bridge, monkeypatch):
        # x^n, y^n has the witness t^n - t, whose part t^(n-1) - 1 goes to
        # factor_list: at the budget it is factored, one degree past it the
        # germ is refused before factor_list runs
        at = blowup.MAX_FACTOR_DEGREE + 1
        roots, markers = gaussian_roots(dicritical_test(F(f"x^{at}, y^{at}")).witness)
        assert bridge == ["factor_list"]
        assert len(roots) == 5 and sum(m.total_degree() for m, _ in markers) == at - 5
        monkeypatch.setattr(blowup, "sympy", _NoFactoring())
        x = F(f"x^{at + 1}, y^{at + 1}")
        for run in (lambda: gaussian_roots(dicritical_test(x).witness), lambda: resolve(x, max_depth=1)):
            with pytest.raises(GermError, match=f"degree {at} is past the factoring budget"):
                run()


# the seven germs of the benchmark's resolution workload
RESOLUTION_GERMS = [
    "2*y, 3*x^2",
    "x^2, y^2",
    "y + x^3, x^2*y",
    "x^2, y^2 + x*y - 2*x^2",
    "y^2 + x^3, x^4*y",
    "x^3 - 3*x*y^2, 3*x^2*y - y^3",
    "y^3 + x^5, x^4*y",
]


def _nodes(node):
    yield node
    for child in node.children:
        yield from _nodes(child)


@pytest.mark.parametrize("text", RESOLUTION_GERMS)
def test_every_node_inherits_isolation(text):
    # resolve proves isolation at the root only; check every node against
    # the sympy oracle and its classification against a fresh one
    for node in _nodes(resolve(F(text), max_depth=16)):
        if node.marker is not None:
            continue  # irrational point: carries its parent's germ
        assert sympy_isolated(node.germ)
        assert (node.classification, False) == classify_singularity(node.germ)


def test_divisor_points_of_an_isolated_germ_are_isolated():
    # an isolated germ is tested once, not each point on its divisor
    for text in RESOLUTION_GERMS:
        for pt in divisor_points(F(text)):
            if pt.germ is not None:
                assert sympy_isolated(pt.germ)
                assert (pt.classification, pt.non_isolated) == classify_singularity(pt.germ)


@pytest.mark.parametrize("text", ["x^2, y^2", "x^3 - 3*x*y^2, 3*x^2*y - y^3"])
def test_resolve_calls_the_blowup_steps_by_name(monkeypatch, text):
    # the benchmark's tracer counts these module names, and CI gates on the
    # counts: every node builds its blow-up with one strict_transform call
    # and translates its strict transform once per chart-1 root
    calls = {}
    for name in ("strict_transform", "divisor_singularities", "translate_to_point", "gaussian_roots"):
        def counted(*args, real=getattr(blowup, name), seen=calls.setdefault(name, [])):
            seen.append((args, out := real(*args)))
            return out

        monkeypatch.setattr(blowup, name, counted)
    resolve(F(text), max_depth=16)
    assert len(calls["strict_transform"]) == len(calls["divisor_singularities"]) > 0
    roots = [v for _, (found, _) in calls["gaussian_roots"] for v, _ in found]
    points = [point for (_, point), _ in calls["translate_to_point"]]
    assert len(points) == len(roots)
    assert sum(map(any, points)) == sum(map(bool, roots)) > 0


def test_multiplicity_monotonicity_at_generic_points():
    # mu(f1) < mu(f2) forces mu(f1 o Pi, p) < mu(f2 o Pi, p) at p generic
    # for f1 (slope avoiding the roots of its leading form)
    xv, tv = PolySeries.variable(2, 0), PolySeries.variable(2, 1)
    cases = [
        (P("y"), P("x^2"), gq(1)),
        (P("x + y"), P("y^2 + x^3"), gq(2)),
        (P("x*y"), P("x^3 - y^3"), gq(3)),
    ]
    for f1, f2, slope in cases:
        lead = f1.homogeneous_part(f1.order())
        assert not lead.evaluate([gq(1), slope]).is_zero()
        images = [xv, (tv + PolySeries.constant(2, slope)) * xv]
        up1 = f1.substitute(images)
        up2 = f2.substitute(images)
        assert up1.order() < up2.order()


# refusal -> (the call, its exception, its message); the CLI tests reach the
# n != 2 refusal of a blow-up.  A blow-up refuses a jet, then the zero field,
# then a germ not singular at 0, then one past the degree budget.
REFUSALS = {
    "blowup-jet": (lambda: strict_transform(F("y, x").truncated(3)), TruncationError,
                   "blow-up needs an exact polynomial field"),
    "blowup-zero-jet": (lambda: strict_transform(F("0, 0").truncated(3)), TruncationError,
                        "blow-up needs an exact polynomial field"),
    "blowup-zero": (lambda: strict_transform(F("0, 0")), GermError, "cannot blow up the zero field"),
    "blowup-nonsingular": (lambda: strict_transform(F(f"1 + y, x^{MAX_GERM_DEGREE + 1}")), GermError,
                           "blow-up requires a singular point at the origin"),
    "roots-dimension": (lambda: gaussian_roots(P("x")), GermError, "gaussian_roots expects a univariate polynomial"),
    "roots-zero": (lambda: gaussian_roots(PolySeries.zero(1)), GermError, "the zero polynomial has every root"),
    "isolation-dimension": (lambda: is_isolated_singularity(F("x, y, z")), GermError,
                            "isolation test needs an exact plane field"),
    "translate-jet": (lambda: translate_to_point(F("y, x").truncated(3), [gq(1), gq(0)]), TruncationError,
                      "translation needs an exact polynomial field"),
    "linear-shape": (lambda: classify_linear([[gq(1)]]), GermError, "classify_linear expects a 2x2 matrix"),
}


@pytest.mark.parametrize("call, error, message", REFUSALS.values(), ids=list(REFUSALS))
def test_refusals(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()
