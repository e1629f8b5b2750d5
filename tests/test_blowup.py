import sys
from fractions import Fraction
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import assume, example, given, settings

sys.path.insert(0, str(Path(__file__).parent))
from oracles import (
    sympy_gaussian_factors,
    sympy_gcd_isolated,
    sympy_isolated,
    sympy_linear_root,
    sympy_square_free,
    sympy_univariate_gcd,
)

from germfield import (
    CHART_SLOPE_X,
    CHART_SLOPE_Y,
    GermError,
    PolySeries,
    VectorFieldJet,
    blowup_pullback,
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
from germfield.blowup import _dense, _square_free, _univariate_gcd, gaussian_roots
from germfield.gaussian import gq

F = parse_field
P = parse_poly


def chart_poly(text):
    # chart polynomials read with t written as y
    return parse_poly(text, 2)


def divisor_points(x):
    """The singular points on the divisor of x's blow-up, as the blowup verb
    finds them: both strict transforms and one isolation test of x."""
    blowups = (strict_transform(x, CHART_SLOPE_Y), strict_transform(x, CHART_SLOPE_X))
    return divisor_singularities(blowups, is_isolated_singularity(x))


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
        assert blowup_pullback(radial_field(2), CHART_SLOPE_Y) == F("x, 0")

    def test_nilpotent_shear(self):
        # y d/dx pulls back to tx d/dx - t^2 d/dt
        assert blowup_pullback(F("y, 0"), CHART_SLOPE_Y) == F("x*y, -y^2")

    def test_level_foliation_field(self):
        got = blowup_pullback(F("2*x*y, 2*y^2 - x^3"), CHART_SLOPE_Y)
        assert got == F("2*x^2*y, -x^2")

    def test_blowing_down_recovers_the_field(self):
        # substitute t = y/x back: A = P(x, y/x), B = x Q(x, y/x) + t P
        x = F("x^2 + y^2, x*y - y^3")
        up = blowup_pullback(x, CHART_SLOPE_Y)
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
            blowup_pullback(F("1, y"), CHART_SLOPE_Y)


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
        # both charts, non-isolated fields such as x^2*y, x*y^2 included
        d = dicritical_test(x)
        for chart in (CHART_SLOPE_Y, CHART_SLOPE_X):
            b = strict_transform(x, chart)
            assert (b.nu, b.dicritical) == (d.nu, d.dicritical)
            assert b.divisor_multiplicity == (d.nu if d.dicritical else d.nu - 1)

    @settings(max_examples=60, deadline=None)
    @given(VANISHING_FIELDS)
    def test_radial_and_nprs_germs_are_dicritical(self, x):
        # both classes have a first jet h R, so resolve reports
        # would_be_dicritical true for them without running the test
        assume(classify_singularity(x)[0] in ("purely_radial", "nprs"))
        assert dicritical_test(x).dicritical


class TestStrictTransform:
    def test_radial(self):
        b = strict_transform(radial_field(2), CHART_SLOPE_Y)
        assert b.strict == F("1, 0") and b.divisor_multiplicity == 1 and b.dicritical

    def test_shear_keeps_pullback(self):
        b = strict_transform(F("y, 0"), CHART_SLOPE_Y)
        assert b.divisor_multiplicity == 0
        assert b.strict == b.pullback

    def test_two_squares(self):
        b = strict_transform(F("x^2, y^2"), CHART_SLOPE_Y)
        assert b.divisor_multiplicity == 1
        assert b.strict == chart_poly("x") * F("1, 0") + F("0, -y + y^2")

    def test_divisor_invariance_when_non_dicritical(self):
        # x divides the slope component of the pullback iff non-dicritical
        for text in ("y, 0", "x^2, y^2", "2*y, 3*x^2", "x, -y"):
            b = strict_transform(F(text), CHART_SLOPE_Y)
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

    @settings(max_examples=60, deadline=None)
    @given(LEAD, FACTORS.filter(bool))
    def test_square_free_matches_sympy(self, lead, factors):
        f = _product(lead, factors)
        ours = sorted((_plain(part), k) for part, k in _square_free(_dense(f)))
        assert ours == sympy_square_free(f)

    @settings(max_examples=40, deadline=None)  # sympy's factor_list dominates
    @given(LEAD, FACTORS)
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


class TestTranslate:
    def test_affine_recentering(self):
        x = F("x, y^2 - y")
        moved = translate_to_point(x, [gq(0), gq(1)])
        assert moved == F("x, y + y^2")


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

    def test_irrational_leaf(self):
        tree = resolve(F("x^2, y^2 + x*y - 2*x^2"))
        assert "unresolvable_irrational" in tree.leaf_verdicts()

    def test_marker_history_has_no_slope(self):
        # the points lie at slopes +-sqrt(2); no Q(i) coordinate names them
        tree = resolve(F("x^2, y^2 + x*y - 2*x^2"))
        (leaf,) = [c for c in tree.children if c.marker is not None]
        assert leaf.chart_history == ((1, None),)
        assert [c.chart_history for c in tree.children if c.marker is None] == [((2, gq(0)),)]

    def test_force_radial_blows_the_radial_point(self):
        tree = resolve(F("x^2, y^2"), force_radial=True)
        assert tree.total_blowups() >= 2

    def test_non_isolated_refused(self):
        with pytest.raises(GermError):
            resolve(F("y, 0"))


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
        up1 = f1.substitute(images, allow_shift=True)
        up2 = f2.substitute(images, allow_shift=True)
        assert up1.order() < up2.order()
