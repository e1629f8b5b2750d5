import sys
from fractions import Fraction
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

sys.path.insert(0, str(Path(__file__).parent))
from oracles import sympy_isolated, sympy_linear_root

from germfield import (
    CHART_SLOPE_Y,
    GermError,
    PolySeries,
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
from germfield.blowup import gaussian_roots
from germfield.gaussian import gq

F = parse_field
P = parse_poly


def chart_poly(text):
    # chart polynomials read with t written as y
    return parse_poly(text, 2)


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

    def test_multiplicity_dichotomy(self):
        for text in ("x, -y", "y, 0", "x^2, y^2", "2*x*y, 2*y^2 - x^3", "x^2*y, x*y^2"):
            x = F(text)
            d = dicritical_test(x)
            b = strict_transform(x, CHART_SLOPE_Y)
            if not b.multiplicity_flagged:
                assert b.divisor_multiplicity == (d.nu if d.dicritical else d.nu - 1)
                assert (b.divisor_multiplicity == d.nu) == d.dicritical


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
        pts = divisor_singularities(F("y, 0"))
        assert len(pts) == 1
        pt = pts[0]
        assert pt.chart == CHART_SLOPE_Y and pt.coordinate == gq(0)
        assert pt.multiplicity == 2  # mu of the strict germ at the point
        assert pt.non_isolated

    def test_two_squares_three_points(self):
        pts = divisor_singularities(F("x^2, y^2"))
        coords = [(p.chart, p.coordinate) for p in pts]
        assert coords == [(1, gq(0)), (1, gq(1)), (2, gq(0))]
        assert [p.classification for p in pts] == [
            "reduced_hyperbolic",
            "purely_radial",
            "reduced_hyperbolic",
        ]

    def test_radial_has_none(self):
        assert divisor_singularities(radial_field(2)) == []

    def test_gaussian_root_detected(self):
        # witness B_2(1,t) - t A_2(1,t) = t^2 + 1 has roots +-i
        x = F("x^2, y^2 + x*y + x^2")
        d = dicritical_test(x)
        assert d.witness == PolySeries(1, {(2,): gq(1), (0,): gq(1)})
        pts = divisor_singularities(x)
        coords = {str(p.coordinate) for p in pts if p.coordinate is not None}
        assert {"1i", "-1i"} <= coords

    def test_irrational_root_reported_as_marker(self):
        pts = divisor_singularities(F("x^2, y^2 + x*y - 2*x^2"))
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
    # divisor_singularities tests an isolated germ once, not each point
    for text in RESOLUTION_GERMS:
        for pt in divisor_singularities(F(text)):
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
