import sys
from fractions import Fraction
from pathlib import Path

import hypothesis.strategies as st
import pytest
import sympy
from hypothesis import example, given, settings

sys.path.insert(0, str(Path(__file__).parent))
from oracles import field_to_sympy, poly_from_sympy, poly_to_sympy, sympy_cauchy_riemann, sympy_log_form

from germfield import (
    DimensionMismatchError,
    GermError,
    MeromorphicRatio,
    OneFormJet,
    PolySeries,
    TruncationError,
    poly_divides,
    cauchy_riemann_pair,
    closedness_check,
    dual_form,
    dual_pair,
    integrating_factor_check,
    invariance_check,
    lie_bracket,
    log_decomposition,
    meromorphic_first_integral_check,
    parse_field,
    parse_one_form,
    parse_poly,
    parse_ratio,
    radial_field,
)
from germfield import integrability
from germfield.gaussian import gq

F = parse_field
P = parse_poly


def saddle_node(lam):
    return F("x^2, y") + F("0, x*y") * lam


class TestClosedness:
    def test_dlog_xy(self):
        ok, residual = closedness_check(parse_one_form("x dy - y dx"), P("x*y"))
        assert ok and residual.is_zero()

    def test_saddle_node_dual_form(self):
        ok, _ = closedness_check(parse_one_form("x^2 dy - y dx"), P("x^2*y"))
        assert ok

    def test_open_form(self):
        ok, residual = closedness_check(parse_one_form("x dy"), P("1"))
        assert not ok and residual == P("1")

    def test_zero_denominator_rejected(self):
        with pytest.raises(ZeroDivisionError):
            closedness_check(parse_one_form("x dy"), P("0"))

    def test_denominator_of_another_dimension_rejected(self):
        # the products g * dq, ... meet operands in dimensions 3 and 2
        with pytest.raises(DimensionMismatchError, match="dimension 2 vs 3"):
            closedness_check(parse_one_form("x dy - y dx"), parse_poly("x*z", 3))


class TestIntegratingFactor:
    def test_saddle_node(self):
        assert integrating_factor_check(F("x^2, y"), P("x^2*y"))

    def test_radial_with_homogeneous_factor(self):
        assert integrating_factor_check(radial_field(2), P("x^2 + y^2"))

    def test_divergence_free_accepts_constants(self):
        assert integrating_factor_check(F("0, x"), P("1"))

    def test_agrees_with_closedness_of_dual_form(self):
        for text, g in [
            ("x^2, y", "x^2*y"),
            ("x, -y", "x*y"),
            ("y, x", "x^2 - y^2"),
            ("x + y^2, y", "x"),
        ]:
            x = F(text)
            lhs = integrating_factor_check(x, P(g))
            rhs, _ = closedness_check(dual_form(x), P(g))
            assert lhs == rhs

    def test_jets_refused(self):
        # the 3-jet of y + x^4, -x passes, but div X = 4 x^3 is past the cut
        x = F("y + x^4, -x")
        assert not integrating_factor_check(x, P("1"))
        with pytest.raises(TruncationError):
            integrating_factor_check(x.truncated(3), P("1"))
        with pytest.raises(TruncationError):
            integrating_factor_check(x, P("1").truncated(3))


class TestMeromorphicIntegral:
    def test_holomorphic_case(self):
        assert meromorphic_first_integral_check(
            F("x, -y"), MeromorphicRatio(P("x*y"), P("1"))
        )

    def test_level_foliation(self):
        assert meromorphic_first_integral_check(
            F("2*x*y, 2*y^2 - x^3"), parse_ratio("(y^2 + x^3) / (x^2)")
        )

    def test_degree_zero_ratio_for_radial(self):
        assert meromorphic_first_integral_check(radial_field(2), parse_ratio("x / y"))

    def test_rejects_non_integral(self):
        assert not meromorphic_first_integral_check(
            F("x, -y"), MeromorphicRatio(P("x + y"), P("1"))
        )

    def test_jets_refused(self):
        # X(xy) = x^5 for x, -y + x^4: only the jet's terms cancel
        x, f = F("x, -y + x^4"), MeromorphicRatio(P("x*y"), P("1"))
        assert not meromorphic_first_integral_check(x, f)
        with pytest.raises(TruncationError):
            meromorphic_first_integral_check(x.truncated(3), f)


class TestDualPair:
    def test_diagonal_pair(self):
        alpha, beta = dual_pair(F("x, 0"), F("0, y"))
        assert alpha.form.coeffs[0] == P("y") and alpha.form.coeffs[1].is_zero()
        assert beta.form.coeffs[1] == P("x") and beta.form.coeffs[0].is_zero()
        assert alpha.denominator == P("x*y")

    def test_duality_evaluations(self):
        x1, x2 = F("x + y^2, y"), F("y, x")
        alpha, beta = dual_pair(x1, x2)
        one = MeromorphicRatio(P("1"), P("1"))
        zero = MeromorphicRatio(P("0"), P("1"))
        assert alpha.pairing(x1).equals(one)
        assert alpha.pairing(x2).equals(zero)
        assert beta.pairing(x1).equals(zero)
        assert beta.pairing(x2).equals(one)

    def test_rotation_pair_closed(self):
        alpha, beta = dual_pair(radial_field(2), F("y, -x"))
        # alpha = (x dx + y dy)/(x^2+y^2) up to overall sign normalization
        num = alpha.form
        g = alpha.denominator
        cross = [num.coeffs[0] * P("x^2 + y^2"), num.coeffs[1] * P("x^2 + y^2")]
        target = [P("x") * g * -1, P("y") * g * -1]
        assert (cross[0] == target[0] and cross[1] == target[1]) or (
            cross[0] == -target[0] and cross[1] == -target[1]
        )
        ok, _ = closedness_check(alpha.form, g)
        assert ok

    def test_dependent_pair_rejected(self):
        with pytest.raises(GermError):
            dual_pair(radial_field(2), radial_field(2))


class TestLogDecomposition:
    def test_dlog_x_plus_dlog_y(self):
        omega = parse_one_form("x dy - y dx")
        # omega/(xy) = dy/y - dx/x
        result = log_decomposition(omega, P("x*y"), [(P("x"), 1), (P("y"), 1)])
        assert result.success
        d = result.decomposition
        assert d.residues == (gq(-1), gq(1))
        assert d.phi.is_zero()

    @pytest.mark.parametrize("lam", [gq(0), gq(1), gq(0, 1)])
    def test_saddle_node_residues(self, lam):
        x = saddle_node(lam)
        omega = dual_form(x)
        result = log_decomposition(omega, P("x^2*y"), [(P("x"), 2), (P("y"), 1)])
        assert result.success
        d = result.decomposition
        assert d.residues == (-lam, gq(1))
        assert d.phi == P("1")

    def test_double_pole_with_simple_claim_fails(self):
        # omega/(x^2 y) has a double pole on x = 0; multiplicity-1 claim
        omega = dual_form(saddle_node(gq(0)))
        result = log_decomposition(omega, P("x^2*y"), [(P("x^2"), 1), (P("y"), 1)])
        assert not result.success
        assert result.residual is not None
        assert any(not c.is_zero() for c in result.residual.coeffs)

    def test_residual_of_a_maximal_consistent_subsystem(self):
        # omega/g = -dx/x^2 + (1/x + 1/(x y)) dy is not closed; the dx rows,
        # inserted first, are solved by d(1/x), and the dy rows that
        # contradict them are left in the residual
        omega = parse_one_form("x*y dy - y dx + x dy")
        result = log_decomposition(omega, P("x^2*y"), [(P("x"), 2), (P("y"), 1)])
        assert not result.success
        assert result.residual == parse_one_form("(x + x*y) dy")

    def test_truncated_form_refused(self):
        # the degree-2 jet is x^2 dy - y dx, which decomposes with residues
        # (0, 1) and phi = 1, but the exact form leaves (x^3*y) dy over
        omega = parse_one_form("x^2 dy - y dx + x^3*y dy")
        factors = [(P("x"), 2), (P("y"), 1)]
        exact = log_decomposition(omega, P("x^2*y"), factors)
        assert not exact.success and exact.residual == parse_one_form("(x^3*y) dy")
        jet = OneFormJet([c.truncated(2) for c in omega.coeffs])
        with pytest.raises(TruncationError):
            log_decomposition(jet, P("x^2*y"), factors)

    def test_negative_phi_bound_refused_before_any_product(self, monkeypatch):
        omega, g, factors = parse_one_form("x^2 dy - y dx"), P("x^2*y"), [(P("x"), 2), (P("y"), 1)]

        def no_product(*args):
            raise AssertionError("a product was formed")

        monkeypatch.setattr(PolySeries, "__mul__", no_product)
        with pytest.raises(GermError, match="phi degree bound"):
            log_decomposition(omega, g, factors, -1)

    def test_phi_budget_refused_before_any_row(self, monkeypatch):
        # 2 residues and C(B + 2, 2) phi coefficients: 9,872 unknowns at
        # B = 139 solve, 10,013 at B = 140 are refused before phi's columns
        # are listed or a row is summed
        omega, g, factors = parse_one_form("x^2 dy - y dx"), P("x^2*y"), [(P("x"), 2), (P("y"), 1)]
        assert log_decomposition(omega, g, factors, 139).decomposition.phi == P("1")

        def no_rows(*args):
            raise AssertionError("a row was built")

        # each patched name is on the path to the rows: under budget, the
        # call reaches it (the residue images and D_i are one _combination)
        for name in ("_combination", "monomials_up_to"):
            monkeypatch.setattr(integrability, name, no_rows)
            with pytest.raises(AssertionError, match="a row was built"):
                log_decomposition(omega, g, factors, 139)
        with pytest.raises(GermError, match="10013 residue and phi unknowns exceed the budget of 10000"):
            log_decomposition(omega, g, factors, 140)

    @pytest.mark.parametrize("unit", ["2", "1 + y", "3 - i*x + x*y"])
    def test_unit_times_the_factorization(self, unit):
        # omega/g is unchanged when both are multiplied by a unit
        omega, g = dual_form(saddle_node(gq(0, 1))), P("x^2*y")
        factors = [(P("x"), 2), (P("y"), 1)]
        u = P(unit)
        scaled = log_decomposition(OneFormJet([c * u for c in omega.coeffs]), g * u, factors)
        assert scaled.decomposition == log_decomposition(omega, g, factors).decomposition
        cleared = scaled.decomposition.reconstruct_cleared(u)
        assert cleared == OneFormJet([c * u for c in omega.coeffs])

    def test_wrong_factorization_rejected(self):
        with pytest.raises(GermError):
            log_decomposition(
                parse_one_form("x dy"), P("x*y"), [(P("x"), 2), (P("y"), 1)]
            )

    def test_reconstruction_identity_on_random_inputs(self):
        # build forms from known residues/phi, then recover them
        import random

        rng = random.Random(7)
        factors = [(P("x"), 2), (P("y"), 1)]
        for _ in range(25):
            residues = [gq(rng.randint(-3, 3)), gq(rng.randint(-3, 3))]
            phi = P("1") * rng.randint(-2, 2) + P("y") * rng.randint(-2, 2)
            if phi.is_zero():
                phi = P("1")
            g = P("x^2*y")
            # omega = g*(sum lam df/f + d(phi/x)) assembled by hand
            omega_dx = P("x*y") * residues[0] + (
                phi.partial(0) * P("x") - phi
            ) * P("y")
            omega_dy = P("x^2") * residues[1] + phi.partial(1) * P("x*y")
            omega = OneFormJet([omega_dx, omega_dy])
            result = log_decomposition(omega, g, factors)
            assert result.success
            d = result.decomposition
            assert list(d.residues) == residues
            # phi is unique modulo multiples of x here; compare d(phi/x)
            diff = d.phi - phi
            ok, q = poly_divides(P("x"), diff) if not diff.is_zero() else (True, P("0"))
            assert ok and (q.is_zero() or q.total_degree() == 0)


class TestInvariance:
    def test_axis(self):
        assert invariance_check(F("x, -y"), P("x"))

    def test_hamiltonian_level(self):
        assert invariance_check(F("2*y, 3*x^2"), P("y^2 - x^3"))

    def test_level_foliation_axis(self):
        assert invariance_check(F("2*x*y, 2*y^2 - x^3"), P("x"))

    def test_non_invariant(self):
        assert not invariance_check(F("y, x"), P("x"))

    def test_unit_multiple_invariance(self):
        x = F("x, -y")
        f = P("x")
        for unit in (P("1 + y"), P("2 + x^2"), P("1 + x + y")):
            scaled = x * unit
            assert invariance_check(scaled, f) == invariance_check(x, f)

    def test_rejects_nonvanishing_equation(self):
        with pytest.raises(GermError):
            invariance_check(F("x, y"), P("1 + x"))


class TestCauchyRiemann:
    def test_constant(self):
        x, y = cauchy_riemann_pair(PolySeries.constant(1, 1), 4)
        assert x == F("1, 0").truncated(4)
        assert y == F("0, -1").truncated(4)

    def test_identity_function(self):
        x, y = cauchy_riemann_pair(PolySeries.variable(1, 0), 4)
        assert x.jet_equal(radial_field(2))
        assert y.jet_equal(F("y, -x"))

    def test_square(self):
        f = PolySeries.monomial(1, (2,))
        x, y = cauchy_riemann_pair(f, 5)
        assert x.jet_equal(F("x^2 - y^2, 2*x*y"))
        assert y.jet_equal(F("2*x*y, -x^2 + y^2"))
        assert lie_bracket(x, y).is_zero()

    def test_gaussian_coefficients(self):
        f = PolySeries(1, {(1,): gq(0, 1), (3,): gq(Fraction(1, 2), 2)})
        x, y = cauchy_riemann_pair(f, 6)
        assert lie_bracket(x, y).is_zero()
        # both parts are real polynomials
        for comp in x.comps + y.comps:
            assert all(c.im == 0 for c in comp.terms.values())

    def test_truncated_input_keeps_certified_commutation(self):
        f = PolySeries(1, {(1,): gq(1), (2,): gq(-2), (5,): gq(3)}).truncated(3)
        x, y = cauchy_riemann_pair(f, 3)
        assert x.trunc == 3 and y.trunc == 3
        assert lie_bracket(x, y).is_zero()  # zero through the certified degree


# -- against sympy ---------------------------------------------------------------

GAUSSIANS = st.builds(
    lambda a, b, d: gq(Fraction(a, d), Fraction(b, d)),
    st.integers(-4, 4), st.integers(-4, 4), st.sampled_from([1, 2, 3]),
)
NONZERO = GAUSSIANS.filter(lambda c: not c.is_zero())


@st.composite
def univariate_cases(draw):
    """(f, N): a Q(i) polynomial in one variable, total or truncated, and a
    cut N below, at or above its degree."""
    terms = draw(st.dictionaries(st.integers(0, 7), GAUSSIANS, max_size=5))
    f = PolySeries(1, {(k,): c for k, c in terms.items()})
    n = draw(st.integers(0, f.total_degree() + 3))
    if draw(st.booleans()):
        f = f.truncated(draw(st.integers(0, 8)))
    return f, n


@settings(max_examples=100, deadline=None)
@given(univariate_cases())
@example((PolySeries(1, {(5,): gq(1), (2,): gq(0, 1)}), 3))
@example((PolySeries(1, {(5,): gq(1), (2,): gq(0, 1)}), 8))
@example((PolySeries(1, {(1,): gq(2, -1), (6,): gq(Fraction(1, 2), 3)}).truncated(4), 6))
def test_cauchy_riemann_pair_against_sympy(case):
    f, n = case
    x, y = cauchy_riemann_pair(f, n)
    u, v, trunc = sympy_cauchy_riemann(f, n)
    assert x.trunc == y.trunc == trunc
    got = field_to_sympy(x) + field_to_sympy(y)
    assert all(sympy.expand(a - b) == 0 for a, b in zip(got, [u, v, v, -u]))


def _factor_shapes(draw):
    """Three coprime factors through 0, shaped like the bench's."""
    a, b, c, d = (draw(GAUSSIANS) for _ in range(4))
    e = draw(NONZERO)
    return [
        PolySeries(2, {(1, 0): 1, (0, 2): a, (1, 1): b}),
        PolySeries(2, {(0, 1): 1, (2, 0): c}),
        PolySeries(2, {(1, 0): 1, (0, 1): d, (0, 3): e}),
    ]


# the bench's multiplicities, and one with k = 3, where dropping the factor
# k - 1 of d(phi / D) would show
@pytest.mark.parametrize("mults", [(2, 1, 1), (1, 2, 1), (1, 1, 2), (3, 1, 2)])
@settings(max_examples=5, deadline=None)
@given(data=st.data())
def test_log_decomposition_round_trip_against_sympy(mults, data):
    fs = _factor_shapes(data.draw)
    residues = [data.draw(GAUSSIANS) for _ in fs]
    phi_terms = data.draw(st.dictionaries(st.sampled_from([(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]),
                                          GAUSSIANS, max_size=4))
    unit = data.draw(st.sampled_from(["1", "2", "1 + y", "3 - i*x"]))
    g, omega = sympy_log_form(list(zip(fs, mults)), residues, PolySeries(2, phi_terms))
    u = parse_poly(unit)
    g, omega = g * poly_to_sympy(u), [c * poly_to_sympy(u) for c in omega]
    result = log_decomposition(
        OneFormJet([poly_from_sympy(c, 2) for c in omega]), poly_from_sympy(g, 2),
        list(zip(fs, mults)), 3,
    )
    assert result.success
    d = result.decomposition
    assert list(d.residues) == residues
    # phi is unique up to a multiple of D; the form it gives is not
    _, again = sympy_log_form(list(zip(fs, mults)), d.residues, d.phi)
    assert all(sympy.expand(a * poly_to_sympy(u) - b) == 0 for a, b in zip(again, omega))
