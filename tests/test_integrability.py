from fractions import Fraction

import pytest

from germfield import (
    GermError,
    MeromorphicRatio,
    OneFormJet,
    PolySeries,
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
