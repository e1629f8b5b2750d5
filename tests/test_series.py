from fractions import Fraction

import pytest

from germfield import (
    GermError,
    PolySeries,
    TruncationError,
    Weight,
    parse_poly,
    poly_divides,
)
from germfield.gaussian import gq
from germfield.series import divide_by_variable_power, variable_power_dividing


def P(text, dim=2):
    return parse_poly(text, dim)


class TestMultiplication:
    def test_difference_of_squares(self):
        assert P("x + y") * P("x - y") == P("x^2 - y^2")

    def test_multiplicative_identity(self):
        f = P("3/2*x^2*y - y^3 + i*x")
        assert f * P("1") == f

    def test_truncated_geometric_inverse(self):
        # (1+x)(1-x+x^2) = 1 + x^3, so mod degree 3 the product is 1
        a = P("1 + x").truncated(2)
        b = P("1 - x + x^2").truncated(2)
        prod = a * b
        assert prod.trunc == 2
        assert prod == PolySeries.constant(2, 1, trunc=2)

    def test_total_times_total_stays_total(self):
        assert (P("x") * P("y")).is_total


class TestPartial:
    def test_basic(self):
        assert P("x^2*y").partial(0) == P("2*x*y")
        assert P("x^2").partial(1) == P("0")

    def test_cusp_level_numerator(self):
        assert P("y^2 + x^3").partial(0) == P("3*x^2")

    def test_truncation_drops(self):
        f = P("x^3").truncated(3)
        assert f.partial(0).trunc == 2

    def test_degree_zero_jet_refused(self):
        # the degree-0 jet of 1 + 5x knows nothing of its x-derivative, 5
        f = PolySeries(2, {(0, 0): gq(1), (1, 0): gq(5)}, trunc=0)
        with pytest.raises(TruncationError):
            f.partial(0)

    def test_degree_one_jet_keeps_its_constant(self):
        assert P("1 + 5*x + x^2").truncated(1).partial(0) == PolySeries.constant(2, 5, trunc=0)


class TestOrder:
    def test_total_order(self):
        assert P("y^2 + x^3").order() == 2

    def test_zero_jet_reports_none(self):
        f = PolySeries.zero(2, trunc=5)
        assert f.order() is None  # read: order >= 6, never zero

    def test_weighted_order(self):
        w = Weight((1, 2))
        assert P("y - x^2").order(w) == 2
        # both monomials sit in one quasi-homogeneous component
        parts = P("y - x^2").weighted_parts(w)
        assert list(parts) == [2]


class TestDivides:
    def test_monomial_divisor(self):
        ok, q = poly_divides(P("x"), P("2*x*y"))
        assert ok and q == P("2*y")

    def test_non_divisor(self):
        ok, q = poly_divides(P("x"), P("x + y"))
        assert not ok and q is None

    def test_hamiltonian_invariance_gives_zero_quotient(self):
        # H_f(f) = 0 for f = y^2 - x^3; the dividend collapses to 0
        dividend = P("2*y") * P("-3*x^2") + P("3*x^2") * P("2*y")
        ok, q = poly_divides(P("y^2 - x^3"), dividend)
        assert ok and q == P("0")

    def test_truncated_inputs_rejected(self):
        with pytest.raises(TruncationError):
            poly_divides(P("x").truncated(3), P("x^2"))


class TestSubstitute:
    def test_blowup_map_on_y(self):
        x, t = PolySeries.variable(2, 0), PolySeries.variable(2, 1)
        assert P("y").substitute([x, t * x]) == P("x*y")  # t prints as y

    def test_identity_map(self):
        f = P("x^2 + y^2")
        x, y = PolySeries.variable(2, 0), PolySeries.variable(2, 1)
        assert f.substitute([x, y]) == f

    def test_cusp_numerator_under_blowup(self):
        x, t = PolySeries.variable(2, 0), PolySeries.variable(2, 1)
        assert P("y^2 + x^3").substitute([x, t * x]) == P("x^2*y^2 + x^3")

    def test_shift_needs_flag(self):
        f = P("x^2")
        img = [P("x + 1"), P("y")]
        with pytest.raises(GermError):
            f.substitute(img)
        assert f.substitute(img, allow_shift=True) == P("1 + 2*x + x^2")

    def test_shift_into_jet_rejected(self):
        f = P("x^2").truncated(4)
        with pytest.raises(TruncationError):
            f.substitute([P("x + 1"), P("y")], allow_shift=True)

    def test_truncation_propagates(self):
        f = P("x^2")
        maps = [P("x + y").truncated(3), P("y").truncated(3)]
        assert f.substitute(maps).trunc == 3


def test_jet_equality_up_to_common_truncation():
    a = P("x + x^3").truncated(2)
    b = P("x").truncated(5)
    assert a.jet_equal(b)
    assert not a.jet_equal(P("x + y").truncated(2))


def test_variable_power_division():
    f = P("x^2*y + x^3")
    assert variable_power_dividing(f, 0) == 2
    assert divide_by_variable_power(f, 0, 2) == P("y + x")
    with pytest.raises(GermError):
        divide_by_variable_power(P("x + y"), 0, 1)


def test_term_cap(monkeypatch):
    monkeypatch.setenv("GERM_MAX_TERMS", "3")
    from germfield.series import TermLimitError

    with pytest.raises(TermLimitError):
        (P("1 + x + y") * P("1 + x + y"))


def test_evaluate_exact():
    f = P("x^2 + i*y")
    assert f.evaluate([gq(Fraction(1, 2)), gq(2)]) == gq(Fraction(1, 4), 2)
