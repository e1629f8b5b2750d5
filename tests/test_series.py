import itertools
import math
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from germfield import (
    PolySeries,
    TruncationError,
    Weight,
    parse_poly,
    poly_divides,
)
from germfield import series as series_module
from germfield.gaussian import gq
from germfield.series import (
    _product,
    monomial_key,
    monomials_up_to,
    variable_power_dividing,
)


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

    def test_shift_into_total_polynomial_is_composed(self):
        f = P("x^2")
        img = [P("x + 1"), P("y")]
        assert f.substitute(img) == P("1 + 2*x + x^2")

    def test_shift_into_jet_rejected(self):
        f = P("x^2").truncated(4)
        with pytest.raises(TruncationError):
            f.substitute([P("x + 1"), P("y")])

    def test_truncation_propagates(self):
        f = P("x^2")
        maps = [P("x + y").truncated(3), P("y").truncated(3)]
        assert f.substitute(maps).trunc == 3


def test_jet_equality_up_to_common_truncation():
    a = P("x + x^3").truncated(2)
    b = P("x").truncated(5)
    assert a.jet_equal(b)
    assert not a.jet_equal(P("x + y").truncated(2))


@pytest.mark.parametrize("dim", [0, 1, 2, 3])
def test_monomials_up_to_is_sorted_product(dim):
    for n in range(7):
        for min_deg in range(3):
            want = sorted(
                (e for e in itertools.product(range(n + 1), repeat=dim) if min_deg <= sum(e) <= n),
                key=monomial_key,
            )
            assert monomials_up_to(dim, n, min_deg) == want


def test_variable_power_division():
    f = P("x^2*y + x^3")
    assert variable_power_dividing(f, 0) == 2


def test_term_cap(monkeypatch):
    monkeypatch.setattr(series_module, "MAX_TERMS", 3)
    from germfield.series import TermLimitError

    with pytest.raises(TermLimitError):
        (P("1 + x + y") * P("1 + x + y"))


def test_term_cap_counts_the_partial_product(monkeypatch):
    # (1 + x)(1 - x + x^2 - x^3) = 1 - x^4 has 2 terms, but its first row
    # of partial products has 4
    monkeypatch.setattr(series_module, "MAX_TERMS", 3)
    from germfield.series import TermLimitError

    with pytest.raises(TermLimitError):
        P("1 + x") * P("1 - x + x^2 - x^3")
    monkeypatch.setattr(series_module, "MAX_TERMS", 4)
    assert P("1 + x") * P("1 - x + x^2 - x^3") == P("1 - x^4")


def test_term_cap_in_substitute(monkeypatch):
    from germfield.series import TermLimitError

    f, images = P("x^3 + y"), [P("x + y"), P("y")]
    monkeypatch.setattr(series_module, "MAX_TERMS", 5)
    assert f.substitute(images) == P("x^3 + 3*x^2*y + 3*x*y^2 + y^3 + y")
    monkeypatch.setattr(series_module, "MAX_TERMS", 4)
    with pytest.raises(TermLimitError):
        f.substitute(images)


def test_scalar_minus_series_is_termwise():
    f = P("2 + x - i*y^2").truncated(3)
    for c in (3, Fraction(1, 2), gq(1, -1)):
        d = c - f
        assert d.trunc == 3
        assert d.constant_term() == c - f.constant_term()
        assert {e: v for e, v in d.terms.items() if any(e)} == {
            e: -v for e, v in f.terms.items() if any(e)
        }


def test_equality_with_scalars():
    assert P("3") == 3 and P("1/2") == Fraction(1, 2) and P("2 - i") == gq(2, -1)
    assert P("3").truncated(2) == 3 and P("3") != P("3").truncated(2)
    assert P("3 + x") != 3 and P("0") == 0
    # a foreign type is not a scalar: == falls back to identity
    assert P("1").__eq__(1.0) is NotImplemented and P("1").__eq__("1") is NotImplemented
    assert P("1") != 1.0 and P("1") != "1"


def test_evaluate_exact():
    f = P("x^2 + i*y")
    assert f.evaluate([gq(Fraction(1, 2)), gq(2)]) == gq(Fraction(1, 4), 2)


# -- the fraction-free product and the in-place division, against schoolbook ---

# denominators with shared and coprime factors, so that lcms, cross terms
# and the final reduction all matter
SCALARS = st.builds(
    lambda a, b, da, db: gq(Fraction(a, da), Fraction(b, db)),
    st.integers(-6, 6),
    st.one_of(st.just(0), st.integers(-6, 6)),
    st.sampled_from([1, 2, 3, 4, 6, 9]),
    st.sampled_from([1, 2, 3, 4, 6, 9]),
)


@st.composite
def series(draw, dim, max_deg=4, max_terms=8):
    exps = st.tuples(*[st.integers(0, max_deg)] * dim).filter(lambda e: sum(e) <= max_deg)
    return PolySeries(dim, draw(st.dictionaries(exps, SCALARS, max_size=max_terms)))


@st.composite
def operands(draw):
    """(f, g, trunc); in half the draws f = p + q and g = p - q, whose
    product p^2 - q^2 cancels every cross term p*q."""
    dim = draw(st.integers(1, 3))
    f, g = draw(series(dim)), draw(series(dim))
    if draw(st.booleans()):
        f, g = f + g, f - g
    return f, g, draw(st.one_of(st.none(), st.integers(0, 8)))


def schoolbook(f, g, trunc):
    out = {}
    for e1, c1 in f.terms.items():
        for e2, c2 in g.terms.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            if trunc is None or sum(e) <= trunc:
                out[e] = out.get(e, gq(0)) + c1 * c2
    return {e: c for e, c in out.items() if c}


def assert_normalized(p):
    for c in p.terms.values():
        assert c and c._d > 0 and math.gcd(c._a, c._b, c._d) == 1


@given(operands())
@settings(max_examples=300, deadline=None)
def test_product_matches_schoolbook(case):
    f, g, trunc = case
    prod = _product(f.truncated(trunc), g)
    assert prod.terms == schoolbook(f, g, trunc)
    assert prod.trunc == trunc
    assert_normalized(prod)
    jets = f.truncated(trunc) * g if trunc is not None else f * g
    assert jets.terms == prod.terms


@given(operands(), st.data())
@settings(max_examples=200, deadline=None)
def test_divides_exact_and_off_by_a_lower_monomial(case, data):
    # d = p + q, quotient p - q: the cross terms of d * (p - q) cancel, so the
    # division meets monomials that the dividend does not hold
    d, q, _ = case
    if d.is_zero():
        return
    ok, quotient = poly_divides(d, d * q)
    assert ok and quotient == q
    assert_normalized(quotient)
    le, _ = d.leading_term()
    below = [
        e for e in itertools.product(range(sum(le) + 1), repeat=d.dim)
        if monomial_key(e) < monomial_key(le)
    ]
    if below:
        e, c = data.draw(st.sampled_from(below)), data.draw(SCALARS.filter(bool))
        r = PolySeries.monomial(d.dim, e, c)
        assert poly_divides(d, d * q + r) == (False, None)
