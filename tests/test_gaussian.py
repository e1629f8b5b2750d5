import math
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from germfield.gaussian import gq, I, ONE, ZERO


def test_norm_identity():
    assert gq(1, 1) * gq(1, -1) == gq(2)


def test_rational_addition():
    assert gq(Fraction(1, 2)) + gq(Fraction(1, 3)) == gq(Fraction(5, 6))


def test_division_verified_by_multiplying_back():
    q = gq(2, 1) / gq(1, -1)
    assert q == gq(Fraction(1, 2), Fraction(3, 2))
    assert q * gq(1, -1) == gq(2, 1)


def test_division_by_zero_raises():
    with pytest.raises(ZeroDivisionError):
        gq(1) / gq(0)


def test_normalization_through_fraction():
    # Fraction keeps lowest terms and positive denominators
    v = gq(Fraction(2, -4), Fraction(6, 4))
    assert v.re == Fraction(-1, 2) and v.re.denominator == 2
    assert v.im == Fraction(3, 2)


def test_power_and_conjugate():
    assert I**2 == gq(-1)
    assert I**3 == gq(0, -1)
    assert gq(2, 3).conjugate() == gq(2, -3)
    assert (gq(2, 3) * gq(2, 3).conjugate()).re == gq(2, 3).norm()


@pytest.mark.parametrize(
    "value",
    [gq(4), gq(-4), gq(0, 2), gq(3, 4), gq(Fraction(9, 4)), gq(0), gq(-1)],
)
def test_sqrt_squares_back(value):
    root = value.sqrt()
    assert root is not None
    assert root * root == value


def test_sqrt_none_outside_field():
    assert gq(2).sqrt() is None  # sqrt(2) is irrational
    assert gq(0, 1).sqrt() is None  # sqrt(i) = (1+i)/sqrt(2) leaves Q(i)
    assert gq(-7).sqrt() is None


def test_hash_and_equality_with_ints():
    assert gq(3) == 3
    assert hash(gq(1, 0)) == hash(gq(Fraction(2, 2), 0))
    assert ZERO != ONE


@pytest.mark.parametrize("value", [0, 1, -7, 10**30, Fraction(1, 2), Fraction(-5, 3),
                                   Fraction(10**20 + 1, 10**20)])
def test_hash_agrees_with_equality_on_real_values(value):
    # equal values must hash equal, so sets and dict keys mix them freely
    g = gq(value)
    assert g == value and hash(g) == hash(value)
    assert len({value, g}) == 1
    assert {g: "a"}.get(value) == "a" and {value: "b"}.get(g) == "b"


def test_hash_of_non_real_values():
    values = [gq(0, 1), gq(1, 1), gq(Fraction(1, 2), -3), gq(Fraction(1, 2), 3), gq(1, 2)]
    assert hash(gq(Fraction(2, 4), Fraction(6, 2))) == hash(gq(Fraction(1, 2), 3))
    assert len(set(values)) == len(values)
    assert {v: k for k, v in enumerate(values)}[gq(1) + gq(0, 2)] == 4
    assert len({gq(0, 1), 1j}) == 2 and gq(0, 1) != 1j


# -- properties against an independent (Fraction, Fraction) reference ---------

RATIONALS = st.one_of(
    st.fractions(min_value=-12, max_value=12, max_denominator=12),
    st.builds(Fraction, st.integers(-(10**30), 10**30), st.integers(1, 10**20)),
)
PAIRS = st.tuples(RATIONALS, RATIONALS)


def normalized(v):
    a, b, d = v._a, v._b, v._d
    return d > 0 and math.gcd(a, b, d) == 1


def pair(v):
    assert normalized(v)
    return (v.re, v.im)


def ref_mul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def ref_div(x, y):
    n = y[0] ** 2 + y[1] ** 2
    return ((x[0] * y[0] + x[1] * y[1]) / n, (x[1] * y[0] - x[0] * y[1]) / n)


def ref_str(x):
    re, im = x
    if im == 0:
        return str(re)
    if re == 0:
        return f"{im}i"
    return f"{re}{'+' if im > 0 else '-'}{abs(im)}i"


def ref_sqrt(x):
    def rsqrt(q):
        if q < 0:
            return None
        n, d = math.isqrt(q.numerator), math.isqrt(q.denominator)
        return Fraction(n, d) if Fraction(n * n, d * d) == q else None

    re, im = x
    if re == 0 and im == 0:
        return (Fraction(0), Fraction(0))
    s = rsqrt(re * re + im * im)
    if s is None:
        return None
    c = rsqrt((re + s) / 2)
    if c:
        root = (c, im / (2 * c))
    elif im == 0 and re < 0 and rsqrt(-re) is not None:
        root = (Fraction(0), rsqrt(-re))
    else:
        return None
    return root if ref_mul(root, root) == x else None


@given(PAIRS, PAIRS)
@settings(max_examples=300, deadline=None)
def test_field_operations_match_reference(x, y):
    gx, gy = gq(*x), gq(*y)
    assert pair(gx) == x and pair(gy) == y
    assert pair(gx + gy) == (x[0] + y[0], x[1] + y[1])
    assert pair(gx - gy) == (x[0] - y[0], x[1] - y[1])
    assert pair(gx * gy) == ref_mul(x, y)
    assert pair(-gx) == (-x[0], -x[1])
    assert pair(gx.conjugate()) == (x[0], -x[1])
    assert gx.norm() == x[0] ** 2 + x[1] ** 2
    if y != (0, 0):
        assert pair(gx / gy) == ref_div(x, y)
    else:
        with pytest.raises(ZeroDivisionError):
            gx / gy
    assert (gx == gy) == (x == y)
    assert gx.sort_key() == x
    assert (gx.sort_key() < gy.sort_key()) == (x < y)
    assert str(gx) == ref_str(x)
    assert repr(gx) == f"GaussianRational({x[0]!r}, {x[1]!r})"
    assert hash(gx) == hash(gq(*x))
    if x[1] == 0:
        assert hash(gx) == hash(x[0])


@given(PAIRS, st.integers(-12, 12), st.fractions(min_value=-5, max_value=5, max_denominator=7))
@settings(max_examples=200, deadline=None)
def test_mixed_operands_and_powers(x, k, q):
    gx = gq(*x)
    assert pair(gx * k) == pair(k * gx) == (x[0] * k, x[1] * k)
    assert pair(gx + q) == pair(q + gx) == (x[0] + q, x[1])
    assert pair(q - gx) == (q - x[0], -x[1])
    assert (gx == q) == (x == (q, 0))
    if q:
        assert pair(gx / q) == (x[0] / q, x[1] / q)
    if x == (0, 0):
        if k < 0:
            with pytest.raises(ZeroDivisionError):
                gx**k
        return
    assert pair(q / gx) == ref_div((q, Fraction(0)), x)
    expected = (Fraction(1), Fraction(0))
    for _ in range(abs(k)):
        expected = ref_mul(expected, x)
    if k < 0:
        expected = ref_div((Fraction(1), Fraction(0)), expected)
    assert pair(gx**k) == expected


@given(PAIRS, st.booleans())
@settings(max_examples=200, deadline=None)
def test_sqrt_matches_reference(x, square_it):
    if square_it:
        x = ref_mul(x, x)
    root = gq(*x).sqrt()
    expected = ref_sqrt(x)
    assert (root is None) == (expected is None)
    if square_it:
        assert root is not None
    if root is not None:
        assert pair(root) == expected


def test_equal_values_have_equal_fields():
    v = gq(Fraction(2, 6), Fraction(-4, 6))
    assert (v._a, v._b, v._d) == (1, -2, 3)
    w = gq(Fraction(1, 2), Fraction(1, 3)) * 6
    assert (w._a, w._b, w._d) == (3, 2, 1)
    assert gq(0, 0)._d == 1 and (gq(1, 1) - gq(1, 1))._d == 1
    assert isinstance(v.re, Fraction) and isinstance(gq(3).im, Fraction)


def test_read_only():
    v = gq(1, 2)
    with pytest.raises(AttributeError):
        v.re = Fraction(3)
    with pytest.raises(AttributeError):
        v.extra = 1


def test_zero_division_everywhere():
    with pytest.raises(ZeroDivisionError):
        gq(1, 1) / 0
    with pytest.raises(ZeroDivisionError):
        1 / gq(0)
    with pytest.raises(ZeroDivisionError):
        gq(0) ** -1


def test_float_operands_are_refused():
    # a float is not exact: every operator returns NotImplemented for it, so
    # Python raises TypeError either way round
    v = gq(1, 2)
    for op in (
        lambda: v + 0.5, lambda: 0.5 + v, lambda: v - 0.5, lambda: 0.5 - v,
        lambda: v * 0.5, lambda: 0.5 * v, lambda: v / 0.5, lambda: 0.5 / v,
    ):
        with pytest.raises(TypeError):
            op()
