"""Quadratic blow-ups of plane vector-field germs and the resolution driver.

Both charts of the blow-up at the origin are normalized to local coordinates
(x, t) where x = 0 is the exceptional divisor and t parametrizes it:

  chart 1:  (x, y) = (x, t x)      -- t is the slope y/x
  chart 2:  (x, y) = (t x, x)      -- t is the slope x/y (the s coordinate)

so chart 2 is chart 1 applied to the field with its variables and components
swapped.  Points with t != 0 in chart 1 coincide with points t' = 1/t in
chart 2; singularity listings therefore report chart-1 points plus at most
the chart-2 origin.

Singular points on the divisor with coordinates outside Q(i) are never blown
up; they are returned as markers carrying their irreducible witness factor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import zip_longest

from .gaussian import ONE, ZERO, GaussianRational, _reduce, over_common_denominator
from .series import (
    GermError,
    PolySeries,
    TruncationError,
    _coerce_scalar,
    _trusted,
    variable_power_dividing,
)
from .fields import VectorFieldJet

CHART_SLOPE_Y = 1  # (x, y) = (x, t x)
CHART_SLOPE_X = 2  # (x, y) = (t x, x)

DEFAULT_MAX_DEPTH = 12
MAX_DEPTH = 200  # resolve refuses deeper budgets: the tree code recurses per level
# gaussian_roots refuses to hand sympy a square-free part of higher degree:
# factor_list takes about 1 s there (notes/decisions.md, "sympy is a fallback")
MAX_FACTOR_DEGREE = 32
# blow-ups refuse a germ of higher total degree before testing it, and
# translate_to_point before shifting it: a Taylor shift to the slope
# (3 + 2i)/5 takes about 0.4 s there (notes/decisions.md, "a germ-degree
# budget for blow-ups" and "Blow-up nodes in one pass")
MAX_GERM_DEGREE = 7000

REDUCED_HYPERBOLIC = "reduced_hyperbolic"
SADDLE_NODE = "saddle_node"
PURELY_RADIAL = "purely_radial"
NPRS = "nprs"
NON_REDUCED_OTHER = "non_reduced_other"
UNRESOLVABLE_IRRATIONAL = "unresolvable_irrational"


class _LazySympy:
    """Stands in for the sympy module, imported on the first attribute lookup.

    Only the cases the native paths below cannot decide reach sympy.  The
    module global ``sympy`` is never rebound, so a stand-in put there from
    outside (a tracer's proxy, say) is never evicted.
    """

    def __getattr__(self, name):
        import sympy as real

        return getattr(real, name)


sympy = _LazySympy()


def _require_blowup_input(x: VectorFieldJet) -> int:
    """nu of a plane germ that a blow-up accepts.  One scan of the terms'
    total degrees finds the zero field, a germ not singular at 0 and one past
    the degree budget, in that order, after the dimension and jet checks."""
    if x.dim != 2:
        raise GermError("blow-ups are implemented for n=2")
    if not x.is_total:
        raise TruncationError("blow-up needs an exact polynomial field")
    degrees = [sum(e) for c in x.comps for e in c.terms]
    if not degrees:
        raise GermError("cannot blow up the zero field")
    nu = min(degrees)
    if not nu:
        raise GermError("blow-up requires a singular point at the origin")
    _require_degree(max(degrees))
    return nu


def _require_degree(degree: int):
    if degree > MAX_GERM_DEGREE:
        raise GermError(f"a germ of degree {degree} is past the blow-up budget of degree {MAX_GERM_DEGREE}")


def _chart(p: PolySeries, q: PolySeries, s: int) -> tuple[dict, dict]:
    """The term maps of P(x, tx) d/dx + [(Q - tP)(x, tx) / x] d/dt, in one pass
    over each term map by x^i y^j -> x^(i+j) t^(e_s): (A, B, 1) gives chart 1,
    (B, A, 0) chart 2.  A term of tP is negated, or subtracted where it lands on Q's."""
    # (i, j) -> (i + j, e_s) is injective, and i + j >= 1 on a field vanishing at 0
    dt = {(e[0] + e[1] - 1, e[s]): c for e, c in q.terms.items()}
    dx = {}
    for e, c in p.terms.items():
        k, t = e[0] + e[1], e[s]
        dx[k, t] = c
        key = (k - 1, t + 1)
        if (old := dt.get(key)) is None:
            dt[key] = -c
        elif new := old - c:
            dt[key] = new
        else:
            del dt[key]
    return dx, dt


@dataclass(frozen=True)
class BlownUpField:
    chart: int
    pullback: VectorFieldJet
    nu: int
    dicritical: bool
    divisor_multiplicity: int  # maximal power of the divisor coordinate dividing
    strict: VectorFieldJet

    @property
    def witness(self) -> PolySeries:
        """W(t) = B_nu(1, t) - t A_nu(1, t) in this chart's slope coordinate
        (chart 2 swaps A and B, and x and y), read off the strict transform.

        The d/dt component of the pullback is x^(nu-1) W(t) + O(x^nu), so W
        is the strict transform's d/dt component on the divisor when the
        blow-up is not dicritical, and 0 when it is.
        """
        if self.dicritical:
            return PolySeries.zero(1)
        return _restrict_to_divisor(self.strict.comps[1])


def strict_transform(x: VectorFieldJet) -> tuple[BlownUpField, BlownUpField]:
    """Both pullbacks divided by the largest power of the divisor coordinate.

    That power is nu - 1 when the blow-up is non-dicritical and nu when it
    is dicritical, for every field vanishing at 0 (notes/decisions.md, "The
    divisor multiplicity is nu - 1 or nu"), so it also gives the verdict.
    """
    nu = _require_blowup_input(x)
    a, b = x.comps
    blowups = []
    for chart, maps in ((CHART_SLOPE_Y, _chart(a, b, 1)), (CHART_SLOPE_X, _chart(b, a, 0))):
        # the least x-exponent of the keys: tuples compare their first entry first
        power = min(min(m)[0] for m in maps if m)
        assert power in (nu - 1, nu)
        pullback = VectorFieldJet([_trusted(2, m, None) for m in maps])
        strict = VectorFieldJet([
            _trusted(2, {(i - power, t): c for (i, t), c in m.items()}, None) for m in maps
        ]) if power else pullback
        blowups.append(BlownUpField(chart, pullback, nu, power == nu, power, strict))
    return tuple(blowups)


def dicritical_test(x: VectorFieldJet) -> BlownUpField:
    """Decide whether the blow-up at 0 is dicritical: chart 1 of strict_transform.

    Its witness is W(t) = B_nu(1, t) - t A_nu(1, t) built from the first
    nonzero jet; the blow-up is dicritical iff W vanishes identically, which
    happens exactly when that jet is colinear with the radial field.
    """
    return strict_transform(x)[0]


# -- singular points on the divisor -------------------------------------------


@dataclass(frozen=True)
class SingularPoint:
    chart: int
    coordinate: GaussianRational | None  # slope value, None for marker points
    marker: PolySeries | None  # irreducible non-Q(i) factor of the witness
    classification: str
    germ: VectorFieldJet | None  # strict transform translated to the point
    multiplicity: int | None
    non_isolated: bool = False
    would_be_dicritical: bool | None = None


def _sympy_poly(f: PolySeries):
    """f as a sympy Poly over QQ_I, in t (one variable) or in x, y (two)."""
    terms = {e: sympy.Rational(c.re) + sympy.Rational(c.im) * sympy.I for e, c in f.terms.items()}
    return sympy.Poly.from_dict(terms, sympy.symbols("t," if f.dim == 1 else "x, y"), domain="QQ_I")


def _rational_of(expr) -> Fraction:
    r = sympy.Rational(expr)
    return Fraction(int(r.p), int(r.q))


def _from_sympy(poly) -> list[GaussianRational]:
    """The dense coefficients of a univariate sympy Poly over QQ_I."""
    return [GaussianRational(*map(_rational_of, c.as_real_imag())) for c in reversed(poly.all_coeffs())]


# Univariate polynomials over Q(i) as dense coefficient lists, constant term
# first, with a nonzero last entry; [] is the zero polynomial.


def _dense(f: PolySeries) -> list[GaussianRational]:
    coeffs = [ZERO] * (f.total_degree() + 1) if f.terms else []
    for (k,), c in f.terms.items():
        coeffs[k] = c
    return coeffs


def _sparse(coeffs: list[GaussianRational]) -> PolySeries:
    return PolySeries(1, {(k,): c for k, c in enumerate(coeffs) if c})


def _trim(a: list) -> list:
    while a and not a[-1]:
        a.pop()
    return a


def _divmod(a: list, b: list) -> tuple[list, list]:
    """Quotient and remainder of a by a nonzero b."""
    rem, n, lead = list(a), len(b) - 1, b[-1]
    quot = [ZERO] * max(len(a) - n, 0)
    for k in range(len(quot) - 1, -1, -1):
        q = quot[k] = rem[k + n] / lead
        if q:
            for j, c in enumerate(b):
                rem[k + j] -= q * c
    return quot, _trim(rem[:n])


def _gcd(a: list, b: list) -> list:
    """The monic gcd of two polynomials, not both zero (Euclid)."""
    while b:
        a, b = b, _divmod(a, b)[1]
    return [c / a[-1] for c in a]


def _derivative(a: list) -> list:
    return [k * c for k, c in enumerate(a)][1:]


def _square_free(a: list) -> list[tuple[list, int]]:
    """Yun's square-free decomposition of a nonzero a: the monic, pairwise
    coprime, square-free a_i of positive degree with a = lc(a) * prod a_i^i,
    each paired with its i."""
    if len(a) < 3:  # a constant has no part, a linear a is its own
        return [([a[0] / a[1], ONE], 1)] if len(a) == 2 else []
    da = _derivative(a)
    g = _gcd(a, da)
    if len(g) == 1:  # a is square-free: Yun's loop would return a alone
        return [([c / a[-1] for c in a], 1)]
    w, y = _divmod(a, g)[0], _divmod(da, g)[0]
    parts, i = [], 1
    while len(w) > 1:
        z = _trim([p - q for p, q in zip_longest(y, _derivative(w), fillvalue=ZERO)])
        part = _gcd(w, z)
        if len(part) > 1:
            parts.append((part, i))
        w, y = _divmod(w, part)[0], _divmod(z, part)[0]
        i += 1
    return parts


def _univariate_gcd(a: PolySeries, b: PolySeries) -> PolySeries:
    """The monic gcd over Q(i) of two univariate polynomials, not both zero."""
    return _sparse(_gcd(_dense(a), _dense(b)))


def gaussian_roots(f: PolySeries) -> tuple[list[tuple[GaussianRational, int]], list[tuple[PolySeries, int]]]:
    """Q(i) roots and irreducible residual factors of a univariate polynomial.

    Factors over the Gaussian rationals: roots come with their multiplicity,
    anything irreducible of higher degree is returned, monic, as a marker
    factor with its multiplicity.  The power of t is split off first and the
    rest is split square-free (Yun); a part of degree 1 is a root, one of
    degree 2 gives two roots when its discriminant is a square in Q(i) and is
    irreducible otherwise.  Only a square-free part of degree 3 or more is
    handed to sympy, and one of degree above MAX_FACTOR_DEGREE is refused
    with GermError first.
    """
    if f.dim != 1:
        raise GermError("gaussian_roots expects a univariate polynomial")
    if f.is_zero():
        raise GermError("the zero polynomial has every root")
    coeffs = _dense(f)
    n = next(k for k, c in enumerate(coeffs) if c)
    roots: list[tuple[GaussianRational, int]] = [(ZERO, n)] if n else []
    markers: list[tuple[PolySeries, int]] = []
    for part, mult in _square_free(coeffs[n:]):
        factors = [(part, mult)]
        if len(part) > 3:
            if len(part) > MAX_FACTOR_DEGREE + 1:
                raise GermError(
                    f"a witness factor of degree {len(part) - 1} is past the factoring budget "
                    f"of degree {MAX_FACTOR_DEGREE}"
                )
            _, found = sympy.factor_list(_sympy_poly(_sparse(part)))
            factors = [(_from_sympy(p), mult * m) for p, m in found]
        for factor, m in factors:
            if len(factor) == 2:
                roots.append((-factor[0], m))
            elif len(factor) == 3 and (r := (factor[1] ** 2 - 4 * factor[0]).sqrt()) is not None:
                roots += [((r - factor[1]) / 2, m), ((-r - factor[1]) / 2, m)]
            else:
                markers.append((_sparse(factor), m))
    roots.sort(key=lambda rm: rm[0].sort_key())
    return roots, markers


def _restrict_to_divisor(f: PolySeries) -> PolySeries:
    """f(0, t) as a univariate polynomial in the slope coordinate."""
    # distinct t-exponents of f's own nonzero terms
    return _trusted(1, {(b,): c for (a, b), c in f.terms.items() if a == 0}, None)


def is_isolated_singularity(x: VectorFieldJet) -> bool:
    """No common factor of the components vanishing at the origin.

    Decided natively when a component is zero or a monomial, or when the
    tangent cones share no line; otherwise by the sympy gcd (see
    notes/decisions.md, "sympy is a fallback").
    """
    if x.dim != 2 or not x.is_total:
        raise GermError("isolation test needs an exact plane field")
    a, b = x.comps
    if a.is_zero() or b.is_zero():
        return not (a + b).constant_term().is_zero()  # gcd(0, f) = f
    for f, g in ((a, b), (b, a)):
        if len(g.terms) == 1:  # g = c x^p y^q: only x and y can divide both
            (p, q), = g.terms
            return not (p and variable_power_dividing(f, 0) or q and variable_power_dividing(f, 1))
    a_cone, b_cone = (f.homogeneous_part(f.order()) for f in (a, b))
    y_shared = variable_power_dividing(a_cone, 1) and variable_power_dividing(b_cone, 1)
    slopes = [PolySeries(1, {(i,): c for (i, _), c in f.terms.items()}) for f in (a_cone, b_cone)]
    if not y_shared and _univariate_gcd(*slopes).total_degree() == 0:
        return True  # tangent cones share no line: I_0(A, B) = m(A) m(B) is finite
    g = sympy.gcd(_sympy_poly(a), _sympy_poly(b))
    return g.coeff_monomial(1) != 0


def _taylor_shift(f: PolySeries, i: int, c: GaussianRational) -> PolySeries:
    """f with z_i replaced by z_i + c: z_i^k = sum_j C(k, j) c^(k-j) z_i^j.

    Summed in Gaussian-integer numerators.  With f's coefficients a_k over
    their common denominator D, c = g/q and K the largest exponent of z_i,
    the coefficient of z_i^j is the sum of a_k q^(K-k) C(k, j) g^(k-j) over
    D q^(K-j): each term is scaled once, and each output term is one sum of
    (re, im) int pairs, reduced once."""
    den, nums = over_common_denominator(f.terms.values())
    top = max((e[i] for e in f.terms), default=0)
    q, ((ga, gb),) = over_common_denominator([c])
    qpow, gpow = [1], [(1, 0)]  # q^m and g^m
    for _ in range(top):
        a, b = gpow[-1]
        gpow.append((a * ga - b * gb, a * gb + b * ga))
        qpow.append(qpow[-1] * q)
    acc = {}  # exponent e -> (re, im) over D q^(K - e_i)
    for e, (a, b) in zip(f.terms, nums):
        k = e[i]
        a, b = a * qpow[top - k], b * qpow[top - k]
        binom = 1  # C(k, j), carried along the row
        for j in range(k + 1):
            pa, pb = gpow[k - j]
            ra, rb = a * binom, b * binom
            key = e[:i] + (j,) + e[i + 1:]
            sa, sb = acc.get(key, (0, 0))
            acc[key] = (sa + ra * pa - rb * pb, sb + ra * pb + rb * pa)
            binom = binom * (k - j) // (j + 1)
    out = {e: _reduce(a, b, den * qpow[top - e[i]]) for e, (a, b) in acc.items() if a or b}
    return _trusted(f.dim, out, None)  # f is total


def translate_to_point(x: VectorFieldJet, point: list[GaussianRational]) -> VectorFieldJet:
    """Exact affine recentering: the germ of X at the point, seen from 0, by
    a Taylor shift in each nonzero coordinate (the origin returns X itself).
    A germ past MAX_GERM_DEGREE is refused before it is shifted."""
    if not x.is_total:
        raise TruncationError("translation needs an exact polynomial field")
    if any(point):
        _require_degree(max(c.total_degree() for c in x.comps))
    comps = x.comps
    for i, c in zip(range(x.dim), point, strict=True):
        if c:
            comps = [_taylor_shift(f, i, c) for f in comps]
    return x if comps is x.comps else VectorFieldJet(comps)


# -- linear classification ----------------------------------------------------


@dataclass(frozen=True)
class LinearClass:
    case: str  # semisimple | nilpotent_nonzero | zero | nondiagonal_resonant | one_zero_eigenvalue
    ratio_rationality: str  # rational | irrational | undefined
    ratio: Fraction | None = None
    rational_ratios: tuple[Fraction, ...] = ()
    eigenvalues: tuple[GaussianRational, GaussianRational] | None = None


def _linear_numerators(entries) -> tuple[int, tuple[int, int], tuple[int, int], bool]:
    """D, trace*D and det*D^2 as (re, im) int pairs, and whether the matrix is
    scalar, for the entries a, b, c, d of (a b; c d) over Q(i), D the lcm of
    their denominators."""
    den, ((a, ai), (b, bi), (c, ci), (d, di)) = over_common_denominator(entries)
    trace = (a + d, ai + di)
    det = (a * d - ai * di - b * c + bi * ci, a * di + ai * d - b * ci - bi * c)
    return den, trace, det, not (b or bi or c or ci) and a == d and ai == di


def _rational_ratio(trace: tuple[int, int], det: tuple[int, int]) -> tuple[int, int, int] | None:
    """(a, root, d), d > 0, when the eigenvalue ratios (a +- root)/(2d) are
    rational, else None; from trace*D and det*D^2 as (re, im) int pairs, for
    one D > 0 and det nonzero (ZeroDivisionError otherwise).

    A ratio r of the eigenvalues solves (1+r)^2 det = r trace^2.  No root is
    0, and dividing by r det gives r + 1/r = s with s = trace^2/det - 2, so
    r = (s +- sqrt(s^2 - 4))/2.  A rational r needs a real s (r + 1/r is
    real), and then r is rational iff s^2 - 4 is the square of a rational.
    With (trace*D)^2 = u + v*i and det*D^2 = da + db*i, s = ((u + v*i)(da -
    db*i) - 2d)/d over d = da^2 + db^2 is real iff v*da = u*db, and is then
    a/d.  Then s^2 - 4 = n/d^2 with n = a^2 - 4d^2, so r is rational iff the
    integer n is a perfect square; a/d need not be in lowest terms, since
    scaling both by k scales n by k^2.  s = +-2 gives the double root +-1.
    """
    (tr, ti), (da, db) = trace, det
    d = da * da + db * db
    if not d:
        raise ZeroDivisionError("eigenvalue ratios need a nonzero determinant")
    u, v = tr * tr - ti * ti, 2 * tr * ti
    if v * da != u * db:
        return None
    a = u * da + v * db - 2 * d
    n = a * a - 4 * d * d
    if n < 0 or (root := math.isqrt(n)) ** 2 != n:
        return None
    return a, root, d


def classify_linear(matrix: list[list[GaussianRational]]) -> LinearClass:
    """Classify a 2x2 linear part over Q(i), with exact ratio rationality."""
    if len(matrix) != 2 or any(len(row) != 2 for row in matrix):
        raise GermError("classify_linear expects a 2x2 matrix")
    entries = [_coerce_scalar(c) for row in matrix for c in row]
    if not any(entries):
        return LinearClass("zero", "undefined")
    den, trace_num, det_num, scalar = _linear_numerators(entries)
    trace, det = _reduce(*trace_num, den), _reduce(*det_num, den * den)
    if not det:
        if not trace:
            return LinearClass("nilpotent_nonzero", "undefined")
        eigs = tuple(sorted((ZERO, trace), key=GaussianRational.sort_key))
        return LinearClass("one_zero_eigenvalue", "undefined", eigenvalues=eigs)

    roots = ()
    if (found := _rational_ratio(trace_num, det_num)) is not None:
        a, root, d = found
        roots = tuple(sorted({Fraction(a - root, 2 * d), Fraction(a + root, 2 * d)}))
    disc = trace * trace - det * 4
    eigs = None
    if (s := disc.sqrt()) is not None:
        eigs = tuple(sorted(((trace - s) / 2, (trace + s) / 2), key=GaussianRational.sort_key))
    ratio = max(roots, key=lambda r: (abs(r), r)) if roots else None
    case = "nondiagonal_resonant" if disc.is_zero() and not scalar else "semisimple"
    return LinearClass(case, "rational" if roots else "irrational", ratio, roots, eigs)


def classify_singularity(germ: VectorFieldJet) -> tuple[str, bool]:
    """Classification of a plane germ singular at 0, plus a non-isolated flag.

    reduced_hyperbolic: both eigenvalues nonzero, ratio outside Q_+;
    saddle_node: exactly one zero eigenvalue (isolated);
    purely_radial: multiplicity one, linear part a nonzero multiple of R;
    nprs: multiplicity > 1, isolated, first jet f.R with f homogeneous;
    non_reduced_other: everything else.  A non-isolated zero locus only flags
    the result, the classification is still reported.
    """
    if germ.dim != 2:
        raise GermError("classification is n=2 only")
    if not germ.vanishes_at_origin():
        raise GermError("classification expects a singular germ")
    if germ.is_zero():
        return NON_REDUCED_OTHER, True
    return _classify(germ, germ.mu(), False)[:2]


def _radial_jet(germ: VectorFieldJet, nu: int) -> bool:
    """x B_nu = y A_nu (the nu-jet is h.R), compared as shifted term maps."""
    a, b = germ.comps
    return ({(i, j + 1): c for (i, j), c in a.terms.items() if i + j == nu}
            == {(i + 1, j): c for (i, j), c in b.terms.items() if i + j == nu})


def _classify(germ: VectorFieldJet, nu: int, isolated: bool) -> tuple[str, bool, bool | None]:
    """Classification, non-isolated flag and, for purely radial and n.p.r.s
    germs, whether their blow-up would be dicritical.  The germ is nonzero,
    singular at 0 and of multiplicity nu; isolated=False runs the test."""
    isolated = isolated or is_isolated_singularity(germ)
    if nu > 1:  # the linear part is zero
        classification = NPRS if isolated and _radial_jet(germ, nu) else NON_REDUCED_OTHER
    else:
        # the cases of classify_linear that decide the class, on numerators
        _, trace, det, scalar = _linear_numerators(
            [f.terms.get(e, ZERO) for f in germ.comps for e in ((1, 0), (0, 1))])
        if scalar:  # _radial_jet at nu = 1; the linear part is nonzero
            classification = PURELY_RADIAL
        elif any(det):  # semisimple or nondiagonal_resonant
            # the two ratios have product 1, so both are positive iff a > 0
            positive = (found := _rational_ratio(trace, det)) is not None and found[0] > 0
            classification = NON_REDUCED_OTHER if positive else REDUCED_HYPERBOLIC
        elif any(trace) and isolated:  # one_zero_eigenvalue
            classification = SADDLE_NODE
        else:
            classification = NON_REDUCED_OTHER
    # both classes have a first jet h.R, so B(1, t) - t A(1, t) = t h(1, t) -
    # t h(1, t) vanishes identically: their blow-up is always dicritical
    would_be = True if classification in (PURELY_RADIAL, NPRS) else None
    return classification, not isolated, would_be


def divisor_singularities(
    blowups: tuple[BlownUpField, BlownUpField], isolated: bool
) -> list[SingularPoint]:
    """Singular points on the exceptional divisor, from the strict transforms
    of a germ in its two charts.

    Chart-1 slopes cover every direction except the vertical axis, which is
    the chart-2 origin, so only chart 1's witness is solved for its roots
    and chart 2 adds its origin alone, when its strict transform vanishes
    there.  When the germ is isolated, so is every point on the divisor (see
    resolve), and the points are classified without a further isolation
    test; otherwise each point is tested on its own.  The strict transform
    never vanishes along the whole divisor: one of its components is not
    divisible by the divisor coordinate.
    """
    one, two = blowups
    p0, q0 = map(_restrict_to_divisor, one.strict.comps)
    if p0.is_zero():
        witness = q0
    elif q0.is_zero():
        witness = p0
    else:
        witness = _univariate_gcd(p0, q0)
    roots, markers = gaussian_roots(witness) if witness.total_degree() else ([], [])
    found = [(one.chart, v, translate_to_point(one.strict, [ZERO, v])) for v, _ in roots]
    if two.strict.vanishes_at_origin():
        found.append((two.chart, ZERO, two.strict))
    points = []
    for chart, value, germ in found:
        nu = germ.mu()
        cls, caveat, would_be = _classify(germ, nu, isolated)
        points.append(SingularPoint(chart, value, None, cls, germ, nu, caveat, would_be))
    # gaussian_roots sorts the roots; the markers follow them, before the chart-2 origin
    points[len(roots):len(roots)] = [
        SingularPoint(one.chart, None, m, UNRESOLVABLE_IRRATIONAL, None, None)
        for m in sorted((m for m, _ in markers), key=lambda m: str(sorted(m.terms.items())))]
    return points


# -- iterated resolution -------------------------------------------------------


@dataclass(frozen=True)
class ResolutionNode:
    germ: VectorFieldJet
    chart_history: tuple[tuple[int, GaussianRational | None], ...]  # None: a marker
    classification: str
    verdict: str  # leaf classification, "blown_up", or "unresolved_depth"
    blowups: tuple[BlownUpField, BlownUpField] | None
    children: tuple["ResolutionNode", ...]
    would_be_dicritical: bool | None = None
    marker: PolySeries | None = None

    def depth(self) -> int:
        return 1 + max((c.depth() for c in self.children), default=0)

    def total_blowups(self) -> int:
        own = 1 if self.blowups is not None else 0
        return own + sum(c.total_blowups() for c in self.children)

    def leaves(self) -> list["ResolutionNode"]:
        if not self.children:
            return [self]
        out = []
        for c in self.children:
            out.extend(c.leaves())
        return out

    def leaf_verdicts(self) -> list[str]:
        return [leaf.verdict for leaf in self.leaves()]


def resolve(
    x: VectorFieldJet,
    max_depth: int = DEFAULT_MAX_DEPTH,
    force_radial: bool = False,
) -> ResolutionNode:
    """Iterated quadratic blow-up of a plane germ with isolated singularity.

    Recurses at every non-reduced singular point with Q(i) coordinates; stops
    at reduced / saddle-node / purely-radial / n.p.r.s leaves or when the
    depth budget runs out (leaving "unresolved_depth" leaves).  Purely radial
    and n.p.r.s points record whether their blow-up would be dicritical but
    are only blown up when force_radial is set.

    Isolation is proved once, at the root, and every node inherits it.  Say
    the strict-transform components P, Q in a chart shared an irreducible
    factor h, other than the divisor coordinate x, vanishing at a point of
    the divisor.  Then h divides A(x, tx) and (B - tA)(x, tx), hence
    B(x, tx), so A and B both vanish on the image of the curve {h = 0}
    under (x, t) -> (x, tx): a curve through 0, against the isolation of
    (A, B) at 0.  The divisor coordinate itself is no common factor, since
    the strict transform divides out its largest common power.  Swapping
    the variables (chart 2) and translating to the point keep isolation, so
    by induction every node of the tree is isolated and is classified
    without a further gcd.
    """
    nu = _require_blowup_input(x)
    if not 1 <= max_depth <= MAX_DEPTH:
        raise GermError(f"max_depth {max_depth} is outside 1..{MAX_DEPTH}, the depth budget")
    if not is_isolated_singularity(x):
        raise GermError("resolve requires an isolated singularity at 0")
    classification, _caveat, would_be = _classify(x, nu, True)
    return _resolve_node(x, classification, would_be, (), max_depth, force_radial)


def _resolve_node(
    germ, classification, would_be, history, budget, force_radial, marker=None
) -> ResolutionNode:
    stop_here = classification in (REDUCED_HYPERBOLIC, SADDLE_NODE, UNRESOLVABLE_IRRATIONAL) or (
        classification in (PURELY_RADIAL, NPRS) and not force_radial
    )
    if stop_here or budget <= 0:
        verdict = classification if stop_here else "unresolved_depth"
        return ResolutionNode(germ, history, classification, verdict, None, (), would_be, marker)
    blowups = strict_transform(germ)
    children = []
    for point in divisor_singularities(blowups, True):
        # a marker keeps the germ it was found on, and (chart, None) as its step
        child_history = history + ((point.chart, point.coordinate),)
        children.append(_resolve_node(
            point.germ or germ, point.classification, point.would_be_dicritical,
            child_history, budget - 1, force_radial, point.marker,
        ))
    return ResolutionNode(
        germ,
        history,
        classification,
        "blown_up",
        blowups,
        tuple(children),
        would_be,
    )
