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

from dataclasses import dataclass
from fractions import Fraction

import sympy

from .gaussian import ZERO, GaussianRational
from .series import (
    GermError,
    PolySeries,
    TruncationError,
    divide_by_variable_power,
    variable_power_dividing,
)
from .fields import VectorFieldJet, radial_field, wedge
from .centralizer import classify_linear

CHART_SLOPE_Y = 1  # (x, y) = (x, t x)
CHART_SLOPE_X = 2  # (x, y) = (t x, x)

DEFAULT_MAX_DEPTH = 12

REDUCED_HYPERBOLIC = "reduced_hyperbolic"
SADDLE_NODE = "saddle_node"
PURELY_RADIAL = "purely_radial"
NPRS = "nprs"
NON_REDUCED_OTHER = "non_reduced_other"
UNRESOLVABLE_IRRATIONAL = "unresolvable_irrational"


def _require_blowup_input(x: VectorFieldJet):
    if x.dim != 2:
        raise GermError("blow-ups are implemented for n=2")
    if not x.is_total:
        raise TruncationError("blow-up needs an exact polynomial field")
    if x.is_zero():
        raise GermError("cannot blow up the zero field")
    if not x.vanishes_at_origin():
        raise GermError("blow-up requires a singular point at the origin")


def _swap_field(x: VectorFieldJet) -> VectorFieldJet:
    """Exchange the two variables and the two components."""

    def swap_vars(f: PolySeries) -> PolySeries:
        return PolySeries(2, {(b, a): c for (a, b), c in f.terms.items()}, f.trunc)

    return VectorFieldJet([swap_vars(x.comps[1]), swap_vars(x.comps[0])])


def blowup_pullback(x: VectorFieldJet, chart: int) -> VectorFieldJet:
    """Total transform in the chosen chart, in (divisor, slope) coordinates.

    Chart 1: A(x, tx) d/dx + [(B - tA)(x, tx) / x] d/dt, the division by x
    being exact for any field vanishing at the origin.
    """
    _require_blowup_input(x)
    if chart == CHART_SLOPE_X:
        return blowup_pullback(_swap_field(x), CHART_SLOPE_Y)
    if chart != CHART_SLOPE_Y:
        raise GermError("chart must be 1 or 2")
    a, b = x.comps
    xv = PolySeries.variable(2, 0)
    tv = PolySeries.variable(2, 1)
    sub = [xv, tv * xv]
    a_up = a.substitute(sub)
    b_up = b.substitute(sub)
    t_comp = divide_by_variable_power(b_up - tv * a_up, 0, 1)
    return VectorFieldJet([a_up, t_comp])


@dataclass(frozen=True)
class DicriticalResult:
    dicritical: bool
    witness: PolySeries  # univariate in the slope coordinate
    nu: int


def dicritical_test(x: VectorFieldJet) -> DicriticalResult:
    """Decide whether the blow-up at 0 is dicritical.

    The witness is W(t) = B_nu(1, t) - t A_nu(1, t) built from the first
    nonzero jet; the blow-up is dicritical iff W vanishes identically, which
    happens exactly when that jet is colinear with the radial field.
    """
    _require_blowup_input(x)
    nu = x.mu()
    lead = x.jet_part(nu)
    terms: dict[tuple[int], GaussianRational] = {}

    def add(power: int, c: GaussianRational):
        s = terms.get((power,), ZERO) + c
        if s.is_zero():
            terms.pop((power,), None)
        else:
            terms[(power,)] = s

    for (a, b), c in lead.comps[1].terms.items():
        add(b, c)
    for (a, b), c in lead.comps[0].terms.items():
        add(b + 1, -c)
    witness = PolySeries(1, terms)
    return DicriticalResult(witness.is_zero(), witness, nu)


@dataclass(frozen=True)
class BlownUpField:
    chart: int
    pullback: VectorFieldJet
    nu: int
    dicritical: bool
    divisor_multiplicity: int  # maximal power of the divisor coordinate dividing
    strict: VectorFieldJet
    multiplicity_flagged: bool  # True when it differs from nu-1 / nu


def strict_transform(x: VectorFieldJet, chart: int) -> BlownUpField:
    """Pullback divided by the maximal power of the divisor coordinate.

    For isolated singularities the exponent is nu - 1 (non-dicritical) or nu
    (dicritical); when the actual maximal dividing power differs (non-isolated
    inputs) the result is flagged rather than guessed.
    """
    pullback = blowup_pullback(x, chart)
    dic = dicritical_test(x)
    power = min(
        variable_power_dividing(c, 0) for c in pullback.comps if not c.is_zero()
    )
    strict = VectorFieldJet(
        [
            c if c.is_zero() else divide_by_variable_power(c, 0, power)
            for c in pullback.comps
        ]
    )
    expected = dic.nu if dic.dicritical else dic.nu - 1
    return BlownUpField(
        chart=chart,
        pullback=pullback,
        nu=dic.nu,
        dicritical=dic.dicritical,
        divisor_multiplicity=power,
        strict=strict,
        multiplicity_flagged=(power != expected),
    )


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

    def sort_token(self):
        coord = self.coordinate.sort_key() if self.coordinate is not None else None
        return (
            self.chart,
            0 if coord is not None else 1,
            coord or (Fraction(0), Fraction(0)),
            "" if self.marker is None else str(sorted(self.marker.terms.items())),
        )


_X, _Y, _T = sympy.symbols("x y t")


def _to_sympy(f: PolySeries, syms):
    """f as a sympy expression in syms (one symbol per variable)."""
    return sympy.Add(*(
        (sympy.Rational(c.re) + sympy.Rational(c.im) * sympy.I)
        * sympy.Mul(*(s**k for s, k in zip(syms, e)))
        for e, c in f.terms.items()
    ))


def _rational_of(expr) -> Fraction:
    r = sympy.Rational(expr)
    return Fraction(int(r.p), int(r.q))


def _from_sympy(poly) -> PolySeries:
    """A univariate sympy Poly over QQ_I as a PolySeries."""
    terms = {}
    for e, c in poly.terms():
        re_part, im_part = c.as_real_imag()
        terms[e] = GaussianRational(_rational_of(re_part), _rational_of(im_part))
    return PolySeries(1, terms)


def _sympy_poly(f: PolySeries):
    return sympy.Poly(_to_sympy(f, (_T,)), _T, domain="QQ_I")


def gaussian_roots(f: PolySeries) -> tuple[list[tuple[GaussianRational, int]], list[tuple[PolySeries, int]]]:
    """Q(i) roots and irreducible residual factors of a univariate polynomial.

    Factors over the Gaussian rationals (square-free reduction included);
    linear factors c1 t + c0 become roots -c0/c1 with multiplicity, anything
    of higher degree is returned verbatim as a marker factor.  A linear f is
    its own factorization and is not handed to sympy.
    """
    if f.dim != 1:
        raise GermError("gaussian_roots expects a univariate polynomial")
    if f.is_zero():
        raise GermError("the zero polynomial has every root")
    if f.total_degree() == 1:
        factors = [(f, 1)]
    else:
        _, sympy_factors = sympy.factor_list(_sympy_poly(f))
        factors = [(_from_sympy(poly), mult) for poly, mult in sympy_factors]
    roots: list[tuple[GaussianRational, int]] = []
    markers: list[tuple[PolySeries, int]] = []
    for factor, mult in factors:
        if factor.total_degree() == 1:
            roots.append((-factor.coefficient((0,)) / factor.coefficient((1,)), mult))
        elif factor.total_degree() > 1:
            markers.append((factor, mult))
    roots.sort(key=lambda rm: rm[0].sort_key())
    return roots, markers


def _restrict_to_divisor(f: PolySeries) -> PolySeries:
    """f(0, t) as a univariate polynomial in the slope coordinate."""
    terms = {(b,): c for (a, b), c in f.terms.items() if a == 0}
    return PolySeries(1, terms)


def is_isolated_singularity(x: VectorFieldJet) -> bool:
    """No common factor of the components vanishing at the origin."""
    if x.dim != 2 or not x.is_total:
        raise GermError("isolation test needs an exact plane field")
    a, b = x.comps
    if a.is_zero() and b.is_zero():
        return False
    g = sympy.gcd(_to_sympy(a, (_X, _Y)), _to_sympy(b, (_X, _Y)), gaussian=True)
    return sympy.simplify(g.subs({_X: 0, _Y: 0})) != 0


def translate_to_point(x: VectorFieldJet, point: list[GaussianRational]) -> VectorFieldJet:
    """Exact affine recentering: the germ of X at the point, seen from 0."""
    if not x.is_total:
        raise TruncationError("translation needs an exact polynomial field")
    images = [
        PolySeries.variable(x.dim, i) + PolySeries.constant(x.dim, point[i])
        for i in range(x.dim)
    ]
    return x.substitute(images, allow_shift=True)


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
    return _classify(germ, is_isolated_singularity(germ))


def _classify(germ: VectorFieldJet, isolated: bool) -> tuple[str, bool]:
    """classify_singularity of a nonzero singular plane germ whose isolation
    is already known."""
    nu = germ.mu()
    m = germ.linear_part_matrix()
    lc = classify_linear(m)
    if nu == 1:
        scalar = (
            m[0][1].is_zero() and m[1][0].is_zero() and m[0][0] == m[1][1]
            and not m[0][0].is_zero()
        )
        if scalar:
            return PURELY_RADIAL, not isolated
    if lc.case in ("semisimple", "nondiagonal_resonant"):
        if lc.ratio_in_positive_rationals():
            return NON_REDUCED_OTHER, not isolated
        return REDUCED_HYPERBOLIC, not isolated
    if lc.case == "one_zero_eigenvalue" and isolated:
        return SADDLE_NODE, False
    if nu is not None and nu > 1 and isolated:
        lead = germ.jet_part(nu)
        if wedge([lead, radial_field(2)]).is_zero():
            return NPRS, False
    return NON_REDUCED_OTHER, not isolated


def divisor_singularities(x: VectorFieldJet) -> list[SingularPoint]:
    """Singular points of the strict transform on the exceptional divisor.

    Chart-1 slopes cover every direction except the vertical axis, which is
    the chart-2 origin; chart-2 points with nonzero slope are duplicates and
    are not listed again.
    """
    blowups = (strict_transform(x, CHART_SLOPE_Y), strict_transform(x, CHART_SLOPE_X))
    return _divisor_points(blowups, is_isolated_singularity(x))


def _divisor_points(
    blowups: tuple[BlownUpField, BlownUpField], isolated: bool
) -> list[SingularPoint]:
    """divisor_singularities from the two strict transforms of a germ.

    When the germ is isolated, so is every point on the divisor (see
    resolve), and the points are classified without a further isolation
    test; otherwise each point is tested on its own.  The strict transform
    never vanishes along the whole divisor: one of its components is not
    divisible by the divisor coordinate.
    """
    points: list[SingularPoint] = []
    for blown in blowups:
        chart = blown.chart
        p0 = _restrict_to_divisor(blown.strict.comps[0])
        q0 = _restrict_to_divisor(blown.strict.comps[1])
        if p0.is_zero():
            witness = q0
        elif q0.is_zero():
            witness = p0
        else:
            witness = _univariate_gcd(p0, q0)
        if witness.total_degree() == 0:
            roots, markers = [], []
        else:
            roots, markers = gaussian_roots(witness)
        for value, _mult in roots:
            if chart == CHART_SLOPE_X and not value.is_zero():
                continue  # seen in chart 1 at slope 1/value
            germ = translate_to_point(blown.strict, [ZERO, value])
            cls, caveat, would_be = _classified(germ, isolated)
            points.append(SingularPoint(chart, value, None, cls, germ, germ.mu(), caveat, would_be))
        if chart == CHART_SLOPE_Y:
            for marker, _mult in markers:
                points.append(SingularPoint(chart, None, marker, UNRESOLVABLE_IRRATIONAL, None, None))
    points.sort(key=SingularPoint.sort_token)
    return points


def _classified(germ: VectorFieldJet, isolated: bool) -> tuple[str, bool, bool | None]:
    """Classification, non-isolated flag and, for purely radial and n.p.r.s
    germs, whether their blow-up would be dicritical.  The germ is nonzero
    and singular at 0; isolated=False means "not known" and runs the test."""
    classification, caveat = _classify(germ, isolated or is_isolated_singularity(germ))
    would_be = None
    if classification in (PURELY_RADIAL, NPRS):
        would_be = dicritical_test(germ).dicritical
    return classification, caveat, would_be


def _univariate_gcd(a: PolySeries, b: PolySeries) -> PolySeries:
    return _from_sympy(sympy.gcd(_sympy_poly(a), _sympy_poly(b)))


# -- iterated resolution -------------------------------------------------------


@dataclass(frozen=True)
class ResolutionNode:
    germ: VectorFieldJet
    chart_history: tuple[tuple[int, GaussianRational], ...]
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
    _require_blowup_input(x)
    if max_depth < 1:
        raise GermError("max_depth must be at least 1")
    if not is_isolated_singularity(x):
        raise GermError("resolve requires an isolated singularity at 0")
    classification, _caveat, would_be = _classified(x, True)
    return _resolve_node(x, classification, would_be, (), max_depth, force_radial)


def _resolve_node(
    germ, classification, would_be, history, budget, force_radial
) -> ResolutionNode:
    stop_here = classification in (REDUCED_HYPERBOLIC, SADDLE_NODE) or (
        classification in (PURELY_RADIAL, NPRS) and not force_radial
    )
    if stop_here:
        return ResolutionNode(
            germ, history, classification, classification, None, (), would_be
        )
    if budget <= 0:
        return ResolutionNode(
            germ, history, classification, "unresolved_depth", None, (), would_be
        )
    blowups = (strict_transform(germ, CHART_SLOPE_Y), strict_transform(germ, CHART_SLOPE_X))
    children = []
    for point in _divisor_points(blowups, True):
        if point.marker is not None:
            children.append(
                ResolutionNode(
                    germ,
                    history + ((point.chart, ZERO),),
                    UNRESOLVABLE_IRRATIONAL,
                    UNRESOLVABLE_IRRATIONAL,
                    None,
                    (),
                    marker=point.marker,
                )
            )
            continue
        child_history = history + ((point.chart, point.coordinate),)
        children.append(_resolve_node(
            point.germ, point.classification, point.would_be_dicritical,
            child_history, budget - 1, force_radial,
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
