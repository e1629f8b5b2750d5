"""Jet-space kernels of ad_X and X( ), resonances, linear classification.

The centralizer solver works in the monomial-field basis: unknowns are the
coefficients of a field Y of coefficient degree <= N, constraints are the
coefficients of [X, Y] in every degree that the N-jet of Y fully determines,
namely all degrees <= N + mu(X) - 1.  Solutions split in two:

  * certified basis vectors commute with X identically (exact polynomial
    members of the centralizer, hence honest jets of it);
  * tentative vectors only satisfy the visible constraints -- their bracket
    first fails beyond the certified degree, and whether they extend to the
    germ level is unknown at this truncation.

The two kinds are never mixed; dimension tables, rank and stabilization
verdicts are computed from the certified part only.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb
from operator import add, mul

from . import linalg
from .gaussian import ONE, ZERO, GaussianRational, _reduce, over_common_denominator
from .series import (
    DimensionMismatchError, Exponent, GermError, PolySeries, TruncationError, _coerce_scalar,
    _product, _trusted, monomial_key, monomials_up_to,
)
from .fields import VectorFieldJet, radial_field


@dataclass(frozen=True)
class CertifiedJet:
    """A kernel basis element.  The report tuple it sits in says whether it
    is certified, and the report's certified_degree says to which degree."""

    value: object  # VectorFieldJet or PolySeries


@dataclass(frozen=True)
class _KernelReport:
    """A kernel at coefficient degree <= max_degree: its certified basis, its
    tentative vectors, and the certified count per leading degree."""

    field: VectorFieldJet
    max_degree: int
    multiplicity: int
    certified_degree: int
    basis: tuple[CertifiedJet, ...]
    tentative: tuple[CertifiedJet, ...]
    dims: dict[int, int]

    def dimension(self) -> int:
        return len(self.basis)


@dataclass(frozen=True)
class CentralizerReport(_KernelReport):
    rank_estimate: int | None
    stabilization: str

    def basis_fields(self) -> list[VectorFieldJet]:
        return [b.value for b in self.basis]


class FirstIntegralReport(_KernelReport):
    """Nonconstant jets f, f(0) = 0, with X(f) = 0."""


def _field_columns(dim: int, max_degree: int) -> list[tuple[Exponent, int]]:
    """The unknowns x^e d/dz_i of a field jet, graded-lex in e, then by i."""
    return [(e, i) for e in monomials_up_to(dim, max_degree) for i in range(dim)]


def _columns(x: VectorFieldJet, max_degree: int, functions: bool) -> list[tuple[Exponent, int | None]]:
    """The unknowns of a kernel, highest degree first: the resonant x^e d/dz_i
    of a field jet, or with functions the resonant x^e, e != 0, labelled
    (e, None).  Every column is resonant when S = 0.  An input that is not an
    exact polynomial, or whose unknowns exceed the budget, is refused before
    any column is listed."""
    if not x.is_total:
        raise TruncationError("the base field must be an exact polynomial")
    if x.is_zero():
        raise GermError("the zero field has no meaningful kernel")
    if max_degree < 1:
        raise GermError("max_degree must be at least 1")
    count = comb(max_degree + x.dim, x.dim)
    linalg.require_unknowns(count - 1 if functions else x.dim * count)
    lams = _normal_form_weights(x)
    if functions:
        return [(e, None) for e, _ in _resonant(lams, [(0, 0)], max_degree, min_deg=1)][::-1]
    return _resonant(lams, lams, max_degree)[::-1]


def _column_images(x: VectorFieldJet, columns) -> tuple[int, list[dict]]:
    """(D, images): each column's image under X, {(slot, monomial): (re, im)}
    holding Gaussian-integer numerators over D, the lcm of X's denominators
    (an entry that cancels stays, as (0, 0)).

    [X, x^e d_i] = X(x^e) d_i - x^e sum_k (dX_k/dx_i) d_k, and for a function
    column X(x^e) = sum_j e_j X_j x^(e - u_j): both are X's terms (or its
    partials' terms) shifted and scaled, so no product is formed and each
    image is summed in ints."""
    dim = x.dim
    d, nums = over_common_denominator([c for comp in x.comps for c in comp.terms.values()])
    nums = iter(nums)
    terms = [[(a, next(nums)) for a in comp.terms] for comp in x.comps]
    # neg_partials[i][k]: the terms of -dX_k/dx_i
    neg_partials = [
        [[(a[:i] + (a[i] - 1,) + a[i + 1:], (-a[i] * p, -a[i] * q)) for a, (p, q) in t if a[i]]
         for t in terms]
        for i in range(dim)
    ]
    images = []
    for e, i in columns:
        image: dict[tuple[int, Exponent], tuple[int, int]] = {}
        slot = 0 if i is None else i
        for j, ej in enumerate(e):
            if ej:
                shift = e[:j] + (ej - 1,) + e[j + 1:]
                for a, (p, q) in terms[j]:
                    key = (slot, tuple(map(add, a, shift)))
                    s, t = image.get(key, (0, 0))
                    image[key] = (s + ej * p, t + ej * q)
        if i is not None:
            for k, dk in enumerate(neg_partials[i]):
                for b, (p, q) in dk:
                    key = (k, tuple(map(add, b, e)))
                    s, t = image.get(key, (0, 0))
                    image[key] = (s + p, t + q)
        images.append(image)
    return d, images


def _kernel(x: VectorFieldJet, max_degree: int, columns):
    """(horizon, exact, tentative) kernel vectors in canonical (graded-lex)
    RREF, from one elimination.

    Constraint rows are the (slot, monomial) coefficients of the columns'
    images.  Rows up to the horizon give the raw kernel; inserting the rows
    beyond it into the same pivots gives the exact kernel.  A raw vector is
    tentative when it is outside the span of the exact and earlier tentative
    ones; when the rows beyond the horizon add no pivot, exact = raw.

    The columns come highest degree first, so each free column's kernel
    vector leads, in graded-lex order, with that column and is zero at every
    other free one: Echelon.kernel() reversed is the canonical RREF.  Rows go
    in by leading column, the last (lowest degree) first: a new pivot then
    seldom sits in an older pivot row, and pivot rows stay short
    (notes/decisions.md, "Kernels eliminated highest degree first")."""
    horizon = max_degree + x.mu() - 1
    d, images = _column_images(x, columns)
    rows: dict[tuple[int, Exponent], linalg.SparseRow] = {}
    for col, image in enumerate(images):
        for key, (p, q) in image.items():
            if p or q:
                rows.setdefault(key, {})[col] = _reduce(p, q, d)
    system = linalg.Echelon(len(columns))
    beyond = []
    # each row was created at its leading column: reversed, the rows go in by
    # leading column, the last first
    for (_, e), row in reversed(rows.items()):
        if sum(e) > horizon:
            beyond.append(row)
        else:
            system.insert(row)
    exact = raw = system.kernel()[::-1]
    rank = len(system.rows)
    for row in beyond:
        system.insert(row)
    tentative = []
    if len(system.rows) > rank:
        exact = system.kernel()[::-1]
        span = linalg.Echelon(len(columns), exact)
        tentative = [v for v in raw if span.insert(v)]
    _check_residuals(images, exact)
    return horizon, exact, tentative


def _check_residuals(images, vectors):
    """Raise unless every row, past the horizon too, annihilates every vector:
    sum_c v_c image_c, in Gaussian-integer numerators, apart from Echelon."""
    for v in vectors:
        _, nums = over_common_denominator(v.values())
        total: dict[tuple[int, Exponent], tuple[int, int]] = {}
        for col, (a, b) in zip(v, nums):
            for key, (p, q) in images[col].items():
                s, t = total.get(key, (0, 0))
                total[key] = (s + a * p - b * q, t + a * q + b * p)
        if any(s or t for s, t in total.values()):
            raise GermError("internal error: a certified kernel vector fails a constraint")


def _certify(x: VectorFieldJet, max_degree: int, functions: bool = False):
    """(horizon, certified jets, tentative jets, certified count per degree),
    in the reports' field order; a vector's degree is that of its canonical
    leading column, max(v)."""
    columns = _columns(x, max_degree, functions)
    horizon, exact, tentative = _kernel(x, max_degree, columns)
    dims: dict[int, int] = {}
    for v in exact:
        d = sum(columns[max(v)][0])
        dims[d] = dims.get(d, 0) + 1

    def jet(v) -> CertifiedJet:
        terms = [{} for _ in range(x.dim)]
        for col, c in v.items():
            e, i = columns[col]
            terms[i or 0][e] = c
        if functions:
            return CertifiedJet(_trusted(x.dim, terms[0], None))
        return CertifiedJet(VectorFieldJet([_trusted(x.dim, t, None) for t in terms]))

    return horizon, tuple(map(jet, exact)), tuple(map(jet, tentative)), dims


def _weights(lams: list[tuple[int, int]], exps) -> list[tuple[int, int]]:
    """<lambda, e> for each exponent e, lambda written as Gaussian-integer
    numerators (re, im)."""
    re, im = zip(*lams)
    return [(sum(map(mul, e, re)), sum(map(mul, e, im))) for e in exps]


def _resonant(lams, targets, max_deg: int, min_deg: int = 0) -> list[tuple[Exponent, int]]:
    """The pairs (e, i) with <lambda, e> = targets[i] and min_deg <= |e| <=
    max_deg, graded-lex in e, then by i.  lambda and the targets are
    Gaussian-integer numerators (re, im) over one denominator.

    The equation is solved for e_k, k the last index with lambda_k != 0: each
    choice of the other exponents leaves one candidate, O(N^(n-1)) of them
    rather than O(N^n) monomials to weigh.  With lambda = 0 every exponent
    solves target 0 and none solves another."""
    n = len(lams)
    nonzero = [k for k, l in enumerate(lams) if any(l)]
    by_target: dict[tuple[int, int], list[int]] = {}
    for i, t in enumerate(targets):
        by_target.setdefault(t, []).append(i)
    if not nonzero:
        idx = by_target.get((0, 0), ())
        return [(e, i) for e in monomials_up_to(n, max_deg, min_deg) for i in idx]
    k = nonzero[-1]
    a, b = lams[k]
    norm = a * a + b * b
    others = lams[:k] + lams[k + 1:]
    re, im = [l[0] for l in others], [l[1] for l in others]
    found = []
    for h in monomials_up_to(n - 1, max_deg):
        s, t, d = sum(map(mul, h, re)), sum(map(mul, h, im)), sum(h)
        for (p, q), idx in by_target.items():
            # e_k = (p - s + i (q - t)) / lambda_k: real part over |lambda_k|^2
            # of (p - s + i (q - t)) * conj(lambda_k), whose imaginary part is 0
            r, u = p - s, q - t
            if u * a == r * b:
                ek, rest = divmod(r * a + u * b, norm)
                if not rest and ek >= 0 and min_deg <= d + ek <= max_deg:
                    found.extend((h[:k] + (ek,) + h[k:], i) for i in idx)
    found.sort(key=lambda c: (sum(c[0]), c[0][::-1], c[1]))
    return found


def _dot(u, v) -> tuple[int, int]:
    """sum u_k v_k over Gaussian integers written as (re, im) pairs."""
    pairs = list(zip(u, v))
    return sum(a * c - b * d for (a, b), (c, d) in pairs), sum(a * d + b * c for (a, b), (c, d) in pairs)


def _normal_form_weights(x: VectorFieldJet) -> list[tuple[int, int]]:
    """lambda = diag(A), A the linear part of X, as numerators over one
    denominator, when X is in Poincare-Dulac normal form with respect to
    S = sum lambda_i z_i d_i; the zero vector otherwise, since every field is
    in normal form for S = 0.

    The conditions: X(0) = 0, A - diag(A) nilpotent (so S is the semisimple
    part of A) and every term c z^e d_i of X resonant, <lambda, e> =
    lambda_i.  Then [S, X] = 0, the kernel systems split into blocks by the
    weight of a column, and only the weight-0 block has a kernel
    (notes/decisions.md, "Normal-form kernels on resonant columns").  For
    S = 0 every column has weight 0: one block, every column kept."""
    dim = x.dim
    zero = [(0, 0)] * dim
    if not x.vanishes_at_origin():
        return zero
    _, flat = over_common_denominator([c for row in x.linear_part_matrix() for c in row])
    lams = flat[:: dim + 1]
    off = [[(0, 0) if i == j else flat[i * dim + j] for j in range(dim)] for i in range(dim)]
    power = off
    for _ in range(dim):  # off^1, ..., off^dim until one vanishes
        if not any(any(a) for row in power for a in row):
            break
        power = [[_dot(row, col) for col in zip(*off)] for row in power]
    else:
        return zero
    if any(w != lams[i] for i, comp in enumerate(x.comps) for w in _weights(lams, comp.terms)):
        return zero
    return lams


def ad_kernel(x: VectorFieldJet, max_degree: int) -> CentralizerReport:
    """Certified basis of the bracket kernel at coefficient degree <= N."""
    horizon, basis, tentative, dims, rank = _certified_centralizer(x, max_degree)
    verdict = _stabilization_verdict(x, max_degree, dims)
    return CentralizerReport(x, max_degree, x.mu(), horizon, basis, tentative, dims, rank, verdict)


def centralizer_rank(x: VectorFieldJet, max_degree: int) -> int | None:
    """ad_kernel(x, max_degree).rank_estimate, without the stabilization verdict.
    Generic rank is defined for n=2 only: any other field is refused first."""
    if x.dim != 2:
        raise GermError("generic rank is defined for n=2 only")
    return _certified_centralizer(x, max_degree)[-1]


def _certified_centralizer(x: VectorFieldJet, max_degree: int):
    """(horizon, basis, tentative, dims, rank_estimate) of the bracket kernel."""
    horizon, basis, tentative, dims = _certify(x, max_degree)
    rank_estimate = generic_rank([b.value for b in basis]) if x.dim == 2 and basis else None
    return horizon, basis, tentative, dims, rank_estimate


def _stabilization_verdict(x, max_degree, dims) -> str:
    if max_degree < 3:
        return "undetermined"
    top = [dims.get(d, 0) for d in range(max_degree - 2, max_degree + 1)]
    if all(c == 0 for c in top):
        return "stable"
    if all(c > 0 for c in top):
        integrals = first_integral_kernel(x, max_degree)
        if integrals.dimension() > 0:
            return "growing"
    return "undetermined"


def first_integral_kernel(x: VectorFieldJet, max_degree: int) -> FirstIntegralReport:
    """Certified basis of nonconstant jets f, f(0)=0, with X(f) = 0."""
    return FirstIntegralReport(x, max_degree, x.mu(), *_certify(x, max_degree, functions=True))


def generic_rank(basis: list[VectorFieldJet]) -> int:
    """Largest r in {1, 2} with r generically independent members (plane case)."""
    if not basis:
        raise GermError("generic_rank of an empty basis")
    if any(b.dim != 2 for b in basis):
        raise GermError("generic_rank is implemented for n=2")
    # a and b are dependent when their wedge a_1 b_2 - a_2 b_1 vanishes (mod
    # the pair's truncation): compare the two products, each usually a shift
    # and scale of one-term components, with no sum set up
    for a, b in combinations(basis, 2):
        (a1, a2), (b1, b2) = a.comps, b.comps
        if _product(a1, b2).terms != _product(a2, b1).terms:
            return 2
    return 1


# -- resonances --------------------------------------------------------------


@dataclass(frozen=True)
class Resonance:
    """lambda_target = sum_j exponents[j] * lambda_j with |exponents| >= 2.

    target is 1-based to match the usual indexing of eigenvalue lists.
    """

    target: int
    exponents: Exponent


def resonances(lambdas: list[GaussianRational], bound: int) -> tuple[Resonance, ...]:
    """All resonance relations with 2 <= |k| <= bound."""
    if bound < 2:
        raise GermError("resonance bound must be at least 2")
    lams = [_coerce_scalar(l) for l in lambdas]
    n = len(lams)
    linalg.require_unknowns(comb(bound + n, n) - 1 - n, "candidate exponents")
    _, nums = over_common_denominator(lams)
    found = [Resonance(i + 1, k) for k, i in _resonant(nums, nums, bound, min_deg=2)]
    found.sort(key=lambda r: (r.target, monomial_key(r.exponents)))
    return tuple(found)


# -- the reference table of plane linear / saddle-node centralizers -----------


@dataclass(frozen=True)
class TableRow:
    row: int
    field: VectorFieldJet
    generators: tuple[VectorFieldJet, ...]
    rank: int
    dimension: int | None  # None means infinite

    def generator_jets(self, max_degree: int) -> list[VectorFieldJet]:
        return [g.truncated(max_degree).as_total() for g in self.generators]


def _vf2(c1_terms, c2_terms) -> VectorFieldJet:
    return VectorFieldJet([PolySeries(2, c1_terms), PolySeries(2, c2_terms)])


def linear_centralizer_table(
    row: int,
    max_degree: int = 6,
    ratio: GaussianRational | None = None,
    p: int | None = None,
    q: int | None = None,
    n: int | None = None,
    residue: GaussianRational | None = None,
) -> TableRow:
    """Reference centralizer data for the normal forms of plane linear fields
    and the formal saddle-node.

    Rows: 1 radial; 2 diagonal with non-degenerate ratio; 3 diagonal ratio
    -p/q; 4 x d/dx; 5 diagonal ratio n >= 2; 6 nilpotent x d/dy; 7 the
    non-diagonal resonant case; 8 the saddle-node normal form.  Generators of
    infinite-dimensional rows come back truncated at max_degree.
    """
    x_dx = _vf2({(1, 0): ONE}, {})
    y_dy = _vf2({}, {(0, 1): ONE})
    x_dy = _vf2({}, {(1, 0): ONE})
    y_dx = _vf2({(0, 1): ONE}, {})
    d_y = _vf2({}, {(0, 0): ONE})
    r = radial_field(2)

    def module(span_field: VectorFieldJet, h: PolySeries) -> list[VectorFieldJet]:
        # jets of C{h}.V with coefficient degree <= max_degree
        base_deg = max(c.total_degree() for c in span_field.comps if not c.is_zero())
        return [span_field * h**m for m in range((max_degree - base_deg) // h.total_degree() + 1)]

    if row == 1:
        return TableRow(1, r, (x_dx, x_dy, y_dx, y_dy), 2, 4)
    if row == 2:
        if ratio is None:
            raise GermError("row 2 needs the eigenvalue ratio")
        lam = _coerce_scalar(ratio)
        if lam.is_rational():
            fr = lam.re
            bad = fr <= 0 or fr.denominator == 1 or fr.numerator == 1
            if bad:
                raise GermError("row 2 excludes ratios in Q<=0, N and 1/N")
        x = x_dx + y_dy * lam
        return TableRow(2, x, (x_dx, y_dy), 2, 2)
    if row == 3:
        if not (p and q) or p < 1 or q < 1:
            raise GermError("row 3 needs positive integers p, q")
        lam = GaussianRational(Fraction(-p, q))
        x = x_dx + y_dy * lam
        h = PolySeries(2, {(p, q): ONE})
        gens = tuple(module(x_dx, h) + module(y_dy, h))
        return TableRow(3, x, gens, 2, None)
    if row == 4:
        y = PolySeries.variable(2, 1)
        gens = tuple(module(x_dx, y) + module(d_y, y))
        return TableRow(4, x_dx, gens, 2, None)
    if row == 5:
        if n is None or n < 2:
            raise GermError("row 5 needs an integer ratio n >= 2")
        x = x_dx + y_dy * n
        resonant = _vf2({}, {(n, 0): ONE})
        return TableRow(5, x, (x_dx, y_dy, resonant), 2, 3)
    if row == 6:
        xv = PolySeries.variable(2, 0)
        gens = tuple(module(r, xv) + module(d_y, xv))
        return TableRow(6, x_dy, gens, 2, None)
    if row == 7:
        x = _vf2({(1, 0): ONE}, {(1, 0): ONE, (0, 1): ONE})
        return TableRow(7, x, (r, x_dy), 2, 2)
    if row == 8:
        if p is None or p < 1:
            raise GermError("row 8 needs an integer p >= 1")
        lam = ZERO if residue is None else _coerce_scalar(residue)
        x = _vf2({(p + 1, 0): ONE}, {(0, 1): ONE, (p, 1): lam})
        gen1 = _vf2({(p + 1, 0): ONE}, {(p, 1): lam})
        return TableRow(8, x, (gen1, y_dy), 2, 2)
    raise GermError(f"table row must be 1..8, got {row}")


def span_matches(
    kernel: list[VectorFieldJet],
    generators: list[VectorFieldJet],
    max_degree: int,
) -> bool:
    """Exact span equality of two families of degree-<=N field jets in one
    dimension; a term above degree N is refused, not dropped."""
    fields = [*kernel, *generators]
    if not fields:
        return True
    dim = fields[0].dim
    index = {label: k for k, label in enumerate(_field_columns(dim, max_degree))}

    def echelon(family) -> dict[int, linalg.SparseRow]:
        span = linalg.Echelon(len(index))
        for f in family:
            if f.dim != dim:
                raise DimensionMismatchError(f"dimension {f.dim} vs {dim}")
            if any(c.total_degree() > max_degree for c in f.comps):
                raise GermError(f"a term above degree {max_degree}")
            span.insert({index[(e, i)]: c for i, comp in enumerate(f.comps) for e, c in comp.terms.items()})
        return span.rows

    return echelon(kernel) == echelon(generators)
