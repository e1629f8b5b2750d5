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
    GermError, PolySeries, TruncationError, _product, _trusted, monomial_key, monomials_up_to,
)
from .fields import VectorFieldJet, radial_field

Exponent = tuple[int, ...]

# Kernel solves refuse more unknowns than this before listing a column, and
# resonances more candidate exponents before listing one; a plane normal form
# near this size (x, -y at N = 98) takes under 2 ms, since its resonant
# columns are solved for, not found among all 9,900; a dense field far more.
MAX_UNKNOWNS = 10_000


@dataclass(frozen=True)
class CertifiedJet:
    """A kernel basis element.  The report tuple it sits in says whether it
    is certified, and the report's certified_degree says to which degree."""

    value: object  # VectorFieldJet or PolySeries


@dataclass(frozen=True)
class CentralizerReport:
    field: VectorFieldJet
    max_degree: int
    multiplicity: int
    certified_degree: int
    basis: tuple[CertifiedJet, ...]
    tentative: tuple[CertifiedJet, ...]
    dims: dict[int, int]
    rank_estimate: int | None
    stabilization: str

    def dimension(self) -> int:
        return len(self.basis)

    def basis_fields(self) -> list[VectorFieldJet]:
        return [b.value for b in self.basis]


@dataclass(frozen=True)
class FirstIntegralReport:
    field: VectorFieldJet
    max_degree: int
    multiplicity: int
    certified_degree: int
    basis: tuple[CertifiedJet, ...]
    tentative: tuple[CertifiedJet, ...]
    dims: dict[int, int]

    def dimension(self) -> int:
        return len(self.basis)


def _require_polynomial_field(x: VectorFieldJet, max_degree: int):
    if not x.is_total:
        raise TruncationError("the base field must be an exact polynomial")
    if x.is_zero():
        raise GermError("the zero field has no meaningful kernel")
    if max_degree < 1:
        raise GermError("max_degree must be at least 1")


class _JetKernelProblem:
    """Shared assembly/split logic for ad_X and first-integral kernels.

    Columns are (e, i) labels: the field x^e d/dz_i, or the function x^e when
    i is None."""

    def __init__(self, x: VectorFieldJet, max_degree: int, columns):
        self.dim = x.dim
        self.columns = columns            # unknown labels, graded order
        self.rows = _constraint_rows(x, columns)
        self.horizon = max_degree + x.mu() - 1

    def solve(self) -> tuple[list[linalg.SparseRow], list[linalg.SparseRow]]:
        """(exact, tentative) kernel vectors in RREF, from one elimination.

        Constraint rows are (target slot, monomial) coefficients.  Rows up to
        the horizon give the raw kernel; inserting the rows beyond it into the
        same pivots gives the exact kernel.  A raw vector is tentative when it
        is outside the span of the exact and earlier tentative ones.  When the
        rows beyond the horizon add no pivot (as when there are none), they
        lie in the span of the others: exact = raw, and nothing is tentative."""
        ncols = len(self.columns)
        system = linalg.Echelon(ncols)
        beyond = []
        for (_, e), row in self.rows.items():
            if sum(e) > self.horizon:
                beyond.append(row)
            else:
                system.insert(row)
        raw = linalg.Echelon(ncols, system.kernel()).basis()
        rank = len(system.rows)
        for row in beyond:
            system.insert(row)
        if len(system.rows) == rank:
            return raw, []
        exact = linalg.Echelon(ncols, system.kernel()).basis()
        span = linalg.Echelon(ncols, exact)
        tentative = []
        for v in raw:
            if not linalg.in_span(span, v):
                tentative.append(v)
                span.insert(v)
        return exact, tentative

    def certify(self):
        """Certified jets, tentative jets, and certified count per leading degree."""
        exact, tentative = self.solve()
        dims: dict[int, int] = {}
        for v in exact:
            d = self.column_degree(min(v))
            dims[d] = dims.get(d, 0) + 1

        def jets(vectors):
            return tuple(CertifiedJet(self.value(v)) for v in vectors)

        return jets(exact), jets(tentative), dims

    def column_degree(self, col_idx: int) -> int:
        return sum(self.columns[col_idx][0])


def _check_unknowns(count: int):
    if count > MAX_UNKNOWNS:
        raise GermError(f"{count} unknowns exceed the kernel budget of {MAX_UNKNOWNS}")


def _field_columns(dim: int, max_degree: int) -> list[tuple[Exponent, int]]:
    """The unknowns x^e d/dz_i of a field jet, graded-lex in e, then by i."""
    return [(e, i) for e in monomials_up_to(dim, max_degree) for i in range(dim)]


def _constraint_rows(x: VectorFieldJet, columns) -> dict[tuple[int, Exponent], linalg.SparseRow]:
    """(slot, monomial) -> {column: coeff}: the images of the columns under X.

    [X, x^e d_i] = X(x^e) d_i - x^e sum_k (dX_k/dx_i) d_k, and for a function
    column X(x^e) = sum_j e_j X_j x^(e - u_j): both are X's terms (or its
    partials' terms) shifted and scaled, so no product is formed.  Every
    coefficient is a Gaussian-integer numerator over D, the lcm of X's
    denominators, so a column's image is summed in ints and each entry that
    does not cancel becomes one Q(i) scalar."""
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
    rows: dict[tuple[int, Exponent], linalg.SparseRow] = {}
    for col, (e, i) in enumerate(columns):
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
        for key, (p, q) in image.items():
            if p or q:
                rows.setdefault(key, {})[col] = _reduce(p, q, d)
    return rows


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
        return [(e, i) for e in monomials_up_to(n, max_deg, min_deg) for i in by_target.get((0, 0), ())]
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


def _normal_form_weights(x: VectorFieldJet) -> list[tuple[int, int]] | None:
    """lambda = diag(A), A the linear part of X, as numerators over one
    denominator, when X is in Poincare-Dulac normal form with respect to
    S = sum lambda_i z_i d_i; None otherwise.

    The conditions: X(0) = 0, lambda != 0, A - diag(A) nilpotent (so S is
    the semisimple part of A) and every term c z^e d_i of X resonant,
    <lambda, e> = lambda_i.  Then [S, X] = 0, the kernel systems split into
    blocks by the weight of a column, and only the weight-0 block has a
    kernel (notes/decisions.md, "Normal-form kernels on resonant columns")."""
    dim = x.dim
    if not x.vanishes_at_origin():
        return None
    _, flat = over_common_denominator([c for row in x.linear_part_matrix() for c in row])
    lams = flat[:: dim + 1]
    if not any(map(any, lams)):
        return None
    off = [[(0, 0) if i == j else flat[i * dim + j] for j in range(dim)] for i in range(dim)]
    power = off
    for _ in range(dim):  # off^1, ..., off^dim until one vanishes
        if not any(any(a) for row in power for a in row):
            break
        power = [[_dot(row, col) for col in zip(*off)] for row in power]
    else:
        return None
    if any(w != lams[i] for i, comp in enumerate(x.comps) for w in _weights(lams, comp.terms)):
        return None
    return lams


class _FieldKernel(_JetKernelProblem):
    def __init__(self, x: VectorFieldJet, max_degree: int):
        _check_unknowns(x.dim * comb(max_degree + x.dim, x.dim))
        if lams := _normal_form_weights(x):
            cols = _resonant(lams, lams, max_degree)
        else:
            cols = _field_columns(x.dim, max_degree)
        super().__init__(x, max_degree, cols)

    def value(self, vector) -> VectorFieldJet:
        comps_terms = [dict() for _ in range(self.dim)]
        for col, c in vector.items():
            e, i = self.columns[col]
            comps_terms[i][e] = c
        return VectorFieldJet([_trusted(self.dim, t, None) for t in comps_terms])


class _IntegralKernel(_JetKernelProblem):
    def __init__(self, x: VectorFieldJet, max_degree: int):
        _check_unknowns(comb(max_degree + x.dim, x.dim) - 1)
        if lams := _normal_form_weights(x):
            exps = [e for e, _ in _resonant(lams, [(0, 0)], max_degree, min_deg=1)]
        else:
            exps = monomials_up_to(x.dim, max_degree, min_deg=1)
        super().__init__(x, max_degree, [(e, None) for e in exps])

    def value(self, vector) -> PolySeries:
        return _trusted(self.dim, {self.columns[col][0]: c for col, c in vector.items()}, None)


def ad_kernel(x: VectorFieldJet, max_degree: int) -> CentralizerReport:
    """Certified basis of the bracket kernel at coefficient degree <= N."""
    horizon, basis, tentative, dims, rank_estimate = _certified_centralizer(x, max_degree)
    return CentralizerReport(
        field=x,
        max_degree=max_degree,
        multiplicity=x.mu(),
        certified_degree=horizon,
        basis=basis,
        tentative=tentative,
        dims=dims,
        rank_estimate=rank_estimate,
        stabilization=_stabilization_verdict(x, max_degree, dims),
    )


def centralizer_rank(x: VectorFieldJet, max_degree: int) -> int | None:
    """ad_kernel(x, max_degree).rank_estimate, without the stabilization verdict."""
    return _certified_centralizer(x, max_degree)[-1]


def _certified_centralizer(x: VectorFieldJet, max_degree: int):
    """(horizon, basis, tentative, dims, rank_estimate) of the bracket kernel."""
    _require_polynomial_field(x, max_degree)
    problem = _FieldKernel(x, max_degree)
    basis, tentative, dims = problem.certify()
    rank_estimate = None
    if x.dim == 2 and basis:
        rank_estimate = generic_rank([b.value for b in basis])
    return problem.horizon, basis, tentative, dims, rank_estimate


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
    _require_polynomial_field(x, max_degree)
    problem = _IntegralKernel(x, max_degree)
    basis, tentative, dims = problem.certify()
    return FirstIntegralReport(
        field=x,
        max_degree=max_degree,
        multiplicity=x.mu(),
        certified_degree=problem.horizon,
        basis=basis,
        tentative=tentative,
        dims=dims,
    )


def extendable_jet_dimension(x: VectorFieldJet, max_degree: int, d: int) -> int:
    """Dimension of degree-<=d jets that extend within the degree-N kernel.

    Monotone non-increasing in max_degree for fixed d: deeper truncations add
    constraints that extendable low jets must survive.
    """
    _require_polynomial_field(x, max_degree)
    problem = _FieldKernel(x, max_degree)
    exact_vecs, tentative_vecs = problem.solve()
    truncated = [
        {i: c for i, c in v.items() if problem.column_degree(i) <= d}
        for v in exact_vecs + tentative_vecs
    ]
    return len(linalg.Echelon(len(problem.columns), truncated).rows)


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
    lams = [
        l if isinstance(l, GaussianRational) else GaussianRational(l)
        for l in lambdas
    ]
    n = len(lams)
    count = comb(bound + n, n) - 1 - n
    if count > MAX_UNKNOWNS:
        raise GermError(f"{count} candidate exponents exceed the budget of {MAX_UNKNOWNS}")
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


def _poly2(terms) -> PolySeries:
    return PolySeries(2, terms)


def _vf2(c1_terms, c2_terms) -> VectorFieldJet:
    return VectorFieldJet([_poly2(c1_terms), _poly2(c2_terms)])


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
        step = h.total_degree()
        out = []
        power = PolySeries.constant(2, 1)
        m = 0
        while base_deg + m * step <= max_degree:
            out.append(span_field * power)
            power = power * h
            m += 1
        return out

    if row == 1:
        return TableRow(1, r, (x_dx, x_dy, y_dx, y_dy), 2, 4)
    if row == 2:
        if ratio is None:
            raise GermError("row 2 needs the eigenvalue ratio")
        lam = ratio if isinstance(ratio, GaussianRational) else GaussianRational(ratio)
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
        h = _poly2({(p, q): ONE})
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
        lam = residue if residue is not None else ZERO
        if not isinstance(lam, GaussianRational):
            lam = GaussianRational(lam)
        x = _vf2({(p + 1, 0): ONE}, {(0, 1): ONE, (p, 1): lam})
        gen1 = _vf2({(p + 1, 0): ONE}, {(p, 1): lam})
        return TableRow(8, x, (gen1, y_dy), 2, 2)
    raise GermError(f"table row must be 1..8, got {row}")


def span_matches(
    kernel: list[VectorFieldJet],
    generators: list[VectorFieldJet],
    max_degree: int,
) -> bool:
    """Exact span equality of two families of degree-<=N field jets."""
    if not kernel and not generators:
        return True
    cols = _field_columns((kernel or generators)[0].dim, max_degree)
    index = {label: k for k, label in enumerate(cols)}

    def vec(f: VectorFieldJet):
        v = [ZERO] * len(cols)
        for i, comp in enumerate(f.comps):
            for e, c in comp.terms.items():
                v[index[(e, i)]] = c
        return v

    return linalg.span_equal([vec(f) for f in kernel], [vec(g) for g in generators], len(cols))
