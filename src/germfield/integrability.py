"""Integrability identities: integrating factors, dual closed forms,
logarithmic decompositions, separatrix and first-integral verification, and
commuting pairs from the Cauchy-Riemann construction.

All checks are exact polynomial identities after clearing denominators, so a
True answer is a proof at the polynomial level and a False answer comes with
the offending residual.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, prod
from operator import add

from .gaussian import GaussianRational, _reduce, over_common_denominator
from .series import (
    Exponent, GermError, PolySeries, TruncationError, _combination, _trusted, monomial_key,
    monomials_up_to, poly_divides,
)
from . import linalg
from .fields import OneFormJet, VectorFieldJet, wedge


@dataclass(frozen=True)
class MeromorphicRatio:
    """A quotient of exact polynomials; equality by cross-multiplication."""

    numerator: PolySeries
    denominator: PolySeries

    def __post_init__(self):
        if not (self.numerator.is_total and self.denominator.is_total):
            raise GermError("meromorphic ratios need total polynomials")
        if self.denominator.is_zero():
            raise ZeroDivisionError("zero denominator in meromorphic ratio")

    def equals(self, other: "MeromorphicRatio") -> bool:
        return (self.numerator * other.denominator).jet_equal(
            other.numerator * self.denominator
        )


@dataclass(frozen=True)
class RationalOneForm:
    """numerator / denominator with a OneFormJet numerator."""

    form: OneFormJet
    denominator: PolySeries

    def pairing(self, x: VectorFieldJet) -> MeromorphicRatio:
        return MeromorphicRatio(self.form.apply(x), self.denominator)


def closedness_check(omega: OneFormJet, g: PolySeries) -> tuple[bool, PolySeries]:
    """Is omega/g closed?  Tests the cleared identity g d(omega) = dg ^ omega.

    Returns (verdict, residual) where the residual is the dx^dy coefficient
    of g d(omega) - dg ^ omega; it vanishes exactly when the check passes.
    """
    if omega.dim != 2:
        raise GermError("closedness_check is n=2 only")
    if g.is_zero():
        raise ZeroDivisionError("zero denominator in closedness_check")
    p, q = omega.coeffs
    residual = _combination([(1, g, q, 0), (-1, g, p, 1), (-1, q, g, 0), (1, p, g, 1)])
    return residual.is_zero(), residual


def integrating_factor_check(x: VectorFieldJet, g: PolySeries) -> bool:
    """X(g) = (div X) g, the exact certificate that dual_form(X)/g is closed;
    jets are refused, as the terms they do not know can refute it."""
    if not (x.is_total and g.is_total):
        raise TruncationError("integrating_factor_check needs an exact field and factor")
    if g.is_zero():
        raise ZeroDivisionError("zero integrating factor candidate")
    div_g = [(-1, g, c, i) for i, c in enumerate(x.comps)]
    return _combination(x._apply_pairs(g) + div_g).is_zero()


def meromorphic_first_integral_check(x: VectorFieldJet, f: MeromorphicRatio) -> bool:
    """X(P/Q) = 0, tested as Q X(P) - P X(Q) = 0 (a truncated X is refused)."""
    if not x.is_total:
        raise TruncationError("meromorphic_first_integral_check needs an exact field")
    p, q = f.numerator, f.denominator
    xp, xq = (_combination(x._apply_pairs(h)) for h in (p, q))
    return _combination([(1, q, xp), (-1, p, xq)]).is_zero()


def invariance_check(x: VectorFieldJet, f: PolySeries) -> bool:
    """Is the curve (f = 0) a separatrix, i.e. does f divide X(f)?"""
    if f.is_zero():
        raise GermError("invariance_check needs a nonzero polynomial")
    if not f.constant_term().is_zero():
        raise GermError("a separatrix equation must vanish at the origin")
    ok, _ = poly_divides(f, x.apply(f))
    return ok


def dual_pair(x1: VectorFieldJet, x2: VectorFieldJet) -> tuple[RationalOneForm, RationalOneForm]:
    """The unique rational 1-forms with alpha(x1)=1, alpha(x2)=0 and
    beta(x1)=0, beta(x2)=1 (plane case, generically independent pair).

    With g the wedge coefficient: alpha = (x2_2 dx - x2_1 dy)/g and
    beta = (-x1_2 dx + x1_1 dy)/g; when the pair commutes both forms are
    closed with common denominator g.
    """
    if x1.dim != 2 or x2.dim != 2:
        raise GermError("dual_pair is n=2 only")
    g = wedge([x1, x2])
    if g.is_zero():
        raise GermError("dual_pair needs a generically independent pair")
    alpha = RationalOneForm(OneFormJet([x2.comps[1], -x2.comps[0]]), g)
    beta = RationalOneForm(OneFormJet([-x1.comps[1], x1.comps[0]]), g)
    return alpha, beta


@dataclass(frozen=True)
class LogDecomposition:
    """omega/g = sum_j residues[j] d(factors[j])/factors[j] + d(phi / D)
    with D the product of factors[j]^(multiplicities[j]-1)."""

    factors: tuple[PolySeries, ...]
    multiplicities: tuple[int, ...]
    residues: tuple[GaussianRational, ...]
    phi: PolySeries

    def reconstruct_cleared(self, unit: PolySeries) -> OneFormJet:
        """The decomposed form times g = unit * prod_j factors[j]^multiplicities[j],
        organized to stay polynomial."""
        return self._cleared(_quotients(self.factors, self.multiplicities, unit))

    def _cleared(self, quotients) -> OneFormJet:
        """Component i is sum_j lam_j cof_j df_j/dz_i + q dphi/dz_i
        - sum_j (k_j - 1) phi (q/f_j) df_j/dz_i, one sum of products."""
        cofs, q, q_over = quotients
        scaled = [cof * lam for cof, lam in zip(cofs, self.residues)]
        drifts = [
            (1 - k, self.phi * h, f)
            for f, k, h in zip(self.factors, self.multiplicities, q_over) if k > 1
        ]
        return OneFormJet([
            _combination(
                [(1, s, f, i) for s, f in zip(scaled, self.factors)] + [(1, q, self.phi, i)]
                + [(k, p, f, i) for k, p, f in drifts])
            for i in range(q.dim)
        ])


@dataclass(frozen=True)
class LogDecompositionResult:
    success: bool
    decomposition: LogDecomposition | None
    residual: OneFormJet | None


def _quotients(flist, mults, unit: PolySeries):
    """(cofactors, q, q_over) with cofactors[j] = unit * P / f_j, q = unit
    * f_1 ... f_n and q_over[j] = q / f_j, where P = f_1^k_1 ... f_n^k_n.
    Products only: q / f_j is a prefix of unit, f_1, ..., f_n times a suffix,
    and unit * P / f_j is q / f_j times prod_l f_l^(k_l - 1)."""
    one = PolySeries.constant(unit.dim, 1)
    prefix, suffix = [unit], [one]
    for f, h in zip(flist[:-1], reversed(flist[1:])):
        prefix.append(prefix[-1] * f)
        suffix.insert(0, suffix[0] * h)
    q_over = [a * b for a, b in zip(prefix, suffix)]
    reduced = prod((f ** (k - 1) for f, k in zip(flist, mults) if k > 1), start=one)
    return [reduced * h for h in q_over], q_over[0] * flist[0], q_over


def log_decomposition(
    omega: OneFormJet,
    g: PolySeries,
    factors: list[tuple[PolySeries, int]],
    phi_degree_bound: int | None = None,
) -> LogDecompositionResult:
    """Solve omega/g = sum_j lambda_j df_j/f_j + d(phi / prod f_j^(k_j - 1)).

    The factor list is caller-supplied and verified against g (up to a unit)
    before solving; residues and phi come from one exact linear solve on the
    cleared-denominator identity, free parameters pinned to zero.  The search
    space for phi is every monomial of total degree <= phi_degree_bound
    (default: the total degree of g).  A truncated omega is refused with
    TruncationError: the terms it does not know can refute any answer.
    """
    if omega.dim != 2:
        raise GermError("log_decomposition is n=2 only")
    if not factors:
        raise GermError("log_decomposition needs at least one factor")
    if not all(c.is_total for c in omega.coeffs):
        raise TruncationError("log_decomposition needs an exact form, not a jet")
    if any(k < 1 for _, k in factors):
        raise GermError("factor multiplicities must be >= 1")
    if phi_degree_bound is not None and phi_degree_bound < 0:
        raise GermError("the phi degree bound must be >= 0")
    dim = omega.dim
    flist = [f for f, _ in factors]
    mults = [k for _, k in factors]
    one = PolySeries.constant(dim, 1)
    cofs, q, q_over = _quotients(flist, mults, one)
    ok, unit = poly_divides(cofs[0] * flist[0], g)
    if not ok or unit.constant_term().is_zero():
        raise GermError("g is not a unit times the claimed factorization")
    if unit != one:  # g = unit * prod: every quotient carries the unit
        cofs, q, q_over = [unit * c for c in cofs], unit * q, [unit * h for h in q_over]
    if phi_degree_bound is None:
        phi_degree_bound = g.total_degree()

    # (component, monomial) -> {column: coefficient} of the cleared identity,
    # with omega at column ncols; columns are the residues, then phi's
    # coefficients.  Residue column j is cof_j df_j; phi column x^m is
    # m_i x^(m - u_i) q - x^m D_i with D_i = sum_j (k_j - 1) (q/f_j) df_j/dz_i,
    # shifts and scales of q and D_i with no product.
    phi_monomials = monomials_up_to(dim, phi_degree_bound)
    n, ncols = len(flist), len(flist) + len(phi_monomials)
    rows: dict[tuple[int, Exponent], linalg.SparseRow] = {}
    for j, (cof, f) in enumerate(zip(cofs, flist)):
        for i in range(dim):
            for e, c in _combination([(1, cof, f, i)]).terms.items():
                rows.setdefault((i, e), {})[j] = c
    drifts = [(1 - k, h, f) for f, k, h in zip(flist, mults, q_over) if k > 1]
    minus_d = [_combination([(*t, i) for t in drifts]).terms if drifts else {}
               for i in range(dim)]
    for col, m in enumerate(phi_monomials, n):
        for i in range(dim):
            image = {}
            if mi := m[i]:
                shift = m[:i] + (mi - 1,) + m[i + 1:]
                image = {tuple(map(add, e, shift)): c * mi for e, c in q.terms.items()}
            for e, c in minus_d[i].items():
                key = tuple(map(add, e, m))
                image[key] = image[key] + c if key in image else c
            for key, c in image.items():
                if c:
                    rows.setdefault((i, key), {})[col] = c
    for i, comp in enumerate(omega.coeffs):
        for e, c in comp.terms.items():
            rows.setdefault((i, e), {})[ncols] = c
    # the pseudo-solution of an inconsistent system depends on the row order
    order = sorted(rows, key=lambda r: (r[0], monomial_key(r[1])))
    solution, consistent = linalg.solve([rows[r] for r in order], ncols)
    phi = PolySeries(dim, {e: c for e, c in zip(phi_monomials, solution[n:]) if c})
    decomposition = LogDecomposition(tuple(flist), tuple(mults), tuple(solution[:n]), phi)
    # the check rebuilds the form from the decomposition, not from the columns
    cleared = decomposition._cleared((cofs, q, q_over))
    if not consistent:
        # deterministic pseudo-solution so the residual is reproducible
        residual = OneFormJet([a - b for a, b in zip(omega.coeffs, cleared.coeffs)])
        return LogDecompositionResult(False, None, residual)
    if cleared.coeffs != omega.coeffs:
        raise GermError("internal error: reconstruction failed after solve")
    return LogDecompositionResult(True, decomposition, None)


def cauchy_riemann_pair(f: PolySeries, max_degree: int) -> tuple[VectorFieldJet, VectorFieldJet]:
    """Split f(x + i y) = u + i v and return the commuting pair
    X = u d/dx + v d/dy, Y = v d/dx - u d/dy, truncated at max_degree.

    Written in closed form: c (x + i y)^k = sum_j C(k, j) c i^j x^(k-j) y^j,
    so the x^(k-j) y^j coefficient of u is C(k, j) Re(c i^j) and that of v is
    C(k, j) Im(c i^j).  Both come out rational, and the Cauchy-Riemann
    equations make [X, Y] vanish identically.
    """
    if f.dim != 1:
        raise GermError("cauchy_riemann_pair expects a one-variable series")
    if max_degree < 0:
        raise ValueError("truncation degree must be >= 0")
    n = max_degree if f.trunc is None else min(f.trunc, max_degree)
    d, nums = over_common_denominator(f.terms.values())
    u, v = {}, {}
    for ((k,), (a, b)) in zip(f.terms, nums):
        if k > n:
            continue
        for j in range(k + 1):
            # c i^j with c = (a + b i)/d
            re, im = ((a, b), (-b, a), (-a, -b), (b, -a))[j % 4]
            if re:
                u[(k - j, j)] = _reduce(comb(k, j) * re, 0, d)
            if im:
                v[(k - j, j)] = _reduce(comb(k, j) * im, 0, d)
    u, v = _trusted(2, u, n), _trusted(2, v, n)
    return VectorFieldJet([u, v]), VectorFieldJet([v, -u])
