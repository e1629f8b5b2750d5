"""Integrability identities: integrating factors, dual closed forms,
logarithmic decompositions, separatrix and first-integral verification, and
commuting pairs from the Cauchy-Riemann construction.

All checks are exact polynomial identities after clearing denominators, so a
True answer is a proof at the polynomial level and a False answer comes with
the offending residual.
"""

from __future__ import annotations

from dataclasses import dataclass

from .gaussian import I, ONE, GaussianRational
from .series import GermError, PolySeries, _term_cap, monomial_key, monomials_up_to, poly_divides
from . import linalg
from .fields import OneFormJet, VectorFieldJet, _sum_of_products, wedge


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
    residual = _sum_of_products([
        (1, g, q.partial(0)), (-1, g, p.partial(1)), (-1, g.partial(0), q), (1, g.partial(1), p),
    ], _term_cap())
    return residual.is_zero(), residual


def integrating_factor_check(x: VectorFieldJet, g: PolySeries) -> bool:
    """X(g) = (div X) g, the exact certificate that dual_form(X)/g is closed."""
    if g.is_zero():
        raise ZeroDivisionError("zero integrating factor candidate")
    div_g = [(-1, c.partial(i), g) for i, c in enumerate(x.comps)]
    return _sum_of_products(x._apply_pairs(g) + div_g, _term_cap()).is_zero()


def meromorphic_first_integral_check(x: VectorFieldJet, f: MeromorphicRatio) -> bool:
    """X(P/Q) = 0, tested as Q X(P) - P X(Q) = 0."""
    p, q, cap = f.numerator, f.denominator, _term_cap()
    xp, xq = (_sum_of_products(x._apply_pairs(h), cap) for h in (p, q))
    return _sum_of_products([(1, q, xp), (-1, p, xq)], cap).is_zero()


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

    def reconstruct_cleared(self, g: PolySeries, unit: PolySeries) -> OneFormJet:
        """g * (the decomposed form), organized to stay polynomial."""
        dim = g.dim
        prod = PolySeries.constant(dim, 1)
        for f, k in zip(self.factors, self.multiplicities):
            prod = prod * f**k
        cleared = [PolySeries.zero(dim) for _ in range(dim)]
        for j, (f, lam) in enumerate(zip(self.factors, self.residues)):
            cofactor = unit * _exact_quotient(prod, f)
            for i in range(dim):
                cleared[i] = cleared[i] + cofactor * f.partial(i) * lam
        reduced = PolySeries.constant(dim, 1)
        for f, k in zip(self.factors, self.multiplicities):
            reduced = reduced * f ** (k - 1)
        q = unit * _exact_quotient(prod, reduced)  # = unit * prod(f_j)
        for i in range(dim):
            cleared[i] = cleared[i] + q * self.phi.partial(i)
        for j, (f, k) in enumerate(zip(self.factors, self.multiplicities)):
            if k > 1:
                rj = _exact_quotient(q, f)
                for i in range(dim):
                    cleared[i] = cleared[i] - rj * f.partial(i) * self.phi * (k - 1)
        return OneFormJet(cleared)


@dataclass(frozen=True)
class LogDecompositionResult:
    success: bool
    decomposition: LogDecomposition | None
    residual: OneFormJet | None


def _exact_quotient(f: PolySeries, d: PolySeries) -> PolySeries:
    ok, q = poly_divides(d, f)
    if not ok:
        raise GermError("expected an exact polynomial division")
    return q


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
    (default: the total degree of g).
    """
    if omega.dim != 2:
        raise GermError("log_decomposition is n=2 only")
    if not factors:
        raise GermError("log_decomposition needs at least one factor")
    dim = omega.dim
    prod = PolySeries.constant(dim, 1)
    for f, k in factors:
        if k < 1:
            raise GermError("factor multiplicities must be >= 1")
        prod = prod * f**k
    ok, unit = poly_divides(prod, g)
    if not ok or unit is None or unit.constant_term().is_zero():
        raise GermError("g is not a unit times the claimed factorization")
    if phi_degree_bound is None:
        phi_degree_bound = g.total_degree()

    flist = [f for f, _ in factors]
    mults = [k for _, k in factors]
    # column blocks: one residue per factor, then phi coefficients
    phi_monomials = monomials_up_to(dim, phi_degree_bound)
    ncols = len(flist) + len(phi_monomials)

    # columns of the cleared identity, evaluated generator by generator
    def cleared_columns():
        cols = []
        for j, f in enumerate(flist):
            cofactor = unit * _exact_quotient(prod, f)
            cols.append([cofactor * f.partial(i) for i in range(dim)])
        reduced = PolySeries.constant(dim, 1)
        for f, k in zip(flist, mults):
            reduced = reduced * f ** (k - 1)
        q = unit * _exact_quotient(prod, reduced)
        # (k - 1) * (q / f) * df per repeated factor, the same for every phi
        drifts = [
            [_exact_quotient(q, f) * f.partial(i) * (k - 1) for i in range(dim)]
            for f, k in zip(flist, mults)
            if k > 1
        ]
        for e in phi_monomials:
            phi = PolySeries.monomial(dim, e)
            col = [q * phi.partial(i) for i in range(dim)]
            for drift in drifts:
                col = [ci - di * phi for ci, di in zip(col, drift)]
            cols.append(col)
        return cols

    cols = cleared_columns()
    support = [set() for _ in range(dim)]
    for col in cols:
        for i in range(dim):
            support[i].update(col[i].terms)
    for i in range(dim):
        support[i].update(omega.coeffs[i].terms)
    rows, rhs = [], []
    for i in range(dim):
        for e in sorted(support[i], key=monomial_key):
            rows.append([col[i].coefficient(e) for col in cols])
            rhs.append(omega.coeffs[i].coefficient(e))
    solution, consistent = linalg.solve(rows, rhs, ncols)
    if not consistent:
        # deterministic pseudo-solution so the residual is reproducible
        candidate = _assemble(flist, mults, solution, phi_monomials, dim)
        reconstructed = candidate.reconstruct_cleared(g, unit)
        residual_form = OneFormJet(
            [omega.coeffs[i] - reconstructed.coeffs[i] for i in range(dim)]
        )
        return LogDecompositionResult(False, None, residual_form)
    decomposition = _assemble(flist, mults, solution, phi_monomials, dim)
    reconstructed = decomposition.reconstruct_cleared(g, unit)
    if any(
        not (reconstructed.coeffs[i] - omega.coeffs[i]).is_zero()
        for i in range(dim)
    ):
        raise GermError("internal error: reconstruction failed after solve")
    return LogDecompositionResult(True, decomposition, None)


def _assemble(flist, mults, vector, phi_monomials, dim) -> LogDecomposition:
    residues = tuple(vector[: len(flist)])
    phi_terms = {
        e: c for e, c in zip(phi_monomials, vector[len(flist):]) if not c.is_zero()
    }
    return LogDecomposition(
        tuple(flist), tuple(mults), residues, PolySeries(dim, phi_terms)
    )


def cauchy_riemann_pair(f: PolySeries, max_degree: int) -> tuple[VectorFieldJet, VectorFieldJet]:
    """Split f(x + i y) = u + i v and return the commuting pair
    X = u d/dx + v d/dy, Y = v d/dx - u d/dy, truncated at max_degree.

    For real points the imaginary split is u = (F + conj(F))/2 with
    conj(F)(x, y) = fbar(x - i y), fbar conjugating the coefficients; both u
    and v come out with rational coefficients and the Cauchy-Riemann
    equations make [X, Y] vanish identically.
    """
    if f.dim != 1:
        raise GermError("cauchy_riemann_pair expects a one-variable series")
    xv = PolySeries.variable(2, 0)
    yv = PolySeries.variable(2, 1)
    forward = f.substitute([xv + yv * I])
    backward = f.conjugate_coefficients().substitute([xv - yv * I])
    half = ONE / GaussianRational(2)
    u = (forward + backward) * half
    v = (forward - backward) * (ONE / GaussianRational(0, 2))
    u = u.truncated(max_degree)
    v = v.truncated(max_degree)
    x = VectorFieldJet([u, v])
    y = VectorFieldJet([v, -u])
    return x, y
