"""Independent brute-force oracles built on sympy.

These recompute kernel dimensions from scratch: a generic field with symbolic
coefficients, the bracket via sympy.diff, and the constraint system solved by
sympy's nullspace.  Nothing here shares code with the package solver, so
agreement is meaningful evidence.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import sympy
from sympy.polys.domains import QQ_I
from sympy.polys.matrices import DomainMatrix

from germfield import PolySeries, VectorFieldJet
from germfield.gaussian import gq

_SYMS = sympy.symbols("x y z")


def poly_to_sympy(f: PolySeries):
    expr = sympy.Integer(0)
    for e, c in f.terms.items():
        term = sympy.Rational(c.re) + sympy.Rational(c.im) * sympy.I
        for s, k in zip(_SYMS, e):
            term *= s**k
        expr += term
    return sympy.expand(expr)


def field_to_sympy(x: VectorFieldJet):
    return [poly_to_sympy(c) for c in x.comps]


def poly_from_sympy(expr, dim: int) -> PolySeries:
    """The exact polynomial of a sympy expression in the first dim symbols."""
    terms = {}
    for e, c in sympy.Poly(expr, *_SYMS[:dim]).terms():
        re_part, im_part = (sympy.Rational(q) for q in c.as_real_imag())
        terms[e] = gq(Fraction(int(re_part.p), int(re_part.q)), Fraction(int(im_part.p), int(im_part.q)))
    return PolySeries(dim, terms)


def sympy_bracket(xs, ys, dim):
    syms = _SYMS[:dim]
    out = []
    for i in range(dim):
        expr = sympy.Integer(0)
        for j in range(dim):
            expr += xs[j] * sympy.diff(ys[i], syms[j]) - ys[j] * sympy.diff(
                xs[i], syms[j]
            )
        out.append(sympy.expand(expr))
    return out


def sympy_apply(xs, f, dim):
    """X(f) = sum_j X_j df/dz_j."""
    return sympy.expand(sum(x * sympy.diff(f, s) for x, s in zip(xs, _SYMS[:dim])))


def sympy_wedge(fields):
    """The wedge of m fields of dimension n as sympy computes it: the
    determinant for m = n, and for two fields in 3D the (dy^dz, dz^dx, dx^dy)
    coefficients."""
    n = len(fields[0])
    if len(fields) == n:  # the Leibniz formula
        det = sympy.Integer(0)
        for perm in itertools.permutations(range(n)):
            inversions = sum(perm[i] > perm[j] for i, j in itertools.combinations(range(n), 2))
            det += (-1) ** inversions * sympy.Mul(*(fields[i][perm[i]] for i in range(n)))
        return sympy.expand(det)
    a, b = fields
    return [sympy.expand(a[i] * b[j] - a[j] * b[i]) for i, j in ((1, 2), (2, 0), (0, 1))]


def sympy_closedness_residual(p, q, g):
    """The dx^dy coefficient of g d(p dx + q dy) - dg ^ (p dx + q dy)."""
    x, y = _SYMS[:2]
    return sympy.expand(
        g * (sympy.diff(q, x) - sympy.diff(p, y)) - (sympy.diff(g, x) * q - sympy.diff(g, y) * p)
    )


def _monomials(dim, max_deg, min_deg=0):
    syms = _SYMS[:dim]
    out = []
    for total in range(min_deg, max_deg + 1):
        for combo in itertools.combinations_with_replacement(range(dim), total):
            e = [0] * dim
            for i in combo:
                e[i] += 1
            out.append(tuple(e))
    return sorted(set(out))


def brute_force_centralizer_dim(
    x: VectorFieldJet, max_degree: int, exact_only: bool = True
) -> int:
    """Dimension of {Y jet : [X, Y] = 0 (exactly, or mod the horizon)}."""
    dim = x.dim
    syms = _SYMS[:dim]
    xs = field_to_sympy(x)
    horizon = None if exact_only else max_degree + x.mu() - 1
    unknowns = []
    ys = [sympy.Integer(0) for _ in range(dim)]
    for comp in range(dim):
        for e in _monomials(dim, max_degree):
            a = sympy.Symbol(f"a_{comp}_" + "_".join(map(str, e)))
            unknowns.append(a)
            term = a
            for s, k in zip(syms, e):
                term *= s**k
            ys[comp] += term
    bracket = sympy_bracket(xs, ys, dim)
    equations = []
    for expr in bracket:
        poly = sympy.Poly(expr, *syms)
        for monom, coeff in zip(poly.monoms(), poly.coeffs()):
            if horizon is not None and sum(monom) > horizon:
                continue
            equations.append(coeff)
    matrix = sympy.Matrix(
        [[sympy.diff(eq, a) for a in unknowns] for eq in equations]
    )
    return len(unknowns) - matrix.rank()


def brute_force_first_integral_dim(
    x: VectorFieldJet, max_degree: int, exact_only: bool = True
) -> int:
    dim = x.dim
    syms = _SYMS[:dim]
    xs = field_to_sympy(x)
    horizon = None if exact_only else max_degree + x.mu() - 1
    unknowns, f = [], sympy.Integer(0)
    for e in _monomials(dim, max_degree, min_deg=1):
        a = sympy.Symbol("b_" + "_".join(map(str, e)))
        unknowns.append(a)
        term = a
        for s, k in zip(syms, e):
            term *= s**k
        f += term
    derivative = sum(xs[j] * sympy.diff(f, syms[j]) for j in range(dim))
    poly = sympy.Poly(sympy.expand(derivative), *syms)
    equations = []
    for monom, coeff in zip(poly.monoms(), poly.coeffs()):
        if horizon is not None and sum(monom) > horizon:
            continue
        equations.append(coeff)
    matrix = sympy.Matrix(
        [[sympy.diff(eq, a) for a in unknowns] for eq in equations]
    )
    return len(unknowns) - matrix.rank()


# -- exact elimination over Q(i) ------------------------------------------------
# Matrices are lists of rows of (re, im) Fraction pairs, so nothing from the
# package's scalar type or solver is involved.


def _pair(z) -> tuple[Fraction, Fraction]:
    return tuple(Fraction(int(q.numerator), int(q.denominator)) for q in (z.x, z.y))


def sympy_rref(rows, ncols):
    """sympy's DomainMatrix RREF over QQ_I: (nonzero rows, pivot columns)."""
    matrix = DomainMatrix(
        [[QQ_I(re, im) for re, im in row] for row in rows], (len(rows), ncols), QQ_I
    )
    red, pivots = matrix.rref()
    return [[_pair(z) for z in row] for row in red.to_list()[: len(pivots)]], list(pivots)


def sympy_nullspace(rows, ncols):
    """Kernel basis read off sympy's RREF: one vector per free column, in
    column order, 1 at the free column and minus the RREF entries at pivots."""
    red, pivots = sympy_rref(rows, ncols)
    zero = (Fraction(0), Fraction(0))
    basis = []
    for free in range(ncols):
        if free in pivots:
            continue
        v = [zero] * ncols
        v[free] = (Fraction(1), Fraction(0))
        for row, p in zip(red, pivots):
            v[p] = (-row[free][0], -row[free][1])
        basis.append(v)
    return basis


# -- blow-up oracles -------------------------------------------------------------


def sympy_isolated(x: VectorFieldJet) -> bool:
    """Whether a plane field has no common factor of its components through 0.

    Factors the first component over Q(i) and tests each irreducible factor
    that vanishes at 0 for division of the second, instead of taking a gcd.
    """
    xs, ys = _SYMS[:2]
    a, b = field_to_sympy(x)
    if a == 0:
        return b.subs({xs: 0, ys: 0}) != 0
    if b == 0:
        return a.subs({xs: 0, ys: 0}) != 0
    _, factors = sympy.factor_list(a, xs, ys, extension=sympy.I)
    for f, _mult in factors:
        if f.subs({xs: 0, ys: 0}) == 0 and sympy.div(b, f, xs, ys)[1] == 0:
            return False
    return True


def sympy_blowup_pullback(x: VectorFieldJet, chart: int) -> list:
    """The total transform of a plane field in (divisor, slope) coordinates,
    written in x and y, by substitution.

    Chart 1 puts y = t s: s' = A and t' = (B - t A)/s.  Chart 2 puts x = t s
    with s = y, so the components swap roles: s' = B and t' = (A - t B)/s.
    The division by s is checked to be exact.
    """
    xs, ys = _SYMS[:2]
    s, t = sympy.symbols("s t")
    a, b = field_to_sympy(x)
    image, (p, q) = ({xs: s, ys: t * s}, (a, b)) if chart == 1 else ({xs: t * s, ys: s}, (b, a))
    p, q = (sympy.expand(c.subs(image, simultaneous=True)) for c in (p, q))
    slope, rem = sympy.div(sympy.expand(q - t * p), s, s, t)
    assert rem == 0
    return [sympy.expand(c.subs({s: xs, t: ys}, simultaneous=True)) for c in (p, slope)]


def sympy_witness(x: VectorFieldJet) -> tuple[int, tuple]:
    """nu and the dicritical witness W(t) = B_nu(1, t) - t A_nu(1, t) of a
    nonzero plane field, by substitution: nu is the least total degree of a
    term of A or B, and A_nu, B_nu are their parts of that degree.  W is
    plain data (below)."""
    xs, ys = _SYMS[:2]
    t = sympy.Symbol("t")
    polys = [sympy.Poly(c, xs, ys) for c in field_to_sympy(x)]
    nu = min(i + j for p in polys for (i, j), c in p.terms() if c != 0)
    a_nu, b_nu = (sum((c * t**j for (i, j), c in p.terms() if i + j == nu), sympy.Integer(0)) for p in polys)
    return nu, _plain(sympy.Poly(sympy.expand(b_nu - t * a_nu), t, domain=QQ_I))


def sympy_linear_root(c1, c0) -> tuple[Fraction, Fraction]:
    """The root of c1 t + c0 read off sympy's factor_list over QQ_I; c0, c1
    are (re, im) Fraction pairs."""
    t = sympy.Symbol("t")
    coeff = [sympy.Rational(re) + sympy.Rational(im) * sympy.I for re, im in (c1, c0)]
    _, factors = sympy.factor_list(sympy.Poly(coeff[0] * t + coeff[1], t, domain="QQ_I"))
    ((linear, mult),) = factors
    assert mult == 1 and linear.degree() == 1
    lead, const = linear.all_coeffs()
    root = sympy.expand(-const / lead)
    re_part, im_part = root.as_real_imag()
    return tuple(Fraction(int(q.p), int(q.q)) for q in map(sympy.Rational, (re_part, im_part)))


# Univariate results are compared as plain data: a polynomial is the sorted
# tuple of its (exponent, (re, im)) terms, a scalar its (re, im) pair.


def _qi_pair(c) -> tuple[Fraction, Fraction]:
    re_part, im_part = QQ_I.to_sympy(c).as_real_imag()
    return tuple(Fraction(int(q.p), int(q.q)) for q in map(sympy.Rational, (re_part, im_part)))


def _univariate(f: PolySeries):
    return sympy.Poly(poly_to_sympy(f), _SYMS[0], domain=QQ_I)


def _plain(p) -> tuple:
    return tuple(sorted((k, _qi_pair(c)) for (k,), c in p.rep.to_dict().items()))


def sympy_univariate_gcd(f: PolySeries, g: PolySeries) -> tuple:
    """The gcd over QQ_I of two univariate polynomials, as sympy normalizes it."""
    return _plain(sympy.gcd(_univariate(f), _univariate(g)))


def sympy_square_free(f: PolySeries) -> list[tuple[tuple, int]]:
    """sympy's square-free decomposition over QQ_I: sorted (part, multiplicity)."""
    _, parts = sympy.sqf_list(_univariate(f))
    return sorted((_plain(p), k) for p, k in parts)


def sympy_gaussian_factors(f: PolySeries) -> tuple[list, list]:
    """factor_list over QQ_I, split into sorted (root, multiplicity) for the
    linear factors and sorted (factor, multiplicity) for the others."""
    _, factors = sympy.factor_list(_univariate(f))
    roots, others = [], []
    for p, k in factors:
        if p.degree() == 1:
            lead, const = p.all_coeffs()
            roots.append((_qi_pair(QQ_I.from_sympy(sympy.expand(-const / lead))), k))
        else:
            others.append((_plain(p), k))
    return sorted(roots), sorted(others)


def sympy_translate(x: VectorFieldJet, point) -> list:
    """The components of x at z + point, expanded; point holds (re, im) pairs."""
    shift = {s: s + sympy.Rational(re) + sympy.Rational(im) * sympy.I for s, (re, im) in zip(_SYMS, point)}
    return [sympy.expand(c.subs(shift, simultaneous=True)) for c in field_to_sympy(x)]


def sympy_gcd_isolated(x: VectorFieldJet) -> bool:
    """Whether sympy's gcd over Q(i) of the two components is nonzero at 0."""
    xs, ys = _SYMS[:2]
    a, b = (sympy.Poly(c, xs, ys, domain=QQ_I) for c in field_to_sympy(x))
    return sympy.gcd(a, b).coeff_monomial(1) != 0



def _qq_i_roots(expr, var) -> tuple[list, bool]:
    """The roots of the linear factors of expr over QQ_I, repeated by
    multiplicity, as sorted (re, im) pairs, and whether expr splits into them."""
    _, factors = sympy.factor_list(sympy.Poly(expr, var, domain=QQ_I))
    roots = []
    for f, k in factors:
        if f.degree() == 1:
            lead, const = f.all_coeffs()
            roots += [_qi_pair(QQ_I.from_sympy(sympy.expand(-const / lead)))] * k
    return sorted(roots), all(f.degree() == 1 for f, _ in factors)


def sympy_classify_linear(rows) -> tuple:
    """classify_linear's answer for a 2x2 matrix of (re, im) Fraction pairs,
    from sympy alone: (case, ratio_rationality, ratio, rational_ratios,
    eigenvalues), the eigenvalues as sorted (re, im) pairs.

    The eigenvalues are read off the linear factors of the characteristic
    polynomial over QQ_I, and are None unless it splits.  The case is
    nondiagonal_resonant exactly when M is not diagonalizable.  The ratios
    r = l1/l2 and l2/l1 are the roots of (r l2 - l1)(r l1 - l2) =
    det r^2 - (tr^2 - 2 det) r + det (Vieta), and the rational ones are the
    real roots of its linear factors over QQ_I.
    """
    m = sympy.Matrix([[sympy.Rational(re) + sympy.Rational(im) * sympy.I for re, im in row] for row in rows])
    if m.is_zero_matrix:
        return ("zero", "undefined", None, (), None)
    lam, r = sympy.symbols("lam r")
    tr, det = sympy.expand(m.trace()), sympy.expand(m.det())
    eigenvalues, split = _qq_i_roots(m.charpoly(lam).as_expr(), lam)
    eigenvalues = tuple(eigenvalues) if split else None
    if det == 0:
        if tr == 0:
            return ("nilpotent_nonzero", "undefined", None, (), None)
        return ("one_zero_eigenvalue", "undefined", None, (), eigenvalues)
    roots, _ = _qq_i_roots(det * r**2 - (tr**2 - 2 * det) * r + det, r)
    ratios = tuple(sorted({re for re, im in roots if im == 0}))
    ratio = max(ratios, key=lambda q: (abs(q), q)) if ratios else None
    # not diagonalizable: a double eigenvalue l with M - l I of rank 1
    jordan = split and eigenvalues[0] == eigenvalues[1] and (
        m - (sympy.Rational(eigenvalues[0][0]) + sympy.Rational(eigenvalues[0][1]) * sympy.I) * sympy.eye(2)
    ).rank() == 1
    case = "nondiagonal_resonant" if jordan else "semisimple"
    return (case, "rational" if ratios else "irrational", ratio, ratios, eigenvalues)


# -- integrability oracles ---------------------------------------------------------


def sympy_cauchy_riemann(f: PolySeries, max_degree: int):
    """(u, v, n) with u + i v = f(x + i y) as sympy expands it, cut at degree
    n = min(f's truncation degree, max_degree), for a one-variable f."""
    xs, ys = _SYMS[:2]
    n = max_degree if f.trunc is None else min(f.trunc, max_degree)
    whole = sympy.Poly(sympy.expand(poly_to_sympy(f).subs(xs, xs + sympy.I * ys)), xs, ys)
    u = v = sympy.Integer(0)
    for (a, b), c in whole.terms():
        if a + b <= n:
            re_part, im_part = c.as_real_imag()
            u += re_part * xs**a * ys**b
            v += im_part * xs**a * ys**b
    return u, v, n


def sympy_log_form(factors, residues, phi):
    """(g, [omega_x, omega_y]) with g = prod_j f_j^k_j and omega = g (sum_j
    lam_j df_j/f_j + d(phi / D)), D = prod_j f_j^(k_j - 1), on sympy
    polynomials over QQ_I: d(phi / D) by the quotient rule, and every
    division by f_j or D^2 exact; factors are (PolySeries, k) pairs."""
    gens = _SYMS[:2]

    def poly(f):
        return sympy.Poly(poly_to_sympy(f), *gens, domain=QQ_I)

    fs = [(poly(f), k) for f, k in factors]
    g = d = sympy.Poly(1, *gens, domain=QQ_I)
    for f, k in fs:
        g, d = g * f**k, d * f ** (k - 1)
    lams = [QQ_I(c.re, c.im) for c in residues]
    phi = poly(phi)
    omega = []
    for s in gens:
        total = (g * (d * phi.diff(s) - phi * d.diff(s))).exquo(d**2)
        for (f, _), lam in zip(fs, lams):
            total += (g * f.diff(s)).exquo(f).mul_ground(lam)
        omega.append(total.as_expr())
    return g.as_expr(), omega


def sympy_classify_singularity(x: VectorFieldJet) -> tuple[str, bool]:
    """classify_singularity's answer for a nonzero plane germ singular at 0,
    from sympy alone: the class and whether the zero locus is non-isolated.

    Isolation is sympy_isolated.  nu is the least total degree of a term, the
    linear part is the Jacobian at 0, and its ratios r are the real roots of
    det r^2 - (tr^2 - 2 det) r + det over QQ_I.  The first jet is h.R exactly
    when x B_nu - y A_nu expands to 0; at nu = 1 that is a scalar linear part.
    """
    xs, ys = _SYMS[:2]
    a, b = field_to_sympy(x)
    isolated = sympy_isolated(x)
    nu = min(sum(m) for c in (a, b) if c != 0 for m in sympy.Poly(c, xs, ys).monoms())

    def jet(c):  # the homogeneous part of degree nu
        return sum(k * xs**i * ys**j for (i, j), k in sympy.Poly(c, xs, ys).terms() if i + j == nu)

    radial = sympy.expand(xs * jet(b) - ys * jet(a)) == 0
    m = sympy.Matrix([[sympy.diff(c, v).subs({xs: 0, ys: 0}) for v in (xs, ys)] for c in (a, b)])
    tr, det = sympy.expand(m.trace()), sympy.expand(m.det())
    if nu == 1 and radial:
        cls = "purely_radial"
    elif det != 0:
        r = sympy.Symbol("r")
        roots, _ = _qq_i_roots(det * r**2 - (tr**2 - 2 * det) * r + det, r)
        cls = "non_reduced_other" if any(im == 0 and re > 0 for re, im in roots) else "reduced_hyperbolic"
    elif tr != 0 and isolated:
        cls = "saddle_node"
    elif nu > 1 and isolated and radial:
        cls = "nprs"
    else:
        cls = "non_reduced_other"
    return cls, not isolated
