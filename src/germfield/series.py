"""Sparse truncated multivariate power series over Q(i).

A PolySeries stores a map from exponent tuples to nonzero GaussianRational
coefficients, e.g. (2, 1) -> 3/2 for (3/2)*x^2*y.  Two flavours coexist:

  * total polynomials (trunc is None): every coefficient is known exactly;
  * truncated jets (trunc = N): terms of total degree > N are unknown and
    never stored.  A jet is honest about what it does not know -- order
    queries on a jet with no terms report a lower bound, not zero.

Truncation propagates conservatively: a product of jets known mod N and M is
claimed only mod min(N, M).  Monomials are ordered graded-lexicographically
with x < y < z; that order fixes leading terms for division and the printing
order everywhere downstream.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import add, lshift

from .gaussian import ONE, ZERO, GaussianRational, _reduce

Exponent = tuple[int, ...]

VAR_NAMES = ("x", "y", "z")

# A runaway guard: a product, sum of products or substitution whose partial
# result holds more terms than this is refused with TermLimitError.
MAX_TERMS = 1_000_000


class GermError(Exception):
    """Base class for contract violations in the engine."""


class DimensionMismatchError(GermError):
    pass


class TruncationError(GermError):
    """An operation required an exact (total) polynomial."""


class TermLimitError(GermError):
    """The MAX_TERMS safety cap was exceeded."""


def monomial_key(e: Exponent) -> tuple[int, tuple[int, ...]]:
    """Graded-lex key with x < y < z; larger key = later in print order."""
    return (sum(e), tuple(reversed(e)))


def monomials_up_to(dim: int, max_deg: int, min_deg: int = 0) -> list[Exponent]:
    """All exponent tuples with min_deg <= |e| <= max_deg in graded-lex order."""
    if dim == 0:
        return [()] if min_deg <= 0 <= max_deg else []
    # by_degree[d]: the degree-d exponents in the slots built so far, in
    # order; the last slot is outermost, each head in order for one slot fewer
    by_degree = [[(d,)] for d in range(max_deg + 1)]
    for _ in range(dim - 1):
        by_degree = [
            [h + (k,) for k in range(d + 1) for h in by_degree[d - k]] for d in range(max_deg + 1)
        ]
    return [e for d in range(max(min_deg, 0), max_deg + 1) for e in by_degree[d]]


def _coerce_scalar(c) -> GaussianRational:
    if isinstance(c, GaussianRational):
        return c
    if isinstance(c, (int, Fraction)):
        return GaussianRational(c)
    raise TypeError(f"cannot use {type(c).__name__} as a Q(i) scalar")


class Weight(tuple):
    """A positive integer weight vector (p_1, ..., p_n) with gcd 1."""

    def __new__(cls, entries):
        entries = tuple(int(p) for p in entries)
        if not entries or any(p < 1 for p in entries):
            raise ValueError("weights must be positive integers")
        if math.gcd(*entries) != 1:
            raise ValueError("weight entries must have gcd 1")
        return super().__new__(cls, entries)

    def degree_of(self, e: Exponent) -> int:
        if len(e) != len(self):
            raise DimensionMismatchError(f"weight of length {len(self)} for dimension {len(e)}")
        return sum(p * k for p, k in zip(self, e))


class PolySeries:
    """A sparse polynomial or truncated power series over Q(i)."""

    __slots__ = ("dim", "trunc", "terms")

    def __init__(self, dim: int, terms=None, trunc: int | None = None):
        if dim < 1:
            raise ValueError("dimension must be >= 1")
        if trunc is not None and trunc < 0:
            raise ValueError("truncation degree must be >= 0")
        clean: dict[Exponent, GaussianRational] = {}
        for e, c in (terms or {}).items():
            e = tuple(int(k) for k in e)
            if len(e) != dim or any(k < 0 for k in e):
                raise ValueError(f"bad exponent {e} for dimension {dim}")
            c = _coerce_scalar(c)
            if c.is_zero():
                continue
            if trunc is not None and sum(e) > trunc:
                continue
            clean[e] = c
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "trunc", trunc)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("PolySeries is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, dim: int, trunc: int | None = None) -> "PolySeries":
        return cls(dim, {}, trunc)

    @classmethod
    def constant(cls, dim: int, c, trunc: int | None = None) -> "PolySeries":
        return cls(dim, {(0,) * dim: _coerce_scalar(c)}, trunc)

    @classmethod
    def variable(cls, dim: int, index: int) -> "PolySeries":
        if not 0 <= index < dim:
            raise ValueError(f"variable index {index} out of range for dim {dim}")
        e = tuple(1 if j == index else 0 for j in range(dim))
        return cls(dim, {e: ONE})

    @classmethod
    def monomial(cls, dim: int, e: Exponent, c=1) -> "PolySeries":
        return cls(dim, {tuple(e): _coerce_scalar(c)})

    # -- basic queries ------------------------------------------------------

    @property
    def is_total(self) -> bool:
        return self.trunc is None

    def is_zero(self) -> bool:
        """No stored terms.  For a jet this means 'zero so far', not zero germ."""
        return not self.terms

    def coefficient(self, e: Exponent) -> GaussianRational:
        return self.terms.get(tuple(e), ZERO)

    def constant_term(self) -> GaussianRational:
        return self.terms.get((0,) * self.dim, ZERO)

    def total_degree(self) -> int:
        """Maximal total degree of a stored term (zero polynomial -> 0)."""
        return max((sum(e) for e in self.terms), default=0)

    def order(self, weight: Weight | None = None) -> int | None:
        """Least (weighted) total degree of a nonzero term; None if no term.

        None means 'order >= trunc + 1' for a jet and 'zero germ' for a total
        polynomial; callers must not treat it as a number.
        """
        if not self.terms:
            return None
        if weight is None:
            return min(sum(e) for e in self.terms)
        return min(weight.degree_of(e) for e in self.terms)

    def leading_term(self) -> tuple[Exponent, GaussianRational]:
        """Greatest term in graded-lex order (requires a nonzero value)."""
        e = max(self.terms, key=monomial_key)
        return e, self.terms[e]

    def sorted_terms(self) -> list[tuple[Exponent, GaussianRational]]:
        return sorted(self.terms.items(), key=lambda t: monomial_key(t[0]))

    # -- ring operations ----------------------------------------------------

    def _check_dim(self, other: "PolySeries"):
        if self.dim != other.dim:
            raise DimensionMismatchError(f"dimension {self.dim} vs {other.dim}")

    def __add__(self, other) -> "PolySeries":
        other = self._coerce(other)
        self._check_dim(other)
        trunc = _least_trunc([self.trunc, other.trunc])
        out = dict(_within(self, trunc))
        get = out.get
        for e, c in _within(other, trunc).items():
            s = get(e)
            if s is None:
                out[e] = c
            elif s := s + c:
                out[e] = s
            else:
                del out[e]
        return _trusted(self.dim, out, trunc)

    __radd__ = __add__

    def __neg__(self) -> "PolySeries":
        return _trusted(self.dim, {e: -c for e, c in self.terms.items()}, self.trunc)

    def __sub__(self, other) -> "PolySeries":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "PolySeries":
        return self._coerce(other) - self

    def __mul__(self, other) -> "PolySeries":
        if isinstance(other, (int, Fraction, GaussianRational)):
            c = _coerce_scalar(other)
            if c.is_zero():
                return PolySeries.zero(self.dim, self.trunc)
            return _trusted(self.dim, {e: v * c for e, v in self.terms.items()}, self.trunc)
        if not isinstance(other, PolySeries):
            return NotImplemented
        self._check_dim(other)
        return _product(self, other)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "PolySeries":
        if k < 0:
            raise ValueError("negative power of a series")
        result, base = PolySeries.constant(self.dim, 1, self.trunc), self
        while k:
            if k & 1:
                result = _product(result, base)
            base = _product(base, base) if k > 1 else base
            k >>= 1
        return result

    def _coerce(self, other) -> "PolySeries":
        if isinstance(other, PolySeries):
            return other
        if isinstance(other, (int, Fraction, GaussianRational)):
            return PolySeries.constant(self.dim, other)
        raise TypeError(f"cannot combine PolySeries with {type(other).__name__}")

    # -- calculus and structure ----------------------------------------------

    def partial(self, var_index: int) -> "PolySeries":
        """Formal partial derivative; truncation degree drops by one.

        A degree-0 jet fixes no coefficient of its derivative, which is
        refused with TruncationError.
        """
        if not 0 <= var_index < self.dim:
            raise ValueError(f"variable index {var_index} out of range")
        return _combination([(1, PolySeries.constant(self.dim, 1), self, var_index)])

    def truncated(self, n: int) -> "PolySeries":
        """The jet of degree n (keeps total inputs' terms up to degree n)."""
        trunc = n if self.trunc is None else min(self.trunc, n)
        return PolySeries(self.dim, self.terms, trunc)

    def as_total(self) -> "PolySeries":
        """Reinterpret the stored terms as an exact polynomial."""
        return PolySeries(self.dim, self.terms, None)

    def jet_equal(self, other: "PolySeries") -> bool:
        """Equality of all coefficients up to the smaller truncation degree."""
        other = self._coerce(other)
        self._check_dim(other)
        if self.trunc is None and other.trunc is None:
            return self.terms == other.terms
        n = _least_trunc([self.trunc, other.trunc])
        for e in set(self.terms) | set(other.terms):
            if sum(e) <= n and self.coefficient(e) != other.coefficient(e):
                return False
        return True

    def homogeneous_part(self, k: int) -> "PolySeries":
        return PolySeries(
            self.dim,
            {e: c for e, c in self.terms.items() if sum(e) == k},
            self.trunc,
        )

    def evaluate(self, point: list[GaussianRational]) -> GaussianRational:
        """Exact evaluation of a total polynomial at a Q(i) point."""
        if not self.is_total:
            raise TruncationError("evaluation requires a total polynomial")
        if len(point) != self.dim:
            raise DimensionMismatchError("point has wrong length")
        pt = [_coerce_scalar(c) for c in point]
        total = ZERO
        for e, c in self.terms.items():
            v = c
            for k, p in zip(e, pt):
                if k:
                    v = v * p**k
            total = total + v
        return total

    def substitute(self, images: list["PolySeries"]) -> "PolySeries":
        """Exact truncated composition self(images[0], ..., images[n-1]).

        An image with a constant term (an affine shift) is allowed only when
        self is a total polynomial: a truncated jet gives no control over low
        degrees after a shift, and is refused with TruncationError.
        """
        if len(images) != self.dim:
            raise DimensionMismatchError(
                f"need {self.dim} image series, got {len(images)}"
            )
        target = images[0].dim if images else self.dim
        for g in images:
            if g.dim != target:
                raise DimensionMismatchError("image series have mixed dimensions")
        if not (self.is_total or all(g.constant_term().is_zero() for g in images)):
            raise TruncationError(
                "affine substitution into a truncated jet is uncertified"
            )
        trunc = _least_trunc([self.trunc] + [g.trunc for g in images])

        # cache image powers, each image cut at trunc so that every product
        # and the final sum are cut there too; exponents are small in practice
        powers = [{1: g if g.trunc == trunc else g.truncated(trunc)} for g in images]

        def power(i: int, k: int) -> PolySeries:
            if k not in powers[i]:
                powers[i][k] = _product(power(i, k - 1), powers[i][1])
            return powers[i][k]

        # one sum of products: each term's last image power (1 for the
        # constant term) is multiplied, and the terms summed, in one pass
        one = (0,) * target
        unit = _trusted(target, {one: ONE}, None)
        pairs = []
        for e, c in self.terms.items():
            term = _trusted(target, {one: c}, trunc)
            factors = [power(i, k) for i, k in enumerate(e) if k] or [unit]
            for p in factors[:-1]:
                term = _product(term, p)
            pairs.append((1, term, factors[-1]))
        return _combination(pairs) if pairs else _trusted(target, {}, trunc)

    # -- comparison / display -------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, PolySeries):
            if isinstance(other, (int, Fraction, GaussianRational)):
                other = PolySeries.constant(self.dim, other, self.trunc)
            else:
                return NotImplemented
        return (
            self.dim == other.dim
            and self.trunc == other.trunc
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        return hash((self.dim, self.trunc, frozenset(self.terms.items())))

    def __repr__(self) -> str:
        from .parsing import poly_to_text

        tag = "" if self.is_total else f" (jet deg {self.trunc})"
        return f"<PolySeries {poly_to_text(self)}{tag}>"


def _trusted(dim: int, terms: dict, trunc: int | None) -> PolySeries:
    """A PolySeries from terms the engine built itself: exponents of length dim
    with no negative entry, nonzero coefficients, none of degree above trunc."""
    p = object.__new__(PolySeries)
    object.__setattr__(p, "dim", dim)
    object.__setattr__(p, "trunc", trunc)
    object.__setattr__(p, "terms", terms)
    return p


def _within(p: PolySeries, trunc: int | None) -> dict[Exponent, GaussianRational]:
    """p's terms of total degree <= trunc, where trunc is at most p.trunc."""
    if p.trunc == trunc:
        return p.terms
    return {e: c for e, c in p.terms.items() if sum(e) <= trunc}


def _least_trunc(truncs: list) -> int | None:
    """The least truncation degree in truncs; None (exact) when all are None."""
    least = None
    for n in truncs:
        if n is not None and (least is None or n < least):
            least = n
    return least


def _product(f: PolySeries, g: PolySeries) -> PolySeries:
    """f * g, known as far as both factors are; TermLimitError as soon as the
    partial product has more than MAX_TERMS terms."""
    if len(f.terms) <= 1 or len(g.terms) <= 1:  # zero, or shift and scale: no lcm
        trunc = _least_trunc([f.trunc, g.trunc])
        out = {
            tuple(map(add, e1, e2)): c1 * c2
            for e1, c1 in f.terms.items()
            for e2, c2 in g.terms.items()
            if trunc is None or sum(e1) + sum(e2) <= trunc
        }
        if len(out) > MAX_TERMS:
            raise TermLimitError("result exceeds MAX_TERMS")
        return _trusted(f.dim, out, trunc)
    return _combination([(1, f, g)])


def _combination(pairs) -> PolySeries:
    """The sum of k * f * g over pairs (k, f, g), with k an int, and of
    k * f * dg/dz_i over pairs (k, f, g, i), known as far as every operand
    is: to the least truncation degree trunc among them,
    where dg/dz_i counts as known to g.trunc - 1 and a degree-0 jet's
    derivative is refused with TruncationError.
    TermLimitError as soon as the partial sum has more than MAX_TERMS
    terms.  Every pair writes Gaussian-integer numerators into one dict over
    D, the lcm of the pairs' D_f * D_g (D_f: the lcm of f's denominators); a
    derivative scales g's numerators by e_i and lowers e_i in the key, with
    no partial series.  Each operand is written over D_f in one pass per
    call.  Monomials are packed into ints with bits = top.bit_length() bits
    per variable, top the largest deg f + deg g over the pairs, so a
    product's key is the sum of its factors' keys with no carry between
    slots, and each result exponent is read back from its key.  Each
    left-hand term meets only the right-hand terms that keep the product
    within trunc, and each result term is reduced once, over D."""
    dim = pairs[0][1].dim
    known = []
    ops = {}  # id(operand) -> [D, terms, max |e|], for this call only
    for _, f, g, *i in pairs:
        known.append(f.trunc)
        if g.trunc is not None:
            if i and g.trunc == 0:
                raise TruncationError("the derivative of a degree-0 jet is unknown")
            known.append(g.trunc - len(i))
        for p in (f, g):
            if id(p) not in ops:
                if p.dim != dim:
                    raise DimensionMismatchError(f"dimension {p.dim} vs {dim}")
                terms = p.terms
                ops[id(p)] = [math.lcm(*[c._d for c in terms.values()]), terms, max(map(sum, terms), default=0)]
    trunc = _least_trunc(known)
    top = max(ops[id(f)][2] + ops[id(g)][2] for _, f, g, *_ in pairs)
    bits = top.bit_length()
    shifts = [bits * j for j in range(dim)]
    for op in ops.values():
        dp = op[0]
        op[1] = [
            (sum(map(lshift, e, shifts)), e, c._a * (m := dp // c._d), c._b * m, sum(e))
            for e, c in op[1].items()
        ]
    scaled = [
        (k, ops[id(f)], ops[id(g)], i[0] if i else None)
        for k, f, g, *i in pairs if f.terms and g.terms
    ]
    d = math.lcm(*(f[0] * g[0] for _, f, g, _ in scaled))
    acc: dict[int, list[int]] = {}  # key -> [re, im] over d
    get, cap = acc.get, MAX_TERMS
    for k, (df, lhs, _), g, i in scaled:
        if i is None:
            m = k * (d // (df * g[0]))
            rhs = [(k2, a * m, b * m, n) for k2, _, a, b, n in g[1]]
        else:
            m, unit = k * (d // (df * g[0])), 1 << bits * i
            rhs = [(k2 - unit, a * c, b * c, n - 1) for k2, e2, a, b, n in g[1] if (c := m * e2[i])]
        for k1, _, a1, b1, n1 in lhs:
            row = rhs if trunc is None else [t for t in rhs if t[3] <= trunc - n1]
            for k2, a2, b2, _ in row:
                s = get(key := k1 + k2)
                if s is None:
                    acc[key] = [a1 * a2 - b1 * b2, a1 * b2 + b1 * a2]
                    if len(acc) > cap:
                        raise TermLimitError("result exceeds MAX_TERMS")
                    continue
                s[0] += a1 * a2 - b1 * b2
                s[1] += a1 * b2 + b1 * a2
                if not (s[0] or s[1]):
                    del acc[key]
    mask = (1 << bits) - 1
    out = {tuple([key >> s & mask for s in shifts]): _reduce(a, b, d) for key, (a, b) in acc.items()}
    return _trusted(dim, out, trunc)


def poly_divides(d: PolySeries, f: PolySeries) -> tuple[bool, PolySeries | None]:
    """Decide d | f for exact polynomials by graded-lex leading-term elimination.

    Returns (True, quotient) or (False, None).  Truncated inputs are rejected:
    divisibility of a jet is not a well-posed question.
    """
    if not (d.is_total and f.is_total):
        raise TruncationError("poly_divides requires total polynomials")
    if d.dim != f.dim:
        raise DimensionMismatchError("dimension mismatch in poly_divides")
    if d.is_zero():
        raise ZeroDivisionError("zero divisor in poly_divides")
    le, lc = d.leading_term()
    tail = [(e, -c) for e, c in d.terms.items() if e != le]
    quotient: dict[Exponent, GaussianRational] = {}
    rem = dict(f.terms)  # the remainder, updated in place
    while rem:
        re_ = max(rem, key=monomial_key)
        rc = rem.pop(re_)
        qe = tuple(a - b for a, b in zip(re_, le))
        if any(k < 0 for k in qe):
            return False, None
        qc = quotient[qe] = rc / lc
        # every monomial of qe * tail lies below re_ in graded-lex order
        for e, c in tail:
            e = tuple(map(add, qe, e))
            s = rem.get(e)
            if s is None:
                rem[e] = qc * c
            elif s := s + qc * c:
                rem[e] = s
            else:
                del rem[e]
    return True, _trusted(d.dim, quotient, None)


def variable_power_dividing(f: PolySeries, var_index: int) -> int:
    """Largest k with x_i^k dividing f (f must be a nonzero total polynomial)."""
    if f.is_zero():
        raise GermError("zero polynomial has no finite variable multiplicity")
    return min(e[var_index] for e in f.terms)
