"""Calculus on vector-field jets: brackets, wedges, dual forms, gradings.

A VectorFieldJet is an n-tuple of PolySeries sharing one truncation degree;
component i is the coefficient of d/dz_i.  All operations are pure and return
new values.  X(f), brackets, pairings, wedges and the divergence are each a
sum of products k * f * g or k * f * dg/dz_i, computed in one pass on one
common denominator (series._combination) with no intermediate series per
product: the derivatives of brackets, X(f), the divergence and the
integrability checks are taken inside that pass.  The sums that share their
operands are computed in one call, which packs each operand once: the n
components of a bracket, the three of a wedge in dimension 3, the minors
of a determinant and both partials of a Hamiltonian field.  Such a sum is certified
exactly as far as every operand is, and no further: a bracket component of
jets known mod N and M (so partials mod N - 1 and M - 1) is known mod
min(N, M) - 1.
"""

from __future__ import annotations

from .gaussian import GaussianRational
from .series import (
    DimensionMismatchError, GermError, PolySeries, Weight, _combination, _least_trunc, _trusted,
)


class VectorFieldJet:
    """A polynomial or truncated vector field germ at the origin."""

    __slots__ = ("dim", "comps")

    def __init__(self, comps):
        comps = tuple(comps)
        if not comps:
            raise ValueError("a vector field needs at least one component")
        dim = comps[0].dim
        if any(c.dim != dim for c in comps):
            raise DimensionMismatchError("components live in different dimensions")
        if len(comps) != dim:
            raise DimensionMismatchError(
                f"{len(comps)} components for dimension {dim}"
            )
        # components share one truncation degree: settle on the weakest claim
        trunc = _least_trunc([c.trunc for c in comps])
        if trunc is not None:
            comps = tuple(c if c.trunc == trunc else c.truncated(trunc) for c in comps)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "comps", comps)

    def __setattr__(self, name, value):
        raise AttributeError("VectorFieldJet is immutable")

    # -- queries -----------------------------------------------------------

    @property
    def trunc(self) -> int | None:
        return self.comps[0].trunc

    @property
    def is_total(self) -> bool:
        return self.trunc is None

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.comps)

    def mu(self, weight: Weight | None = None) -> int | None:
        """Algebraic multiplicity at 0: least order among components."""
        orders = [c.order(weight) for c in self.comps if not c.is_zero()]
        return min(orders) if orders else None

    def vanishes_at_origin(self) -> bool:
        return all(c.constant_term().is_zero() for c in self.comps)

    def linear_part_matrix(self) -> list[list[GaussianRational]]:
        """Jacobian at 0: entry [i][j] is the z_j-coefficient of component i."""
        rows = []
        for c in self.comps:
            row = []
            for j in range(self.dim):
                e = tuple(1 if k == j else 0 for k in range(self.dim))
                row.append(c.coefficient(e))
            rows.append(row)
        return rows

    def truncated(self, n: int) -> "VectorFieldJet":
        return VectorFieldJet([c.truncated(n) for c in self.comps])

    def as_total(self) -> "VectorFieldJet":
        return VectorFieldJet([c.as_total() for c in self.comps])

    # -- module structure ----------------------------------------------------

    def __add__(self, other: "VectorFieldJet") -> "VectorFieldJet":
        self._check(other)
        return VectorFieldJet([a + b for a, b in zip(self.comps, other.comps)])

    def __sub__(self, other: "VectorFieldJet") -> "VectorFieldJet":
        self._check(other)
        return VectorFieldJet([a - b for a, b in zip(self.comps, other.comps)])

    def __neg__(self) -> "VectorFieldJet":
        return VectorFieldJet([-c for c in self.comps])

    def __mul__(self, scalar) -> "VectorFieldJet":
        # scalar or function multiple f.X
        return VectorFieldJet([c * scalar for c in self.comps])

    __rmul__ = __mul__

    def _check(self, other: "VectorFieldJet"):
        if not isinstance(other, VectorFieldJet):
            raise TypeError("expected a VectorFieldJet")
        if self.dim != other.dim:
            raise DimensionMismatchError("vector fields of different dimensions")

    # -- action on functions ---------------------------------------------------

    def apply(self, f: PolySeries) -> PolySeries:
        """Directional derivative X(f) = sum_i X_i * df/dz_i."""
        return _combination([self._apply_pairs(f)])[0]

    def _apply_pairs(self, f: PolySeries, k: int = 1) -> list:
        """The products (k, X_i, f, i), meaning k * X_i * df/dz_i, that sum to
        k * X(f)."""
        if f.dim != self.dim:
            raise DimensionMismatchError("function and field dimensions differ")
        return [(k, c, f, i) for i, c in enumerate(self.comps)]

    def jet_equal(self, other: "VectorFieldJet") -> bool:
        self._check(other)
        return all(a.jet_equal(b) for a, b in zip(self.comps, other.comps))

    def __eq__(self, other) -> bool:
        if not isinstance(other, VectorFieldJet):
            return NotImplemented
        return self.dim == other.dim and self.comps == other.comps

    def __hash__(self) -> int:
        return hash(self.comps)

    def __repr__(self) -> str:
        from .parsing import field_to_text

        return f"<VectorFieldJet {field_to_text(self)}>"


class OneFormJet:
    """a_1 dz_1 + ... + a_n dz_n with PolySeries coefficients."""

    __slots__ = ("dim", "coeffs")

    def __init__(self, coeffs):
        coeffs = tuple(coeffs)
        dim = coeffs[0].dim
        if any(c.dim != dim for c in coeffs) or len(coeffs) != dim:
            raise DimensionMismatchError("one-form coefficients are inconsistent")
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, name, value):
        raise AttributeError("OneFormJet is immutable")

    def apply(self, x: VectorFieldJet) -> PolySeries:
        """Pairing omega(X)."""
        if x.dim != self.dim:
            raise DimensionMismatchError("form and field dimensions differ")
        return _combination([[(1, a, c) for a, c in zip(self.coeffs, x.comps)]])[0]

    def __eq__(self, other) -> bool:
        if not isinstance(other, OneFormJet):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __repr__(self) -> str:
        from .parsing import one_form_to_text

        return f"<OneFormJet {one_form_to_text(self)}>"


# -- operations ------------------------------------------------------------


def lie_bracket(x: VectorFieldJet, y: VectorFieldJet) -> VectorFieldJet:
    """[X, Y] with components X(Y_i) - Y(X_i): n sums of 2n products, one call."""
    x._check(y)
    return VectorFieldJet(_combination([
        x._apply_pairs(yc) + y._apply_pairs(xc, -1) for xc, yc in zip(x.comps, y.comps)
    ]))


def wedge(fields: list[VectorFieldJet]):
    """Wedge of m <= n fields.

    For m = n the single scalar coefficient (the determinant of components);
    for m < n the list of antisymmetric coefficients in a fixed basis order
    (n=3, m=2: the d/dy^d/dz, d/dz^d/dx, d/dx^d/dy coefficients).
    """
    if not fields:
        raise ValueError("wedge of an empty list")
    n = fields[0].dim
    m = len(fields)
    for f in fields:
        if f.dim != n:
            raise DimensionMismatchError("wedge of fields in different dimensions")
    if m > n:
        raise GermError(f"cannot wedge {m} fields in dimension {n}")
    if m == n:
        return _determinants([[f.comps for f in fields]])[0]
    if m == 1:
        return list(fields[0].comps)
    if n != 3:
        raise GermError(f"wedge of {m} fields supported in dimension 3 only")
    a, b = fields[0].comps, fields[1].comps
    return _combination([
        [(1, a[i], b[j]), (-1, a[j], b[i])] for i, j in ((1, 2), (2, 0), (0, 1))
    ])


def _determinants(matrices) -> list[PolySeries]:
    """Determinants of same-size square matrices by cofactor expansion along
    the first row: one call for the minors of every expansion, then one for
    the expansions; each sum is cut at the least truncation degree of its own entries."""
    n = len(matrices[0])
    if n == 1:
        return [m[0][0] for m in matrices]
    minors = _determinants([[r[:j] + r[j + 1:] for r in m[1:]] for m in matrices for j in range(n)])
    return _combination([
        [((-1) ** j, top, minors[k * n + j]) for j, top in enumerate(m[0])]
        for k, m in enumerate(matrices)
    ])


def divergence(x: VectorFieldJet) -> PolySeries:
    one = PolySeries.constant(x.dim, 1)
    return _combination([[(1, one, c, i) for i, c in enumerate(x.comps)]])[0]


def dual_form(x: VectorFieldJet) -> OneFormJet:
    """Interior product with the standard volume form.

    n=2: X_1 dy - X_2 dx.  n=3: coefficients of dy^dz, dz^dx, dx^dy (returned
    as a coefficient triple reusing the OneFormJet container).
    """
    if x.dim == 2:
        return OneFormJet([-x.comps[1], x.comps[0]])
    if x.dim == 3:
        return OneFormJet(list(x.comps))
    raise GermError("dual_form supported for n in {2, 3}")


def hamiltonian_field(f: PolySeries) -> VectorFieldJet:
    """H_f = f_y d/dx - f_x d/dy (plane only), both partials in one call;
    annihilates f by construction."""
    if f.dim != 2:
        raise DimensionMismatchError("hamiltonian fields are n=2 only")
    one = PolySeries.constant(2, 1)
    return VectorFieldJet(_combination([[(1, one, f, 1)], [(-1, one, f, 0)]]))


def radial_field(dim: int) -> VectorFieldJet:
    return weighted_euler(Weight((1,) * dim))


def weighted_euler(weight: Weight) -> VectorFieldJet:
    """The diagonal field sum_j p_j z_j d/dz_j."""
    n = len(weight)
    return VectorFieldJet(
        [PolySeries.variable(n, i) * weight[i] for i in range(n)]
    )


def quasi_decompose(obj, weight: Weight):
    """Split a function or field into weighted-Euler eigencomponents.

    Functions land in eigenvalue k = weighted degree of each monomial; fields
    in k = weighted degree minus the weight of the component direction, so
    that S(f_k) = k f_k and [S, X_k] = k X_k with S the weighted Euler field.
    Empty input yields an empty mapping.
    """
    field = isinstance(obj, VectorFieldJet)
    if not (field or isinstance(obj, PolySeries)):
        raise TypeError("quasi_decompose expects a PolySeries or VectorFieldJet")
    # a function is a field of one component with shift 0
    comps, shifts = (obj.comps, weight) if field else ((obj,), (0,))
    buckets: dict[int, list[dict]] = {}
    for i, comp in enumerate(comps):
        for e, c in comp.terms.items():
            k = weight.degree_of(e) - shifts[i]
            buckets.setdefault(k, [{} for _ in comps])[i][e] = c
    parts = {k: [_trusted(obj.dim, t, obj.trunc) for t in ts] for k, ts in sorted(buckets.items())}
    return {k: VectorFieldJet(p) if field else p[0] for k, p in parts.items()}
