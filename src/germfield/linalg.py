"""Exact sparse linear algebra over Q(i).

One routine does the work: ``Echelon.insert`` keeps the reduced row echelon
form (RREF) of the rows inserted so far.  Rows are ``{column:
GaussianRational}`` dicts holding only nonzeros.  An inserted row is reduced
against the pivot rows; a nonzero remainder is normalized at its leftmost
column, which is then cleared from the other pivot rows.  Only pivot rows
inserted with a nonempty tail are revisited: a row that is a bare pivot can
never gain an entry.  RREF is unique, so results do not depend on insertion
order.  Callers list kernel columns highest degree first: the kernel read
off the pivots is then, reversed, its graded-lex RREF, bit for bit.  The
kernel constraint matrices are about 1 % dense, and a normal form's, kept to
its resonant columns, is small and nearly diagonal: pivot rows stay short.

The engine solves with ``Echelon`` and ``solve`` (sparse rows), sized by
``require_unknowns`` first.  Nothing in the package calls ``rref``,
``nullspace`` (dense rows, lists of GaussianRational) or ``in_span``; the
benchmark's tracer wraps them by name, with ``solve``, to count calls.
"""

from __future__ import annotations

from .gaussian import ONE, ZERO, GaussianRational
from .series import GermError

# Every solve refuses more unknowns than this before it lists a column or
# builds a row (require_unknowns): kernels, resonance candidates and a log
# decomposition's residues and phi coefficients.  A plane normal form near
# this size (x, -y at N = 98) takes under 2 ms, since its resonant columns are
# solved for, not found among all 9,900; a dense field keeps every column,
# and a dense rotation takes about 0.25 s at N = 20.
MAX_UNKNOWNS = 10_000

Vector = list[GaussianRational]
Matrix = list[Vector]
SparseRow = dict[int, GaussianRational]


def require_unknowns(count: int, what: str = "unknowns"):
    """Refuse a solve of count unknowns past MAX_UNKNOWNS."""
    if count > MAX_UNKNOWNS:
        raise GermError(f"{count} {what} exceed the budget of {MAX_UNKNOWNS}")


def _subtract(row: SparseRow, f: GaussianRational, tail: SparseRow):
    """row -= f * tail in place, dropping the entries that cancel."""
    for c, a in tail.items():
        v = row.get(c, ZERO) - f * a
        if v:
            row[c] = v
        else:
            del row[c]


class Echelon:
    """RREF of the rows inserted so far: ``rows`` maps each pivot column to
    the tail of its row (the row minus its leading 1), zero at every pivot."""

    def __init__(self, ncols: int, rows=()):
        self.ncols = ncols
        self.rows: dict[int, SparseRow] = {}
        # the pivot rows inserted with a nonempty tail, the only ones that
        # back-substitution can reach (a bare pivot row never gains an entry)
        self._tailed: dict[int, SparseRow] = {}
        for row in rows:
            self.insert(row)

    def reduce(self, row: SparseRow) -> SparseRow:
        """The remainder of row modulo the pivot rows, as a new dict."""
        out = dict(row)
        # pivot rows are zero at the other pivots, so only row's own pivot
        # columns need clearing
        for p in [c for c in row if c in self.rows]:
            _subtract(out, out.pop(p), self.rows[p])
        return out

    def insert(self, row: SparseRow) -> bool:
        """Add row to the span: True if it adds a pivot, False if already in it."""
        return self._insert_reduced(self.reduce(row))

    def _insert_reduced(self, rem: SparseRow) -> bool:
        """Add a remainder already reduced modulo the pivot rows (consumed)."""
        if not rem:
            return False
        p = min(rem)
        lead = rem.pop(p)
        if rem:
            inv = ONE / lead
            rem = self._tailed[p] = {c: v * inv for c, v in rem.items()}
        for other in self._tailed.values():
            if p in other:
                _subtract(other, other.pop(p), rem)
        self.rows[p] = rem
        return True

    def basis(self) -> list[SparseRow]:
        """The reduced rows, ordered by pivot column."""
        return [{p: ONE, **self.rows[p]} for p in sorted(self.rows)]

    def kernel(self) -> list[SparseRow]:
        """Basis of {v : M v = 0}, one vector per free column, in column order."""
        free = {c: {c: ONE} for c in range(self.ncols) if c not in self.rows}
        for p, tail in self.rows.items():
            for c, a in tail.items():
                free[c][p] = -a
        return list(free.values())


def _echelon(rows: Matrix, ncols: int) -> Echelon:
    return Echelon(ncols, ({c: a for c, a in enumerate(r) if a} for r in rows))


def _dense(row: SparseRow, ncols: int) -> Vector:
    return [row.get(c, ZERO) for c in range(ncols)]


def rref(rows: Matrix, ncols: int) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form; returns (nonzero rows, pivot columns)."""
    ech = _echelon(rows, ncols)
    return [_dense(r, ncols) for r in ech.basis()], sorted(ech.rows)


def nullspace(rows: Matrix, ncols: int) -> list[Vector]:
    """Basis of {v : M v = 0}, one vector per free column, in column order."""
    return [_dense(v, ncols) for v in _echelon(rows, ncols).kernel()]


def in_span(span: Echelon, v: SparseRow) -> bool:
    return not span.reduce(v)


def solve(rows: list[SparseRow], ncols: int) -> tuple[Vector, bool]:
    """Solve M v = b exactly, free variables pinned to zero.  Each sparse row
    holds its entries of M and, at column ncols, its entry of b.

    Returns (v, consistent).  The rows are inserted in order, skipping any
    row whose remainder is only a b entry (it contradicts the rows kept
    before it), so v solves a maximal consistent subsystem and consistent is
    False exactly when a row was skipped.
    """
    ech = Echelon(ncols + 1)
    consistent = True
    for row in rows:
        rem = ech.reduce(row)
        if list(rem) == [ncols]:
            consistent = False
        else:
            ech._insert_reduced(rem)
    v = [ZERO] * ncols
    for p, tail in ech.rows.items():
        v[p] = tail.get(ncols, ZERO)
    return v, consistent
