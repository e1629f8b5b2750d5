"""Exact sparse linear algebra over Q(i).

One routine does the work: ``Echelon.insert`` keeps the reduced row echelon
form (RREF) of the rows inserted so far.  Rows are ``{column:
GaussianRational}`` dicts holding only nonzeros.  An inserted row is reduced
against the pivot rows; a nonzero remainder is normalized at its leftmost
column, which is then cleared from the other pivot rows.  RREF is unique, so
results do not depend on insertion order, and with the graded-lex column
order chosen by callers every kernel basis is reproducible bit for bit.  The
kernel constraint matrices are about 1 % dense, so pivot rows stay short.
The module functions take and return dense rows (lists of GaussianRational).
"""

from __future__ import annotations

from .gaussian import ONE, ZERO, GaussianRational

Vector = list[GaussianRational]
Matrix = list[Vector]
SparseRow = dict[int, GaussianRational]


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

    def insert(self, row: SparseRow):
        """Add row to the span (a row already in it changes nothing)."""
        tail = self.reduce(row)
        if not tail:
            return
        p = min(tail)
        inv = ONE / tail.pop(p)
        tail = {c: v * inv for c, v in tail.items()}
        for other in self.rows.values():
            if p in other:
                _subtract(other, other.pop(p), tail)
        self.rows[p] = tail

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


def rank(rows: Matrix, ncols: int) -> int:
    return len(_echelon(rows, ncols).rows)


def nullspace(rows: Matrix, ncols: int) -> list[Vector]:
    """Basis of {v : M v = 0}, one vector per free column, in column order."""
    return [_dense(v, ncols) for v in _echelon(rows, ncols).kernel()]


def in_span(span: Echelon, v: SparseRow) -> bool:
    return not span.reduce(v)


def span_equal(a: Matrix, b: Matrix, ncols: int) -> bool:
    return _echelon(a, ncols).rows == _echelon(b, ncols).rows


def solve(rows: Matrix, rhs: Vector, ncols: int) -> tuple[Vector, bool]:
    """Solve M v = rhs exactly, free variables pinned to zero.

    Returns (v, consistent).  The rows of [M | rhs] are inserted in order,
    skipping any row whose remainder is only a rhs entry (it contradicts the
    rows kept before it), so v solves a maximal consistent subsystem and
    consistent is False exactly when a row was skipped.
    """
    ech = Echelon(ncols + 1)
    consistent = True
    for r, t in zip(rows, rhs):
        tail = ech.reduce({c: a for c, a in enumerate([*r, t]) if a})
        if list(tail) == [ncols]:
            consistent = False
        else:
            ech.insert(tail)
    v = [ZERO] * ncols
    for p, tail in ech.rows.items():
        v[p] = tail.get(ncols, ZERO)
    return v, consistent
