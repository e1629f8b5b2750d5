"""The sparse eliminator against sympy's DomainMatrix over QQ_I.

RREF is unique, so rref, rank and nullspace must agree with the oracle
exactly, entry for entry, on random sparse Q(i) matrices with zero rows,
repeated rows and full rank.
"""

import sys
from fractions import Fraction
from pathlib import Path

import hypothesis.strategies as st
from hypothesis import given, settings

sys.path.insert(0, str(Path(__file__).parent))
from oracles import sympy_nullspace, sympy_rref

from germfield import linalg
from germfield.gaussian import gq

ZERO = (Fraction(0), Fraction(0))
SCALARS = st.sampled_from(
    [(Fraction(a), Fraction(b)) for a, b in ((1, 0), (-1, 0), (2, 0), (0, 1), (1, -1))]
    + [(Fraction(1, 2), Fraction(0)), (Fraction(-2, 3), Fraction(3, 4))]
)
ENTRIES = st.one_of(st.just(ZERO), st.just(ZERO), st.just(ZERO), SCALARS)


@st.composite
def matrices(draw):
    """(rows of (re, im) pairs, ncols): sparse, with zero and repeated rows."""
    ncols = draw(st.integers(1, 7))
    if draw(st.booleans()):
        rows = draw(st.lists(st.lists(ENTRIES, min_size=ncols, max_size=ncols), max_size=7))
    else:
        # full rank: an upper-triangular block with a nonzero diagonal
        size = draw(st.integers(1, ncols))
        rows = []
        for k in range(size):
            row = [ZERO] * ncols
            row[k] = draw(SCALARS)
            for c in range(k + 1, ncols):
                row[c] = draw(ENTRIES)
            rows.append(row)
    for _ in range(draw(st.integers(0, 2))):
        rows.insert(draw(st.integers(0, len(rows))), [ZERO] * ncols)
    if rows and draw(st.booleans()):
        rows.append(list(rows[draw(st.integers(0, len(rows) - 1))]))
    return draw(st.permutations(rows)), ncols


def _ours(rows):
    return [[gq(re, im) for re, im in row] for row in rows]


def _pairs(rows):
    return [[(v.re, v.im) for v in row] for row in rows]


@settings(max_examples=300, deadline=None)
@given(matrices())
def test_eliminator_matches_sympy(case):
    rows, ncols = case
    red, pivots = linalg.rref(_ours(rows), ncols)
    want_red, want_pivots = sympy_rref(rows, ncols)
    assert (pivots, _pairs(red)) == (want_pivots, want_red)
    assert linalg.rank(_ours(rows), ncols) == len(want_pivots)
    assert _pairs(linalg.nullspace(_ours(rows), ncols)) == sympy_nullspace(rows, ncols)
    assert linalg.span_equal(_ours(rows), _ours(want_red), ncols)


@settings(max_examples=200, deadline=None)
@given(matrices(), st.data())
def test_solve_consistency_matches_rank(case, data):
    rows, ncols = case
    rhs = data.draw(st.lists(ENTRIES, min_size=len(rows), max_size=len(rows)))
    v, consistent = linalg.solve(_ours(rows), [gq(*t) for t in rhs], ncols)
    augmented = [row + [t] for row, t in zip(rows, rhs)]
    assert consistent == (len(sympy_rref(augmented, ncols + 1)[1]) == len(sympy_rref(rows, ncols)[1]))
    satisfied = [
        sum((a * x for a, x in zip(row, v)), gq(0)) == gq(*t)
        for row, t in zip(_ours(rows), rhs)
    ]
    assert consistent == all(satisfied)
    # v solves a maximal consistent subsystem: every row it misses
    # contradicts the rows it solves
    kept = [row for row, ok in zip(augmented, satisfied) if ok]
    for row, ok in zip(augmented, satisfied):
        if not ok:
            grown = kept + [row]
            assert len(sympy_rref(grown, ncols + 1)[1]) > len(sympy_rref([r[:ncols] for r in grown], ncols)[1])
