"""The sparse eliminator against sympy's DomainMatrix over QQ_I.

RREF is unique, so rref, rank and nullspace must agree with the oracle
exactly, entry for entry, on random sparse Q(i) matrices with zero rows,
repeated rows and full rank, and on nearly diagonal ones like the normal
forms' kernel systems, where only the rows with tails are back-substituted.
"""

import sys
from fractions import Fraction
from pathlib import Path

import hypothesis.strategies as st
import pytest
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


ONE = (Fraction(1), Fraction(0))


def _row(ncols, entries):
    row = [ZERO] * ncols
    for c, a in entries.items():
        row[c] = a
    return row


@st.composite
def near_diagonal(draw):
    """(rows, ncols): mostly one-entry rows plus a few rows with tails, up to
    12 columns, in random order."""
    ncols = draw(st.integers(2, 12))
    cols = st.integers(0, ncols - 1)
    rows = [_row(ncols, {c: draw(SCALARS)}) for c in draw(st.lists(cols, max_size=12))]
    for _ in range(draw(st.integers(1, 3))):
        support = draw(st.sets(cols, min_size=2, max_size=4))
        rows.append(_row(ncols, {c: draw(SCALARS) for c in support}))
    return draw(st.permutations(rows)), ncols


# a one-entry row whose column a later row with a tail holds, and a row with
# a tail whose tail column later becomes a one-entry pivot
ONE_ENTRY_FIRST = ([_row(3, {1: ONE}), _row(3, {0: ONE, 1: ONE, 2: ONE})], 3)
TAIL_FIRST = ([_row(3, {0: ONE, 1: ONE, 2: ONE}), _row(3, {1: ONE}), _row(3, {2: ONE})], 3)


def _check_eliminator(rows, ncols):
    red, pivots = linalg.rref(_ours(rows), ncols)
    want_red, want_pivots = sympy_rref(rows, ncols)
    assert (pivots, _pairs(red)) == (want_pivots, want_red)
    assert linalg.rank(_ours(rows), ncols) == len(want_pivots)
    assert _pairs(linalg.nullspace(_ours(rows), ncols)) == sympy_nullspace(rows, ncols)
    assert linalg.span_equal(_ours(rows), _ours(want_red), ncols)


@settings(max_examples=300, deadline=None)
@given(matrices())
def test_eliminator_matches_sympy(case):
    _check_eliminator(*case)


@settings(max_examples=300, deadline=None)
@given(near_diagonal())
def test_near_diagonal_eliminator_matches_sympy(case):
    _check_eliminator(*case)


def _check_solve(rows, ncols, rhs):
    augmented = [row + [t] for row, t in zip(rows, rhs)]
    # sparse rows of [M | rhs], the rhs entry at column ncols
    v, consistent = linalg.solve([{c: a for c, a in enumerate(r) if a} for r in _ours(augmented)], ncols)
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


@settings(max_examples=200, deadline=None)
@given(matrices(), st.data())
def test_solve_consistency_matches_rank(case, data):
    rows, ncols = case
    _check_solve(rows, ncols, data.draw(st.lists(ENTRIES, min_size=len(rows), max_size=len(rows))))


@settings(max_examples=200, deadline=None)
@given(near_diagonal(), st.data())
def test_near_diagonal_solve_matches_rank(case, data):
    rows, ncols = case
    _check_solve(rows, ncols, data.draw(st.lists(ENTRIES, min_size=len(rows), max_size=len(rows))))


@pytest.mark.parametrize("case", [ONE_ENTRY_FIRST, TAIL_FIRST], ids=["one_entry_first", "tail_first"])
def test_one_entry_and_tailed_rows_in_either_order(case):
    rows, ncols = case
    _check_eliminator(rows, ncols)
    _check_solve(rows, ncols, [ONE] * len(rows))
    _check_solve(rows, ncols, [ONE] + [ZERO] * (len(rows) - 1))
