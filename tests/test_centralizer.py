"""Kernel solver against frozen oracle values and live brute-force checks.

The frozen dimensions were computed first with the independent sympy oracle
in oracles.py (generic symbolic field, sympy.diff bracket, sympy nullspace)
and then pinned here as regression values; a few small cases keep running
both paths side by side.
"""

import sys
from fractions import Fraction
from itertools import combinations
from math import comb
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

sys.path.insert(0, str(Path(__file__).parent))
from oracles import (
    brute_force_centralizer_dim,
    brute_force_first_integral_dim,
    sympy_classify_linear,
    sympy_nullspace,
    sympy_rref,
)

from germfield import (
    DimensionMismatchError,
    GermError,
    ad_kernel,
    classify_linear,
    first_integral_kernel,
    generic_rank,
    lie_bracket,
    linear_centralizer_table,
    parse_field,
    parse_poly,
    radial_field,
    resonances,
    span_matches,
)
from germfield import PolySeries, VectorFieldJet, centralizer, linalg, weighted_euler, wedge
from germfield.centralizer import (
    _certify,
    _column_images,
    _columns,
    _field_columns,
    _kernel,
    _normal_form_weights,
    _resonant,
    centralizer_rank,
    monomials_up_to,
)
from germfield.blowup import _rational_ratio
from germfield.gaussian import gq, over_common_denominator

F = parse_field
P = parse_poly

# certified dimensions at N=6 for the eight reference rows, oracle-frozen
FROZEN_TABLE_DIMS = {1: 4, 2: 2, 3: 6, 4: 13, 5: 3, 6: 13, 7: 2, 8: 2}

TABLE_PARAMS = {
    1: {},
    2: {"ratio": gq(Fraction(5, 3))},
    3: {"p": 1, "q": 1},
    4: {},
    5: {"n": 2},
    6: {},
    7: {},
    8: {"p": 1, "residue": gq(0)},
}


class TestAdKernel:
    def test_radial_kernel_is_linear_fields(self):
        rep = ad_kernel(radial_field(2), 3)
        assert rep.dimension() == 4
        assert rep.dims == {1: 4}
        assert not rep.tentative
        got = {str(b.value.comps[0].terms) + str(b.value.comps[1].terms) for b in rep.basis}
        expected = {F("x, 0"), F("0, x"), F("y, 0"), F("0, y")}
        assert span_matches(rep.basis_fields(), list(expected), 3)

    def test_resonant_node(self):
        rep = ad_kernel(F("x, 2*y"), 4)
        assert rep.dimension() == 3
        assert any(b.value == F("0, x^2") for b in rep.basis)

    def test_linear_saddle_against_live_oracle(self):
        x = F("x, -y")
        rep = ad_kernel(x, 3)
        assert rep.dimension() == 4 == brute_force_centralizer_dim(x, 3)
        expected = [F("x, 0"), F("0, y"), F("x^2*y, 0"), F("0, x*y^2")]
        assert span_matches(rep.basis_fields(), expected, 3)

    def test_span_match_refuses_term_above_max_degree(self):
        basis = ad_kernel(F("x, 2*y"), 3).basis_fields()
        with pytest.raises(GermError, match="above degree 3"):
            span_matches(basis, [F("x^5, 0")], 3)

    def test_span_match_of_empty_families(self):
        # two empty families span the same zero space, at any degree
        assert span_matches([], [], 3) and span_matches([], [], 0)

    def test_span_match_refuses_other_dimension(self):
        basis = ad_kernel(F("x, 2*y"), 3).basis_fields()
        with pytest.raises(DimensionMismatchError):
            span_matches(basis, [F("x, y, z")], 3)

    def test_nonsingular_field(self):
        # C(d/dx) = C{y} d/dx + C{y} d/dy
        x = F("1, 0")
        rep = ad_kernel(x, 3)
        assert rep.dimension() == 8 == brute_force_centralizer_dim(x, 3)

    def test_scaling_invariance(self):
        x = F("x^2, y")
        a = ad_kernel(x, 5)
        b = ad_kernel(x * gq(0, 3), 5)
        assert [v.value for v in a.basis] == [v.value for v in b.basis]
        assert [v.value for v in a.tentative] == [v.value for v in b.tentative]

    def test_soundness_recheck(self):
        # independent re-verification of the bracket on every basis vector
        x = F("x^2, y")
        rep = ad_kernel(x, 6)
        for b in rep.basis:
            assert lie_bracket(x, b.value).is_zero()
        for b in rep.tentative:
            residue = lie_bracket(x, b.value)
            assert not residue.is_zero()
            assert residue.mu() > rep.certified_degree

    def test_tentative_not_mixed(self):
        rep = ad_kernel(F("x^2, y"), 6)
        assert rep.dimension() == 2
        assert len(rep.tentative) == 2  # x^6 d/dx and x^5 y d/dy
        x = rep.field
        assert all(lie_bracket(x, b.value).is_zero() for b in rep.basis)
        assert not any(lie_bracket(x, t.value).is_zero() for t in rep.tentative)

    def test_closure_under_bracket(self):
        rep = ad_kernel(F("x, -y"), 6)
        fields = rep.basis_fields()
        for a in fields:
            for b in fields:
                br = lie_bracket(a, b).truncated(6).as_total()
                assert span_matches(fields + [br], fields, 6)

    def test_zero_field_rejected(self):
        with pytest.raises(GermError):
            ad_kernel(F("0, 0"), 3)
        with pytest.raises(GermError):
            ad_kernel(F("x, y"), 0)

    def test_random_fields_against_live_oracle(self):
        # same kernels out of two unrelated assembly + elimination paths
        import random

        from germfield import PolySeries, VectorFieldJet

        rng = random.Random(99)
        pool = [0, 0, 1, -1, 2, Fraction(1, 2)]
        for _ in range(12):
            comps = []
            for _i in range(2):
                terms = {
                    (a, b): gq(rng.choice(pool))
                    for a in range(3)
                    for b in range(3 - a)
                }
                comps.append(PolySeries(2, terms))
            x = VectorFieldJet(comps)
            if x.is_zero():
                continue
            n = rng.choice([2, 3])
            rep = ad_kernel(x, n)
            assert rep.dimension() == brute_force_centralizer_dim(x, n)
            fik = first_integral_kernel(x, n)
            assert fik.dimension() == brute_force_first_integral_dim(x, n)


COEFFS = st.sampled_from(
    [gq(1), gq(-1), gq(2), gq(Fraction(-2, 3)), gq(0, 1), gq(1, -1),
     gq(Fraction(3, 4), Fraction(1, 2))]
)


def exact_fields(dim, max_deg):
    comp = st.dictionaries(st.sampled_from(monomials_up_to(dim, max_deg)), COEFFS, max_size=6)
    return st.lists(comp, min_size=dim, max_size=dim).map(
        lambda cs: VectorFieldJet([PolySeries(dim, t) for t in cs])
    )


def constraint_rows(x, columns):
    """{(slot, monomial): {column: coefficient}}: the constraint rows, read
    off the engine's column images."""
    d, images = _column_images(x, columns)
    rows = {}
    for col, image in enumerate(images):
        for key, (p, q) in image.items():
            if p or q:
                rows.setdefault(key, {})[col] = gq(Fraction(p, d), Fraction(q, d))
    return rows


def graded_lex(columns):
    """The columns in graded-lex order of their exponents, then by component."""
    return sorted(columns, key=lambda c: (sum(c[0]), c[0][::-1], c[1] or 0))


def labelled(columns, vectors):
    return [{columns[c]: a for c, a in v.items()} for v in vectors]


def canonical_solve(x, n, columns):
    """The kernel solve with the columns in graded-lex order, as the engine
    ran it before it pivoted highest degree first: raw and exact kernels
    re-reduced to RREF by a second elimination each.  Returns the labelled
    exact and tentative vectors and the certified count per leading degree."""
    horizon, ncols = n + x.mu() - 1, len(columns)
    rows = constraint_rows(x, columns)
    system = linalg.Echelon(ncols, [r for (_, e), r in rows.items() if sum(e) <= horizon])
    raw = linalg.Echelon(ncols, system.kernel()).basis()
    for (_, e), r in rows.items():
        if sum(e) > horizon:
            system.insert(r)
    exact = linalg.Echelon(ncols, system.kernel()).basis()
    span, tentative = linalg.Echelon(ncols, exact), []
    for v in raw:
        if not linalg.in_span(span, v):
            tentative.append(v)
            span.insert(v)
    dims: dict[int, int] = {}
    for v in exact:
        d = sum(columns[min(v)][0])
        dims[d] = dims.get(d, 0) + 1
    return labelled(columns, exact), labelled(columns, tentative), dims


def engine_solve(x, n, functions):
    """The engine's kernel of X on its own columns: labelled exact and
    tentative vectors and the certified count per leading degree."""
    columns = _columns(x, n, functions)
    _, exact, tentative = _kernel(x, n, columns)
    return labelled(columns, exact), labelled(columns, tentative), _certify(x, n, functions)[3]


class TestConstraintRows:
    """Shift-and-scale assembly against the definitions it replaces:
    column x^e d_i is [X, x^e d_i], column x^e (i = None) is X(x^e)."""

    @staticmethod
    def reference_rows(x, columns):
        rows = {}
        for col, (e, i) in enumerate(columns):
            mono = PolySeries.monomial(x.dim, e)
            if i is None:
                images = [x.apply(mono)]
            else:
                comps = [PolySeries.zero(x.dim)] * x.dim
                comps[i] = mono
                images = lie_bracket(x, VectorFieldJet(comps)).comps
            for slot, series in enumerate(images):
                for m, c in series.terms.items():
                    rows.setdefault((slot, m), {})[col] = c
        return rows

    def check(self, x, n):
        functions = [(e, None) for e in monomials_up_to(x.dim, n, min_deg=1)]
        for columns in (_field_columns(x.dim, n), functions):
            assert constraint_rows(x, columns) == self.reference_rows(x, columns)

    @given(exact_fields(2, 3))
    @settings(max_examples=60, deadline=None)
    def test_plane_fields(self, x):
        self.check(x, 3)

    @given(exact_fields(3, 2))
    @settings(max_examples=30, deadline=None)
    def test_space_fields(self, x):
        self.check(x, 2)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_euler_fields_cancel(self, dim):
        # [R, x^e d_i] = (|e| - 1) x^e d_i: the linear columns' images cancel
        for x in (radial_field(dim), weighted_euler((1, 2, 3)[:dim])):
            self.check(x, 3)
        rows = constraint_rows(radial_field(dim), _field_columns(dim, 3))
        linear = {col for col, (e, _) in enumerate(_field_columns(dim, 3)) if sum(e) == 1}
        assert rows and not any(linear & row.keys() for row in rows.values())


class TestUnknownBudget:
    def test_refused_before_assembly(self):
        x = F("x, 2*y")
        for solve in (ad_kernel, first_integral_kernel):
            with pytest.raises(GermError, match="budget"):
                solve(x, 100000)

    def test_degree_below_one_refused_by_every_solve(self):
        x = F("x, 2*y")
        for solve in (ad_kernel, first_integral_kernel):
            for n in (0, -1):
                with pytest.raises(GermError, match="max_degree"):
                    solve(x, n)

    def test_counts_at_the_edge(self):
        # plane field jets have 2*C(N+2, 2) unknowns, function jets C(N+2, 2) - 1
        x = F("x, 2*y")
        n = next(n for n in range(200) if 2 * comb(n + 2, 2) > linalg.MAX_UNKNOWNS)
        with pytest.raises(GermError, match=str(2 * comb(n + 2, 2))):
            ad_kernel(x, n)
        n = next(n for n in range(200) if comb(n + 2, 2) - 1 > linalg.MAX_UNKNOWNS)
        with pytest.raises(GermError, match=str(comb(n + 2, 2) - 1)):
            first_integral_kernel(x, n)


class TestReferenceTable:
    @pytest.mark.parametrize("row", sorted(FROZEN_TABLE_DIMS))
    def test_row_reproduced_at_degree_six(self, row):
        table = linear_centralizer_table(row, max_degree=6, **TABLE_PARAMS[row])
        rep = ad_kernel(table.field, 6)
        assert rep.dimension() == FROZEN_TABLE_DIMS[row]
        assert span_matches(rep.basis_fields(), table.generator_jets(6), 6)
        assert rep.rank_estimate == 2 == table.rank

    def test_row_verdicts(self):
        assert ad_kernel(radial_field(2), 6).stabilization == "stable"
        assert ad_kernel(F("x, 0"), 6).stabilization == "growing"
        assert ad_kernel(F("0, x"), 6).stabilization == "growing"
        # gaps between the (xy)^m blocks keep row 3 undetermined
        assert ad_kernel(F("x, -y"), 6).stabilization == "undetermined"

    def test_row2_parameter_validation(self):
        for bad in (gq(2), gq(Fraction(1, 3)), gq(Fraction(-5, 3)), gq(0)):
            with pytest.raises(GermError):
                linear_centralizer_table(2, ratio=bad)
        linear_centralizer_table(2, ratio=gq(Fraction(3, 2)))
        linear_centralizer_table(2, ratio=gq(0, 1))  # non-real is fine

    def test_float_parameters_refused(self):
        # a float is no Q(i) scalar, here as in PolySeries: refused, not
        # rounded through Fraction
        assert linear_centralizer_table(2, ratio=Fraction(3, 2)).field == F("x, 3/2*y")
        with pytest.raises(TypeError):
            linear_centralizer_table(2, ratio=2.5)
        with pytest.raises(TypeError):
            linear_centralizer_table(8, p=1, residue=0.5)

    def test_row8_nonzero_residue(self):
        table = linear_centralizer_table(8, p=1, residue=gq(1))
        rep = ad_kernel(table.field, 6)
        assert rep.dimension() == 2
        assert span_matches(rep.basis_fields(), table.generator_jets(6), 6)


class TestTentativeSplit:
    """exact + tentative is a basis of the horizon kernel, exact is the full
    kernel, and each tentative vector is new against the ones before it."""

    CASES = [
        (linear_centralizer_table(8, max_degree=6, **TABLE_PARAMS[8]).field, 6, 2),
        (F("2*x + y^2, y, 3*z + y^3"), 3, 0),
    ]

    @staticmethod
    def rank(fields):
        keys = sorted({(i, e) for f in fields for i, c in enumerate(f.comps) for e in c.terms})
        index = {key: k for k, key in enumerate(keys)}
        rows = [{index[(i, e)]: a for i, c in enumerate(f.comps) for e, a in c.terms.items()} for f in fields]
        return len(linalg.Echelon(len(keys), rows).rows)

    @pytest.mark.parametrize("case", range(len(CASES)))
    def test_split(self, case):
        x, n, n_tentative = self.CASES[case]
        rep = ad_kernel(x, n)
        exact = rep.basis_fields()
        tentative = [t.value for t in rep.tentative]
        assert len(tentative) == n_tentative
        # exact is the full kernel
        assert all(lie_bracket(x, b).is_zero() for b in exact)
        assert self.rank(exact) == len(exact) == brute_force_centralizer_dim(x, n)
        # exact + tentative spans the horizon kernel
        for t in tentative:
            residue = lie_bracket(x, t)
            assert not residue.is_zero() and residue.mu() > rep.certified_degree
        horizon_dim = brute_force_centralizer_dim(x, n, exact_only=False)
        assert self.rank(exact + tentative) == len(exact) + len(tentative) == horizon_dim
        # no tentative vector is in the span of the exact and earlier tentative ones
        for k in range(len(tentative)):
            assert self.rank(exact + tentative[: k + 1]) == len(exact) + k + 1


class TestEqualPowerDiagonal:
    def test_n2_matches_stated_generators(self):
        rep = ad_kernel(F("x^2, y^2"), 5)
        assert span_matches(rep.basis_fields(), [F("x^2, 0"), F("0, y^2")], 5)

    def test_n3_kernel_is_the_authority(self):
        # the claimed generators x^2 dx, y^2 dy do not commute for n = 3 ...
        assert lie_bracket(F("x^3, y^3"), F("x^2, 0")) == F("-x^4, 0")
        # ... and the kernel says the centralizer is x^3 dx, y^3 dy instead
        rep = ad_kernel(F("x^3, y^3"), 5)
        assert rep.dimension() == 2 == brute_force_centralizer_dim(F("x^3, y^3"), 5)
        assert span_matches(rep.basis_fields(), [F("x^3, 0"), F("0, y^3")], 5)


class TestPoincareDulac:
    """The 3D resonant example; see the decisions ledger for the dimension."""

    def setup_method(self):
        self.x = F("2*x + y^2, y, 3*z + y^3")

    def test_claimed_generators_commute(self):
        gens = [F("y^2, 0, 0"), F("0, 0, y^3"), self.x]
        for a in gens:
            for b in gens:
                assert lie_bracket(a, b).is_zero()

    def test_kernel_dimension_is_four(self):
        rep = ad_kernel(self.x, 5)
        assert rep.dimension() == 4 == brute_force_centralizer_dim(self.x, 5)
        extra = F("0, 0, z - x*y")
        assert lie_bracket(self.x, extra).is_zero()
        assert span_matches(
            rep.basis_fields(),
            [F("y^2, 0, 0"), F("0, 0, y^3"), self.x, extra],
            5,
        )

    def test_cross_resonance_behind_the_extra_element(self):
        found = resonances([gq(2), gq(1), gq(3)], 3)
        assert any(r.target == 3 and r.exponents == (1, 1, 0) for r in found)


class TestFirstIntegrals:
    def test_linear_saddle(self):
        rep = first_integral_kernel(F("x, -y"), 4)
        assert [b.value for b in rep.basis] == [P("x*y"), P("x^2*y^2")]

    def test_radial_has_none(self):
        assert first_integral_kernel(radial_field(2), 6).dimension() == 0

    def test_saddle_node_empty_certified(self):
        rep = first_integral_kernel(F("x^2, y"), 5)
        assert rep.dimension() == 0
        assert [b.value for b in rep.tentative] == [P("x^5")]
        assert brute_force_first_integral_dim(F("x^2, y"), 5) == 0


# diagonal linear parts (lambda, nilpotent entry of d/dy at x), and their
# resonant monomials decided in Q(i) arithmetic, apart from the engine's test
NORMAL_FORM_LINEAR = [
    ((gq(1), gq(2)), False),
    ((gq(1), gq(-1)), False),
    ((gq(2), gq(1)), False),
    ((gq(0, 1), gq(0, -1)), False),
    ((gq(1), gq(1)), True),
    ((gq(2), gq(1), gq(3)), False),
]


@st.composite
def normal_forms(draw):
    """(X, N): a field in Poincare-Dulac normal form, times a Q(i) scale."""
    lams, nilpotent = draw(st.sampled_from(NORMAL_FORM_LINEAR))
    dim = len(lams)
    terms = [{tuple(int(j == i) for j in range(dim)): lam} for i, lam in enumerate(lams)]
    if nilpotent:
        terms[1][(1, 0)] = draw(COEFFS)
    resonant = [
        (e, i)
        for e in monomials_up_to(dim, 4, min_deg=2)
        for i in range(dim)
        if sum((lam * k for lam, k in zip(lams, e)), start=gq(0)) == lams[i]
    ]
    if resonant:
        for e, i in draw(st.lists(st.sampled_from(resonant), unique=True, max_size=3)):
            terms[i][e] = draw(COEFFS)
    x = VectorFieldJet([PolySeries(dim, t) for t in terms]) * draw(COEFFS)
    return x, draw(st.integers(3, 6))


class TestResonantColumns:
    """Kernels of normal-form fields, solved on their resonant columns only,
    against the same problem on every column."""

    def check(self, x, n):
        """Assert that both kernels equal their all-column oracle; return the
        field kernel's exact and tentative counts and whether it dropped
        columns."""
        functions = [(e, None) for e in monomials_up_to(x.dim, n, min_deg=1)]
        for flag, columns in ((True, functions), (False, _field_columns(x.dim, n))):
            exact, tentative, dims = canonical_solve(x, n, columns)
            assert engine_solve(x, n, flag) == (exact, tentative, dims)
        # the field kernel's, from the last pass
        return len(exact), len(tentative), len(_columns(x, n, False)) < len(columns)

    @given(normal_forms())
    @settings(max_examples=60, deadline=None)
    def test_normal_forms_match_all_columns(self, case):
        x, n = case
        assert self.check(x, n)[2]

    @pytest.mark.parametrize(
        "field, n, counts",
        [
            ("x + y, x + y", 3, (7, 0)),  # A - diag(A) is not nilpotent
            ("x + y^2, 2*y", 3, (2, 1)),  # y^2 d/dx is not resonant
            ("1, y", 3, (2, 6)),  # X(0) != 0
            ("0, x", 3, (7, 0)),  # S = 0 already: A is nilpotent
        ],
    )
    def test_guards_keep_every_column(self, field, n, counts):
        x = F(field)
        # not in normal form for a nonzero S: in normal form for S = 0
        assert _normal_form_weights(x) == [(0, 0)] * x.dim
        *got, dropped = self.check(x, n)
        assert tuple(got) == counts and not dropped

    def test_no_resonant_function_column(self):
        rep = first_integral_kernel(F("x, 2*y"), 6)
        assert rep.dimension() == 0 and rep.dims == {} and not rep.tentative

    @pytest.mark.parametrize("field", ["x, x + y", "2*x + y^2, y, 3*z + y^3"])
    def test_against_live_oracle(self, field):
        x = F(field)
        rep = ad_kernel(x, 4)
        assert rep.dimension() == brute_force_centralizer_dim(x, 4)
        horizon_dim = brute_force_centralizer_dim(x, 4, exact_only=False)
        assert rep.dimension() + len(rep.tentative) == horizon_dim


# eigenvalue entries: zero, repeated, negative rational and non-real
LAMBDA_ENTRIES = st.sampled_from(
    [gq(0), gq(1), gq(2), gq(-1), gq(Fraction(-3, 2)), gq(Fraction(1, 2)), gq(0, 1), gq(0, -2),
     gq(1, -1), gq(Fraction(1, 2), Fraction(-1, 3))]
)


def scan_resonant(lams, targets, max_deg, min_deg):
    """(e, i) with <lambda, e> = targets[i]: every monomial weighed in Q(i)
    arithmetic, in monomials_up_to's order, then by i."""
    out = []
    for e in monomials_up_to(len(lams), max_deg, min_deg):
        w = sum((lam * k for lam, k in zip(lams, e)), start=gq(0))
        out.extend((e, i) for i, t in enumerate(targets) if w == t)
    return out


class TestResonantEnumeration:
    """_resonant solves <lambda, e> = target for one exponent; it must list
    what weighing every monomial lists, in the same order."""

    @given(
        st.lists(LAMBDA_ENTRIES, min_size=1, max_size=3),
        st.integers(0, 7),
        st.sampled_from([0, 1, 2]),
    )
    @example([gq(0), gq(0)], 4, 0)
    @example([gq(1), gq(1), gq(1)], 3, 1)
    @example([gq(Fraction(-3, 2)), gq(3)], 6, 2)
    @example([gq(0, 1), gq(0, -1)], 5, 1)
    @example([gq(0), gq(2), gq(0)], 4, 0)
    @example([gq(2)], 7, 0)
    @settings(max_examples=150, deadline=None)
    def test_matches_scan(self, lams, max_deg, min_deg):
        _, nums = over_common_denominator(lams)
        got = _resonant(nums, nums, max_deg, min_deg)
        assert got == scan_resonant(lams, lams, max_deg, min_deg)
        got = _resonant(nums, [(0, 0)], max_deg, min_deg)
        assert got == scan_resonant(lams, [gq(0)], max_deg, min_deg)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_zero_lambda_lists_every_column(self, dim):
        # the columns of every field not in normal form for a nonzero S
        zero = [(0, 0)] * dim
        for n in range(9):
            assert _resonant(zero, zero, n) == _field_columns(dim, n)
            assert _resonant(zero, [(0, 0)], n, min_deg=1) == [(e, 0) for e in monomials_up_to(dim, n, 1)]


def _dense(rows, ncols):
    return [[(r[c].re, r[c].im) if c in r else (Fraction(0), Fraction(0)) for c in range(ncols)] for r in rows]


def _sympy_kernel_rref(rows, ncols):
    """The RREF of the kernel of the dense rows, by sympy alone."""
    one, zero = (Fraction(1), Fraction(0)), (Fraction(0), Fraction(0))
    if rows:
        vectors = sympy_nullspace(rows, ncols)
    else:
        vectors = [[one if c == k else zero for c in range(ncols)] for k in range(ncols)]
    return sympy_rref(vectors, ncols)[0] if vectors else []


class TestOneElimination:
    """_kernel against sympy: the exact kernel is the RREF of the nullspace of
    every row, the raw one of the rows up to the horizon, and the tentative
    vectors are the raw RREF vectors outside the span of the exact and the
    earlier tentative ones.  sympy sees the rows with the columns in
    graded-lex order; vectors are compared by column label."""

    CASES = [
        (F("y, -x"), 4, False),
        (F("2*y, -3*x"), 4, False),
        (F("0, x"), 4, False),
        (F("x + y, y"), 4, False),
        (linear_centralizer_table(8, p=1, residue=gq(1)).field, 4, True),
        (parse_field("2*x + y^2, y, 3*z + y^3", 3), 3, True),
    ]

    @staticmethod
    def column_lists(x, n):
        """Each list highest degree first: the resonant field and function
        columns, then every field and every function column."""
        functions = [(e, None) for e in monomials_up_to(x.dim, n, min_deg=1)]
        return [_columns(x, n, False), _columns(x, n, True), _field_columns(x.dim, n)[::-1], functions[::-1]]

    @staticmethod
    def by_label(canonical, dense):
        return [{canonical[c]: gq(*z) for c, z in enumerate(v) if any(z)} for v in dense]

    @pytest.mark.parametrize("x, n, past", CASES, ids=[str(c[0]) for c in CASES])
    def test_against_sympy(self, x, n, past):
        found_past = False
        for columns in self.column_lists(x, n):
            canonical = graded_lex(columns)
            ncols, horizon = len(canonical), n + x.mu() - 1
            rows = constraint_rows(x, canonical)
            visible = [r for (_, e), r in rows.items() if sum(e) <= horizon]
            found_past |= len(visible) < len(rows)
            raw = _sympy_kernel_rref(_dense(visible, ncols), ncols)
            exact = _sympy_kernel_rref(_dense(rows.values(), ncols), ncols)
            tentative, span = [], list(exact)
            for v in raw:
                if len(sympy_rref(span + [v], ncols)[1]) > len(span):
                    tentative.append(v)
                    span.append(v)
            _, got_exact, got_tentative = _kernel(x, n, columns)
            assert labelled(columns, got_exact) == self.by_label(canonical, exact)
            assert labelled(columns, got_tentative) == self.by_label(canonical, tentative)
        assert found_past == past


# linear parts of every type: rotations, saddles, nodes, resonant nodes,
# Jordan blocks, nilpotent and zero (mu > 1 once the constant term is gone)
DENSE_LINEAR = {
    2: ["y, -x", "i*x, -i*y", "x, -2*y", "x, 1/3*y", "x, 2*y", "x + y, y", "0, x", "0, 0"],
    3: ["x, 2*y, 3*z", "y, -x, z", "x, y, -2*z", "x + y, y, 2*z", "y, z, 0", "0, 0, 0"],
}


@st.composite
def dense_fields(draw):
    """(X, N): a drawn linear part plus every monomial of degree 2 up to a
    drawn degree, each with a drawn nonzero coefficient."""
    dim = draw(st.sampled_from([2, 3]))
    linear = parse_field(draw(st.sampled_from(DENSE_LINEAR[dim])), dim)
    top = draw(st.integers(2, 3))
    higher = monomials_up_to(dim, top, min_deg=2)
    comps = [PolySeries(dim, {**c.terms, **{e: draw(COEFFS) for e in higher}}) for c in linear.comps]
    return VectorFieldJet(comps), draw(st.integers(2, 4 if dim == 2 else 3))


class TestCanonicalOrder:
    """Pivoting highest degree first reads the canonical RREF off one
    elimination: on dense fields of every linear type the engine's exact and
    tentative vectors and dims equal the graded-lex solve with re-reduction."""

    @given(dense_fields())
    @settings(max_examples=40, deadline=None)
    def test_dense_fields_match_canonical_solve(self, case):
        x, n = case
        for functions in (False, True):
            canonical = graded_lex(_columns(x, n, functions))
            assert engine_solve(x, n, functions) == canonical_solve(x, n, canonical)


class TestResidualCheck:
    def test_corrupted_kernel_vector_is_refused(self, monkeypatch):
        kernel = linalg.Echelon.kernel

        def corrupted(self):
            vectors = kernel(self)
            v = next(v for v in vectors if len(v) > 1)
            c = list(v)[1]  # a pivot column: its image is not zero
            v[c] = v[c] + 1
            return vectors

        monkeypatch.setattr(linalg.Echelon, "kernel", corrupted)
        with pytest.raises(GermError, match="internal error"):
            ad_kernel(F("y, -x"), 3)


PLANE_POLYS = st.dictionaries(st.sampled_from(monomials_up_to(2, 3)), COEFFS, max_size=3).map(
    lambda t: PolySeries(2, t)
)
PLANE_FIELDS = st.builds(lambda a, b: VectorFieldJet([a, b]), PLANE_POLYS, PLANE_POLYS)


@st.composite
def rank_families(draw):
    """Plane bases: free draws, rank-1 families h*V, and bases whose first
    pair is dependent, each member exact or cut at a drawn degree."""
    kind = draw(st.sampled_from(["free", "multiples", "dependent_first"]))
    if kind == "free":
        basis = draw(st.lists(PLANE_FIELDS, min_size=1, max_size=4))
    else:
        v = draw(PLANE_FIELDS)
        basis = [v * h for h in draw(st.lists(PLANE_POLYS, min_size=2, max_size=4))]
        if kind == "dependent_first":
            basis += draw(st.lists(PLANE_FIELDS, min_size=1, max_size=2))
    cuts = draw(st.lists(st.one_of(st.none(), st.integers(0, 5)), min_size=len(basis), max_size=len(basis)))
    return [b if t is None else b.truncated(t) for b, t in zip(basis, cuts)]


class TestGenericRank:
    def test_diagonal_pair(self):
        assert generic_rank([F("x, 0"), F("0, y")]) == 2

    def test_single_element(self):
        assert generic_rank([F("x, -y")]) == 1

    def test_cusp_hamiltonian_centralizer(self):
        rep = ad_kernel(F("3*y^2, -2*x"), 6)
        assert rep.rank_estimate == 1
        assert generic_rank(rep.basis_fields()) == 1

    def test_empty_rejected(self):
        with pytest.raises(GermError):
            generic_rank([])

    def test_three_dimensional_rank_refused_before_any_column(self, monkeypatch):
        def ran(*_):
            raise AssertionError("listed kernel columns for a 3D field")

        x = F("x, 2*y, 3*z")
        assert ad_kernel(x, 3).rank_estimate is None
        monkeypatch.setattr(centralizer, "_columns", ran)
        with pytest.raises(GermError, match="generic rank is defined for n=2 only"):
            centralizer_rank(x, 3)

    @given(rank_families())
    @example([F("x, y"), F("x^2, x*y"), F("0, x")])  # first pair dependent
    @example([F("x, y").truncated(1), F("x^2, x*y"), F("y, 0").truncated(1)])  # nonzero wedges only past the jets
    @settings(max_examples=120, deadline=None)
    def test_matches_wedge_definition(self, basis):
        independent = any(not wedge([a, b]).is_zero() for a, b in combinations(basis, 2))
        assert generic_rank(basis) == (2 if independent else 1)


class TestResonances:
    def test_node_two_to_one(self):
        found = resonances([gq(1), gq(2)], 3)
        assert [(r.target, r.exponents) for r in found] == [(2, (2, 0))]

    def test_no_resonance(self):
        assert resonances([gq(2), gq(5)], 6) == ()

    def test_balanced_saddle(self):
        found = resonances([gq(1), gq(-1)], 3)
        assert {(r.target, r.exponents) for r in found} == {(1, (2, 1)), (2, (1, 2))}

    def test_entries_verify_their_relation(self):
        lams = [gq(Fraction(3, 2)), gq(-3)]
        for r in resonances(lams, 6):
            combo = sum(
                (lams[j] * k for j, k in enumerate(r.exponents)), start=gq(0)
            )
            assert combo == lams[r.target - 1]

    def test_float_eigenvalues_refused(self):
        # ints and Fractions coerce as in PolySeries; a float is refused
        assert resonances([1, Fraction(2)], 3) == resonances([gq(1), gq(2)], 3)
        with pytest.raises(TypeError):
            resonances([0.5, 1], 3)

    def test_zero_eigenvalues_resonate_everywhere(self):
        found = resonances([gq(0), gq(0)], 3)
        expected = [(t, e) for t in (1, 2) for e in monomials_up_to(2, 3, min_deg=2)]
        assert [(r.target, r.exponents) for r in found] == expected

    def test_balanced_saddle_in_order(self):
        found = resonances([gq(1), gq(-1)], 5)
        assert [(r.target, r.exponents) for r in found] == [
            (1, (2, 1)), (1, (3, 2)), (2, (1, 2)), (2, (2, 3)),
        ]

    def test_resonant_completeness_for_diagonal_fields(self):
        # diagonal kernel = diagonal fields + exactly the resonant monomials
        from germfield import PolySeries, VectorFieldJet

        for lams, n in (([gq(1), gq(2)], 4), ([gq(1), gq(-1)], 4)):
            x = F("x, 0") * lams[0] + F("0, y") * lams[1]
            rep = ad_kernel(x, n)
            expected = [F("x, 0"), F("0, y")]
            for r in resonances(lams, n):
                comps = [P("0"), P("0")]
                comps[r.target - 1] = PolySeries(2, {tuple(r.exponents): gq(1)})
                expected.append(VectorFieldJet(comps))
            assert rep.dimension() == len(expected)
            assert span_matches(rep.basis_fields(), expected, n)


_PARTS = st.sampled_from([Fraction(0), Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2), Fraction(-3, 2)])
_ENTRY = st.builds(gq, _PARTS, _PARTS)
_NONZERO = _ENTRY.filter(bool)
_REAL = _PARTS.map(gq)
_PAIR = st.tuples(_ENTRY, _ENTRY)


def _mat_mul(a, b):
    return [[a[i][0] * b[0][j] + a[i][1] * b[1][j] for j in range(2)] for i in range(2)]


def _conjugated(m, p):
    det = p[0][0] * p[1][1] - p[0][1] * p[1][0]
    inverse = [[p[1][1] / det, -p[0][1] / det], [-p[1][0] / det, p[0][0] / det]]
    return _mat_mul(_mat_mul(p, m), inverse)


def _companion(trace, s):
    """A matrix with this nonzero trace and s = trace^2/det - 2 (s != -2)."""
    return [[gq(0), -(trace * trace / (s + 2))], [gq(1), trace]]


# The ratios r, 1/r of a linear part solve r + 1/r = s.  The draws aim at each
# branch of that test: companion matrices of a chosen s (2: a Jordan block;
# 5/2, 10/3, -17/4: rational ratios 2, 3, -4; 1: s^2 - 4 < 0; 3: irrational;
# 5/2 + i and 2i: not real), scalar matrices (s = 2), trace zero (s = -2),
# diag(l, k l) (eigenvalues i, 2i among them), real rotations (s^2 - 4 < 0),
# singular and arbitrary Q(i) matrices, each conjugated by an invertible one.
_S = st.sampled_from([gq(2), gq(Fraction(5, 2)), gq(Fraction(10, 3)), gq(Fraction(-17, 4)), gq(1), gq(3),
                      gq(Fraction(5, 2), 1), gq(0, 2)])
_INVERTIBLE = st.tuples(_PAIR, _PAIR).filter(lambda p: p[0][0] * p[1][1] != p[0][1] * p[1][0])
LINEAR_PARTS = st.builds(
    _conjugated,
    st.one_of(
        st.builds(_companion, _NONZERO, _S),
        st.builds(lambda c: [[c, gq(0)], [gq(0), c]], _NONZERO),
        st.builds(lambda a, b, c: [[a, b], [c, -a]], _ENTRY, _ENTRY, _ENTRY),
        st.builds(lambda l, k: [[l, gq(0)], [gq(0), k * l]], _NONZERO, st.sampled_from([2, -1, -3, Fraction(1, 3)])),
        st.builds(lambda a, b: [[a, -b], [b, a]], _REAL, _REAL.filter(bool)),
        st.builds(lambda u, v: [[u[0] * v[0], u[0] * v[1]], [u[1] * v[0], u[1] * v[1]]], _PAIR, _PAIR),
        st.tuples(_PAIR, _PAIR),
    ),
    _INVERTIBLE,
)


class TestClassifyLinear:
    @settings(max_examples=40, deadline=None)
    @given(LINEAR_PARTS)
    @example(_companion(gq(1), gq(Fraction(5, 2))))  # ratios 1/2 and 2
    @example(_companion(gq(1), gq(Fraction(5, 2), 1)))  # Re s = 5/2, s not real
    @example([[gq(0, 1), gq(0)], [gq(0), gq(0, 2)]])  # eigenvalues i, 2i
    # the linear parts of TestClassifyAgainstSympy's examples over D > 1
    @example([[gq(Fraction(1, 3), Fraction(1, 3)), gq(0)], [gq(0), gq(Fraction(-2, 3), Fraction(-2, 3))]])  # ratio -2
    @example([[gq(Fraction(1, 3), Fraction(1, 3)), gq(0)], [gq(0), gq(Fraction(2, 3), Fraction(2, 3))]])  # ratio 2
    @example([[gq(Fraction(1, 5), Fraction(2, 5)), gq(1)], [gq(0), gq(Fraction(1, 5), Fraction(2, 5))]])  # Jordan block
    @example([[gq(Fraction(1, 2), 1), gq(0)], [gq(0), gq(Fraction(1, 3), Fraction(-1, 2))]])  # s not real
    def test_against_sympy(self, m):
        lc = classify_linear(m)
        eigenvalues = None if lc.eigenvalues is None else tuple((e.re, e.im) for e in lc.eigenvalues)
        got = (lc.case, lc.ratio_rationality, lc.ratio, lc.rational_ratios, eigenvalues)
        assert got == sympy_classify_linear([[(c.re, c.im) for c in row] for row in m])

    def test_float_entries_refused(self):
        # without the refusal 0.1 became 3602879701896397/36028797018963968
        assert classify_linear([[1, 0], [0, Fraction(-3, 2)]]).ratio == Fraction(-3, 2)
        with pytest.raises(TypeError):
            classify_linear([[0.1, 0], [0, 1]])

    def test_identity(self):
        lc = classify_linear([[gq(1), gq(0)], [gq(0), gq(1)]])
        assert lc.case == "semisimple"
        assert lc.ratio == Fraction(1)

    def test_nilpotent(self):
        lc = classify_linear([[gq(0), gq(0)], [gq(1), gq(0)]])
        assert lc.case == "nilpotent_nonzero"
        assert lc.ratio_rationality == "undefined"

    def test_irrational_ratio(self):
        # ratio quadratic r^2 + 3r + 1, no rational root
        lc = classify_linear([[gq(1), gq(1)], [gq(1), gq(0)]])
        assert lc.case == "semisimple"
        assert lc.ratio_rationality == "irrational"
        assert lc.eigenvalues is None  # discriminant 5 has no Q(i) root

    def test_rational_negative_ratio_without_eigenvalues(self):
        # trace 0, det -2: eigenvalues +-sqrt(2) leave Q(i), ratio is -1
        lc = classify_linear([[gq(0), gq(1)], [gq(2), gq(0)]])
        assert lc.ratio == Fraction(-1)
        assert lc.eigenvalues is None
        assert lc.rational_ratios == (Fraction(-1),)

    def test_one_zero_eigenvalue(self):
        lc = classify_linear([[gq(0), gq(0)], [gq(0), gq(3)]])
        assert lc.case == "one_zero_eigenvalue"
        assert lc.eigenvalues == (gq(0), gq(3))

    def test_jordan_block_resonant(self):
        lc = classify_linear([[gq(1), gq(0)], [gq(1), gq(1)]])
        assert lc.case == "nondiagonal_resonant"
        assert lc.ratio == Fraction(1)

    @pytest.mark.parametrize("trace", [gq(Fraction(2, 3), 1), gq(0)])
    def test_ratio_roots_refuse_a_zero_determinant(self, trace):
        # both callers decide det = 0 first; the integer ratio test refuses it
        # itself, not through a Fraction over d = 0 that neither builds
        with pytest.raises(ZeroDivisionError):
            _rational_ratio(over_common_denominator([trace])[1][0], (0, 0))

    def test_ratio_two(self):
        lc = classify_linear(F("x, 2*y").linear_part_matrix())
        assert lc.ratio == Fraction(2)
        assert lc.rational_ratios == (Fraction(1, 2), Fraction(2))
