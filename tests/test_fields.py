import re
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))
from oracles import field_to_sympy, poly_to_sympy, sympy_bracket

from germfield import (
    DimensionMismatchError,
    GermError,
    OneFormJet,
    TruncationError,
    VectorFieldJet,
    Weight,
    divergence,
    dual_form,
    hamiltonian_field,
    lie_bracket,
    one_form_to_text,
    parse_field,
    parse_one_form,
    parse_poly,
    quasi_decompose,
    radial_field,
    wedge,
    weighted_euler,
)

F = parse_field
P = parse_poly


class TestBracket:
    def test_diagonal_fields_commute(self):
        assert lie_bracket(F("x, 0"), F("0, y")).is_zero()

    def test_radial_grades_homogeneous_fields(self):
        # [R, X_k] = (k-1) X_k; here k = 2
        x22 = F("0, x^2")
        assert lie_bracket(radial_field(2), x22) == x22

    def test_degree_zero_jets_refused(self):
        # two degree-0 jets determine no coefficient of their bracket
        x = VectorFieldJet([c.truncated(0) for c in F("1 + x, y").comps])
        y = VectorFieldJet([c.truncated(0) for c in F("2 + y, x").comps])
        with pytest.raises(TruncationError):
            lie_bracket(x, y)

    def test_rotationlike_pair_against_oracle(self):
        a, b = F("y, 0"), F("0, x")
        assert lie_bracket(a, b) == F("-x, y")
        ours = lie_bracket(a, b)
        theirs = sympy_bracket(field_to_sympy(a), field_to_sympy(b), 2)
        assert [poly_to_sympy(c) for c in ours.comps] == theirs

    def test_truncated_bracket_certified_degree(self):
        a = F("x, -y").truncated(4)
        b = F("0, x^2").truncated(4)
        out = lie_bracket(a, b)
        # four products of a degree-4 jet against a derivative of one
        assert out.trunc == 3


class TestWedge:
    def test_self_wedge_vanishes(self):
        x = F("x + y^2, x^2 - y")
        assert wedge([x, x]).is_zero()

    def test_weighted_wedge_value(self):
        assert wedge([F("x, 2*y"), F("y, 0")]) == P("-2*y^2")

    def test_diagonal(self):
        assert wedge([F("x, 0"), F("0, y")]) == P("x*y")

    def test_three_dimensional_pair_coefficients(self):
        a = F("x, 0, 0")
        b = F("0, y, 0")
        coeffs = wedge([a, b])
        assert [str(c.terms) for c in coeffs[:2]] == ["{}", "{}"]
        assert coeffs[2] == P("x*y", 3)

    def test_single_field_returns_components(self):
        x = F("x^2, y")
        assert wedge([x]) == list(x.comps)

    def test_too_many_fields(self):
        from germfield import GermError

        with pytest.raises(GermError):
            wedge([F("x, y"), F("y, x"), F("x, x")])


class TestDivergence:
    def test_radial(self):
        assert divergence(radial_field(2)) == P("2")

    def test_shear(self):
        assert divergence(F("y, 0")).is_zero()

    def test_mixed(self):
        assert divergence(F("x^2, x*y")) == P("3*x")


class TestApply:
    def test_first_integral_of_linear_saddle(self):
        assert F("x, -y").apply(P("x*y")).is_zero()

    def test_radial_on_cubic_monomial(self):
        assert radial_field(2).apply(P("x^2*y")) == P("3*x^2*y")

    def test_level_foliation_field_on_x(self):
        assert F("2*x*y, 2*y^2 - x^3").apply(P("x")) == P("2*x*y")


class TestDualForm:
    def test_radial(self):
        om = dual_form(radial_field(2))
        assert om.coeffs[0] == P("-y") and om.coeffs[1] == P("x")

    def test_saddle_node(self):
        om = dual_form(F("x^2, y"))
        assert om.coeffs[0] == P("-y") and om.coeffs[1] == P("x^2")

    def test_level_foliation_field(self):
        om = dual_form(F("2*x*y, 2*y^2 - x^3"))
        assert om.coeffs[0] == P("-2*y^2 + x^3")
        assert om.coeffs[1] == P("2*x*y")

    def test_three_dimensional_coefficient_list(self):
        x = F("x, y^2, z")
        om = dual_form(x)
        # coefficients of dy^dz, dz^dx, dx^dy in fixed order
        assert list(om.coeffs) == list(x.comps)

    def test_pairing_with_field(self):
        om = dual_form(F("x, -y"))
        assert om.apply(F("x, -y")).is_zero()  # i_X i_X vol = 0
        assert om.apply(radial_field(2)) == P("2*x*y")


class TestHamiltonian:
    def test_product_of_axes(self):
        assert hamiltonian_field(P("x*y")) == F("x, -y")

    def test_circle(self):
        assert hamiltonian_field(P("x^2 + y^2")) == F("2*y, -2*x")

    def test_annihilates_its_function(self):
        f = P("x^3 - 2*x*y + y^4")
        assert hamiltonian_field(f).apply(f).is_zero()


class TestQuasiDecompose:
    def test_function_under_radial(self):
        parts = quasi_decompose(P("x + x*y"), Weight((1, 1)))
        assert set(parts) == {1, 2}
        assert parts[1] == P("x") and parts[2] == P("x*y")

    def test_single_weighted_component(self):
        parts = quasi_decompose(P("y - x^2"), Weight((1, 2)))
        assert list(parts) == [2]
        # S(f) = 2 f for the weighted Euler field
        s = weighted_euler(Weight((1, 2)))
        assert s.apply(parts[2]) == parts[2] * 2

    def test_field_grading(self):
        x = F("y + x^2, x*y")
        parts = quasi_decompose(x, Weight((1, 1)))
        assert set(parts) == {0, 1}
        s = radial_field(2)
        for k, comp in parts.items():
            assert lie_bracket(s, comp) == comp * k

    def test_zero_input_gives_empty(self):
        assert quasi_decompose(P("0"), Weight((1, 1))) == {}

    @pytest.mark.parametrize(
        "call",
        [
            lambda: F("x, 2*y").mu(Weight((1,))),
            lambda: quasi_decompose(P("x + y^2"), Weight((1,))),
            lambda: quasi_decompose(F("x, 2*y"), Weight((1,))),
        ],
        ids=["mu", "function", "field"],
    )
    def test_weight_of_wrong_length_refused(self, call):
        with pytest.raises(DimensionMismatchError):
            call()


def test_weighted_euler_fields():
    assert weighted_euler(Weight((1, 1))) == radial_field(2)
    assert weighted_euler(Weight((1, 2))) == F("x, 2*y")
    assert weighted_euler(Weight((2, 3))) == F("2*x, 3*y")


def test_linear_part_matrix_convention():
    m = F("x + 2*y, 3*x").linear_part_matrix()
    from germfield.gaussian import gq

    assert m == [[gq(1), gq(2)], [gq(3), gq(0)]]


# refusal -> (the call, its exception, its message)
REFUSALS = {
    "no-component": (lambda: VectorFieldJet([]), ValueError, "a vector field needs at least one component"),
    "component-dimensions": (lambda: VectorFieldJet([P("x"), P("x", 3)]), DimensionMismatchError,
                             "components live in different dimensions"),
    "component-count": (lambda: VectorFieldJet([P("x")]), DimensionMismatchError, "1 components for dimension 2"),
    "field-immutable": (lambda: setattr(F("x, y"), "dim", 3), AttributeError, "VectorFieldJet is immutable"),
    "sum-type": (lambda: F("x, y") + 1, TypeError, "expected a VectorFieldJet"),
    "apply-dimensions": (lambda: F("x, y").apply(P("x", 3)), DimensionMismatchError,
                         "function and field dimensions differ"),
    "form-coefficients": (lambda: OneFormJet([P("x")]), DimensionMismatchError,
                          "one-form coefficients are inconsistent"),
    "form-immutable": (lambda: setattr(parse_one_form("x dy"), "dim", 3), AttributeError,
                       "OneFormJet is immutable"),
    "pairing-dimensions": (lambda: parse_one_form("x dy").apply(F("x, y, z")), DimensionMismatchError,
                           "form and field dimensions differ"),
    "wedge-empty": (lambda: wedge([]), ValueError, "wedge of an empty list"),
    "dual-form-dimension": (lambda: dual_form(VectorFieldJet([P("x", 1)])), GermError,
                            "dual_form supported for n in {2, 3}"),
    "hamiltonian-dimension": (lambda: hamiltonian_field(P("x", 3)), DimensionMismatchError,
                              "hamiltonian fields are n=2 only"),
    "decompose-type": (lambda: quasi_decompose(1, Weight((1, 1))), TypeError,
                       "quasi_decompose expects a PolySeries or VectorFieldJet"),
}


@pytest.mark.parametrize("call, error, message", REFUSALS.values(), ids=list(REFUSALS))
def test_refusals(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()


def test_term_cap_counts_the_partial_bracket(monkeypatch):
    # [X, X] = 0, but the first half of each component's sum, X(X_i), has
    # 3 terms while no single product has more than 2
    from germfield import series as series_module
    from germfield.series import TermLimitError

    x = F("x + y^2, y + x^2")
    monkeypatch.setattr(series_module, "MAX_TERMS", 2)
    with pytest.raises(TermLimitError):
        lie_bracket(x, x)
    monkeypatch.setattr(series_module, "MAX_TERMS", 3)
    assert lie_bracket(x, x).is_zero()


def test_wedge_of_fewer_fields_outside_3d_is_refused():
    from germfield import GermError, PolySeries

    x = VectorFieldJet([PolySeries.variable(4, i) for i in range(4)])
    with pytest.raises(GermError):
        wedge([x, x])
    assert wedge([x]) == list(x.comps)


def test_field_difference_is_componentwise():
    x, y = F("x + 2*y^2, i*y"), F("x - y^2, x*y").truncated(3)
    d = x - y
    assert d.trunc == 3
    for a, b, c in zip(x.comps, y.comps, d.comps):
        for e in set(a.terms) | set(b.terms):
            assert c.coefficient(e) == a.coefficient(e) - b.coefficient(e)
    assert set(d.comps[0].terms) == {(0, 2)} and set(d.comps[1].terms) == {(0, 1), (1, 1)}
    with pytest.raises(DimensionMismatchError):
        x - F("x, y, z")


def test_one_form_repr_shows_its_text():
    omega = parse_one_form("x^2 dy - y dx")
    assert repr(omega) == f"<OneFormJet {one_form_to_text(omega)}>"
