import argparse
import importlib
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

import germfield
from germfield import (
    ParseError,
    field_to_text,
    parse_field,
    parse_one_form,
    parse_poly,
    parse_ratio,
    poly_to_text,
)
from germfield import cli
from germfield.cli import VERBS, build_parser, main
from germfield.gaussian import gq
from test_golden import _fresh_python


class TestGrammar:
    def test_terms(self):
        f = parse_poly("3/2*x^2*y")
        assert f.coefficient((2, 1)) == gq(Fraction(3, 2))
        g = parse_poly("i*x - y^3")
        assert g.coefficient((1, 0)) == gq(0, 1)
        assert g.coefficient((0, 3)) == gq(-1)

    def test_whitespace_insignificant(self):
        assert parse_poly("x+ y") == parse_poly("  x  +y ")

    def test_three_variables(self):
        f = parse_poly("2*x + y^2 - 3*z", 3)
        assert f.coefficient((0, 0, 1)) == gq(-3)

    def test_field_component_count(self):
        x = parse_field("x, -y")
        assert x.dim == 2
        with pytest.raises(ParseError):
            parse_field("x, y, z", 2)

    def test_one_form(self):
        om = parse_one_form("x^2 dy - y dx")
        assert om.coeffs[0] == parse_poly("-y")
        assert om.coeffs[1] == parse_poly("x^2")

    def test_one_form_with_parens(self):
        om = parse_one_form("(x + y) dx + (2*y) dy")
        assert om.coeffs[0] == parse_poly("x + y")

    def test_one_form_star_before_differential(self):
        om = parse_one_form("x^2*dy - y*dx")
        assert om.coeffs[1] == parse_poly("x^2")
        assert om.coeffs[0] == parse_poly("-y")

    def test_ratio(self):
        r = parse_ratio("(y^2 + x^3) / (x^2)")
        assert r.numerator == parse_poly("y^2 + x^3")
        r2 = parse_ratio("x / y")
        assert r2.denominator == parse_poly("y")

    def test_ratio_with_rational_coefficients(self):
        r = parse_ratio("(3*y + 2*x^3) / (3*y^3)")
        assert r.denominator == parse_poly("3*y^3")

    def test_implicit_products(self):
        assert parse_poly("2x") == parse_poly("2*x")
        assert parse_poly("2 3") == parse_poly("6")
        assert parse_poly("(x)(y)") == parse_poly("x*y")
        assert parse_poly("x y") == parse_poly("x*y")
        assert parse_poly("3/2x^2 y") == parse_poly("3/2*x^2*y")

    def test_one_form_term_takes_no_implicit_product(self):
        with pytest.raises(ParseError, match="expected dx, dy or dz"):
            parse_one_form("x y dx")

    def test_error_carries_position(self):
        with pytest.raises(ParseError) as err:
            parse_poly("x + $")
        assert "column 5" in str(err.value)

    def test_unknown_variable_in_dimension(self):
        with pytest.raises(ParseError):
            parse_poly("x + z", 2)

    @pytest.mark.parametrize("parse, message", [
        (lambda: parse_poly("x^y"), "expected an integer exponent"),
        (lambda: parse_poly("1/0*x"), "zero denominator"),
        (lambda: parse_one_form("x dz", 2), "dz needs a higher dimension"),
        (lambda: parse_field("x, y", 3), "expected 3 components, got 2"),
    ], ids=["exponent", "denominator", "differential", "components"])
    def test_refusals_name_their_cause(self, parse, message):
        with pytest.raises(ParseError, match=f"^{message} at line 1"):
            parse()

    def test_nesting_bound(self):
        # the bound parses from a caller that has used half the recursion
        # limit; one level past it is refused at its own '(' by a count
        from germfield.parsing import MAX_NESTING

        def nested(levels):
            return "(" * levels + "x" + ")" * levels

        def from_depth(frames, text):
            return from_depth(frames - 1, text) if frames else parse_poly(text)

        assert from_depth(sys.getrecursionlimit() // 2, nested(MAX_NESTING)) == parse_poly("x")
        for levels in (MAX_NESTING + 1, 1000):
            with pytest.raises(ParseError, match="parentheses nested too deeply") as err:
                parse_poly(nested(levels))
            assert err.value.position == MAX_NESTING


# ratios whose sides do not parse: the error of the side that parsed
# furthest, at its column in the whole text
RATIO_ERRORS = pytest.mark.parametrize("text, message, column", [
    ("(x + $) / (y)", "unexpected character", 6),
    ("(x + ) / (y)", "expected a term", 6),
    ("(" * 101 + "x" + ")" * 101 + " / y", "parentheses nested too deeply", 101),
], ids=["character", "term", "nesting"])


def _split_ratio(text, dim=2):
    """The (numerator, denominator) that parse_ratio accepted before it
    reported the sides' errors, or None where it refused the text."""
    depth, parses = 0, []
    for idx, ch in enumerate(text):
        depth += (ch == "(") - (ch == ")")
        if ch != "/" or depth:
            continue
        try:
            num, den = parse_poly(text[:idx], dim), parse_poly(text[idx + 1 :], dim)
        except ParseError:
            continue
        if not den.is_zero():
            parses.append((num, den))
    return parses[0] if len(parses) == 1 else None


# texts near a ratio: sides of polynomial pieces, stray parentheses, slashes
# and characters outside the grammar among them
PIECE = st.sampled_from(["x", "y", "0", "2", "i", "1/2", "x^2", "(x + y)", "(y - 1)", "(", ")", "/", "$"])
SIDE = st.lists(st.tuples(st.sampled_from(["", " + ", " - ", "*", " "]), PIECE), min_size=1, max_size=3).map(
    lambda parts: "".join(op + p for op, p in parts)
)
RATIO_TEXT = st.tuples(SIDE, st.sampled_from(["/", " / ", ""]), SIDE).map("".join)


class TestRatio:
    @RATIO_ERRORS
    def test_reports_the_syntax_error(self, text, message, column):
        with pytest.raises(ParseError, match=f"^{message} at line 1, column {column}:"):
            parse_ratio(text)

    def test_refusals_kept(self):
        for text in ("x + y", "x / 0", "1/0"):
            with pytest.raises(ParseError, match="^expected a ratio P / Q at line 1, column 1:"):
                parse_ratio(text)
        for text, column in (("1/2/3", 4), ("x + 1/2/3", 8)):
            with pytest.raises(ParseError, match=f"^ambiguous ratio.* column {column}:"):
                parse_ratio(text)

    @settings(max_examples=300, deadline=None)
    @given(RATIO_TEXT)
    def test_accepted_ratios_unchanged(self, text):
        old = _split_ratio(text)
        try:
            new = parse_ratio(text)
        except ParseError:
            assert old is None
        else:
            assert (new.numerator, new.denominator) == old


class TestRoundTrip:
    CASES = [
        "0",
        "1",
        "-1",
        "i",
        "-i",
        "x",
        "3/2*x^2*y",
        "x + i*x",
        "1/2 - y^3 + i*y^3",
        "2*x*y + y^2 - x^3",
        "x - 2*i*x^2 + 5/7*y",
    ]

    @pytest.mark.parametrize("text", CASES)
    def test_poly_round_trip(self, text):
        f = parse_poly(text)
        assert parse_poly(poly_to_text(f)) == f

    def test_field_round_trip(self):
        x = parse_field("2*x*y, 2*y^2 - x^3")
        assert parse_field(field_to_text(x)) == x

    def test_printing_is_graded_lex_ascending(self):
        f = parse_poly("x^3 - 2*y^2 + x")
        assert poly_to_text(f) == "x - 2*y^2 + x^3"


def run_cli(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


class TestCli:
    def test_centralizer_row5(self, capsys):
        rc, out, _ = run_cli(capsys, "centralizer", "x, 2*y", "--max-degree", "4")
        assert rc == 0
        assert "certified dimension = 3" in out
        assert "0, x^2" in out
        assert "generic rank = 2" in out

    def test_check_commute_exit_codes(self, capsys):
        rc, out, _ = run_cli(capsys, "check-commute", "x, y", "y, -x")
        assert rc == 0 and "true" in out
        rc, out, _ = run_cli(capsys, "check-commute", "x, 0", "y, x")
        assert rc == 1 and "false" in out

    def test_parse_error_is_exit_2(self, capsys):
        rc, _, err = run_cli(capsys, "bracket", "x, $", "y, x")
        assert rc == 2
        assert "error" in err

    @pytest.mark.parametrize("argv, count", [
        (("bracket", "x", "y"), 1),
        (("centralizer", "x, y, z, x"), 4),
    ])
    def test_component_count_is_exit_2(self, capsys, argv, count):
        rc, out, err = run_cli(capsys, *argv)
        assert (rc, out) == (2, "")
        assert f"expected 2 or 3 components, got {count}" in err

    @pytest.mark.parametrize(
        "verb, field", [("centralizer", "x, 2*y"), ("first-integrals", "x, -y")]
    )
    def test_kernel_budget_is_exit_2(self, capsys, verb, field):
        start = time.perf_counter()
        rc, _, err = run_cli(capsys, verb, field, "--max-degree", "100000")
        assert rc == 2 and "budget" in err
        assert time.perf_counter() - start < 1.0

    def test_resonance_budget_is_exit_2(self, capsys):
        # about 5*10^9 candidate exponents: refused before any is listed
        start = time.perf_counter()
        rc, _, err = run_cli(capsys, "resonances", "1,2", "--bound", "100000")
        assert rc == 2 and "budget" in err
        assert time.perf_counter() - start < 1.0

    def test_phi_budget_is_exit_2(self, capsys):
        # 2 residues and C(B + 2, 2) phi coefficients: 10,013 unknowns at B = 140
        argv = ("log-decomp", "x^2 dy - y dx", "--denominator", "x^2*y", "--factor", "x:2", "--factor", "y:1")
        start = time.perf_counter()
        rc, out, err = run_cli(capsys, *argv, "--phi-bound", "140")
        assert (rc, out) == (2, "")
        assert err == "error: 10013 residue and phi unknowns exceed the budget of 10000\n"
        assert time.perf_counter() - start < 1.0
        rc, out, _ = run_cli(capsys, *argv, "--phi-bound", "139")
        assert rc == 0 and out.endswith("phi = 1\n")

    @pytest.mark.parametrize("argv, flag, text", [
        (("wedge", "--weights", "a,b", "y, x^2"), "--weights", "a"),
        (("wedge", "--weights", "1,", "y, x^2"), "--weights", ""),
        (("log-decomp", "x^2 dy - y dx", "--denominator", "x^2*y", "--factor", "x:two", "--factor", "y:1"),
         "--factor", "two"),
    ])
    def test_malformed_integer_flag_is_exit_2(self, capsys, argv, flag, text):
        rc, out, err = run_cli(capsys, *argv)
        assert (rc, out) == (2, "")
        assert err == f"error: {flag} expects integers, got {text!r}\n"

    def test_resolve_depth_budget_is_exit_2(self, capsys):
        # deeper trees would exhaust the recursion limit in the tree code
        start = time.perf_counter()
        rc, out, err = run_cli(capsys, "resolve", "y, x^1100", "--depth", "5000")
        assert (rc, out) == (2, "")
        assert err.count("\n") == 1 and "outside 1..200, the depth budget" in err
        assert time.perf_counter() - start < 1.0

    def test_resolve_past_the_factoring_budget(self, capsys, monkeypatch):
        # x^34, y^34 leaves t^33 - 1 for sympy's factor_list: one degree past
        # the budget, so the germ is refused and factor_list never runs
        from germfield import blowup

        class NoFactoring:
            def factor_list(self, *args, **kwargs):
                raise AssertionError("factor_list ran past the budget")

        monkeypatch.setattr(blowup, "sympy", NoFactoring())
        n = blowup.MAX_FACTOR_DEGREE + 2
        rc, out, err = run_cli(capsys, "resolve", f"x^{n}, y^{n}", "--depth", "1")
        assert (rc, out) == (2, "")
        assert err.count("\n") == 1
        assert f"degree {n - 1} is past the factoring budget of degree {blowup.MAX_FACTOR_DEGREE}" in err

    @pytest.mark.parametrize("verb", ["blowup", "resolve"])
    def test_past_the_germ_degree_budget(self, capsys, monkeypatch, verb):
        # refused before the isolation test and before any Taylor shift
        from germfield import blowup

        def ran(*_):
            raise AssertionError("ran past the germ-degree budget")

        monkeypatch.setattr(blowup, "_taylor_shift", ran)
        monkeypatch.setattr(blowup, "is_isolated_singularity", ran)
        n = blowup.MAX_GERM_DEGREE + 1
        rc, out, err = run_cli(capsys, verb, f"y^2 + x^3, x^{n}*y")
        assert (rc, out) == (2, "")
        assert err.count("\n") == 1
        assert f"degree {n + 1} is past the blow-up budget of degree {blowup.MAX_GERM_DEGREE}" in err

    def test_resolve_at_the_depth_budget(self, capsys):
        rc, out, _ = run_cli(capsys, "resolve", "y, x^400", "--depth", "200")
        assert rc == 0
        assert out.count("unresolved_depth") == 1
        assert "total blow-ups: 200" in out

    def test_rank_skips_the_stabilization_verdict(self, capsys, monkeypatch):
        # rank prints only the generic rank, so the first-integral solve that
        # the centralizer's stabilization verdict runs must not happen
        from germfield import centralizer

        calls = []
        solve = centralizer.first_integral_kernel
        monkeypatch.setattr(
            centralizer, "first_integral_kernel", lambda *a: calls.append(a) or solve(*a)
        )
        x = parse_field("x, 0", 2)
        expected = centralizer.ad_kernel(x, 8).rank_estimate
        assert len(calls) == 1
        rc, out, _ = run_cli(capsys, "rank", "x, 0", "--max-degree", "8")
        assert (rc, out) == (0, f"rank = {expected}\n")
        rc, out, _ = run_cli(capsys, "--json", "rank", "x, 0", "--max-degree", "8")
        assert rc == 0 and json.loads(out)["rank"] == expected
        assert len(calls) == 1

    @pytest.mark.parametrize("json_flag", [(), ("--json",)], ids=["text", "json"])
    def test_rank_refuses_three_dimensions(self, capsys, monkeypatch, json_flag):
        # generic rank is defined for n=2 only: refused before any column is listed
        from germfield import centralizer

        def ran(*_):
            raise AssertionError("listed kernel columns for a 3D field")

        monkeypatch.setattr(centralizer, "_columns", ran)
        rc, out, err = run_cli(capsys, *json_flag, "rank", "x, 2*y, 3*z")
        assert (rc, out) == (2, "")
        assert err == "error: generic rank is defined for n=2 only\n"

    def test_resolve_cusp(self, capsys):
        rc, out, _ = run_cli(capsys, "resolve", "2*y, 3*x^2", "--depth", "6")
        assert rc == 0
        assert "total blow-ups: 3" in out

    def test_resonances(self, capsys):
        rc, out, _ = run_cli(capsys, "resonances", "1,2", "--bound", "3")
        assert rc == 0
        assert "lambda_2 = 2*lambda_1" in out

    def test_verify_integral(self, capsys):
        rc, out, _ = run_cli(
            capsys, "verify-integral", "2*x*y, 2*y^2 - x^3", "(y^2 + x^3) / (x^2)"
        )
        assert rc == 0 and "true" in out
        rc, _, _ = run_cli(capsys, "verify-integral", "x, 0", "x / y")
        assert rc == 1

    @RATIO_ERRORS
    def test_verify_integral_reports_the_syntax_error(self, capsys, text, message, column):
        rc, _, err = run_cli(capsys, "verify-integral", "y, x", text)
        assert rc == 2 and f"{message} at line 1, column {column}:" in err

    def test_log_decomp(self, capsys):
        rc, out, _ = run_cli(
            capsys,
            "log-decomp",
            "x^2 dy - y dx",
            "--denominator",
            "x^2*y",
            "--factor",
            "x:2",
            "--factor",
            "y:1",
        )
        assert rc == 0
        assert "phi = 1" in out

    def test_log_decomp_no_solution_exit_1(self, capsys):
        rc, _, _ = run_cli(
            capsys,
            "log-decomp",
            "x^2 dy - y dx",
            "--denominator",
            "x^2*y",
            "--factor",
            "x^2:1",
            "--factor",
            "y:1",
        )
        assert rc == 1

    def test_log_decomp_negative_phi_bound_is_exit_2(self, capsys):
        rc, out, err = run_cli(
            capsys, "log-decomp", "x^2 dy - y dx", "--denominator", "x^2*y",
            "--factor", "x:2", "--factor", "y:1", "--phi-bound", "-1",
        )
        assert (rc, out) == (2, "")
        assert "phi degree bound" in err

    def test_table_row7(self, capsys):
        rc, out, _ = run_cli(capsys, "table", "7")
        assert rc == 0
        assert "rank = 2, dimension = 2" in out

    def test_cr_pair(self, capsys):
        rc, out, _ = run_cli(capsys, "cr-pair", "z^2")
        assert rc == 0
        assert "X = x^2 - y^2, 2*x*y" in out

    def test_rank_of_cusp_hamiltonian_centralizer(self, capsys):
        rc, out, _ = run_cli(capsys, "rank", "3*y^2, -2*x")
        assert rc == 0
        assert "rank = 1" in out

    def test_first_integrals(self, capsys):
        rc, out, _ = run_cli(capsys, "first-integrals", "x, -y", "--max-degree", "4")
        assert rc == 0
        assert "x*y" in out and "certified dimension = 2" in out

    def test_dual_pair(self, capsys):
        rc, out, _ = run_cli(capsys, "dual-pair", "x, 0", "0, y")
        assert rc == 0
        assert "closed: True" in out

    def test_wedge_with_weights(self, capsys):
        # h = wedge(S, X) for S the (1,2)-Euler field
        rc, out, _ = run_cli(capsys, "wedge", "--weights", "1,2", "y, x^2")
        assert rc == 0
        assert out.strip() == "-2*y^2 + x^3"

    def test_classify(self, capsys):
        rc, out, _ = run_cli(capsys, "classify", "x + y, x")
        assert rc == 0
        assert "irrational" in out

    def test_classify_zero_linear_part(self, capsys):
        rc, out, _ = run_cli(capsys, "classify", "x^2, y^2")
        assert rc == 0
        assert out.splitlines()[0] == "linear part: zero (undefined ratio)"

    def test_classify_refuses_three_dimensions(self, capsys):
        rc, out, err = run_cli(capsys, "classify", "x, y, z")
        assert (rc, out) == (2, "")
        assert err == "error: classification is n=2 only\n"

    def test_blowup_json_structure(self, capsys):
        rc, out, _ = run_cli(capsys, "--json", "blowup", "x^2, y^2")
        assert rc == 0
        doc = json.loads(out)
        assert doc["version"] == 2
        assert doc["dicritical"] is False
        assert len(doc["singular_points"]) == 3

    def test_blowup_single_chart(self, capsys):
        # chart blocks are filtered; the singular-point summary stays global
        rc, out, _ = run_cli(capsys, "blowup", "x^2, y^2", "--chart", "2")
        assert rc == 0
        assert "chart 2: pullback" in out and "chart 1: pullback" not in out

    def test_resolve_json_tree(self, capsys):
        rc, out, _ = run_cli(capsys, "--json", "resolve", "x^2, y^2")
        assert rc == 0
        doc = json.loads(out)
        assert doc["blowups"] == 1
        root = doc["tree"]
        assert root["dicritical"] is False and root["divisor_multiplicity"] == 1
        verdicts = sorted(c["verdict"] for c in root["children"])
        assert verdicts == ["purely_radial", "reduced_hyperbolic", "reduced_hyperbolic"]

    def test_resolve_marker_history(self, capsys):
        germ = "x^2, y^2 + x*y - 2*x^2"
        rc, out, _ = run_cli(capsys, "resolve", germ)
        assert rc == 0
        assert "unresolvable_irrational at chart 1, slope t with -2 + t^2 = 0" in out
        assert "slope 0: unresolvable" not in out
        rc, out, _ = run_cli(capsys, "--json", "resolve", germ)
        children = json.loads(out)["tree"]["children"]
        marker = [c for c in children if "marker" in c]
        assert [c["chart_history"] for c in marker] == [[[1, None]]]
        rc, out, _ = run_cli(capsys, "blowup", germ)
        assert "irrational locus in chart 1: -2 + t^2 = 0" in out

    def test_json_determinism_and_no_floats(self, capsys):
        rc, out1, _ = run_cli(capsys, "--json", "centralizer", "x, -y")
        rc, out2, _ = run_cli(capsys, "--json", "centralizer", "x, -y")
        assert out1 == out2

        def no_floats(node):
            if isinstance(node, float):
                return False
            if isinstance(node, dict):
                return all(no_floats(v) for v in node.values())
            if isinstance(node, list):
                return all(no_floats(v) for v in node)
            return True

        assert no_floats(json.loads(out1))

    def test_json_after_the_verb(self, capsys):
        # the README form: --json after the verb's arguments
        argv = ("centralizer", "x, 2*y", "--max-degree", "4")
        rc, after, _ = run_cli(capsys, *argv, "--json")
        assert rc == 0
        rc, before, _ = run_cli(capsys, "--json", *argv)
        assert rc == 0 and after == before
        assert json.loads(after)["dimension"] == 3
        rc, text, _ = run_cli(capsys, *argv)
        assert rc == 0 and text.startswith("multiplicity mu = 1")


def outcome(capsys, argv):
    """(stdout, stderr, exit code) of main(argv), argparse's exits included."""
    try:
        rc = main(list(argv))
    except SystemExit as exc:
        rc = exc.code
    captured = capsys.readouterr()
    return captured.out, captured.err, rc


PARSER_ARGVS = [
    [],
    ["--help"],
    ["nosuchverb"],
    ["centralizer"],
    ["centralizer", "--help"],
    ["--json", "centralizer", "--help"],
    ["centralizer", "x, -y", "--bogus"],  # the top-level usage line reports it
    ["--json", "rank", "x, 2*y", "--max-degree", "3"],
    ["table", "--help"],
    ["blowup", "y, x", "--chart", "3"],
]


class TestOneVerbParser:
    """main builds only the named verb's parser; what it prints and returns
    must be what the parser of every verb gives."""

    @pytest.mark.parametrize("argv", PARSER_ARGVS, ids=[" ".join(a) or "no-verb" for a in PARSER_ARGVS])
    def test_same_as_every_verb(self, capsys, monkeypatch, argv):
        got = outcome(capsys, argv)
        monkeypatch.setattr(cli, "build_parser", lambda verb=None: build_parser())
        assert got == outcome(capsys, argv)

    @pytest.mark.parametrize(
        "argv, verb",
        [
            (["rank", "x, 2*y"], "rank"),
            (["--json", "--json", "resolve", "y, x"], "resolve"),
            ([], None),
            (["--help"], None),
            (["--json", "-h", "rank"], None),
            (["nosuchverb", "rank"], None),
        ],
    )
    def test_builds_only_the_named_verb(self, capsys, monkeypatch, argv, verb):
        built = []

        def spy(v=None):
            built.append(build_parser(v))
            return built[-1]

        monkeypatch.setattr(cli, "build_parser", spy)
        outcome(capsys, argv)
        (verbs,) = [a for a in built[0]._actions if isinstance(a, argparse._SubParsersAction)]
        assert list(verbs.choices) == ([verb] if verb else list(VERBS))


class TestLazyNamespace:
    def test_every_export_is_its_submodule_attribute(self):
        for name in germfield.__all__:
            module = importlib.import_module(f"germfield.{germfield._SOURCE[name]}")
            assert getattr(germfield, name) is getattr(module, name), name

    def test_unknown_name_is_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            germfield.no_such_name

    def test_star_import_binds_every_export(self):
        namespace = {}
        exec("from germfield import *", namespace)
        del namespace["__builtins__"]
        assert namespace == {name: getattr(germfield, name) for name in germfield.__all__}


ENGINE = ("centralizer", "blowup", "integrability", "linalg")


def test_import_germfield_loads_no_submodule():
    run = _fresh_python(
        "import germfield\n"
        "print(sorted(m for m in sys.modules if m.startswith('germfield.')))\n"
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[]"


# a README command of each verb, and the engine modules its process must not load
VERB_MODULES = [
    (["bracket", "y, 0", "0, x"], ENGINE),
    (["centralizer", "x, 2*y", "--max-degree", "4"], ("blowup", "integrability")),
    (
        ["log-decomp", "x^2 dy - y dx", "--denominator", "x^2*y", "--factor", "x:2", "--factor", "y:1"],
        ("centralizer", "blowup"),
    ),
    (["resolve", "2*y, 3*x^2", "--depth", "6"], ("centralizer", "integrability", "linalg")),
]


@pytest.mark.parametrize("argv, unloaded", VERB_MODULES, ids=[a[0] for a, _ in VERB_MODULES])
def test_verb_loads_only_its_modules(argv, unloaded):
    run = _fresh_python(
        "from germfield import cli\n"
        f"assert cli.main({argv!r}) == 0\n"
        "print(*sorted(m for m in sys.modules if m.startswith('germfield.')))\n"
    )
    assert run.returncode == 0, run.stderr
    loaded = run.stdout.splitlines()[-1].split()
    assert not {f"germfield.{m}" for m in unloaded} & set(loaded), loaded


def test_deep_parentheses_exit_2_without_traceback():
    # 400 levels are deeper than a recursive parse could go within the
    # interpreter's recursion limit
    deep = "(" * 400 + "x" + ")" * 400
    run = _fresh_python(f"from germfield import cli\nsys.exit(cli.main(['bracket', '{deep}, y', 'y, x']))\n")
    assert run.returncode == 2
    assert run.stdout == ""
    (line,) = run.stderr.splitlines()
    assert line.startswith("error: parentheses nested too deeply at line 1, column 101")


def test_closed_pipe_exits_141_quietly():
    # about 140 KB of JSON, more than a pipe holds: the writer is still
    # printing when the reader takes one line and closes its end
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    argv = [sys.executable, "-m", "germfield.cli", "--json", "resolve", "y, x^30", "--depth", "30"]
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()
    assert proc.wait(timeout=60) == 141
    assert proc.stderr.read() == b""
    proc.stderr.close()


def _cli(*argv) -> subprocess.CompletedProcess:
    """One `python -m germfield.cli` process: the CLI itself, not main(argv)."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-m", "germfield.cli", *argv], capture_output=True, text=True, env=env)


def test_answers_past_pythons_digit_limit_print(capsys):
    # [N x^2 d/dx + y d/dy, y d/dx + N x^2 d/dy] has the coefficient 2 N^2,
    # 6,000 digits, past the 4,300 that Python converts to text by default
    n = "1" + "0" * 2999
    argv = ["bracket", f"{n}*x^2, y", f"y, {n}*x^2"]
    text, as_json = _cli(*argv), _cli("--json", *argv)
    assert (text.returncode, text.stderr, as_json.returncode, as_json.stderr) == (0, "", 0, "")
    assert "2" + "0" * 5998 + "*x^3" in text.stdout
    assert json.loads(as_json.stdout)["version"] and '"2' + "0" * 5998 + '"' in as_json.stdout
    # only the CLI process lifts the limit: an in-process caller keeps its own
    if hasattr(sys, "get_int_max_str_digits"):
        limit = sys.get_int_max_str_digits()
        assert main(["bracket", "y, 0", "0, x"]) == 0
        assert sys.get_int_max_str_digits() == limit


def test_literal_digit_budget():
    from germfield.parsing import MAX_LITERAL_DIGITS

    assert parse_poly("7" * MAX_LITERAL_DIGITS + "*x") == parse_poly("x") * int("7" * MAX_LITERAL_DIGITS)
    with pytest.raises(ParseError, match=f"^a literal of 5000 digits exceeds the budget of {MAX_LITERAL_DIGITS} digits at line 1, column 5"):
        parse_poly("x + " + "7" * 5000)
    run = _cli("bracket", "7" * 5000 + "*x^2, y", "y, x")
    assert run.returncode == 2 and run.stdout == ""
    (line,) = run.stderr.splitlines()
    assert line.startswith("error: a literal of 5000 digits exceeds the budget of 4300 digits")
