"""Command-line front end.

``VERBS`` maps each verb to its handler and its arguments; the parser and
the dispatch both read it.  Each handler parses its payload with the shared
text grammar, calls the engine and returns one result: a dict of engine
values, its text report, and the exit code.  ``main`` prints the text, or
with --json the dict as a stable, deterministic JSON schema.  ``_encode`` is
the one place that knows the JSON form of each value type; the text stays
with each verb, because the two forms differ.  Exit codes: 0 success, 1
mathematical false / no solution, 2 input errors.

Only the modules that ``_encode`` and every verb need are imported here; each
verb imports its engine functions from ``centralizer``, ``blowup`` or
``integrability`` in its own body, so a cold process loads only what its verb
runs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from .gaussian import GaussianRational
from .series import GermError, PolySeries, Weight
from .fields import OneFormJet, VectorFieldJet, lie_bracket, wedge, weighted_euler
from .parsing import (
    ParseError,
    field_to_json,
    field_to_text,
    fraction_str,
    gq_to_json,
    one_form_to_json,
    one_form_to_text,
    parse_field,
    parse_one_form,
    parse_poly,
    parse_ratio,
    poly_to_json,
    poly_to_text,
)

SCHEMA_VERSION = 2


def parse_field_text(text: str) -> VectorFieldJet:
    dim = text.count(",") + 1
    if dim not in (2, 3):
        raise GermError(f"expected 2 or 3 components, got {dim}")
    return parse_field(text, dim)


def parse_scalar(text: str) -> GaussianRational:
    value = parse_poly(text, 1)
    nonconst = [e for e in value.terms if any(e)]
    if nonconst:
        raise GermError(f"expected a scalar, got {text!r}")
    return value.constant_term()


def parse_univariate(text: str) -> PolySeries:
    """A one-variable polynomial, written in any one of x, y or z."""
    p = parse_poly(text, 3)
    used = {i for e in p.terms for i, k in enumerate(e) if k}
    if len(used) > 1:
        raise GermError("expected a one-variable polynomial")
    axis = used.pop() if used else 0
    return PolySeries(1, {(e[axis],): c for e, c in p.terms.items()})


def parse_integer(text: str, flag: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise GermError(f"{flag} expects integers, got {text!r}") from None


def _encode(value):
    """The JSON form of an engine value; json.dumps calls this for every value
    it cannot write itself."""
    if isinstance(value, VectorFieldJet):
        return {"text": field_to_text(value), "terms": field_to_json(value)}
    if isinstance(value, PolySeries):
        return {"text": poly_to_text(value), "terms": poly_to_json(value)}
    if isinstance(value, OneFormJet):
        return one_form_to_json(value)
    if isinstance(value, GaussianRational):
        return gq_to_json(value)
    if isinstance(value, Fraction):
        return fraction_str(value)
    raise TypeError(f"no JSON form for {type(value).__name__}")


def build_parser(verb: str | None = None) -> argparse.ArgumentParser:
    """The parser of every verb, or with verb only of that one: its usage line
    still lists every verb, so its messages read the same."""
    # --json is accepted before and after the verb; SUPPRESS keeps a verb's
    # parser from resetting a --json given before it
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--json", action="store_true", default=argparse.SUPPRESS, help="structured output"
    )
    parser = argparse.ArgumentParser(
        prog="germfield",
        description="Exact computer algebra for plane vector-field germs.",
        parents=[common],
    )
    every = "{" + ",".join(VERBS) + "}"
    sub = parser.add_subparsers(dest="verb", required=True, metavar=None if verb is None else every)
    for name, (_, arguments) in VERBS.items():
        if verb in (None, name):
            p = sub.add_parser(name, parents=[common])
            for flag, kwargs in arguments:
                p.add_argument(flag, **kwargs)
    return parser


def _verb_named(argv) -> str | None:
    """The verb argparse will read from argv: its first word past any --json,
    when that is a verb; None for no verb, a misspelt one or any other option
    first (--help), which need every verb's parser."""
    for word in argv:
        if word != "--json":
            return word if word in VERBS else None
    return None


def _bracket(args):
    b = lie_bracket(parse_field_text(args.field1), parse_field_text(args.field2))
    return {"bracket": b}, field_to_text(b), 0


def _wedge(args):
    fields = [parse_field_text(t) for t in args.fields]
    if args.weights:
        fields.insert(0, weighted_euler(Weight(parse_integer(v, "--weights") for v in args.weights.split(","))))
    w = wedge(fields)
    text = poly_to_text(w) if isinstance(w, PolySeries) else "\n".join(poly_to_text(c) for c in w)
    return {"wedge": w}, text, 0


def _rank(args):
    from .centralizer import centralizer_rank

    rank = centralizer_rank(parse_field_text(args.field), args.max_degree)
    return {"rank": rank}, f"rank = {rank}", 0


def _kernel_report(report, render):
    """The keys and report lines that centralizer and first-integrals share."""
    result = {
        "dimension_table": sorted(report.dims.items()),
        "dimension": report.dimension(),
        "certified_degree": report.certified_degree,
        "basis": [b.value for b in report.basis],
        "tentative": [b.value for b in report.tentative],
    }
    lines = [f"certified dimension = {report.dimension()}"]
    lines += [f"  basis  {render(b.value)}" for b in report.basis]
    lines += [
        f"  tentative (to degree {report.certified_degree})  {render(b.value)}"
        for b in report.tentative
    ]
    return result, lines


def _centralizer(args):
    from .centralizer import ad_kernel

    report = ad_kernel(parse_field_text(args.field), args.max_degree)
    result, lines = _kernel_report(report, field_to_text)
    table = ", ".join(f"{d}: {c}" for d, c in sorted(report.dims.items())) or "(empty)"
    lines = [
        f"multiplicity mu = {report.multiplicity}",
        f"certified bracket degree = {report.certified_degree}",
        f"dimension table: {table}",
        *lines,
    ]
    if report.rank_estimate is not None:
        lines.append(f"generic rank = {report.rank_estimate}")
    lines.append(f"stabilization: {report.stabilization}")
    result.update(
        multiplicity=report.multiplicity, rank=report.rank_estimate, verdict=report.stabilization
    )
    return result, "\n".join(lines), 0


def _first_integrals(args):
    from .centralizer import first_integral_kernel

    report = first_integral_kernel(parse_field_text(args.field), args.max_degree)
    result, lines = _kernel_report(report, poly_to_text)
    return result, "\n".join(lines), 0


def _resonances(args):
    from .centralizer import resonances

    found = resonances([parse_scalar(t) for t in args.eigenvalues.split(",")], args.bound)
    lines = [
        f"lambda_{r.target} = "
        + " + ".join(f"{k}*lambda_{j + 1}" for j, k in enumerate(r.exponents) if k)
        for r in found
    ]
    result = {"resonances": [{"target": r.target, "exponents": r.exponents} for r in found]}
    return result, "\n".join(lines) or "no resonances", 0


def _classify(args):
    from .blowup import classify_linear, classify_singularity

    x = parse_field_text(args.field)
    sing, caveat = classify_singularity(x)  # refuses n != 2 before classify_linear
    lc = classify_linear(x.linear_part_matrix())
    lines = [f"linear part: {lc.case} ({lc.ratio_rationality} ratio)"]
    if lc.ratio is not None:
        lines.append(f"ratio = {lc.ratio}")
    if lc.eigenvalues:
        lines.append("eigenvalues = " + ", ".join(str(e) for e in lc.eigenvalues))
    lines.append(f"singularity: {sing}" + (" (non-isolated)" if caveat else ""))
    result = {
        "linear_case": lc.case,
        "ratio_rationality": lc.ratio_rationality,
        "ratio": lc.ratio,
        "eigenvalues": lc.eigenvalues or None,
        "singularity": sing,
        "non_isolated": caveat,
    }
    return result, "\n".join(lines), 0


def _blowup(args):
    from .blowup import divisor_singularities, is_isolated_singularity, strict_transform

    x = parse_field_text(args.field)
    blowups = strict_transform(x)
    one, witness = blowups[0], blowups[0].witness
    points = divisor_singularities(blowups, is_isolated_singularity(x))
    kind = "dicritical" if one.dicritical else "non-dicritical"
    lines = [f"nu = {one.nu}, {kind}, witness {poly_to_text(witness, ('t',))}"]
    result = {
        "nu": one.nu,
        "dicritical": one.dicritical,
        "witness": witness,
        "charts": [],
        "singular_points": [],
    }
    for b in blowups:
        if args.chart in (None, b.chart):
            result["charts"].append({
                "chart": b.chart,
                "pullback": b.pullback,
                "strict": b.strict,
                "divisor_multiplicity": b.divisor_multiplicity,
            })
            lines += [
                f"chart {b.chart}: pullback  {field_to_text(b.pullback, ('x', 't'))}",
                f"chart {b.chart}: strict    {field_to_text(b.strict, ('x', 't'))}"
                f"  [divisor mult {b.divisor_multiplicity}]",
            ]
    lines.append("singular points on the divisor:" + ("" if points else " none"))
    for pt in points:
        result["singular_points"].append({
            "chart": pt.chart,
            "slope": pt.coordinate,
            "marker": pt.marker,
            "classification": pt.classification,
            "multiplicity": pt.multiplicity,
            "non_isolated": pt.non_isolated,
        })
        if pt.marker is not None:
            lines.append(
                f"  irrational locus in chart {pt.chart}: {poly_to_text(pt.marker, ('t',))} = 0"
            )
        else:
            lines.append(
                f"  chart {pt.chart}, slope {pt.coordinate}: {pt.classification}"
                f" (mu={pt.multiplicity})"
            )
    return result, "\n".join(lines), 0


def _resolution(node, indent: str = ""):
    """The JSON node and the text lines of a resolution tree, in one walk."""
    out = {
        "classification": node.classification,
        "verdict": node.verdict,
        "chart_history": node.chart_history,
        "children": [],
    }
    where = extra = ""
    if node.chart_history:
        chart, coord = node.chart_history[-1]
        slope = coord if coord is not None else f"t with {poly_to_text(node.marker, ('t',))} = 0"
        where = f" at chart {chart}, slope {slope}"
    if node.blowups is not None:
        b = node.blowups[0]
        out.update(dicritical=b.dicritical, nu=b.nu, divisor_multiplicity=b.divisor_multiplicity)
        kind = "dicritical" if b.dicritical else "non-dicritical"
        extra = f" [nu={b.nu}, {kind}, divisor mult {b.divisor_multiplicity}]"
    if node.would_be_dicritical is not None:
        out["would_be_dicritical"] = node.would_be_dicritical
        if node.verdict != "blown_up":  # only True is ever forecast
            extra = " [next blow-up would be dicritical]"
    if node.marker is not None:
        out["marker"] = node.marker
    label = "blow up" if node.verdict == "blown_up" else node.verdict
    lines = [f"{indent}{label}{where}: {node.classification}{extra}"]
    for child in node.children:
        child_out, child_lines = _resolution(child, indent + "  ")
        out["children"].append(child_out)
        lines += child_lines
    return out, lines


def _resolve(args):
    from .blowup import resolve

    x = parse_field_text(args.field)
    tree = resolve(x, max_depth=args.depth, force_radial=args.force_radial)
    out, lines = _resolution(tree)
    lines.append(f"total blow-ups: {tree.total_blowups()}")
    return {"blowups": tree.total_blowups(), "tree": out}, "\n".join(lines), 0


def _check_commute(args):
    commute = lie_bracket(parse_field_text(args.field1), parse_field_text(args.field2)).is_zero()
    return {"commute": commute}, "true" if commute else "false", 0 if commute else 1


def _verify_integral(args):
    from .integrability import meromorphic_first_integral_check

    x = parse_field_text(args.field)
    ok = meromorphic_first_integral_check(x, parse_ratio(args.ratio, x.dim))
    return {"first_integral": ok}, "true" if ok else "false", 0 if ok else 1


def _dual_pair(args):
    from .integrability import closedness_check, dual_pair

    x = parse_field_text(args.field1)
    y = parse_field_text(args.field2)
    forms = dict(zip(("alpha", "beta"), dual_pair(x, y)))
    result, lines = {"commuting": lie_bracket(x, y).is_zero()}, []
    for name, form in forms.items():
        closed, _ = closedness_check(form.form, form.denominator)
        result[name] = {"form": form.form, "denominator": form.denominator, "closed": closed}
        lines.append(
            f"{name:5} = [{one_form_to_text(form.form)}] / ({poly_to_text(form.denominator)})"
            f"  closed: {closed}"
        )
    lines.append(f"commuting pair: {result['commuting']}")
    return result, "\n".join(lines), 0


def _log_decomp(args):
    from .integrability import log_decomposition

    omega = parse_one_form(args.form, 2)
    g = parse_poly(args.denominator, 2)
    factors = []
    for spec in args.factor:
        poly_text, mult = spec.rsplit(":", 1) if ":" in spec else (spec, "1")
        factors.append((parse_poly(poly_text, 2), parse_integer(mult, "--factor")))
    found = log_decomposition(omega, g, factors, args.phi_bound)
    if not found.success:
        text = "no solution; residual " + one_form_to_text(found.residual)
        return {"success": False, "residual": found.residual}, text, 1
    d = found.decomposition
    pairs = list(zip(d.factors, d.residues))
    lines = [f"residue of {poly_to_text(f)}: {lam}" for f, lam in pairs]
    lines.append(f"phi = {poly_to_text(d.phi)}")
    result = {
        "success": True,
        "residues": [{"factor": f, "residue": lam} for f, lam in pairs],
        "phi": d.phi,
    }
    return result, "\n".join(lines), 0


def _cr_pair(args):
    from .integrability import cauchy_riemann_pair

    x, y = cauchy_riemann_pair(parse_univariate(args.poly), args.max_degree)
    return {"x": x, "y": y}, f"X = {field_to_text(x)}\nY = {field_to_text(y)}", 0


def _table(args):
    from .centralizer import linear_centralizer_table

    kwargs = {}
    for name in ("ratio", "residue", "p", "q", "n"):
        value = getattr(args, name)
        if value is not None:
            kwargs[name] = parse_scalar(value) if name in ("ratio", "residue") else value
    row = linear_centralizer_table(args.row, max_degree=args.max_degree, **kwargs)
    gens = row.generator_jets(args.max_degree)
    dimension = "infinite" if row.dimension is None else row.dimension
    lines = [f"X = {field_to_text(row.field)}"]
    lines += [f"  generator  {field_to_text(g)}" for g in gens]
    lines.append(f"rank = {row.rank}, dimension = {dimension}")
    result = {"field": row.field, "generators": gens, "rank": row.rank, "dimension": row.dimension}
    return result, "\n".join(lines), 0


_DEGREE = ("--max-degree", {"type": int, "default": 6})

# verb -> (handler, its arguments in the order its usage lists them), in the
# order the usage line lists the verbs
VERBS = {
    "bracket": (_bracket, [("field1", {}), ("field2", {})]),
    "wedge": (_wedge, [
        ("fields", {"nargs": "+"}),
        ("--weights", {"help": "p,q to wedge against the weighted Euler field"}),
    ]),
    "centralizer": (_centralizer, [("field", {}), _DEGREE]),
    "first-integrals": (_first_integrals, [("field", {}), _DEGREE]),
    "rank": (_rank, [("field", {}), _DEGREE]),
    "resonances": (_resonances, [("eigenvalues", {}), ("--bound", {"type": int, "default": 6})]),
    "classify": (_classify, [("field", {})]),
    "blowup": (_blowup, [("field", {}), ("--chart", {"type": int, "choices": (1, 2)})]),
    "resolve": (_resolve, [
        ("field", {}),
        ("--depth", {"type": int, "default": 12}),
        ("--force-radial", {"action": "store_true"}),
    ]),
    "check-commute": (_check_commute, [("field1", {}), ("field2", {})]),
    "verify-integral": (_verify_integral, [("field", {}), ("ratio", {})]),
    "dual-pair": (_dual_pair, [("field1", {}), ("field2", {})]),
    "log-decomp": (_log_decomp, [
        ("form", {}),
        ("--denominator", {"required": True}),
        ("--factor", {"action": "append", "required": True, "help": "poly:mult"}),
        ("--phi-bound", {"type": int, "default": None}),
    ]),
    "cr-pair": (_cr_pair, [("poly", {}), _DEGREE]),
    "table": (_table, [
        ("row", {"type": int}),
        ("--ratio", {}),
        ("--p", {"type": int}),
        ("--q", {"type": int}),
        ("--n", {"type": int}),
        ("--residue", {}),
        _DEGREE,
    ]),
}


def main(argv=None) -> int:
    """Run one verb and return its exit code, argparse's usage errors and
    --help included; argv=None reads sys.argv.  Python's int/text digit
    limit is lifted for the call, so that every answer prints, and the
    caller's limit is put back."""
    argv = sys.argv[1:] if argv is None else argv
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        try:
            args = build_parser(_verb_named(argv)).parse_args(argv)
        except SystemExit as exc:
            return exc.code
        result, text, code = VERBS[args.verb][0](args)
        if getattr(args, "json", False):
            result = {"version": SCHEMA_VERSION, "command": args.verb, **result}
            text = json.dumps(result, sort_keys=True, indent=2, default=_encode)
        print(text)
        sys.stdout.flush()
        return code
    except (ParseError, GermError, ZeroDivisionError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader left: stdout to devnull keeps the last flush quiet, and
        # 141 is a shell's status for a process ended by SIGPIPE
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
