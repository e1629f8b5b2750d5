"""Command-line front end.

Every verb parses its payload with the shared text grammar, dispatches to the
engine, and prints a deterministic report (text by default, a stable JSON
schema with --json).  Exit codes: 0 success, 1 mathematical false / no
solution, 2 input errors.
"""

from __future__ import annotations

import argparse
import json
import sys

from .gaussian import GaussianRational
from .series import GermError, PolySeries, Weight
from .fields import VectorFieldJet, lie_bracket, wedge, weighted_euler
from .centralizer import (
    CentralizerReport,
    ad_kernel,
    centralizer_rank,
    classify_linear,
    first_integral_kernel,
    linear_centralizer_table,
    resonances,
)
from .blowup import (
    CHART_SLOPE_X,
    CHART_SLOPE_Y,
    classify_singularity,
    dicritical_test,
    divisor_singularities,
    resolve,
    strict_transform,
)
from .integrability import (
    cauchy_riemann_pair,
    dual_pair,
    closedness_check,
    log_decomposition,
    meromorphic_first_integral_check,
)
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

SCHEMA_VERSION = 1


def _auto_dim(text: str) -> int:
    dim = text.count(",") + 1
    if dim not in (2, 3):
        raise GermError(f"expected 2 or 3 components, got {dim}")
    return dim


def parse_field_text(text: str) -> VectorFieldJet:
    return parse_field(text, _auto_dim(text))


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


def _emit(payload: dict, text: str, as_json: bool):
    if as_json:
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        print(text)


def _field_json(x: VectorFieldJet) -> dict:
    return {"text": field_to_text(x), "terms": field_to_json(x)}


def _poly_json(f: PolySeries) -> dict:
    return {"text": poly_to_text(f), "terms": poly_to_json(f)}


def _report_json(report: CentralizerReport) -> dict:
    return {
        "dimension_table": sorted(report.dims.items()),
        "dimension": report.dimension(),
        "certified_degree": report.certified_degree,
        "multiplicity": report.multiplicity,
        "basis": [_field_json(b.value) for b in report.basis],
        "tentative": [_field_json(b.value) for b in report.tentative],
        "rank": report.rank_estimate,
        "verdict": report.stabilization,
    }


def _report_text(report: CentralizerReport) -> str:
    lines = [
        f"multiplicity mu = {report.multiplicity}",
        f"certified bracket degree = {report.certified_degree}",
        "dimension table: "
        + (
            ", ".join(f"{d}: {c}" for d, c in sorted(report.dims.items()))
            or "(empty)"
        ),
        f"certified dimension = {report.dimension()}",
    ]
    for b in report.basis:
        lines.append(f"  basis  {field_to_text(b.value)}")
    for b in report.tentative:
        lines.append(f"  tentative (to degree {b.certified_to})  {field_to_text(b.value)}")
    if report.rank_estimate is not None:
        lines.append(f"generic rank = {report.rank_estimate}")
    lines.append(f"stabilization: {report.stabilization}")
    return "\n".join(lines)


def _resolution_json(node) -> dict:
    out = {
        "classification": node.classification,
        "verdict": node.verdict,
        "chart_history": [
            [chart, None if coord is None else gq_to_json(coord)]
            for chart, coord in node.chart_history
        ],
        "children": [_resolution_json(c) for c in node.children],
    }
    if node.blowups is not None:
        out["dicritical"] = node.blowups[0].dicritical
        out["nu"] = node.blowups[0].nu
        out["divisor_multiplicity"] = node.blowups[0].divisor_multiplicity
    if node.would_be_dicritical is not None:
        out["would_be_dicritical"] = node.would_be_dicritical
    if node.marker is not None:
        out["marker"] = _poly_json(node.marker)
    return out


def _resolution_text(node, indent: str = "") -> list[str]:
    label = node.verdict if node.verdict != "blown_up" else "blow up"
    where = ""
    if node.chart_history:
        chart, coord = node.chart_history[-1]
        slope = coord if coord is not None else f"t with {poly_to_text(node.marker, ('t',))} = 0"
        where = f" at chart {chart}, slope {slope}"
    extra = ""
    if node.blowups is not None:
        b = node.blowups[0]
        kind = "dicritical" if b.dicritical else "non-dicritical"
        extra = f" [nu={b.nu}, {kind}, divisor mult {b.divisor_multiplicity}]"
    if node.would_be_dicritical is not None and node.verdict != "blown_up":
        extra = f" [next blow-up would be {'dicritical' if node.would_be_dicritical else 'non-dicritical'}]"
    lines = [f"{indent}{label}{where}: {node.classification}{extra}"]
    for child in node.children:
        lines.extend(_resolution_text(child, indent + "  "))
    return lines


def build_parser() -> argparse.ArgumentParser:
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
    sub = parser.add_subparsers(dest="verb", required=True)

    def add(name, *positional, **flags):
        p = sub.add_parser(name, parents=[common])
        for arg in positional:
            p.add_argument(arg)
        for flag, kwargs in flags.items():
            p.add_argument(f"--{flag.replace('_', '-')}", **kwargs)
        return p

    add("bracket", "field1", "field2")
    p = add("wedge")
    p.add_argument("fields", nargs="+")
    p.add_argument("--weights", help="p,q to wedge against the weighted Euler field")
    add("centralizer", "field", max_degree={"type": int, "default": 6})
    add("first-integrals", "field", max_degree={"type": int, "default": 6})
    add("rank", "field", max_degree={"type": int, "default": 6})
    add("resonances", "eigenvalues", bound={"type": int, "default": 6})
    add("classify", "field")
    add("blowup", "field", chart={"type": int, "choices": (1, 2)})
    add(
        "resolve",
        "field",
        depth={"type": int, "default": 12},
        force_radial={"action": "store_true"},
    )
    add("check-commute", "field1", "field2")
    add("verify-integral", "field", "ratio")
    add("dual-pair", "field1", "field2")
    p = add("log-decomp")
    p.add_argument("form")
    p.add_argument("--denominator", required=True)
    p.add_argument("--factor", action="append", required=True, help="poly:mult")
    p.add_argument("--phi-bound", type=int, default=None)
    add("cr-pair", "poly", max_degree={"type": int, "default": 6})
    p = add("table")
    p.add_argument("row", type=int)
    p.add_argument("--ratio")
    p.add_argument("--p", type=int)
    p.add_argument("--q", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--residue")
    p.add_argument("--max-degree", type=int, default=6)
    return parser


def run(args) -> int:
    as_json = getattr(args, "json", False)
    verb = args.verb

    if verb == "bracket":
        x = parse_field_text(args.field1)
        y = parse_field_text(args.field2)
        b = lie_bracket(x, y)
        _emit(
            {"version": SCHEMA_VERSION, "command": verb, "bracket": _field_json(b)},
            field_to_text(b),
            as_json,
        )
        return 0

    if verb == "wedge":
        fields = [parse_field_text(t) for t in args.fields]
        if args.weights:
            w = Weight(int(v) for v in args.weights.split(","))
            fields.insert(0, weighted_euler(w))
        result = wedge(fields)
        if isinstance(result, PolySeries):
            _emit(
                {"version": SCHEMA_VERSION, "command": verb, "wedge": _poly_json(result)},
                poly_to_text(result),
                as_json,
            )
        else:
            _emit(
                {
                    "version": SCHEMA_VERSION,
                    "command": verb,
                    "wedge": [_poly_json(c) for c in result],
                },
                "\n".join(poly_to_text(c) for c in result),
                as_json,
            )
        return 0

    if verb == "rank":
        rank = centralizer_rank(parse_field_text(args.field), args.max_degree)
        _emit(
            {"version": SCHEMA_VERSION, "command": verb, "rank": rank},
            f"rank = {rank}",
            as_json,
        )
        return 0

    if verb == "centralizer":
        report = ad_kernel(parse_field_text(args.field), args.max_degree)
        _emit(
            {"version": SCHEMA_VERSION, "command": verb, **_report_json(report)},
            _report_text(report),
            as_json,
        )
        return 0

    if verb == "first-integrals":
        x = parse_field_text(args.field)
        report = first_integral_kernel(x, args.max_degree)
        payload = {
            "version": SCHEMA_VERSION,
            "command": verb,
            "dimension_table": sorted(report.dims.items()),
            "dimension": report.dimension(),
            "certified_degree": report.certified_degree,
            "basis": [_poly_json(b.value) for b in report.basis],
            "tentative": [_poly_json(b.value) for b in report.tentative],
        }
        lines = [f"certified dimension = {report.dimension()}"]
        lines += [f"  basis  {poly_to_text(b.value)}" for b in report.basis]
        lines += [
            f"  tentative (to degree {b.certified_to})  {poly_to_text(b.value)}"
            for b in report.tentative
        ]
        _emit(payload, "\n".join(lines), as_json)
        return 0

    if verb == "resonances":
        lams = [parse_scalar(t) for t in args.eigenvalues.split(",")]
        found = resonances(lams, args.bound)
        payload = {
            "version": SCHEMA_VERSION,
            "command": verb,
            "resonances": [
                {"target": r.target, "exponents": list(r.exponents)} for r in found
            ],
        }
        lines = [
            f"lambda_{r.target} = "
            + " + ".join(
                f"{k}*lambda_{j + 1}" for j, k in enumerate(r.exponents) if k
            )
            for r in found
        ]
        _emit(payload, "\n".join(lines) if lines else "no resonances", as_json)
        return 0

    if verb == "classify":
        x = parse_field_text(args.field)
        if x.dim != 2:
            raise GermError("classify is n=2 only")
        lc = classify_linear(x.linear_part_matrix())
        sing, caveat = classify_singularity(x)
        payload = {
            "version": SCHEMA_VERSION,
            "command": verb,
            "linear_case": lc.case if lc else None,
            "ratio_rationality": lc.ratio_rationality if lc else None,
            "ratio": fraction_str(lc.ratio) if lc and lc.ratio is not None else None,
            "eigenvalues": [gq_to_json(e) for e in lc.eigenvalues] if lc and lc.eigenvalues else None,
            "singularity": sing,
            "non_isolated": caveat,
        }
        lines = [f"linear part: {lc.case} ({lc.ratio_rationality} ratio)"]
        if lc.ratio is not None:
            lines.append(f"ratio = {lc.ratio}")
        if lc.eigenvalues:
            lines.append("eigenvalues = " + ", ".join(str(e) for e in lc.eigenvalues))
        lines.append(f"singularity: {sing}" + (" (non-isolated)" if caveat else ""))
        _emit(payload, "\n".join(lines), as_json)
        return 0

    if verb == "blowup":
        x = parse_field_text(args.field)
        charts = (args.chart,) if args.chart else (CHART_SLOPE_Y, CHART_SLOPE_X)
        dic = dicritical_test(x)
        blocks, payload_charts = [], []
        for chart in charts:
            b = strict_transform(x, chart)
            blocks.append(
                f"chart {chart}: pullback  {field_to_text(b.pullback, ('x', 't'))}\n"
                f"chart {chart}: strict    {field_to_text(b.strict, ('x', 't'))}"
                f"  [divisor mult {b.divisor_multiplicity}"
                + (", flagged" if b.multiplicity_flagged else "")
                + "]"
            )
            payload_charts.append(
                {
                    "chart": chart,
                    "pullback": _field_json(b.pullback),
                    "strict": _field_json(b.strict),
                    "divisor_multiplicity": b.divisor_multiplicity,
                    "multiplicity_flagged": b.multiplicity_flagged,
                }
            )
        points = divisor_singularities(x)
        point_lines = []
        for pt in points:
            if pt.marker is not None:
                point_lines.append(
                    f"  irrational locus in chart {pt.chart}: {poly_to_text(pt.marker, ('t',))} = 0"
                )
            else:
                point_lines.append(
                    f"  chart {pt.chart}, slope {pt.coordinate}: {pt.classification}"
                    f" (mu={pt.multiplicity})"
                )
        text = (
            f"nu = {dic.nu}, {'dicritical' if dic.dicritical else 'non-dicritical'}"
            f", witness {poly_to_text(dic.witness, ('t',))}\n"
            + "\n".join(blocks)
            + "\nsingular points on the divisor:"
            + ("\n" + "\n".join(point_lines) if point_lines else " none")
        )
        payload = {
            "version": SCHEMA_VERSION,
            "command": verb,
            "nu": dic.nu,
            "dicritical": dic.dicritical,
            "witness": _poly_json(dic.witness),
            "charts": payload_charts,
            "singular_points": [
                {
                    "chart": pt.chart,
                    "slope": gq_to_json(pt.coordinate) if pt.coordinate is not None else None,
                    "marker": _poly_json(pt.marker) if pt.marker is not None else None,
                    "classification": pt.classification,
                    "multiplicity": pt.multiplicity,
                    "non_isolated": pt.non_isolated,
                }
                for pt in points
            ],
        }
        _emit(payload, text, as_json)
        return 0

    if verb == "resolve":
        x = parse_field_text(args.field)
        tree = resolve(x, max_depth=args.depth, force_radial=args.force_radial)
        payload = {
            "version": SCHEMA_VERSION,
            "command": verb,
            "blowups": tree.total_blowups(),
            "tree": _resolution_json(tree),
        }
        text = "\n".join(
            _resolution_text(tree) + [f"total blow-ups: {tree.total_blowups()}"]
        )
        _emit(payload, text, as_json)
        return 0

    if verb == "check-commute":
        x = parse_field_text(args.field1)
        y = parse_field_text(args.field2)
        commute = lie_bracket(x, y).is_zero()
        _emit(
            {"version": SCHEMA_VERSION, "command": verb, "commute": commute},
            "true" if commute else "false",
            as_json,
        )
        return 0 if commute else 1

    if verb == "verify-integral":
        x = parse_field_text(args.field)
        ratio = parse_ratio(args.ratio, x.dim)
        ok = meromorphic_first_integral_check(x, ratio)
        _emit(
            {"version": SCHEMA_VERSION, "command": verb, "first_integral": ok},
            "true" if ok else "false",
            as_json,
        )
        return 0 if ok else 1

    if verb == "dual-pair":
        x = parse_field_text(args.field1)
        y = parse_field_text(args.field2)
        alpha, beta = dual_pair(x, y)
        commuting = lie_bracket(x, y).is_zero()
        closed_a, _ = closedness_check(alpha.form, alpha.denominator)
        closed_b, _ = closedness_check(beta.form, beta.denominator)
        text = (
            f"alpha = [{one_form_to_text(alpha.form)}] / ({poly_to_text(alpha.denominator)})"
            f"  closed: {closed_a}\n"
            f"beta  = [{one_form_to_text(beta.form)}] / ({poly_to_text(beta.denominator)})"
            f"  closed: {closed_b}\n"
            f"commuting pair: {commuting}"
        )
        payload = {
            "version": SCHEMA_VERSION,
            "command": verb,
            "alpha": {
                "form": one_form_to_json(alpha.form),
                "denominator": _poly_json(alpha.denominator),
                "closed": closed_a,
            },
            "beta": {
                "form": one_form_to_json(beta.form),
                "denominator": _poly_json(beta.denominator),
                "closed": closed_b,
            },
            "commuting": commuting,
        }
        _emit(payload, text, as_json)
        return 0

    if verb == "log-decomp":
        omega = parse_one_form(args.form, 2)
        g = parse_poly(args.denominator, 2)
        factors = []
        for spec_text in args.factor:
            if ":" in spec_text:
                poly_text, mult_text = spec_text.rsplit(":", 1)
                factors.append((parse_poly(poly_text, 2), int(mult_text)))
            else:
                factors.append((parse_poly(spec_text, 2), 1))
        result = log_decomposition(omega, g, factors, args.phi_bound)
        if not result.success:
            _emit(
                {
                    "version": SCHEMA_VERSION,
                    "command": verb,
                    "success": False,
                    "residual": one_form_to_json(result.residual),
                },
                "no solution; residual " + one_form_to_text(result.residual),
                as_json,
            )
            return 1
        d = result.decomposition
        lines = [
            f"residue of {poly_to_text(f)}: {lam}"
            for f, lam in zip(d.factors, d.residues)
        ]
        lines.append(f"phi = {poly_to_text(d.phi)}")
        payload = {
            "version": SCHEMA_VERSION,
            "command": verb,
            "success": True,
            "residues": [
                {"factor": _poly_json(f), "residue": gq_to_json(lam)}
                for f, lam in zip(d.factors, d.residues)
            ],
            "phi": _poly_json(d.phi),
        }
        _emit(payload, "\n".join(lines), as_json)
        return 0

    if verb == "cr-pair":
        f = parse_univariate(args.poly)
        x, y = cauchy_riemann_pair(f, args.max_degree)
        payload = {
            "version": SCHEMA_VERSION,
            "command": verb,
            "x": _field_json(x),
            "y": _field_json(y),
        }
        _emit(payload, f"X = {field_to_text(x)}\nY = {field_to_text(y)}", as_json)
        return 0

    if verb == "table":
        kwargs = {}
        if args.ratio is not None:
            kwargs["ratio"] = parse_scalar(args.ratio)
        if args.residue is not None:
            kwargs["residue"] = parse_scalar(args.residue)
        for name in ("p", "q", "n"):
            value = getattr(args, name)
            if value is not None:
                kwargs[name] = value
        row = linear_centralizer_table(args.row, max_degree=args.max_degree, **kwargs)
        gens = row.generator_jets(args.max_degree)
        dim_text = str(row.dimension) if row.dimension is not None else "infinite"
        lines = [f"X = {field_to_text(row.field)}"]
        lines += [f"  generator  {field_to_text(g)}" for g in gens]
        lines.append(f"rank = {row.rank}, dimension = {dim_text}")
        payload = {
            "version": SCHEMA_VERSION,
            "command": verb,
            "field": _field_json(row.field),
            "generators": [_field_json(g) for g in gens],
            "rank": row.rank,
            "dimension": row.dimension,
        }
        _emit(payload, "\n".join(lines), as_json)
        return 0

    raise GermError(f"unknown verb {verb!r}")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return run(args)
    except (ParseError, GermError, ZeroDivisionError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
