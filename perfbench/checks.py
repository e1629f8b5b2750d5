"""Correctness checks, run after the timed rounds.

Each check recomputes what an answer must satisfy with sympy (see
symbolic.py) or tests a property the method guarantees; none compares with a
stored copy of earlier output.  A check returns a list of error strings, empty
when the answer holds.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

import sympy
from sympy import Poly
from sympy.polys.domains import QQ_I

import symbolic as S
from workloads import APPENDED_JSON, RESOLVE_DEPTH


def _zero(p) -> bool:
    return p.is_zero


def _mu(x) -> int:
    return min(sum(e) for p in x for e in S.terms(p))


def _sympy_field(text: str, dim: int) -> list[Poly]:
    return [Poly(sympy.sympify(c), *S.GENS[dim], domain=QQ_I) for c in text.split(",")]


# -- kernels ------------------------------------------------------------------


def _column_key(label):
    """The solver's column order: graded lex with x < y < z, then the slot."""
    e, slot = label
    return (sum(e), tuple(reversed(e)), slot)


def _reduced_echelon(vecs) -> bool:
    """Leading entries 1, in increasing column order, alone in their columns."""
    pivots = [min(v, key=_column_key) for v in vecs]
    keys = [_column_key(p) for p in pivots]
    return (
        all(v[p] == QQ_I(1, 0) for v, p in zip(vecs, pivots))
        and keys == sorted(set(keys))
        and all(p not in w for i, p in enumerate(pivots) for j, w in enumerate(vecs) if i != j)
    )


def check_kernel(inp, rep) -> list[str]:
    errs = []
    integrals = inp["kind"] == "integral"
    x, n = S.field(inp["field"]), inp["N"]
    dim = len(x)
    horizon = n + _mu(x) - 1
    if rep.certified_degree != horizon:
        errs.append(f"certified degree {rep.certified_degree} != N + mu - 1 = {horizon}")

    def image(v):
        return [S.apply(x, v[0])] if integrals else S.bracket(x, v)

    def as_field(b):
        return [S.poly(b.value)] if integrals else S.field(b.value)

    basis = [as_field(b) for b in rep.basis]
    tentative = [as_field(b) for b in rep.tentative]
    for k, b in enumerate(basis):
        if not all(_zero(p) for p in image(b)):
            errs.append(f"basis vector {k} is not an exact solution")
        if max((sum(e) for p in b for e in S.terms(p)), default=0) > n:
            errs.append(f"basis vector {k} exceeds degree {n}")
    for k, v in enumerate(tentative):
        img = image(v)
        if any(S.up_to_degree(p, horizon) for p in img):
            errs.append(f"tentative vector {k} fails a constraint of degree <= {horizon}")
        if all(_zero(p) for p in img):
            errs.append(f"tentative vector {k} is exact, so it belongs to the basis")

    rows, degrees, ncols = S.kernel_constraints(x, n, integrals)
    nullity = ncols - S.rank(rows, ncols)
    visible = ncols - S.rank([r for r, d in zip(rows, degrees) if d <= horizon], ncols)
    if len(basis) != nullity:
        errs.append(f"certified dimension {len(basis)} != independent nullity {nullity}")
    if len(basis) + len(tentative) != visible:
        errs.append(f"basis + tentative = {len(basis) + len(tentative)} != {visible}")
    vecs = [S.field_vector(b) for b in basis]
    if not _reduced_echelon(vecs):
        errs.append("basis is not the canonical reduced echelon basis")
    if S.span_rank([vecs, [S.field_vector(v) for v in tentative]]) != len(basis) + len(tentative):
        errs.append("basis and tentative vectors are not independent")
    if sum(rep.dims.values()) != len(basis):
        errs.append("dimension table does not add up to the certified dimension")

    expected = inp["expected"]
    if integrals:
        gens = []
        if expected is not None:
            h = Poly(sympy.sympify(expected), *S.GENS[dim], domain=QQ_I)
            power = h
            while power.total_degree() <= n:
                gens.append([power])
                power = power * h
    elif isinstance(expected, list) and expected and isinstance(expected[0], str):
        gens = [_sympy_field(t, dim) for t in expected]
    else:
        gens = [S.field(g) for g in expected]
    gvecs = [S.field_vector(g) for g in gens]
    r_gen, r_all = S.span_rank([gvecs]), S.span_rank([vecs, gvecs])
    if not (r_gen == r_all == len(basis)):
        errs.append(f"span differs from the tabulated generators (ranks {len(basis)}, {r_gen}, {r_all})")
    if not integrals and dim == 2 and basis:
        independent = any(
            not _zero(S.wedge([a, b])) for i, a in enumerate(basis) for b in basis[i + 1 :]
        )
        if rep.rank_estimate != (2 if independent else 1):
            errs.append(f"generic rank {rep.rank_estimate} is wrong")
    return errs


def check_kernels(workload, results) -> list[str]:
    return [
        f"{label}: {e}"
        for label, rep in results.items()
        for e in check_kernel(workload.inputs[label], rep)
    ]


# -- jet_identities -------------------------------------------------------------


def _points(dim, rng, count=3):
    return [
        [S.qi(Fraction(rng.randint(-5, 5), rng.randint(1, 4)), Fraction(rng.randint(-5, 5), rng.randint(1, 4)))
         for _ in range(dim)]
        for _ in range(count)
    ]


def _compose_value(f, images, point):
    return S.evaluate(f, [S.evaluate(g, point) for g in images])


def _residual(form, g):
    """dx^dy coefficient of g d(omega) - dg ^ omega, omega = P dx + Q dy."""
    x, y = g.gens
    p, q = form
    return g * (q.diff(x) - p.diff(y)) - (g.diff(x) * q - g.diff(y) * p)


def _closed_ok(result, form, g: Poly) -> bool:
    verdict, residual = result
    expected = _residual(form, g)
    return S.same(expected, residual) and verdict == _zero(expected)


def check_jet(label, inp, res) -> list[str]:
    kind = label.split(".")[0]
    if kind in ("mul2", "mul3", "mul2small"):
        ok = S.same(S.poly(inp["f"]) * S.poly(inp["g"]), res) and res.trunc is None
    elif kind.startswith("truncmul"):
        full = S.poly(inp["f"]) * S.poly(inp["g"])
        ok = res.trunc == inp["n"] and S.up_to_degree(full, inp["n"]) == S.terms(S.poly(res))
    elif kind.startswith("subst"):
        f, images = S.poly(inp["f"]), [S.poly(g) for g in inp["images"]]
        r = S.poly(res)
        pts = _points(len(f.gens), random.Random(label))
        ok = res.trunc is None and all(
            _compose_value(f, images, p) == S.evaluate(r, p) for p in pts
        )
    elif kind == "apply2":
        ok = S.same(S.apply(S.field(inp["x"]), S.poly(inp["f"])), res)
    elif kind.startswith("bracket"):
        expected = S.bracket(S.field(inp["x"]), S.field(inp["y"]))
        ok = all(S.same(e, c) for e, c in zip(expected, res.comps))
    elif kind in ("wedge2", "wedge3", "wedge2small"):
        ok = S.same(S.wedge([S.field(f) for f in inp["fields"]]), res)
    elif kind == "wedge32":
        expected = S.wedge([S.field(f) for f in inp["fields"]])
        ok = all(S.same(e, c) for e, c in zip(expected, res))
    elif kind == "jacobi2":
        yz, total = res
        expected = S.bracket(S.field(inp["y"]), S.field(inp["z"]))
        ok = all(S.same(e, c) for e, c in zip(expected, yz.comps)) and all(
            not c.terms for c in total.comps
        )
    elif kind == "leibniz3":
        lhs, rhs, xf = res
        x, f, g = S.field(inp["x"]), S.poly(inp["f"]), S.poly(inp["g"])
        expected = S.apply(x, f * g)
        ok = S.same(expected, lhs) and S.same(expected, rhs) and S.same(S.apply(x, f), xf)
    elif kind == "crpair":
        xs, ys = S.GENS[2]
        t = S.GENS[1][0]
        whole = Poly(
            sympy.expand(S.poly(inp["f"]).as_expr().subs(t, xs + sympy.I * ys)), xs, ys, domain=QQ_I
        )
        n = inp["N"]
        u = {e: QQ_I(c.x, 0) for e, c in S.up_to_degree(whole, n).items() if c.x}
        v = {e: QQ_I(c.y, 0) for e, c in S.up_to_degree(whole, n).items() if c.y}
        xf, yf = res
        u, v = S.native((xs, ys), u), S.native((xs, ys), v)
        ok = (
            xf.trunc == n
            and S.same(u, xf.comps[0]) and S.same(v, xf.comps[1])
            and S.same(v, yf.comps[0]) and S.same(-u, yf.comps[1])
            and all(_zero(p) for p in S.bracket([u, v], [v, -u]))
        )
    elif kind.startswith("intfactor"):
        x, g = S.field(inp["x"]), S.poly(inp["g"])
        div = x[0].diff(g.gens[0]) + x[1].diff(g.gens[1])
        ok = res == _zero(S.apply(x, g) - div * g)
    elif kind in ("closed", "closedbent"):
        x = S.field(inp["x"])
        ok = _closed_ok(res, [-x[1], x[0]], S.poly(inp["g"]))
    elif kind == "dualpair":
        alpha, beta, ca, cb = res
        x, y = S.field(inp["x"]), S.field(inp["y"])
        g = S.wedge([x, y])
        a = [S.poly(c) for c in alpha.form.coeffs]
        b = [S.poly(c) for c in beta.form.coeffs]

        def pair(form, f):
            return form[0] * f[0] + form[1] * f[1]

        ok = (
            S.same(g, alpha.denominator) and S.same(g, beta.denominator)
            and S.terms(pair(a, x)) == S.terms(g) and _zero(pair(a, y))
            and _zero(pair(b, x)) and S.terms(pair(b, y)) == S.terms(g)
            and _closed_ok(ca, a, g) and _closed_ok(cb, b, g)
            and ca[0] and cb[0]  # a commuting pair has closed duals
        )
    elif kind == "logdecomp":
        ok = res.success and _log_ok(inp, res.decomposition)
    else:
        return [f"{label}: no check for this operation"]
    return [] if ok else [f"{label}: answer disagrees with sympy"]


def _log_ok(inp, dec) -> bool:
    if list(dec.residues) != list(inp["residues"]):
        return False
    fs = [S.poly(f) for f, _ in inp["factors"]]
    ks = [k for _, k in inp["factors"]]
    g, phi = S.poly(inp["g"]), S.poly(dec.phi)
    prod = fs[0]
    for f in fs[1:]:
        prod = prod * f
    lams = [QQ_I.to_sympy(S.qi(r.re, r.im)) for r in dec.residues]
    for i, gen in enumerate(g.gens):
        total = prod * phi.diff(gen)
        for f, k, lam in zip(fs, ks, lams):
            total += g.exquo(f) * f.diff(gen) * lam
            total -= phi * prod.exquo(f) * f.diff(gen) * (k - 1)
        if not S.same(total, inp["omega"].coeffs[i]):
            return False
    return True


def check_jet_identities(workload, results) -> list[str]:
    return [e for label, res in results.items() for e in check_jet(label, workload.inputs[label], res)]


# -- resolution -------------------------------------------------------------------


def _chart_pullback(germ: list[Poly], chart: int) -> list[Poly]:
    x, y = germ[0].gens
    a, b = (germ[1], germ[0]) if chart == 2 else (germ[0], germ[1])
    if chart == 2:
        a, b = (Poly(p.as_expr().subs({x: y, y: x}, simultaneous=True), x, y, domain=QQ_I) for p in (a, b))
    a_up = Poly(a.as_expr().subs(y, x * y), x, y, domain=QQ_I)
    b_up = Poly(b.as_expr().subs(y, x * y), x, y, domain=QQ_I)
    return [a_up, (b_up - Poly(y, x, y, domain=QQ_I) * a_up).exquo(Poly(x, x, y, domain=QQ_I))]


def _on_divisor(p: Poly) -> Poly:
    """p(0, t) as a polynomial in the slope coordinate."""
    return S.native(S.GENS[1], {(e[1],): c for e, c in S.terms(p).items() if e[0] == 0})


def _radial_lead(x) -> bool:
    """The first nonzero jet of a plane field is a multiple of the radial field."""
    xs, ys = x[0].gens
    a, b = (S.homogeneous(p, _mu(x)) for p in x)
    return _zero(a * Poly(ys, xs, ys, domain=QQ_I) - b * Poly(xs, xs, ys, domain=QQ_I))


def _leaf_class_ok(node) -> bool:
    germ = S.field(node.germ)
    mu = _mu(germ)
    lin = [[S.terms(p).get(e, QQ_I(0, 0)) for e in ((1, 0), (0, 1))] for p in germ]
    tr = lin[0][0] + lin[1][1]
    det = lin[0][0] * lin[1][1] - lin[0][1] * lin[1][0]
    verdict = node.verdict
    if verdict == "purely_radial":
        return mu == 1 and not lin[0][1] and not lin[1][0] and lin[0][0] == lin[1][1]
    if verdict == "saddle_node":
        return not det and bool(tr)
    if verdict == "nprs":
        return mu > 1 and _radial_lead(germ)
    if verdict == "reduced_hyperbolic":
        if not det:
            return False
        r = sympy.Symbol("r")
        to_expr = QQ_I.to_sympy
        quad = to_expr(det) * r**2 + (2 * to_expr(det) - to_expr(tr) ** 2) * r + to_expr(det)
        roots = sympy.roots(sympy.Poly(quad, r), filter=None)
        return not any(root.is_rational and root > 0 for root in roots)
    return False


def _missing_points(strict, children) -> list[str]:
    """Every singular point on the divisor, found again by sympy, must be a child:
    Q(i) roots of the restricted strict transform as points (chart 2 adds only
    its origin), irreducible factors of higher degree as chart-1 markers."""
    problems = []
    for chart, st in strict.items():
        restricted = [r for r in (_on_divisor(p) for p in st) if not r.is_zero]
        if not restricted:
            continue  # the divisor itself is singular; reported as one flagged point
        witness = restricted[0] if len(restricted) == 1 else restricted[0].gcd(restricted[1])
        roots, markers = set(), 0
        for factor, _ in witness.factor_list()[1]:
            if factor.degree() == 1:
                lead, const = factor.rep.to_list()
                roots.add(-const / lead)
            else:
                markers += 1
        if chart == 2:
            roots &= {QQ_I(0, 0)}
            markers = 0
        found = {
            S.qi(c.chart_history[-1][1].re, c.chart_history[-1][1].im)
            for c in children if c.chart_history[-1][0] == chart and c.marker is None
        }
        if found != roots:
            problems.append(f"chart {chart}: points {sorted(map(str, found))}, sympy finds {sorted(map(str, roots))}")
        if sum(1 for c in children if c.chart_history[-1][0] == chart and c.marker is not None) != markers:
            problems.append(f"chart {chart}: expected {markers} irrational markers")
    return problems


def _shape(node):
    return (node.verdict, node.classification, sorted(repr(_shape(c)) for c in node.children))


def check_tree(node, errs, where="root"):
    if node.verdict == "unresolved_depth":
        errs.append(f"{where}: leaf left at unresolved_depth")
        return
    if node.blowups is None:
        if node.verdict != "unresolvable_irrational" and not _leaf_class_ok(node):
            errs.append(f"{where}: leaf class {node.verdict} disagrees with its linear part")
        return
    germ = S.field(node.germ)
    strict = {}
    for blown in node.blowups:
        pull = _chart_pullback(germ, blown.chart)
        m = blown.divisor_multiplicity
        xpow = Poly(S.GENS[2][0] ** m, *S.GENS[2], domain=QQ_I)
        st = S.field(blown.strict)
        if not all(S.same(p, c) for p, c in zip(pull, blown.pullback.comps)):
            errs.append(f"{where}: chart {blown.chart} pullback is wrong")
        if not all(S.terms(p) == S.terms(s * xpow) for p, s in zip(pull, st)):
            errs.append(f"{where}: chart {blown.chart} strict transform is wrong")
        if all(all(e[0] > 0 for e in S.terms(s)) for s in st):
            errs.append(f"{where}: chart {blown.chart} strict transform still divisible by x")
        strict[blown.chart] = st
    for problem in _missing_points(strict, node.children):
        errs.append(f"{where}: {problem}")
    for k, child in enumerate(node.children):
        chart, coord = child.chart_history[-1]
        st = strict[chart]
        here = f"{where}/{k}"
        if child.marker is not None:
            marker = S.poly(child.marker)
            restricted = [_on_divisor(p) for p in st]
            if marker.degree() < 2 or not S.irreducible_over_qqi(marker):
                errs.append(f"{here}: marker is not an irreducible factor of degree >= 2")
            if any(not _zero(r) and not _zero(r.rem(marker)) for r in restricted):
                errs.append(f"{here}: marker does not divide the divisor restriction")
            continue
        c = S.qi(coord.re, coord.im)
        if any(S.evaluate(p, [QQ_I(0, 0), c]) for p in st):
            errs.append(f"{here}: slope {coord} is not a singular point on the divisor")
        xs, ys = S.GENS[2]
        shift = sympy.Rational(coord.re) + sympy.I * sympy.Rational(coord.im)
        moved = [Poly(sympy.expand(p.as_expr().subs(ys, ys + shift)), xs, ys, domain=QQ_I) for p in st]
        if not all(S.same(p, comp) for p, comp in zip(moved, child.germ.comps)):
            errs.append(f"{here}: child germ is not the strict transform moved to its point")
        check_tree(child, errs, here)


def check_resolution(workload, results) -> list[str]:
    from germfield import blowup

    errs, base_shapes = [], {}
    for label, tree in results.items():
        inp = workload.inputs[label]
        local: list[str] = []
        check_tree(tree, local, label)
        if inp["name"] not in base_shapes:
            base_shapes[inp["name"]] = _shape(blowup.resolve(inp["base"], max_depth=RESOLVE_DEPTH))
        if base_shapes[inp["name"]] != _shape(tree):
            local.append(f"{label}: tree shape changes under the rescaling {inp['scale']}")
        errs.extend(local)
    return errs


# -- cli_cold ----------------------------------------------------------------------


def _field_json(node, dim=2):
    return [S.from_json_terms(dim, comp) for comp in node["terms"]]


def _kernel_dim(x, n, integrals=False):
    rows, _, ncols = S.kernel_constraints(x, n, integrals)
    return ncols - S.rank(rows, ncols)


def _kernel_fields(x, n):
    """A basis of the exact degree-<=n centralizer, computed by sympy."""
    from sympy.polys.matrices import DomainMatrix

    rows, _, ncols = S.kernel_constraints(x, n, False)
    dm = DomainMatrix({i: r for i, r in enumerate(rows)}, (len(rows), ncols), QQ_I)
    null = dm.nullspace().to_Matrix()
    gens = S.GENS[len(x)]
    labels = [(e, i) for e in S.monomials(len(x), n) for i in range(len(x))]
    out = []
    for r in range(null.rows):
        comps = [dict() for _ in x]
        for j, (e, i) in enumerate(labels):
            if null[r, j] != 0:
                comps[i][e] = QQ_I.from_sympy(null[r, j])
        out.append([S.native(gens, c) for c in comps])
    return out


def _fx(text, dim=2):
    return _sympy_field(text.replace("^", "**"), dim)


def check_cli(command, result) -> list[str]:
    try:
        doc = json.loads(result.stdout)
    except json.JSONDecodeError:
        return ["stdout is not JSON"]
    verb = command[0]
    X = lambda k: _fx(command[k])
    if verb == "centralizer":
        x = X(1)
        basis = [_field_json(b) for b in doc["basis"]]
        ok = (all(all(_zero(p) for p in S.bracket(x, b)) for b in basis)
              and doc["dimension"] == len(basis) == _kernel_dim(x, 4)
              and doc["certified_degree"] == 4)
    elif verb == "first-integrals":
        x = X(1)
        basis = [S.from_json_terms(2, b["terms"]) for b in doc["basis"]]
        ok = (all(_zero(S.apply(x, f)) for f in basis)
              and doc["dimension"] == len(basis) == _kernel_dim(x, 6, True))
    elif verb == "rank":
        fields = _kernel_fields(X(1), 6)
        independent = any(not _zero(S.wedge([a, b])) for i, a in enumerate(fields) for b in fields[i + 1:])
        ok = doc["rank"] == (2 if independent else 1)
    elif verb == "check-commute":
        ok = doc["commute"] == all(_zero(p) for p in S.bracket(X(1), X(2)))
    elif verb == "bracket":
        ok = [S.terms(p) for p in _field_json(doc["bracket"])] == [S.terms(p) for p in S.bracket(X(1), X(2))]
    elif verb == "wedge":
        if command[1] == "--weights":
            p, q = (int(v) for v in command[2].split(","))
            xs, ys = S.GENS[2]
            euler = [Poly(p * xs, xs, ys, domain=QQ_I), Poly(q * ys, xs, ys, domain=QQ_I)]
            expected = S.wedge([euler, X(3)])
        else:
            expected = S.wedge([X(1), X(2)])
        ok = S.terms(S.from_json_terms(2, doc["wedge"]["terms"])) == S.terms(expected)
    elif verb == "resonances":
        lams = [int(v) for v in command[1].split(",")]
        bound = int(command[3])
        found = sorted(
            [j + 1, [a, b]]
            for a in range(bound + 1) for b in range(bound + 1 - a) if a + b >= 2
            for j, lam in enumerate(lams) if a * lams[0] + b * lams[1] == lam
        )
        ok = sorted([r["target"], r["exponents"]] for r in doc["resonances"]) == found
    elif verb == "classify":
        x = X(1)
        lin = sympy.Matrix([[QQ_I.to_sympy(S.terms(p).get(e, QQ_I(0, 0))) for e in ((1, 0), (0, 1))] for p in x])
        eig = list(lin.eigenvals())
        ratio = sympy.simplify(eig[0] / eig[1])
        in_qi = all(part.is_rational for e in eig for part in sympy.simplify(e).as_real_imag())
        hyperbolic = lin.det() != 0 and not (ratio.is_rational and ratio > 0)
        ok = (doc["ratio_rationality"] == ("rational" if ratio.is_rational else "irrational")
              and (doc["eigenvalues"] is None) == (not in_qi)
              and (doc["singularity"] == "reduced_hyperbolic") == hyperbolic
              and doc["non_isolated"] is False)
    elif verb == "blowup":
        x = X(1)
        ok = True
        for chart in doc["charts"]:
            pull = _chart_pullback(x, chart["chart"])
            got = _field_json(chart["pullback"])
            ok &= [S.terms(p) for p in pull] == [S.terms(p) for p in got]
            xpow = Poly(S.GENS[2][0] ** chart["divisor_multiplicity"], *S.GENS[2], domain=QQ_I)
            ok &= [S.terms(p) for p in pull] == [S.terms(s * xpow) for s in _field_json(chart["strict"])]
        for pt in doc["singular_points"]:
            strict = _field_json(doc["charts"][pt["chart"] - 1]["strict"])
            ok &= not any(S.evaluate(p, [QQ_I(0, 0), S.qi(*pt["slope"])]) for p in strict)
    elif verb == "resolve":
        tree = doc["tree"]
        x = X(1)
        nodes = []

        def walk(n):
            nodes.append(n)
            for c in n["children"]:
                walk(c)

        walk(tree)
        blown = [n for n in nodes if n["verdict"] == "blown_up"]
        leaves = [n for n in nodes if not n["children"]]
        dicritical = _radial_lead(x)
        ok = (doc["blowups"] == len(blown)
              and all(n["verdict"] != "unresolved_depth" for n in leaves)
              and tree["nu"] == _mu(x) and tree["dicritical"] == dicritical)
    elif verb == "verify-integral":
        x = X(1)
        num, den = command[2].split(" / ")
        p, q = (Poly(sympy.sympify(s.replace("^", "**")), *S.GENS[2], domain=QQ_I) for s in (num, den))
        ok = doc["first_integral"] == _zero(q * S.apply(x, p) - p * S.apply(x, q))
    elif verb == "dual-pair":
        x1, x2 = X(1), X(2)
        g = S.wedge([x1, x2])
        ok = True
        for name, form in (("alpha", [x2[1], -x2[0]]), ("beta", [-x1[1], x1[0]])):
            got = [S.from_json_terms(2, c) for c in doc[name]["form"]]
            ok &= [S.terms(p) for p in got] == [S.terms(p) for p in form]
            ok &= S.terms(S.from_json_terms(2, doc[name]["denominator"]["terms"])) == S.terms(g)
            ok &= doc[name]["closed"] == _zero(_residual(form, g))
        ok &= doc["commuting"] == all(_zero(p) for p in S.bracket(x1, x2))
    elif verb == "log-decomp":
        xs, ys = S.GENS[2]
        P = lambda e: Poly(sympy.sympify(e), xs, ys, domain=QQ_I)
        omega = [P("-y"), P("x**2")]
        g = P("x**2*y")
        fs, ks = [P("x"), P("y")], [2, 1]
        lams = [QQ_I.to_sympy(S.qi(*r["residue"])) for r in doc["residues"]]
        phi = S.from_json_terms(2, doc["phi"]["terms"])
        prod = fs[0] * fs[1]
        ok = doc["success"]
        for i, gen in enumerate((xs, ys)):
            total = prod * phi.diff(gen)
            for f, k, lam in zip(fs, ks, lams):
                total += g.exquo(f) * f.diff(gen) * lam
                total -= phi * prod.exquo(f) * f.diff(gen) * (k - 1)
            ok &= S.terms(total) == S.terms(omega[i])
    elif verb == "cr-pair":
        xs, ys = S.GENS[2]
        u = Poly(xs**2 - ys**2, xs, ys, domain=QQ_I)
        v = Poly(2 * xs * ys, xs, ys, domain=QQ_I)
        got_x, got_y = _field_json(doc["x"]), _field_json(doc["y"])
        ok = [S.terms(p) for p in got_x + got_y] == [S.terms(p) for p in (u, v, v, -u)]
    elif verb == "table":
        field = _field_json(doc["field"])
        n = int(command[3])
        xs, ys = S.GENS[2]
        expected = [Poly(xs, xs, ys, domain=QQ_I), Poly(n * ys, xs, ys, domain=QQ_I)]
        gens = [_field_json(g) for g in doc["generators"]]
        ok = ([S.terms(p) for p in field] == [S.terms(p) for p in expected]
              and all(all(_zero(p) for p in S.bracket(field, g)) for g in gens)
              and doc["dimension"] == len(gens) == _kernel_dim(field, 6)
              and doc["rank"] == 2)
    else:
        return [f"no check for verb {verb}"]
    return [] if ok else ["JSON answer disagrees with sympy"]


def check_cli_cold(workload, results) -> list[str]:
    errs = []
    for label, res in results.items():
        command = workload.inputs[label]["command"]
        if command is APPENDED_JSON:
            command = command[:-1]
        errs.extend(f"{label}: {e}" for e in check_cli(command, res))
    return errs


CHECKS = {
    "kernels": check_kernels,
    "jet_identities": check_jet_identities,
    "resolution": check_resolution,
    "cli_cold": check_cli_cold,
}
