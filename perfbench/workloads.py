"""The four benchmark workloads: inputs built from a seed, and their operations.

Each builder returns a Workload whose operations are zero-argument callables.
Calls go through module attributes (``C.ad_kernel``, ``B.resolve``...) so that
the traced run's wrappers, installed on those attributes, see them.  Inputs
are built without sympy and, where a closed form is needed (integrating
factors, Cauchy-Riemann pairs, logarithmic forms), with the small exact
polynomial helpers below rather than the package's arithmetic.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import math
import os
import random
import subprocess
import sys
from fractions import Fraction as F

from germfield import blowup as B
from germfield import centralizer as C
from germfield import fields as FL
from germfield import integrability as IN
from germfield.gaussian import GaussianRational, gq
from germfield.parsing import parse_field
from germfield.series import PolySeries

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


@dataclasses.dataclass
class Workload:
    ops: list  # [(label, callable)]
    inputs: dict  # what the checks need to judge each answer, keyed by label
    in_process_ops: list | None = None  # cli_cold's operations for the traced run


# -- exact helper polynomials: {exponent: (re, im)} with Fraction parts ----------


def _cmul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def p_add(*ps):
    out: dict = {}
    for p in ps:
        for e, c in p.items():
            s = out.get(e, (F(0), F(0)))
            s = (s[0] + c[0], s[1] + c[1])
            if s == (0, 0):
                out.pop(e, None)
            else:
                out[e] = s
    return out


def p_mul(p, q):
    out: dict = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            s, t = out.get(e, (0, 0)), _cmul(c1, c2)
            out[e] = (s[0] + t[0], s[1] + t[1])
    return {e: c for e, c in out.items() if c != (0, 0)}


def p_scale(p, c):
    return {e: _cmul(v, c) for e, v in p.items() if _cmul(v, c) != (0, 0)}


def p_diff(p, i):
    out = {}
    for e, c in p.items():
        if e[i]:
            de = tuple(k - 1 if j == i else k for j, k in enumerate(e))
            out[de] = (c[0] * e[i], c[1] * e[i])
    return out


def p_prod(ps, dim):
    out = {(0,) * dim: (F(1), F(0))}
    for p in ps:
        out = p_mul(out, p)
    return out


def to_series(dim, p) -> PolySeries:
    return PolySeries(dim, {e: gq(*c) for e, c in p.items()})


_SMALL = [F(1), F(-1), F(2), F(-2), F(3), F(1, 2), F(-1, 2), F(2, 3), F(-3, 2)]


def rand_scalar(rng, imaginary=0.5):
    re = rng.choice(_SMALL)
    im = rng.choice(_SMALL) if rng.random() < imaginary else F(0)
    return (re, im)


def rand_poly(rng, dim, max_deg, nterms, min_deg=0):
    mons = [
        e
        for e in _exponents(dim, max_deg)
        if min_deg <= sum(e)
    ]
    chosen = rng.sample(mons, min(nterms, len(mons)))
    return {e: rand_scalar(rng) for e in sorted(chosen)}


def _exponents(dim, max_deg):
    if dim == 1:
        return [(k,) for k in range(max_deg + 1)]
    return [
        (k,) + rest
        for k in range(max_deg + 1)
        for rest in _exponents(dim - 1, max_deg - k)
    ]


# -- canonical form of answers, for the digest ------------------------------------


def canonical(v):
    """A plain, deterministic structure holding every exact value of an answer."""
    if isinstance(v, PolySeries):
        return ("P", v.dim, v.trunc, [(e, str(c.re), str(c.im)) for e, c in v.sorted_terms()])
    if isinstance(v, GaussianRational):
        return ("Q", str(v.re), str(v.im))
    if isinstance(v, FL.VectorFieldJet):
        return ("V", [canonical(c) for c in v.comps])
    if isinstance(v, FL.OneFormJet):
        return ("W", [canonical(c) for c in v.coeffs])
    if dataclasses.is_dataclass(v):
        return (type(v).__name__, [
            (f.name, canonical(getattr(v, f.name)))
            for f in dataclasses.fields(v) if not f.metadata.get("volatile")
        ])
    if isinstance(v, dict):
        return ("D", sorted((repr(k), canonical(x)) for k, x in v.items()))
    if isinstance(v, (list, tuple)):
        return [canonical(x) for x in v]
    if isinstance(v, (bool, int, str)) or v is None:
        return repr(v)
    raise TypeError(f"no canonical form for {type(v).__name__}")


def digest(results) -> str:
    return hashlib.sha256(repr(canonical(results)).encode()).hexdigest()[:16]


# -- kernels -------------------------------------------------------------------------

PD_FIELD = "2*x + y^2, y, 3*z + y^3"
PD_SPAN = ["y**2, 0, 0", "0, 0, y**3", "2*x + y**2, y, 3*z + y**3", "0, 0, z - x*y"]
PD_DEGREE = 3  # the 3D field at N = 5 alone takes about 5.6 s; N = 3 already has dim 4


def build_kernels(seed: int) -> Workload:
    # Each seeded choice is among values of about equal cost: residue 0 or a
    # 1:1 ratio, say, would make a row cheaper or dearer and move op_p50_cal_ms
    # with the seed.  Rows 1-3 at N = 10 are as many dear operations as there
    # are cheap ones (rows 1, 2, 3, 5 at N = 6, saddle, node), so the median
    # operation falls inside the middle group (row 8, the 3D field, the
    # rotation) rather than on its edge, where noise would swap it for a
    # neighbour of another cost.
    rng = random.Random(seed)
    params = {
        1: {},
        2: {"ratio": gq(*rng.choice([(F(5, 3), 0), (F(7, 2), 0), (F(2, 5), 0), (1, 1), (2, -1)]))},
        3: dict(zip("pq", rng.choice([(1, 2), (2, 1)]))),
        4: {},
        5: {"n": rng.choice([2, 3])},
        6: {},
        7: {},
        8: {"p": 1, "residue": gq(*rng.choice([(1, 0), (F(-1, 2), 0), (0, 1), (F(3, 2), 0)]))},
    }
    ops, inputs = [], {}

    def add(label, kind, x, n, expected):
        solver = "ad_kernel" if kind == "field" else "first_integral_kernel"
        ops.append((label, lambda solver=solver, x=x, n=n: getattr(C, solver)(x, n)))
        inputs[label] = {"kind": kind, "field": x, "N": n, "expected": expected}

    for n, rows in ((6, range(1, 9)), (10, (1, 2, 3))):
        for row in rows:
            table = C.linear_centralizer_table(row, max_degree=n, **params[row])
            add(f"row{row}.N{n}", "field", table.field, n, table.generator_jets(n))
    add(f"pd3.N{PD_DEGREE}", "field", parse_field(PD_FIELD, 3), PD_DEGREE, PD_SPAN)

    a, b = rng.choice([(1, 2), (2, 1)])
    c = rng.choice([1, -1])  # c = 2 or 1/3 makes the rotation about a fifth dearer
    saddle = PolySeries(2, {(1, 0): a}), PolySeries(2, {(0, 1): -b})
    rotation = PolySeries(2, {(0, 1): c}), PolySeries(2, {(1, 0): -c})
    node = PolySeries(2, {(1, 0): 1}), PolySeries(2, {(0, 1): rng.choice([2, 3, F(5, 2)])})
    ga = math.gcd(a, b)
    add("fi.saddle.N10", "integral", FL.VectorFieldJet(saddle), 10, f"x**{b // ga}*y**{a // ga}")
    add("fi.rotation.N10", "integral", FL.VectorFieldJet(rotation), 10, "x**2 + y**2")
    add("fi.node.N10", "integral", FL.VectorFieldJet(node), 10, None)
    return Workload(ops, inputs)


# -- jet_identities --------------------------------------------------------------------


def _field(rng, dim, max_deg, nterms, min_deg=0):
    return FL.VectorFieldJet(
        [to_series(dim, rand_poly(rng, dim, max_deg, nterms, min_deg)) for _ in range(dim)]
    )


def _cr_parts(f_uni):
    """u, v with u + i v = f(x + i y), expanded with the helper arithmetic."""
    z = {(1, 0): (F(1), F(0)), (0, 1): (F(0), F(1))}
    total, power = {}, {(0, 0): (F(1), F(0))}
    for k in range(max(e[0] for e in f_uni) + 1):
        if (k,) in f_uni:
            total = p_add(total, p_scale(power, f_uni[(k,)]))
        power = p_mul(power, z)
    u = {e: (c[0], F(0)) for e, c in total.items() if c[0]}
    v = {e: (c[1], F(0)) for e, c in total.items() if c[1]}
    return u, v


LOG_MULTIPLICITIES = [(2, 1, 1), (1, 2, 1), (1, 1, 2)]
LOG_PHI_BOUND = 3  # phi is built of degree <= 2; the bound keeps the solve small


def _log_form(rng, mults):
    """omega, g and factors with omega/g = sum l_j df_j/f_j + d(phi / D)."""
    f1 = p_add({(1, 0): (F(1), F(0))}, {(0, 2): rand_scalar(rng)}, {(1, 1): rand_scalar(rng)})
    f2 = p_add({(0, 1): (F(1), F(0))}, {(2, 0): rand_scalar(rng)})
    f3 = p_add({(1, 0): (F(1), F(0)), (0, 1): rand_scalar(rng, 0)}, {(0, 3): rand_scalar(rng)})
    factors = [f1, f2, f3]
    residues = [rand_scalar(rng) for _ in factors]
    phi = rand_poly(rng, 2, 2, 3)
    g = p_prod([p_prod([f] * k, 2) for f, k in zip(factors, mults)], 2)
    prod = p_prod(factors, 2)
    omega = []
    for i in range(2):
        comp = p_mul(prod, p_diff(phi, i))
        for j, (f, k, lam) in enumerate(zip(factors, mults, residues)):
            others = p_prod([h for l, h in enumerate(factors) if l != j], 2)
            g_over_f = p_prod([p_prod([h] * (kl - (l == j)), 2) for l, (h, kl) in enumerate(zip(factors, mults))], 2)
            comp = p_add(comp, p_scale(p_mul(g_over_f, p_diff(f, i)), lam))
            if k > 1:
                comp = p_add(comp, p_scale(p_mul(p_mul(phi, others), p_diff(f, i)), (F(1 - k), F(0))))
        omega.append(comp)
    return {
        "omega": FL.OneFormJet([to_series(2, c) for c in omega]),
        "g": to_series(2, g),
        "factors": [(to_series(2, f), k) for f, k in zip(factors, mults)],
        "residues": [gq(*r) for r in residues],
    }


JET_COPIES = 4  # instances of each identity per round


def build_jet_identities(seed: int) -> Workload:
    rng = random.Random(seed)
    ops, inputs = [], {}

    def add(label, fn, **data):
        ops.append((label, fn))
        inputs[label] = data

    for k in range(JET_COPIES):
        f, g = (to_series(2, rand_poly(rng, 2, 7, 16)) for _ in range(2))
        add(f"mul2.{k}", lambda f=f, g=g: f * g, f=f, g=g)
        f, g = (to_series(3, rand_poly(rng, 3, 5, 16)) for _ in range(2))
        add(f"mul3.{k}", lambda f=f, g=g: f * g, f=f, g=g)
        n1, n2 = rng.randint(4, 7), rng.randint(4, 7)
        f, g = (to_series(2, rand_poly(rng, 2, 8, 16)) for _ in range(2))
        add(f"truncmul2.{k}", lambda f=f, g=g, n1=n1, n2=n2: f.truncated(n1) * g.truncated(n2),
            f=f, g=g, n=min(n1, n2))
        f, g = (to_series(3, rand_poly(rng, 3, 6, 16)) for _ in range(2))
        add(f"truncmul3.{k}", lambda f=f, g=g: f.truncated(5) * g.truncated(5), f=f, g=g, n=5)
        x, f = _field(rng, 2, 4, 8), to_series(2, rand_poly(rng, 2, 5, 10))
        add(f"apply2.{k}", lambda x=x, f=f: x.apply(f), x=x, f=f)
        # Small operands too, so that the median operation sits inside the
        # cluster of cheap ones rather than at its edge, where a slight
        # slowdown would swap it for a dearer neighbour.
        f, g = (to_series(2, rand_poly(rng, 2, 5, 10)) for _ in range(2))
        add(f"mul2small.{k}", lambda f=f, g=g: f * g, f=f, g=g)
        x, y = _field(rng, 2, 3, 5), _field(rng, 2, 3, 5)
        add(f"bracket2small.{k}", lambda x=x, y=y: FL.lie_bracket(x, y), x=x, y=y)
        fs = [_field(rng, 2, 3, 6) for _ in range(2)]
        add(f"wedge2small.{k}", lambda fs=fs: FL.wedge(fs), fields=fs)
        for dim, deg, nt, ideg, int_ in ((2, 4, 8, 3, 5), (3, 3, 6, 2, 4)):
            f = to_series(dim, rand_poly(rng, dim, deg, nt))
            images = [to_series(dim, rand_poly(rng, dim, ideg, int_, 1)) for _ in range(dim)]
            add(f"subst{dim}.{k}", lambda f=f, im=images: f.substitute(im), f=f, images=images)
        x, y = _field(rng, 2, 4, 8), _field(rng, 2, 4, 8)
        add(f"bracket2.{k}", lambda x=x, y=y: FL.lie_bracket(x, y), x=x, y=y)
        x, y = _field(rng, 3, 3, 6), _field(rng, 3, 3, 6)
        add(f"bracket3.{k}", lambda x=x, y=y: FL.lie_bracket(x, y), x=x, y=y)
        fs = [_field(rng, 2, 5, 10) for _ in range(2)]
        add(f"wedge2.{k}", lambda fs=fs: FL.wedge(fs), fields=fs)
        fs = [_field(rng, 3, 3, 6) for _ in range(3)]
        add(f"wedge3.{k}", lambda fs=fs: FL.wedge(fs), fields=fs)
        fs = [_field(rng, 3, 4, 8) for _ in range(2)]
        add(f"wedge32.{k}", lambda fs=fs: FL.wedge(fs), fields=fs)
        x, y, z = (_field(rng, 2, 3, 6) for _ in range(3))

        def jacobi(x=x, y=y, z=z):
            lb = FL.lie_bracket
            yz = lb(y, z)
            return yz, lb(x, yz) + lb(y, lb(z, x)) + lb(z, lb(x, y))

        add(f"jacobi2.{k}", jacobi, x=x, y=y, z=z)
        x = _field(rng, 3, 2, 5)
        f, g = (to_series(3, rand_poly(rng, 3, 3, 6)) for _ in range(2))

        def leibniz(x=x, f=f, g=g):
            xf, xg = x.apply(f), x.apply(g)
            return x.apply(f * g), xf * g + f * xg, xf

        add(f"leibniz3.{k}", leibniz, x=x, f=f, g=g)
        f = to_series(1, rand_poly(rng, 1, 6, 5))
        n = rng.randint(6, 8)
        add(f"crpair.{k}", lambda f=f, n=n: IN.cauchy_riemann_pair(f, n), f=f, N=n)

        h = rand_poly(rng, 2, 4, 5, 2)
        gfac = p_add({(0, 0): (F(1), F(0))}, rand_poly(rng, 2, 2, 3, 1))
        # X = g H_h has integrating factor g; adding x^2 d/dx breaks that
        comps = [p_mul(gfac, p_diff(h, 1)), p_mul(gfac, p_scale(p_diff(h, 0), (F(-1), F(0))))]
        x = FL.VectorFieldJet([to_series(2, c) for c in comps])
        bent = FL.VectorFieldJet(
            [to_series(2, p_add(comps[0], {(2, 0): (F(1), F(0))})), x.comps[1]]
        )
        g_s = to_series(2, gfac)
        add(f"intfactor.{k}", lambda x=x, g=g_s: IN.integrating_factor_check(x, g), x=x, g=g_s)
        add(f"intfactor_bent.{k}", lambda x=bent, g=g_s: IN.integrating_factor_check(x, g), x=bent, g=g_s)
        add(f"closed.{k}", lambda x=x, g=g_s: IN.closedness_check(FL.dual_form(x), g), x=x, g=g_s)
        add(f"closedbent.{k}", lambda x=bent, g=g_s: IN.closedness_check(FL.dual_form(x), g),
            x=bent, g=g_s)
        u, v = _cr_parts(rand_poly(rng, 1, 5, 4, 2))
        cx = FL.VectorFieldJet([to_series(2, u), to_series(2, v)])
        cy = FL.VectorFieldJet([to_series(2, v), to_series(2, p_scale(u, (F(-1), F(0))))])

        def dual(x=cx, y=cy):
            alpha, beta = IN.dual_pair(x, y)
            return (alpha, beta, IN.closedness_check(alpha.form, alpha.denominator),
                    IN.closedness_check(beta.form, beta.denominator))

        add(f"dualpair.{k}", dual, x=cx, y=cy)
        lf = _log_form(rng, LOG_MULTIPLICITIES[k % len(LOG_MULTIPLICITIES)])
        add(f"logdecomp.{k}", lambda lf=lf: IN.log_decomposition(
            lf["omega"], lf["g"], lf["factors"], LOG_PHI_BOUND), **lf)
    return Workload(ops, inputs)


# -- resolution ------------------------------------------------------------------------

GERMS = [
    ("cusp", "2*y, 3*x^2"),
    ("two_squares", "x^2, y^2"),
    ("pencil", "y + x^3, x^2*y"),
    ("irrational", "x^2, y^2 + x*y - 2*x^2"),
    ("saddle_node_leaf", "y^2+x^3, x^4*y"),
    ("cubic", "x^3 - 3*x*y^2, 3*x^2*y - y^3"),
    ("deep", "y^3+x^5, x^4*y"),
]
RESOLVE_DEPTH = 16  # the deep germ needs 13 nested blow-ups; the default 12 stops short
_SCALES = [F(1), F(2), F(-1), F(1, 2), F(-2), F(3, 2), F(2, 3)]
# Rescaled copies of each germ per round.  A germ's cost depends somewhat on
# its scale factors, so the round's total and its median operation average
# over several draws instead of following one.
RESCALINGS = 3


def rescale(field, a, b):
    """The germ in coordinates x = a u, y = b v: A(au, bv)/a d/du + B(au, bv)/b d/dv."""
    comps = []
    for comp, s in zip(field.comps, (a, b)):
        comps.append({
            e: (c.re * a ** e[0] * b ** e[1] / s, c.im * a ** e[0] * b ** e[1] / s)
            for e, c in comp.terms.items()
        })
    return FL.VectorFieldJet([to_series(2, c) for c in comps])


def build_resolution(seed: int) -> Workload:
    rng = random.Random(seed)
    ops, inputs = [], {}
    for k in range(RESCALINGS):
        for name, text in GERMS:
            a, b = rng.choice(_SCALES), rng.choice(_SCALES)
            base = parse_field(text, 2)
            germ = rescale(base, a, b)
            ops.append((f"{name}.{k}", lambda g=germ: B.resolve(g, max_depth=RESOLVE_DEPTH)))
            inputs[f"{name}.{k}"] = {"germ": germ, "base": base, "scale": (a, b), "name": name}
    return Workload(ops, inputs)


# -- cli_cold ---------------------------------------------------------------------------

README_COMMANDS = [
    ["centralizer", "x, 2*y", "--max-degree", "4"],
    ["first-integrals", "x, -y"],
    ["rank", "3*y^2, -2*x"],
    ["check-commute", "x, y", "y, -x"],
    ["bracket", "y, 0", "0, x"],
    ["wedge", "x, 2*y", "y, 0"],
    ["wedge", "--weights", "1,2", "y, x^2"],
    ["resonances", "1,2", "--bound", "3"],
    ["classify", "x + y, x"],
    ["blowup", "x^2, y^2"],
    ["resolve", "2*y, 3*x^2", "--depth", "6"],
    ["verify-integral", "2*x*y, 2*y^2 - x^3", "(y^2 + x^3) / (x^2)"],
    ["dual-pair", "x, 0", "0, y"],
    ["log-decomp", "x^2 dy - y dx", "--denominator", "x^2*y", "--factor", "x:2", "--factor", "y:1"],
    ["cr-pair", "z^2", "--max-degree", "6"],
    ["table", "5", "--n", "2"],
]
# The README places --json after the verb's arguments; the parser only accepts it
# before the verb, so this form exits 2.  It is kept, and counted as failed, so
# that a parser fix shows as one fewer failed operation.
APPENDED_JSON = ["centralizer", "x, 2*y", "--max-degree", "4", "--json"]


@dataclasses.dataclass(frozen=True)
class CliResult:
    returncode: int
    stdout: str
    stderr: str
    max_rss_kb: int = dataclasses.field(default=0, metadata={"volatile": True})


def run_child(argv, env) -> CliResult:
    """One fresh interpreter, waited for; its peak RSS is read from its own rusage."""
    proc = subprocess.Popen(
        [sys.executable, *argv], stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env
    )
    with proc.stdout, proc.stderr:
        out = proc.stdout.read()
        err = proc.stderr.read()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
    return CliResult(proc.returncode, out.decode(), err.decode(), usage.ru_maxrss)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_in_process(argv) -> CliResult:
    from germfield import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return CliResult(code, out.getvalue(), err.getvalue())


def build_cli_cold(seed: int) -> Workload:
    # The README examples are fixed text; the seed only shuffles their order.
    commands = README_COMMANDS + [APPENDED_JSON]
    order = list(range(len(commands)))
    random.Random(seed).shuffle(order)
    env = child_env()
    ops, in_process, inputs = [], [], {}
    for idx in order:
        argv = commands[idx] if commands[idx] is APPENDED_JSON else ["--json", *commands[idx]]
        label = f"{idx:02d}." + commands[idx][0] + ("+json" if commands[idx] is APPENDED_JSON else "")
        child_argv = ["-m", "germfield.cli", *argv]
        ops.append((label, lambda a=child_argv: run_child(a, env)))
        in_process.append((label, lambda a=argv: run_in_process(a)))
        inputs[label] = {"command": commands[idx]}
    return Workload(ops, inputs, in_process_ops=in_process)


BUILDERS = {
    "kernels": build_kernels,
    "jet_identities": build_jet_identities,
    "resolution": build_resolution,
    "cli_cold": build_cli_cold,
}
