"""Acceptance suite: one test per criterion, exact arithmetic throughout
(tolerance zero), with a PASS/FAIL line printed per criterion.

Criterion 4 fails by design: the computed kernel dimension for the 3D
resonant example at (m, n) = (2, 3) is 4, not the documented 3 -- see the
analysis in the decisions ledger (notes/decisions.md outside the package).
The test asserts the documented value faithfully rather than the computed
one, so it stays red until the documented value is corrected.
"""

import random
import sys
import time
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from germfield import (
    PolySeries,
    VectorFieldJet,
    Weight,
    ad_kernel,
    cauchy_riemann_pair,
    closedness_check,
    dicritical_test,
    divergence,
    dual_pair,
    integrating_factor_check,
    lie_bracket,
    linear_centralizer_table,
    log_decomposition,
    meromorphic_first_integral_check,
    parse_field,
    parse_poly,
    parse_ratio,
    quasi_decompose,
    radial_field,
    resolve,
    resonances,
    span_matches,
    wedge,
    dual_form,
)
from germfield.gaussian import gq
from test_blowup import divisor_points

F = parse_field
P = parse_poly


def report(number, verdict, detail=""):
    line = f"[criterion {number}] {'PASS' if verdict else 'FAIL'}"
    if detail:
        line += f" - {detail}"
    print(line)
    assert verdict, line


# -- 1: reproduction of the eight-row reference table --------------------------

TABLE_CASES = {
    1: ({}, 4),
    2: ({"ratio": gq(Fraction(5, 3))}, 2),
    3: ({"p": 1, "q": 1}, 6),
    4: ({}, 13),
    5: ({"n": 2}, 3),
    6: ({}, 13),
    7: ({}, 2),
    8: ({"p": 1, "residue": gq(0)}, 2),
}


def test_criterion_1_table_reproduction():
    for row, (params, expected_dim) in TABLE_CASES.items():
        t0 = time.monotonic()
        table = linear_centralizer_table(row, max_degree=6, **params)
        rep = ad_kernel(table.field, 6)
        elapsed = time.monotonic() - t0
        assert rep.dimension() == expected_dim, f"row {row}: dim {rep.dimension()}"
        assert span_matches(rep.basis_fields(), table.generator_jets(6), 6), row
        assert rep.rank_estimate == 2, f"row {row}"
        assert elapsed < 5.0, f"row {row} took {elapsed:.2f}s"
    report(1, True, "8 rows at N=6: spans, frozen dimensions, rank 2, < 5 s each")


# -- 2: the resonant node -------------------------------------------------------


def test_criterion_2_resonant_node():
    rep = ad_kernel(F("x, 2*y"), 4)
    ok_dim = rep.dimension() == 3
    ok_member = any(b.value == F("0, x^2") for b in rep.basis)
    found = resonances([gq(1), gq(2)], 3)
    ok_res = [(r.target, r.exponents) for r in found] == [(2, (2, 0))]
    report(2, ok_dim and ok_member and ok_res,
           "dim 3 with x^2 d/dy in the basis; resonances((1,2),3) = {(2,(2,0))}")


# -- 3: the 2k+2 dimension count for (xy) R ------------------------------------


def test_criterion_3_product_radial_dimension():
    t0 = time.monotonic()
    x = F("x^2*y, x*y^2")  # (xy) R
    rep = ad_kernel(x, 4)
    elapsed = time.monotonic() - t0
    expected = [F("x, -y"), F("x^3, x^2*y"), F("x^2*y, x*y^2"), F("x*y^2, y^3")]
    ok = (
        rep.dimension() == 4
        and span_matches(rep.basis_fields(), expected, 4)
        and elapsed < 5.0
    )
    report(3, ok, "dim 4 = 2k+2 at k=1, span {x dx - y dy} + {h R}, < 5 s")


# -- 4: the 3D resonant example (documented dimension is not the computed one) --


def test_criterion_4_poincare_dulac_dimension():
    x = F("2*x + y^2, y, 3*z + y^3")
    claimed = [F("y^2, 0, 0"), F("0, 0, y^3"), x]
    pairwise = all(
        lie_bracket(a, b).is_zero() for a in claimed for b in claimed
    )
    rep = ad_kernel(x, 5)
    ok = (
        pairwise
        and rep.dimension() == 3
        and span_matches(rep.basis_fields(), claimed, 5)
    )
    report(
        4,
        ok,
        "documented: dim 3 with span {y^2 dx, y^3 dz, X}; computed: "
        f"dim {rep.dimension()} (extra exact commuter (z - xy) dz from the "
        "cross-resonance lambda_3 = lambda_1 + lambda_2; see decisions ledger)",
    )


def test_criterion_4_verified_substance():
    # the true part of the documented statement, kept green separately
    x = F("2*x + y^2, y, 3*z + y^3")
    claimed = [F("y^2, 0, 0"), F("0, 0, y^3"), x]
    assert all(lie_bracket(a, b).is_zero() for a in claimed for b in claimed)
    rep = ad_kernel(x, 5)
    assert rep.dimension() == 4
    extra = F("0, 0, z - x*y")
    assert lie_bracket(x, extra).is_zero()
    assert span_matches(rep.basis_fields(), claimed + [extra], 5)
    assert meromorphic_first_integral_check(x, parse_ratio("(z - x*y) / (y^3)", 3))


# -- 5: the dicritical pencil example ------------------------------------------


def test_criterion_5_dicritical_pencil_example():
    x = F("y + x^3, x^2*y")  # y d/dx + x^2 R
    ok_bracket = lie_bracket(x, F("x*y^2, y^3")).is_zero()  # [X, y^2 R] = 0
    # the documented integral 1/y^2 - (2/3)(x/y)^3 fails (sign typo: it
    # belongs to y d/dx - x^2 R); the sign-corrected one passes
    documented = parse_ratio("(3*y - 2*x^3) / (3*y^3)")
    corrected = parse_ratio("(3*y + 2*x^3) / (3*y^3)")
    documented_fails = not meromorphic_first_integral_check(x, documented)
    corrected_passes = meromorphic_first_integral_check(x, corrected)
    ok = ok_bracket and documented_fails and corrected_passes
    report(
        5,
        ok,
        "[X, y^2 R] = 0; sign-corrected integral (3y+2x^3)/(3y^3) verified "
        "(documented minus sign fails, see decisions ledger)",
    )


# -- 6: blow-up facts ------------------------------------------------------------


def test_criterion_6_blowup_facts():
    checks = []

    t0 = time.monotonic()
    checks.append(dicritical_test(radial_field(2)).dicritical)

    pts = divisor_points(F("y, 0"))
    checks.append(len(pts) == 1 and pts[0].coordinate == gq(0) and pts[0].multiplicity == 2)

    d = dicritical_test(F("2*x*y, 2*y^2 - x^3"))
    checks.append(d.dicritical and d.nu == 2)
    checks.append(time.monotonic() - t0 < 2.0)

    t0 = time.monotonic()
    tree = resolve(F("x^2, y^2"))
    checks.append(tree.depth() == 2)
    checks.append(
        sorted(tree.leaf_verdicts())
        == ["purely_radial", "reduced_hyperbolic", "reduced_hyperbolic"]
    )
    checks.append(time.monotonic() - t0 < 2.0)

    t0 = time.monotonic()
    cusp = resolve(F("2*y, 3*x^2"))
    checks.append(cusp.total_blowups() == 3)
    checks.append(set(cusp.leaf_verdicts()) == {"reduced_hyperbolic"})
    checks.append(time.monotonic() - t0 < 2.0)

    report(6, all(checks), "dicritical tests, shear singularity, both resolutions, < 2 s each")


# -- 7: randomized property suites (>= 100 exact trials each) --------------------

_POOL = [
    gq(0),
    gq(0),
    gq(1),
    gq(-1),
    gq(2),
    gq(Fraction(1, 2)),
    gq(Fraction(-2, 3)),
    gq(0, 1),
    gq(1, 1),
]


def _random_poly(rng, max_deg=3, dim=2):
    terms = {}
    mons = [
        (a, b) for a in range(max_deg + 1) for b in range(max_deg + 1 - a)
    ] if dim == 2 else [(k,) for k in range(max_deg + 1)]
    for e in mons:
        terms[e] = rng.choice(_POOL)
    return PolySeries(dim, terms)


def _random_field(rng, max_deg=3):
    return VectorFieldJet([_random_poly(rng, max_deg), _random_poly(rng, max_deg)])


def test_criterion_7_property_suites():
    rng = random.Random(20240817)
    trials = 100

    for _ in range(trials):  # Jacobi identity
        x, y, z = (_random_field(rng) for _ in range(3))
        total = (
            lie_bracket(x, lie_bracket(y, z))
            + lie_bracket(y, lie_bracket(z, x))
            + lie_bracket(z, lie_bracket(x, y))
        )
        assert total.is_zero()

    done = 0
    while done < trials:  # multiplicity inequality
        x, y = _random_field(rng), _random_field(rng)
        if x.is_zero() or y.is_zero():
            continue
        b = lie_bracket(x, y)
        if not b.is_zero():
            assert b.mu() >= x.mu() + y.mu() - 1
        done += 1

    weights = [Weight((1, 1)), Weight((1, 2)), Weight((2, 3))]
    done = 0
    while done < trials:  # grading [E_k, E_l] in E_{k+l}
        w = rng.choice(weights)
        xs = quasi_decompose(_random_field(rng), w)
        ys = quasi_decompose(_random_field(rng), w)
        for k, xk in xs.items():
            for l, yl in ys.items():
                b = lie_bracket(xk, yl)
                if not b.is_zero():
                    assert list(quasi_decompose(b, w)) == [k + l]
        done += 1

    done = 0
    while done < trials:  # X(g) = div(X) g for commuting-pair wedges
        f = _random_poly(rng, 4, dim=1)
        if f.is_zero():
            continue
        x, y = cauchy_riemann_pair(f, 10)
        x, y = x.as_total(), y.as_total()
        g = wedge([x, y])
        assert (x.apply(g) - divergence(x) * g).is_zero()
        assert (y.apply(g) - divergence(y) * g).is_zero()
        done += 1

    done = 0
    while done < trials:  # dual-pair duality and closedness
        f = _random_poly(rng, 4, dim=1)
        if f.is_zero():
            continue
        x, y = cauchy_riemann_pair(f, 10)
        x, y = x.as_total(), y.as_total()
        if wedge([x, y]).is_zero():
            continue
        alpha, beta = dual_pair(x, y)
        assert alpha.form.apply(x) == alpha.denominator
        assert alpha.form.apply(y).is_zero()
        assert beta.form.apply(x).is_zero()
        assert beta.form.apply(y) == beta.denominator
        assert closedness_check(alpha.form, alpha.denominator)[0]
        assert closedness_check(beta.form, beta.denominator)[0]
        done += 1

    xv, tv = PolySeries.variable(2, 0), PolySeries.variable(2, 1)
    done = 0
    while done < trials:  # multiplicity monotonicity under blow-up
        f1, f2 = _random_poly(rng), _random_poly(rng)
        if f1.is_zero() or f2.is_zero() or f1.order() >= f2.order():
            continue
        slope = rng.choice(_POOL)
        if f1.homogeneous_part(f1.order()).evaluate([gq(1), slope]).is_zero():
            continue  # the point must be generic for f1
        images = [xv, (tv + PolySeries.constant(2, slope)) * xv]
        assert (
            f1.substitute(images).order()
            < f2.substitute(images).order()
        )
        done += 1

    report(7, True, "6 suites x >= 100 exact randomized trials, zero failures")


# -- 8: saddle-node integrability -------------------------------------------------


def test_criterion_8_saddle_node_integrability():
    ok = True
    for lam in (gq(0), gq(1), gq(0, 1)):
        x = F("x^2, y") + F("0, x*y") * lam
        g = P("x^2*y")
        ok &= integrating_factor_check(x, g)
        result = log_decomposition(dual_form(x), g, [(P("x"), 2), (P("y"), 1)])
        ok &= result.success
        d = result.decomposition
        ok &= d.residues == (-lam, gq(1)) and d.phi == P("1")
    report(8, ok, "integrating factor x^2 y and residues (-lambda, 1), phi = 1 "
                  "for lambda in {0, 1, i}")
