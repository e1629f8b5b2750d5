"""The benchmark's own test: each workload's check accepts the program's answers
and rejects a deliberately corrupted one.

    python3 perfbench/test_checks.py      (or: python3 -m pytest perfbench)
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import checks  # noqa: E402
import workloads  # noqa: E402
from germfield.gaussian import gq  # noqa: E402
from germfield.series import PolySeries  # noqa: E402
from germfield.fields import VectorFieldJet  # noqa: E402

SEED = 3


def answers(wl, labels=None, ops=None):
    return {label: fn() for label, fn in (ops or wl.ops) if labels is None or label in labels}


def bump(series: PolySeries, exponent, delta=1) -> PolySeries:
    """The same series with one coefficient changed by delta."""
    terms = dict(series.terms)
    terms[exponent] = terms.get(exponent, gq(0)) + delta
    return PolySeries(series.dim, terms, series.trunc)


class KernelChecks(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.wl = workloads.build_kernels(SEED)
        cls.res = answers(cls.wl, {"row1.N6", "row8.N6", "fi.saddle.N10"})

    def errors(self, res):
        return checks.check_kernels(self.wl, res)

    def test_answers_pass(self):
        self.assertEqual(self.errors(self.res), [])

    def test_flipped_basis_coefficient(self):
        rep = self.res["row1.N6"]
        first = rep.basis[0]
        comp = first.value.comps[0]
        e = next(iter(comp.terms))
        bad = VectorFieldJet([bump(comp, e)] + list(first.value.comps[1:]))
        basis = (dataclasses.replace(first, value=bad),) + rep.basis[1:]
        self.assertTrue(self.errors({"row1.N6": dataclasses.replace(rep, basis=basis)}))

    def test_dropped_basis_vector(self):
        rep = self.res["fi.saddle.N10"]
        self.assertTrue(self.errors({"fi.saddle.N10": dataclasses.replace(rep, basis=rep.basis[:-1])}))

    def test_tentative_claimed_certified(self):
        rep = self.res["row8.N6"]
        self.assertTrue(rep.tentative)
        bad = dataclasses.replace(rep, basis=rep.basis + rep.tentative[:1], tentative=rep.tentative[1:])
        self.assertTrue(self.errors({"row8.N6": bad}))


class JetChecks(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.wl = workloads.build_jet_identities(SEED)
        cls.res = answers(cls.wl)

    def errors(self, res):
        return checks.check_jet_identities(self.wl, res)

    def test_answers_pass(self):
        self.assertEqual(self.errors(self.res), [])

    def test_wrong_bracket_term(self):
        b = self.res["bracket2.0"]
        bad = VectorFieldJet([bump(b.comps[0], (1, 1)), b.comps[1]])
        self.assertTrue(self.errors({"bracket2.0": bad}))

    def test_wrong_product_term(self):
        p = self.res["mul3.1"]
        self.assertTrue(self.errors({"mul3.1": bump(p, (0, 0, 0), gq(0, 1))}))

    def test_wrong_substitution(self):
        p = self.res["subst2.0"]
        self.assertTrue(self.errors({"subst2.0": bump(p, (2, 1))}))

    def test_wrong_residue(self):
        r = self.res["logdecomp.0"]
        d = r.decomposition
        bad = dataclasses.replace(d, residues=(d.residues[0] + 1,) + d.residues[1:])
        self.assertTrue(self.errors({"logdecomp.0": dataclasses.replace(r, decomposition=bad)}))

    def test_wrong_verdict(self):
        self.assertTrue(self.errors({"intfactor_bent.0": not self.res["intfactor_bent.0"]}))


class ResolutionChecks(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.wl = workloads.build_resolution(SEED)
        cls.res = answers(cls.wl, {"cusp.0", "irrational.0", "two_squares.0"})

    def errors(self, res):
        return checks.check_resolution(self.wl, res)

    def test_answers_pass(self):
        self.assertEqual(self.errors(self.res), [])

    def test_dropped_leaf(self):
        tree = self.res["two_squares.0"]
        self.assertTrue(self.errors({"two_squares.0": dataclasses.replace(tree, children=tree.children[:-1])}))

    def test_wrong_leaf_class(self):
        tree = self.res["cusp.0"]
        node = tree
        path = []
        while node.children:
            path.append(node)
            node = node.children[0]
        bad = dataclasses.replace(node, verdict="saddle_node", classification="saddle_node")
        for parent in reversed(path):
            bad = dataclasses.replace(parent, children=(bad,) + parent.children[1:])
        self.assertTrue(self.errors({"cusp.0": bad}))

    def test_wrong_divisor_point(self):
        tree = self.res["two_squares.0"]
        child = tree.children[0]
        chart, coord = child.chart_history[-1]
        moved = dataclasses.replace(child, chart_history=child.chart_history[:-1] + ((chart, coord + 5),))
        bad = dataclasses.replace(tree, children=(moved,) + tree.children[1:])
        self.assertTrue(self.errors({"two_squares.0": bad}))


class CliChecks(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.wl = workloads.build_cli_cold(SEED)
        cls.res = answers(cls.wl, ops=cls.wl.in_process_ops)

    def errors(self, res):
        return checks.check_cli_cold(self.wl, res)

    def label(self, verb):
        return next(k for k, v in self.wl.inputs.items()
                    if v["command"][0] == verb and v["command"] is not workloads.APPENDED_JSON)

    def test_answers_pass(self):
        ok = {k: r for k, r in self.res.items() if r.returncode == 0}
        self.assertEqual(len(ok), len(self.res) - 1)
        self.assertEqual(self.errors(ok), [])

    def test_appended_json_fails_today(self):
        label = next(k for k, v in self.wl.inputs.items() if v["command"] is workloads.APPENDED_JSON)
        self.assertEqual(self.res[label].returncode, 2)

    def corrupt(self, verb, edit):
        label = self.label(verb)
        doc = json.loads(self.res[label].stdout)
        edit(doc)
        bad = dataclasses.replace(self.res[label], stdout=json.dumps(doc))
        return self.errors({label: bad})

    def test_wrong_bracket(self):
        def edit(doc):
            doc["bracket"]["terms"][0][0][0] = "7"

        self.assertTrue(self.corrupt("bracket", edit))

    def test_wrong_resonance(self):
        self.assertTrue(self.corrupt("resonances", lambda d: d["resonances"].clear()))

    def test_wrong_cr_pair(self):
        def edit(doc):
            doc["y"]["terms"][1][0][0] = "-2"

        self.assertTrue(self.corrupt("cr-pair", edit))


if __name__ == "__main__":
    unittest.main()
