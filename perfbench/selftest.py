#!/usr/bin/env python3
"""Self-tests of the benchmark: the correctness gate is live and the
tracer's accounting adds up.

    python3 perfbench/selftest.py      # from the repository root
"""

from __future__ import annotations

import dataclasses
import os
import random
import sys
import unittest

sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from medial.assoc import to_alternating  # noqa: E402
from medial.catalog import BM9  # noqa: E402
from medial.quotient import find_commutations  # noqa: E402
from medial.rewrite import Certificate  # noqa: E402


def prove_outputs(targets):
    """Outputs matching the reference exactly."""
    out = []
    for t in targets:
        code, lines = workloads.PROVE_REFERENCE[t]
        out.append((t, code, "  replay ok\n" + "\n".join(lines) + "\n", None))
    return out


class ProveChecker(unittest.TestCase):
    def setUp(self):
        self.targets = workloads.prove_inputs(3)

    def test_reference_outputs_pass(self):
        self.assertEqual(workloads.check_prove(self.targets, prove_outputs(self.targets), 3, True), {})

    def test_config_c_passing_is_a_wrong_verdict(self):
        outputs = prove_outputs(self.targets)
        k = self.targets.index("configC-negative")
        outputs[k] = ("configC-negative", 0, "PASS configC-negative (closure exhausted)\n", None)
        self.assertEqual(list(workloads.check_prove(self.targets, outputs, 3, True)), [k])

    def test_exception_and_missing_target_fail(self):
        outputs = prove_outputs(self.targets)
        outputs[0] = (self.targets[0], None, "", "ValueError: boom")
        del outputs[-1]
        errors = workloads.check_prove(self.targets, outputs, 3, True)
        self.assertEqual(sorted(errors), [0, len(self.targets) - 1])

    def test_inconclusive_fails(self):
        outputs = prove_outputs(self.targets)
        k = self.targets.index("kock16")
        outputs[k] = ("kock16", 2, "INCONCLUSIVE kock16: search budget exhausted before a proof\n", None)
        self.assertIn(k, workloads.check_prove(self.targets, outputs, 3, True))


class Scan7Checker(unittest.TestCase):
    def test_witness_line_fails(self):
        argv = workloads.scan7_inputs(1)
        good = [(0, workloads.SCAN7_REFERENCE[1], None)]
        bad = [(0, "WITNESS arity=7 transposition=(2, 1) monomial=x\n" + workloads.SCAN7_REFERENCE[1], None)]
        self.assertEqual(workloads.check_scan7(argv, good, 1, True), {})
        self.assertEqual(list(workloads.check_scan7(argv, bad, 1, True)), [0])


class CensusChecker(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.t = BM9.lhs
        cls.scan = find_commutations(cls.t)

    def check(self, scan, thorough=False):
        return workloads.check_census([self.t], [(scan, None)], 5, thorough)

    def corrupt(self, **changes):
        w = self.scan.witnesses[0]
        bad = dataclasses.replace(w, **changes)
        return dataclasses.replace(self.scan, witnesses=(bad,) + self.scan.witnesses[1:])

    def test_real_scan_passes_thorough_check(self):
        self.assertTrue(self.scan.witnesses)
        self.assertEqual(self.check(self.scan, thorough=True), {})

    def test_dropped_step_fails(self):
        cert = self.scan.witnesses[0].certificate
        broken = Certificate(cert.initial, cert.steps[:-1], cert.final)
        self.assertEqual(list(self.check(self.corrupt(certificate=broken))), [0])

    def test_flipped_step_fails(self):
        cert = self.scan.witnesses[0].certificate
        steps = list(cert.steps)
        steps[len(steps) // 2] = steps[len(steps) // 2].inverted()
        broken = Certificate(cert.initial, tuple(steps), cert.final)
        self.assertEqual(list(self.check(self.corrupt(certificate=broken))), [0])

    def test_wrong_permutation_fails(self):
        perm = self.scan.witnesses[0].permutation
        swapped = (perm[1], perm[0]) + perm[2:]
        self.assertEqual(list(self.check(self.corrupt(permutation=swapped))), [0])

    def test_missed_witness_fails(self):
        silent = dataclasses.replace(self.scan, witnesses=())
        self.assertEqual(list(self.check(silent)), [0])

    def test_extra_witness_fails(self):
        doubled = dataclasses.replace(self.scan, witnesses=self.scan.witnesses * 2)
        self.assertEqual(list(self.check(doubled)), [0])

    def test_inconclusive_and_exception_fail(self):
        unfinished = dataclasses.replace(self.scan, exhausted=False)
        self.assertEqual(list(self.check(unfinished)), [0])
        errors = workloads.check_census([self.t], [(None, "RecursionError: deep")], 5, True)
        self.assertEqual(list(errors), [0])


class CensusReference(unittest.TestCase):
    def test_shape_key_ignores_bracketing(self):
        t = ("h", ("h", 1, ("v", 2, 3)), 4)
        u = ("h", 1, ("h", ("v", 2, 3), 4))
        self.assertEqual(workloads.shape_key(t), ("h(x,v(x,x),x)", [1, 2, 3, 4]))
        self.assertEqual(workloads.shape_key(u), workloads.shape_key(t))

    def test_relabelled_tree_gets_conjugated_permutations(self):
        reference = workloads.load_reference()
        relabel = {i: 10 - i for i in range(1, 10)}
        t = workloads.random_binary(to_alternating(BM9.lhs), [relabel[i] for i in range(1, 10)],
                                    random.Random(4))
        got = {w.permutation for w in find_commutations(t).witnesses}
        self.assertEqual(len(got), 1)
        self.assertEqual(workloads.expected_permutations(t, reference), got)

    def test_seeded_draw_matches_reference(self):
        monomials = workloads.census_inputs(11)[::10]
        outputs = workloads.census_run(monomials, [])
        self.assertTrue(any(scan.witnesses for scan, _ in outputs))
        self.assertEqual(workloads.check_census(monomials, outputs, 11, False), {})


class CensusInputs(unittest.TestCase):
    def test_seeded_and_well_formed(self):
        from medial.trees import leaf_labels

        a, b = workloads.census_inputs(7), workloads.census_inputs(7)
        self.assertEqual(a, b)
        self.assertNotEqual(a, workloads.census_inputs(8))
        self.assertEqual(len(a), workloads.CENSUS_TREES)
        for t in a[:200]:
            self.assertEqual(sorted(leaf_labels(t)), list(range(1, 10)))
        shapes = {to_alternating(t) for t in a}
        self.assertGreater(len(shapes), workloads.CENSUS_TREES // 2)


class TracerAccounting(unittest.TestCase):
    def test_self_times_sum_to_root_and_recursion_is_one_span(self):
        from medial import geometry, quotient

        tr = tracing.Tracer()
        uninstall = tracing.install(tr)
        try:
            root = tr.open("bench.pass")
            quotient.find_commutations(BM9.lhs)
            geometry.realize(BM9.lhs)
            tr.close(root)
        finally:
            uninstall()
        self.assertIs(quotient.find_commutations, find_commutations)
        names = [s[tracing.NAME] for s in tr.spans]
        self.assertEqual(names.count("geometry.realize"), 1)
        self.assertEqual(names.count("assoc.to_alternating"), 1)
        self.assertEqual(names.count("quotient.alt_successors"), 1)
        self.assertGreater(tr.counts["quotient.moves"], 0)
        own = tr.self_times()
        total = sum(own[i] for i in tr.subtree(root))
        self.assertAlmostEqual(total, tr.spans[root][tracing.BUSY], places=9)
        self.assertTrue(all(t >= -1e-6 for t in own))


if __name__ == "__main__":
    unittest.main()
