"""Tests of the benchmark itself: tracer spans, self-time arithmetic,
patch removal, and the output checks catching a wrong answer.

    python3 -m unittest discover -s bench -t bench
"""

from __future__ import annotations

import dataclasses
import sys
import unittest

import run
import tracer as tracing
import workloads


def _snapshot():
    """Every attribute a Tracer may patch, with the object it holds now."""
    seen = {}
    for layer, cls_name, attr, _fn in tracing.TARGETS:
        module = sys.modules[f"riopi.{layer}"]
        if cls_name is not None:
            owner = getattr(module, cls_name)
            seen[(id(owner), attr)] = (owner, attr, owner.__dict__[attr])
            continue
        original = getattr(module, attr)
        for name, namespace in list(sys.modules.items()):
            if name == "riopi" or name.startswith("riopi."):
                for key, value in vars(namespace).items():
                    if value is original:
                        seen[(id(namespace), key)] = (namespace, key, value)
    return seen


class TracerTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.riopi = run.import_riopi(run.ROOT)

    def _spans(self, name):
        return [i for i, rec in enumerate(self.tracer.spans) if rec[tracing.NAME] == name]

    def setUp(self):
        self.tracer = tracing.Tracer()
        self.tracer.install()
        self.addCleanup(self.tracer.remove)

    def test_from_import_call_has_its_caller_as_parent(self):
        riopi = self.riopi
        riopi.elliptic.pipeline(-3, 10)
        riopi.somos.conjecture_family(riopi.FamilyParams.of(1, 1, 1), 16)
        spans = self.tracer.spans
        (pipe,) = self._spans("elliptic.pipeline")
        (check,) = self._spans("riordan.is_pseudo_involution")
        self.assertEqual(spans[check][tracing.PARENT], pipe)
        (family,) = self._spans("somos.conjecture_family")
        transforms = self._spans("hankel.hankel_transform")
        self.assertEqual(len(transforms), 2)
        for t in transforms:
            self.assertEqual(spans[t][tracing.PARENT], family)
        for det in self._spans("hankel.hankel_det"):
            self.assertIn(spans[det][tracing.PARENT], transforms)

    def test_operators_are_traced_on_the_class(self):
        riopi = self.riopi
        s = riopi.Series([1, 2, 3])
        s * s, 2 * s, s / s, 1 / s
        names = [rec[tracing.NAME] for rec in self.tracer.spans]
        self.assertEqual(names, ["series.mul", "series.rmul",
                                 "series.truediv", "series.rtruediv"])
        self.assertEqual(self.tracer.coeff_ops, 6)

    def test_self_times_never_negative_and_bounded_by_job(self):
        riopi = self.riopi
        self.tracer.job = 0
        g = riopi.pipeline(-7, 12).g
        riopi.bell(g).production_matrix()
        selfs = tracing.self_times(self.tracer.spans)
        self.assertTrue(all(s >= 0 for s in selfs))
        roots = [rec for rec in self.tracer.spans if rec[tracing.PARENT] < 0]
        self.assertEqual(sum(selfs),
                         sum(r[tracing.END] - r[tracing.START] for r in roots)
                         - sum(rec[tracing.BOOK] for rec in self.tracer.spans))


class SelfTimeTest(unittest.TestCase):
    def test_synthetic_tree(self):
        # root [0, 100] holds a [10, 30] (5 ns of bookkeeping) and
        # b [40, 70], which holds c [45, 55].
        spans = [["root", 0, 100, -1, 0, 0],
                 ["a", 10, 30, 0, 0, 5],
                 ["b", 40, 70, 0, 0, 0],
                 ["c", 45, 55, 2, 0, 0]]
        self.assertEqual(tracing.self_times(spans), [50, 15, 20, 10])

    def test_selfcheck_share_counts_only_nested_checks(self):
        spans = [["elliptic.pipeline", 0, 100, -1, 0, 0],
                 ["riordan.is_pseudo_involution", 60, 90, 0, 0, 0],
                 ["riordan.is_pseudo_involution", 200, 240, -1, 1, 0]]
        share, base = tracing.selfcheck_share(spans)
        self.assertAlmostEqual(share, 0.3)
        self.assertAlmostEqual(base, 100e-9)


class HarnessTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.riopi = run.import_riopi(run.ROOT)

    def _fail_frac(self, workload, seed=1):
        blocks = workload.blocks(seed)[:1]
        loop = run.measure(self.riopi, workload, blocks, 0.0)
        run.check(self.riopi, workload, loop)
        return loop.failed / len(loop.jobs)

    def test_traced_run_restores_every_patched_attribute(self):
        before = _snapshot()
        workload = workloads.CurveDeep(order=12)
        metrics, beside, loops, consistent = run.traced(
            self.riopi, workload, workload.blocks(2), 0.0)
        after = _snapshot()
        self.assertEqual(before.keys(), after.keys())
        for key, (_owner, _attr, value) in before.items():
            self.assertIs(after[key][2], value)
        self.assertTrue(consistent)
        self.assertEqual(sorted(metrics), sorted(tracing.metric_names()))
        self.assertGreater(metrics["riordan.selfcheck_share"][0], 0)

    def test_workloads_pass_their_checks_at_small_order(self):
        for workload in (workloads.CurveDeep(order=16), workloads.HankelScan(order=24)):
            with self.subTest(workload.name):
                self.assertEqual(self._fail_frac(workload), 0.0)

    def test_injected_wrong_answer_is_caught(self):
        riopi = self.riopi
        original = riopi.pipeline

        def perturbed(a, order):
            trace = original(a, order)
            coeffs = list(trace.g.coeffs)
            coeffs[5] += 1
            return dataclasses.replace(trace, g=riopi.Series(coeffs))

        workload = workloads.CurveDeep(order=16)
        riopi.pipeline = perturbed
        try:
            self.assertGreater(self._fail_frac(workload), 0.0)
        finally:
            riopi.pipeline = original
        self.assertEqual(self._fail_frac(workload), 0.0)


class YardstickTest(unittest.TestCase):
    def test_sample_spends_its_share_in_whole_units(self):
        ruler = run.Yardstick()
        ruler.sample(0)
        self.assertEqual(ruler.units, 1)
        ruler.sample(40 * run.REF_UNIT_NS)
        self.assertGreaterEqual(ruler.ns, run.REF_SHARE * 40 * run.REF_UNIT_NS)

    def test_scale_is_nominal_over_measured_unit_time(self):
        ruler = run.Yardstick()
        ruler.units, ruler.ns = 4, 4 * 2 * run.REF_UNIT_NS  # a host at half speed
        self.assertEqual(ruler.scale, 0.5)


class PercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        values = [1, 2, 3, 4]
        self.assertEqual(run.percentile(values, 50), 2)
        self.assertEqual(run.percentile(values, 90), 4)

    def test_tail_percentile_keeps_ten_jobs_beyond_when_it_can(self):
        self.assertEqual(run.tail_percentile(12), 75.0)
        self.assertEqual(run.tail_percentile(60), 100.0 * 50 / 60)
        self.assertEqual(run.tail_percentile(200), 95.0)


if __name__ == "__main__":
    unittest.main()
