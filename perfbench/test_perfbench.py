"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench        (or: python3 -m unittest discover -s perfbench)
"""

import json
import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import hostspeed  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from workloads import BUILDERS  # noqa: E402

SRC = os.path.join(os.path.dirname(HERE), "src")

with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as handle:
    SPEC = json.load(handle)


def tiny(workload, trace, expected=None, seed=3):
    return run.run(workload, seed, 0, trace, scale="tiny", expected={} if expected is None else expected, src=SRC)


class MetricsTest(unittest.TestCase):
    def test_every_metric_is_emitted_with_its_unit(self):
        self.assertEqual([w["name"] for w in SPEC["workloads"]], list(BUILDERS))
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            wanted = {m["name"]: m["unit"] for m in SPEC[key]}
            for workload in BUILDERS:
                with self.subTest(workload=workload, trace=trace):
                    result = tiny(workload, trace)[0]
                    self.assertTrue(result["correct"])
                    self.assertEqual(set(result["metrics"]), set(wanted))
                    for name, metric in result["metrics"].items():
                        self.assertEqual(metric["unit"], wanted[name])
                        self.assertIsInstance(metric["value"], (int, float))

    def test_environment_is_recorded(self):
        detail = tiny("deep-horizon", 0)[1]
        self.assertEqual(set(detail["env"]), {
            "python", "nproc", "cpu", "fhgames_commit", "fhgames_src_sha256", "seed"})
        self.assertEqual(detail["env"]["seed"], 3)
        self.assertGreaterEqual(detail["query_count"], run.MIN_QUERIES)


class CalibrationTest(unittest.TestCase):
    def test_intervals_scale_by_the_bracketing_probes(self):
        calibration = hostspeed.Calibration()
        # probes of 2 and 6 reference kernels around an interval of 1 s
        for start, kernels in ((0.0, 2), (11.0, 6)):
            calibration.starts.append(start)
            calibration.ends.append(start + kernels * hostspeed.REFERENCE_S)
            calibration.kernel_s.append(kernels * hostspeed.REFERENCE_S)
        self.assertAlmostEqual(calibration.scaled(5.0, 6.0), 0.25)
        with self.assertRaises(ValueError):
            calibration.scaled(10.0, 12.0)

    def test_measured_times_are_recorded(self):
        detail = tiny("deep-horizon", 0)[1]
        self.assertEqual(set(detail["as_measured"]), {"wall_s", "query_p50_s", "query_p90_s", "setup_s"})
        self.assertGreater(detail["kernel_ms"], 0)


class GateTest(unittest.TestCase):
    def test_tampered_digest_counts_as_failure(self):
        for workload in BUILDERS:
            with self.subTest(workload=workload):
                _, _, gate, queries, _ = tiny(workload, 0)
                self.assertFalse(gate.failures)
                expected = dict(gate.seen)
                victim = queries[0].qid
                expected[victim] = "0" * 64
                result, detail, *_ = tiny(workload, 0, expected)
                self.assertFalse(result["correct"])
                self.assertEqual(result["failed"], 1)
                self.assertEqual(detail["failures"][0]["query"], victim)

    def test_headline_is_gated_in_the_traced_run(self):
        _, detail, gate, queries, _ = tiny("strategy-memory", 1)
        victim = queries[-1].qid
        self.assertEqual(list(detail["headline_s"]), [victim])
        expected = dict(gate.seen)
        expected[victim] = "0" * 64
        result, detail, *_ = tiny("strategy-memory", 1, expected)
        self.assertEqual(result["failed"], 1)
        self.assertEqual(detail["failures"][0]["query"], victim)

    def test_seeded_digests_apply_only_at_their_seed(self):
        self.assertEqual(len(run.load_expected("arena-batch", 0)), 80)
        self.assertEqual(run.load_expected("arena-batch", 5), {})


class TraceTest(unittest.TestCase):
    def test_counts_repeat_exactly(self):
        for workload in BUILDERS:
            with self.subTest(workload=workload):
                first = tiny(workload, 1)[0]["metrics"]
                second = tiny(workload, 1)[0]["metrics"]
                for name, metric in first.items():
                    if metric["unit"] in ("count", "bytes"):
                        self.assertEqual(metric["value"], second[name]["value"], name)
                self.assertGreater(first["solver.cells"]["value"], 0)

    def test_self_times_add_up_to_traced_wall_time(self):
        # trace.wall_s is timed around the whole traced round (set-up,
        # queries and gate) apart from the spans; the layers' self times
        # must account for all of it but the loop's own bookkeeping
        for workload in BUILDERS:
            with self.subTest(workload=workload):
                result, _, _, _, chosen = tiny(workload, 1)
                metrics = result["metrics"]
                own = sum(m["value"] for name, m in metrics.items() if name.endswith(".self_s"))
                wall = metrics["trace.wall_s"]["value"]
                self.assertLessEqual(own, wall)
                self.assertLess(wall - own, 0.02 * wall + 1e-3)
                self.assertTrue(all(name.split(".")[0] in spans.LAYERS for name, *_ in chosen.spans))

if __name__ == "__main__":
    unittest.main()
