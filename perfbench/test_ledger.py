"""Unit tests of the benchmark's percentile rule and ledger arithmetic.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import os
import unittest

import ledger

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class TailPercentile(unittest.TestCase):
    def test_highest_rung_with_ten_samples_beyond(self):
        xs = list(range(1, 1001))  # 1000 samples
        # p99.9 leaves 1 beyond, p99 leaves 10: p99 is reported.
        self.assertEqual(ledger.tail_percentile(xs), ("p99", 990))

    def test_exactly_ten_beyond_qualifies(self):
        xs = list(range(1, 101))  # 100 samples: p90 leaves 10 beyond
        self.assertEqual(ledger.tail_percentile(xs), ("p90", 90))

    def test_nine_beyond_does_not(self):
        xs = list(range(1, 100))  # 99 samples: p90 leaves 9 beyond
        self.assertEqual(ledger.tail_percentile(xs), ("p50", 50))

    def test_too_few_samples_reports_max(self):
        self.assertEqual(ledger.tail_percentile([3.0, 1.0, 2.0]), ("max", 3.0))

    def test_unsorted_input(self):
        xs = [float(x) for x in reversed(range(2000))]
        self.assertEqual(ledger.tail_percentile(xs), ("p99", 1979.0))


class OpLedger(unittest.TestCase):
    def test_rest_is_the_uncovered_remainder(self):
        rest, ok = ledger.op_ledger(421.0, [168.0, 171.5])
        self.assertAlmostEqual(rest, 81.5)
        self.assertTrue(ok)

    def test_parts_exceeding_the_total_fail(self):
        rest, ok = ledger.op_ledger(100.0, [60.0, 50.0])
        self.assertAlmostEqual(rest, -10.0)
        self.assertFalse(ok)

    def test_span_self_time(self):
        # unit [0, 1000] us with children [100, 400] and [300, 900]:
        # covered 800 us, so 0.2 ms of the unit is uncovered.
        spans = [[1, 0, 1, "unit", 0.0, 1000.0],
                 [2, 1, 1, "a", 100.0, 400.0],
                 [3, 1, 1, "b", 300.0, 900.0]]
        table = ledger.span_table(spans)
        self.assertEqual(table["unit"][0], 1)
        self.assertAlmostEqual(table["unit"][1], 1.0)
        self.assertAlmostEqual(table["unit"][2], 0.2)
        self.assertAlmostEqual(table["a"][2], 0.3)


class Conservation(unittest.TestCase):
    def counts(self, sent, ok, mismatched, refused, failed):
        return {"mix.HELR.sent": sent, "mix.HELR.ok": ok,
                "mix.HELR.mismatched": mismatched,
                "mix.HELR.refused": refused, "mix.HELR.failed": failed}

    def test_balanced(self):
        rows = ledger.conservation(self.counts(10, 7, 1, 1, 1))
        self.assertEqual(rows, [("HELR", 10, 7, 1, 1, 1, True)])

    def test_unbalanced(self):
        rows = ledger.conservation(self.counts(10, 7, 0, 1, 1))
        self.assertFalse(rows[0][-1])


def raw_report(workload):
    """A minimal raw report carrying every key the reducer reads."""
    spans, sid = [], 0
    names = ["ckks.hmult", "ckks.hrot", "ckks.decompose", "ckks.keyswitch",
             "ckks.moddown", "rns.ntt_fwd", "rns.ntt_inv",
             "rns.ntt_bconv_ntt", "rns.evk_mac", "rns.automorphism",
             "rns.elementwise", "rns.pool_cycle", "boot.bootstrap",
             "boot.modraise", "boot.evalmod", "wire.ct_encode",
             "wire.ct_decode"]
    widths = {"ckks.hmult": 400, "ckks.hrot": 380, "boot.bootstrap": 2000,
              "boot.evalmod": 500}
    for name in names:
        sid += 1
        spans.append([sid, 0, 1, name, 0.0, 1e3 * widths.get(name, 100)])
    counts = {"attempted": 4, "ok": 4}
    sims = {}
    for op in ("hmult", "hrot", "bootstrap"):
        sims["sim.%s_model_ms" % op] = 0.5
        for col in ("mod_mults", "words", "evk_words"):
            counts["rns.%s.%s" % (op, col)] = 1
    counts["rns.bootstrap.plaintext_words"] = 1
    for name in ("rotations", "pmults", "distinct_evks", "evk_miss"):
        counts["boot." + name] = 1
    counts["serve.refused"] = 0
    counts["net.reconnects"] = 0
    samples = {"unit_ms": [1.0, 2.0, 3.0, 4.0], "setup_s": [1.0],
               "ab_traced_ms": [1.0], "ab_untraced_ms": [1.0],
               "serve.exec_ms": [1.0], "net.overhead_ms": [1.0],
               "gen.lag_ms": [1.0],
               "hmult_ms": [1.0], "hrot_ms": [1.0], "rescale_ms": [1.0]}
    values = {"peak_rss_mib": 1.0, "measured_s": 1.0, "precision_bits": 30.0,
              "rns.pool_cycles_per_span": 100}
    values.update(sims)
    return {"samples": samples, "values": values, "counts": counts,
            "spans": spans}


class Catalog(unittest.TestCase):
    def setUp(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            self.spec = json.load(f)

    def test_every_metric_is_produced_on_every_workload(self):
        e2e = {m["name"] for m in self.spec["end_to_end"]}
        names = [m["name"] for m in self.spec["per_layer"]]
        gated = [w["name"] for w in self.spec["workloads"]]
        self.assertTrue(set(gated) <= set(ledger.WORKLOADS), gated)
        for workload in ledger.WORKLOADS:
            raw = raw_report(workload)
            m, _, _ = ledger.end_to_end(raw, workload)
            self.assertEqual(set(m), e2e)
            layer, ledgers, _ = ledger.per_layer(raw, workload, names)
            self.assertEqual(set(layer), set(names))
            self.assertTrue(all(row[4] for row in ledgers))
            self.assertEqual([row[0] for row in ledgers if row[5]],
                             {"paper-ops": ["hmult", "hrot"],
                              "bootstrap": ["bootstrap"]}.get(workload, []))

    def test_hmult_ledger_and_pool_batch(self):
        names = [m["name"] for m in self.spec["per_layer"]]
        layer, ledgers, _ = ledger.per_layer(raw_report("paper-ops"),
                                             "paper-ops", names)
        # 400 = 100 (decompose) + 100 (keyswitch) + 200 (rest)
        self.assertEqual(layer["ckks.hmult_rest_ms"], 200.0)
        self.assertEqual(ledgers[0][:2], ("hmult", 400.0))
        # One 100 ms span over 100 pool cycles.
        self.assertAlmostEqual(layer["rns.pool_cycle_us"], 1000.0)

    def test_bootstrap_ledger(self):
        names = [m["name"] for m in self.spec["per_layer"]]
        layer, ledgers, _ = ledger.per_layer(raw_report("bootstrap"),
                                             "bootstrap", names)
        # 2000 = 2 x 500 (evalmod) + 100 (modraise) + 900 (rest)
        self.assertEqual(layer["boot.rest_ms"], 900.0)
        self.assertEqual(ledgers[-1][0], "bootstrap")


if __name__ == "__main__":
    unittest.main()
