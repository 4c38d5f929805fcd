"""Checks bench_compare.py's --claim pair rule on committed and synthetic
ledgers.

    python3 scripts/test_bench_compare.py
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SCRIPT = os.path.join(HERE, "bench_compare.py")


def claim(ledger, *named):
    """bench_compare.py's exit status for one claim: METRIC WORKLOAD, or
    the ledger's own claim when none is named."""
    return subprocess.run(
        [sys.executable, SCRIPT, ledger, "--claim", *named],
        capture_output=True, text=True).returncode


def synthetic_ledger(parent, change, own_claim=None):
    """A one-workload ledger of shared_prefix pairs of output_tok_s,
    carrying `own_claim` as its claim when given."""
    def run(value):
        return {"correct": True, "attempted": 1, "failed": 0,
                "metrics": {"output_tok_s": value}}
    pairs = [{"seed": i + 1, "first": "parent", "parent": run(a),
              "change": run(b)} for i, (a, b) in enumerate(zip(parent,
                                                               change))]
    ledger = {"workloads": {"shared_prefix": {"pairs": pairs}}}
    if own_claim is not None:
        ledger["claim"] = own_claim
    return ledger


class ClaimTest(unittest.TestCase):
    def ledger(self, name):
        return os.path.join(ROOT, name)

    def test_committed_claims_hold(self):
        self.assertEqual(claim(self.ledger("BENCH_32.json"), "rss_peak_mib",
                               "shared_prefix"), 0)
        self.assertEqual(claim(self.ledger("BENCH_32.json"), "output_tok_s",
                               "shared_prefix"), 0)
        self.assertEqual(claim(self.ledger("BENCH_30.json"), "kv_peak_mib",
                               "shared_prefix"), 0)

    def test_five_pairs_are_too_few(self):
        self.assertEqual(claim(self.ledger("BENCH_20.json"), "output_tok_s",
                               "offline_decode"), 1)

    def check_synthetic(self, parent, change, own_claim=None,
                        named=("output_tok_s", "shared_prefix")):
        """Exit status of the claim `named` (METRIC, WORKLOAD), or of the
        ledger's own claim when `named` is empty."""
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "ledger.json")
            with open(path, "w") as f:
                json.dump(synthetic_ledger(parent, change, own_claim), f)
            return claim(path, *named)

    def test_synthetic_rule(self):
        parent = [100.0 + i for i in range(10)]  # IQR 4.5
        # Ten wins and a median gap of 10 hold.
        self.assertEqual(self.check_synthetic(parent,
                                              [p + 10 for p in parent]), 0)
        # A tie counts for neither side: 8 wins in 10 miss the rule.
        change = [p + 10 for p in parent]
        change[0], change[1] = parent[0], parent[1]
        self.assertEqual(self.check_synthetic(parent, change), 1)
        # Ten wins whose median gap (3) is inside the parent's IQR.
        self.assertEqual(self.check_synthetic(parent,
                                              [p + 3 for p in parent]), 1)

    def own_claim(self, parent, change, own):
        return self.check_synthetic(parent, change, own, named=())

    def test_ledger_claim_field(self):
        parent = [100.0 + i for i in range(10)]
        better = [p + 10 for p in parent]
        own = {"metric": "output_tok_s", "workload": "shared_prefix"}
        # A ledger's own claim is checked like the same claim named.
        self.assertEqual(self.own_claim(parent, better, own), 0)
        self.assertEqual(self.own_claim(parent, parent, own), 1)
        self.assertEqual(self.check_synthetic(parent, better, own), 0)
        # Without the field there is nothing to check: a usage error,
        # while a named claim still runs.
        self.assertEqual(self.own_claim(parent, better, None), 2)
        self.assertEqual(self.check_synthetic(parent, better), 0)
        # A claim naming a workload the ledger lacks.
        self.assertEqual(self.own_claim(
            parent, better, {"metric": "output_tok_s",
                             "workload": "offline_decode"}), 2)

    def test_usage_errors(self):
        self.assertEqual(claim(self.ledger("BENCH_32.json"), "no_such_metric",
                               "shared_prefix"), 2)
        self.assertEqual(claim(self.ledger("BENCH_32.json"), "output_tok_s",
                               "no_such_workload"), 2)


if __name__ == "__main__":
    unittest.main()
