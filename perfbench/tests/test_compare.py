"""Tests of compare.py: fingerprint-checked pairing and verdicts."""
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import compare  # noqa: E402

FINGERPRINT = {"nproc": 4, "simd_tier": "avx2", "compiler": "gcc 12.2.0",
               "build_type": "Release", "seed": 1}
SPEC = [{"name": "solves_per_s", "unit": "1/s", "better": "higher",
         "bound": 0.1}]


def record(value, **fingerprint):
    return {"workload": "paper_mix", "trace": 0,
            "fingerprint": dict(FINGERPRINT, **fingerprint),
            "end_to_end": {"solves_per_s": {"value": value, "unit": "1/s"}}}


class PairingTest(unittest.TestCase):
    def test_identical_fingerprints_pair(self):
        pairs = compare.pair_records([record(10.0)], [record(11.0)])
        self.assertEqual(len(pairs), 1)

    def test_pairs_by_seed(self):
        base = [record(10.0, seed=1), record(20.0, seed=2)]
        pairs = compare.pair_records(base, [record(21.0, seed=2)])
        self.assertEqual(pairs[0][0]["fingerprint"]["seed"], 2)

    def test_refuses_other_machine(self):
        with self.assertRaises(compare.FingerprintMismatch) as caught:
            compare.pair_records([record(10.0)], [record(10.0, nproc=8)])
        self.assertIn("nproc", str(caught.exception))

    def test_refuses_other_build(self):
        for field, value in (("simd_tier", "portable"),
                             ("compiler", "clang 16"),
                             ("build_type", "Debug")):
            with self.assertRaises(compare.FingerprintMismatch):
                compare.pair_records([record(10.0)],
                                     [record(10.0, **{field: value})])

    def test_refuses_missing_base(self):
        with self.assertRaises(compare.FingerprintMismatch):
            compare.pair_records([], [record(10.0)])


class VerdictTest(unittest.TestCase):
    def verdict(self, base, change):
        pairs = compare.pair_records(
            [record(v, seed=i) for i, v in enumerate(base)],
            [record(v, seed=i) for i, v in enumerate(change)])
        return compare.summarize(pairs, SPEC)[0]["verdict"]

    def test_gain(self):
        self.assertEqual(self.verdict([10, 10.1, 9.9, 10, 10.05],
                                      [12, 12.1, 11.9, 12, 12.2]), "gain")

    def test_regression(self):
        self.assertEqual(self.verdict([10, 10.1, 9.9, 10, 10.05],
                                      [8, 8.1, 7.9, 8, 8.2]), "regression")

    def test_within_bound(self):
        self.assertEqual(self.verdict([10, 10.1, 9.9, 10, 10.05],
                                      [10.05, 9.95, 10, 10.1, 9.9]),
                         "within bound")


if __name__ == "__main__":
    unittest.main()
