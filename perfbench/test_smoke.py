#!/usr/bin/env python3
"""Smoke test for the wall benchmark: python3 perfbench/test_smoke.py

Runs `perfbench/run.py --smoke` (all three workloads, briefly, untraced and
traced) and requires it to pass: every metric printed finite with a unit,
frame_error_ratio 0, a parseable span file whose child spans stay inside
their parents, and seed-deterministic stream generation.
"""

import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


class WallBenchmarkSmoke(unittest.TestCase):
    def test_smoke(self):
        res = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "run.py"), "--smoke"],
            cwd=ROOT, capture_output=True, text=True, timeout=1800)
        fails = [l for l in res.stderr.splitlines() if "SMOKE FAIL" in l]
        self.assertEqual(res.returncode, 0, "\n".join(fails) or res.stderr[-4000:])
        self.assertIn("SMOKE OK", res.stdout)


if __name__ == "__main__":
    unittest.main()
