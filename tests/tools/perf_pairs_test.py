#!/usr/bin/env python3
"""Tests of tools/perf_pairs.py on canned perfbench output; builds nothing."""

import importlib.util
import io
import json
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

TOOL = Path(__file__).resolve().parents[2] / "tools" / "perf_pairs.py"
spec = importlib.util.spec_from_file_location("perf_pairs", TOOL)
perf_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(perf_pairs)

SPEC = [("makespan_ms", "lower"), ("goodput_per_s", "higher"),
        ("host_s", "lower")]


def laplace_stderr(measured):
    """What perfbench prints for one invocation's untraced runs, plus a
    traced run whose seconds must be ignored."""
    lines = ["perfbench: workload laplace-strong-256, seed 1, lanes 1, "
             "untraced"]
    for m in measured:
        lines.append(f"laplace-strong-256: untraced run: makespan 10.457134 "
                     f"ms virtual, setup 0.300 s, measured {m:.3f} s host, "
                     f"6478573 events")
    lines.append("laplace-strong-256: traced run: makespan 10.457134 ms "
                 "virtual, setup 0.300 s, measured 99.000 s host, 6478573 "
                 "events")
    return lines


def record(side, seed, host_s, goodput, raw, failed=0):
    # Every end-to-end metric of BENCHMARK.json, as --replay reads them.
    metrics = {name: 1.0 for name, _ in perf_pairs.end_to_end_spec()}
    metrics.update(makespan_ms=10.0, goodput_per_s=goodput, host_s=host_s)
    return {"side": side, "seed": seed,
            "result": {"correct": True, "attempted": 3, "failed": failed,
                       "metrics": {k: {"value": v, "unit": "x"}
                                   for k, v in metrics.items()}},
            "stderr": laplace_stderr(raw)}


# Four pairs: the change wins host_s in three (seed 13 loses), and its
# goodput is higher (better) in two.
PARENT_HOST = [2.6, 2.7, 2.5, 2.8]
CHANGE_HOST = [2.2, 2.3, 2.6, 2.1]
CANNED = []
for i, seed in enumerate([11, 12, 13, 14]):
    CANNED.append(record("parent", seed, PARENT_HOST[i], 100.0,
                         [2.1, 2.0 + i / 10, 2.4]))
    CANNED.append(record("change", seed, CHANGE_HOST[i],
                         101.0 if i < 2 else 99.0, [1.8, 1.9, 1.7 + i]))


class PerfPairsTest(unittest.TestCase):
    def test_seed_ranges(self):
        self.assertEqual(perf_pairs.parse_seeds("11-13,20"), [11, 12, 13, 20])
        with self.assertRaises(ValueError):
            perf_pairs.parse_seeds("5-3")

    def test_raw_cpu_is_the_median_of_the_untraced_runs(self):
        self.assertAlmostEqual(
            perf_pairs.raw_cpu_s(laplace_stderr([2.5, 2.1, 2.3])), 2.3)

    def test_a_kv_invocation_has_no_raw_cpu(self):
        # Its set-up seconds are not the raw counterpart of host_s.
        lines = ["kv-zipf-48: set-up 0.012 s host, serving 0.640 s at "
                 "reference speed; p50 4.5 us, p999 9.0 us, max 20.0 us "
                 "virtual; 100 issued, 0 timeouts, 0 unfinished, 0 "
                 "retransmits"]
        self.assertIsNone(perf_pairs.raw_cpu_s(lines))

    def test_invocations_run_for_the_benchmarks_run_seconds(self):
        with tempfile.NamedTemporaryFile("w", suffix=".json") as bench:
            json.dump({"run_seconds": 7, "end_to_end": []}, bench)
            bench.flush()
            cmd = perf_pairs.command("kv-zipf-48", 12, bench.name)
        self.assertEqual(cmd[1:], ["perfbench/run.py", "--workload",
                                   "kv-zipf-48", "--seed", "12",
                                   "--seconds", "7", "--trace", "0"])
        proc = subprocess.run(
            [sys.executable, str(TOOL), "--seconds", "10", "--replay", "x"],
            capture_output=True, text=True)
        self.assertEqual(proc.returncode, 2)

    def test_summary_counts_wins_by_direction(self):
        out = io.StringIO()
        wins = perf_pairs.summarize(CANNED, "host_s", SPEC, out)
        text = out.getvalue()
        self.assertEqual(wins, 3)
        # Medians 2.65 -> 2.25; inclusive quartiles of the parent's
        # 2.5, 2.6, 2.7, 2.8 are 2.575 and 2.725.
        self.assertIn("host_s: change won 3 of 4 pairs; median 2.65 -> "
                      "2.25, gain 0.4 vs parent IQR 0.15: beyond the IQR",
                      text)
        self.assertIn("seed   13: 2.5 -> 2.6\n", text)
        self.assertIn("seed   14: 2.8 -> 2.1  change wins", text)
        # Raw CPU: per invocation the median untraced run (parent 2.1,
        # 2.1, 2.2, 2.3), then the median over invocations; the traced
        # run's 99 s never counts.
        self.assertIn("parent: median raw CPU 2.15 s; failed 0 of 12 "
                      "operations", text)
        self.assertIn("change: median raw CPU 1.9 s;", text)
        out = io.StringIO()
        self.assertEqual(
            perf_pairs.summarize(CANNED, "goodput_per_s", SPEC, out), 2)

    def test_a_failed_invocation_gives_no_verdict(self):
        broken = [dict(r) for r in CANNED]
        broken[3]["result"] = None
        out = io.StringIO()
        self.assertIsNone(perf_pairs.summarize(broken, "host_s", SPEC, out))
        self.assertIn("change seed 12: invocation failed", out.getvalue())

    def test_replay_of_a_log_file(self):
        with tempfile.NamedTemporaryFile("w", suffix=".jsonl") as log:
            log.write("".join(json.dumps(r) + "\n" for r in CANNED))
            log.flush()
            proc = subprocess.run(
                [sys.executable, str(TOOL), "--replay", log.name],
                capture_output=True, text=True)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertIn("host_s: change won 3 of 4 pairs", proc.stdout)


if __name__ == "__main__":
    unittest.main()
