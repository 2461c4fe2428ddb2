#!/usr/bin/env python3
"""Tests of the repository benchmark itself.

    python3 perfbench/test_perfbench.py          # from the repository root

Checks BENCHMARK.json against the benchmark contract, runs every workload
for a few seconds (untraced and traced) and checks the result line, runs
the stall self-test, and checks that one seed always gives one tape.
"""

import json
import os
import re
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
SMOKE_SECONDS = "4"

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    BENCHMARK = json.load(f)


def run(workload, seed=1, seconds=SMOKE_SECONDS, trace=0, extra=()):
    """Runs the benchmark; returns (exit code, stdout lines, result)."""
    command = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", seconds, "--trace", str(trace)] + list(extra)
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    lines = done.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        result = None
    return done.returncode, lines, result


def checks(lines):
    """{check name: passed} from the 'check <name> ok|FAIL' lines."""
    found = {}
    for line in lines:
        parts = line.split()
        if len(parts) >= 3 and parts[0] == "check":
            found[parts[1]] = found.get(parts[1], True) and parts[2] == "ok"
    return found


class ContractTest(unittest.TestCase):
    def test_metric_names_and_units(self):
        names = []
        for group in ("end_to_end", "per_layer"):
            for metric in BENCHMARK[group]:
                self.assertRegex(metric["name"], NAME)
                self.assertRegex(metric["unit"], UNIT)
                self.assertIn(metric["better"], ("higher", "lower"))
                names.append(metric["name"])
        self.assertEqual(len(names), len(set(names)), "a name is used twice")

    def test_bounds_and_setup(self):
        for metric in BENCHMARK["end_to_end"]:
            self.assertLessEqual(metric["bound"], 0.25, metric["name"])
            self.assertGreater(metric["bound"], 0.0, metric["name"])
        setup = [m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup, [{"name": "setup_s", "unit": "s",
                                  "better": "lower", "bound": max(
                                      m["bound"]
                                      for m in BENCHMARK["end_to_end"])}])

    def test_workloads_match_specs(self):
        names = [w["name"] for w in BENCHMARK["workloads"]]
        for name in names:
            self.assertRegex(name, NAME)
            self.assertTrue(os.path.isfile(
                os.path.join(HERE, "workloads", name + ".scn")), name)
        self.assertEqual(BENCHMARK["paths"], ["perfbench"])


class SmokeTest(unittest.TestCase):
    """Every workload, untraced and traced; a few seconds each except the
    untraced drift_mix run."""

    def check_run(self, workload, trace, seconds=SMOKE_SECONDS):
        code, lines, result = run(workload, seconds=seconds, trace=trace)
        self.assertEqual(code, 0, "\n".join(lines[-30:]))
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        group = "per_layer" if trace else "end_to_end"
        expected = {m["name"]: m["unit"] for m in BENCHMARK[group]}
        self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()},
                         expected)
        self.assertTrue(all(c for c in checks(lines).values()), lines)
        return lines, result

    def test_drift_mix(self):
        # At the benchmark's run length the tape holds several drift
        # cycles, so mechanisms_fired applies.
        lines, _ = self.check_run("drift_mix", 0,
                                  seconds=str(BENCHMARK["run_seconds"]))
        self.assertIn("mechanisms_fired", checks(lines))
        self.check_run("drift_mix", 1)

    def test_tiny_ingest(self):
        self.check_run("tiny_ingest", 0)
        self.check_run("tiny_ingest", 1)

    def test_ha_quorum(self):
        self.check_run("ha_quorum", 0)
        lines, result = self.check_run("ha_quorum", 1)
        self.assertGreater(
            result["metrics"]["replication.commit_ms_mean"]["value"], 0)


class StallTest(unittest.TestCase):
    def test_stall_is_charged_to_every_batch_due_during_it(self):
        # Stopping the servers for 0.5 s must show in the reported latency
        # of the window it hit, while the generator keeps its schedule;
        # stall_charged checks both.
        code, lines, result = run("drift_mix", seconds="6",
                                  extra=["--stall-at", "2",
                                         "--stall-seconds", "0.5"])
        self.assertEqual(code, 0, "\n".join(lines[-30:]))
        self.assertTrue(checks(lines).get("stall_charged"), lines)
        self.assertTrue(result["correct"])


class DeterminismTest(unittest.TestCase):
    def test_same_seed_same_tape(self):
        def digest(seed):
            code, lines, _ = run("tiny_ingest", seed=seed, seconds="2")
            self.assertEqual(code, 0)
            meta = [json.loads(line[5:]) for line in lines
                    if line.startswith("meta ")]
            return meta[0]["tape_digest"]
        first = digest(7)
        self.assertEqual(first, digest(7))
        self.assertNotEqual(first, digest(8))


if __name__ == "__main__":
    unittest.main()
