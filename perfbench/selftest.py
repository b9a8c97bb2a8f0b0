"""Self-tests of the benchmark's own machinery (about 10 s).

    python3 perfbench/selftest.py

* the same seed gives the same job stream and the same oracle inputs;
* self-time arithmetic on a synthetic nested, re-entrant span set;
* every wrapped function is restored after a traced region;
* the oracles reject a completed design with one hole constant flipped,
  and a job that ends ``failed``, and both count as failures;
* the per-layer metrics a traced run prints are the ones
  ``BENCHMARK.json`` declares.
"""

import itertools
import json
import os
import random
import sys
import types
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import ledger  # noqa: E402
import oracles  # noqa: E402
import stream  # noqa: E402
import table1  # noqa: E402


class SeedTest(unittest.TestCase):
    def test_same_seed_same_stream(self):
        first = list(itertools.islice(stream.submissions(7), 120))
        again = list(itertools.islice(stream.submissions(7), 120))
        other = list(itertools.islice(stream.submissions(8), 120))
        self.assertEqual(first, again)
        self.assertNotEqual(first, other)
        # After the first, every block of six holds two new copies of each
        # class and two repeats.
        for start in range(6, 120, 6):
            block = first[start:start + 6]
            fresh = {n for n in block if n not in first[:start]}
            self.assertEqual(sorted(n[:3] for n in fresh),
                             ["acc", "acc", "alu", "alu"])

    def test_same_seed_same_oracle_inputs(self):
        names = list(table1.ROWS["ts_rv32i"][1])
        self.assertEqual(oracles.riscv_program(random.Random(3), names, 20),
                         oracles.riscv_program(random.Random(3), names, 20))


class SelfTimeTest(unittest.TestCase):
    def test_nested_reentrant_and_dropped(self):
        now = [0.0]
        recorder = ledger.Recorder(clock=lambda: now[0])

        def at(moment, action, *args):
            now[0] = moment
            return action(*args)

        a = at(0, recorder.open, "a")
        b = at(1, recorder.open, "b")
        self.assertIsNone(at(2, recorder.open, "a"))  # re-entrant: outer
        c = at(3, recorder.open, "c")
        at(4, recorder.close, c)
        at(5, recorder.close, b)
        d = at(7, recorder.open, "d")
        at(8, recorder.close, d)
        dropped = at(8.5, recorder.open, "x")
        e = at(8.7, recorder.open, "e")
        at(9.0, recorder.close, e)
        at(9.5, recorder.close, dropped)
        dropped.dropped = True
        at(10, recorder.close, a)

        selfs = ledger.self_times(recorder.spans)
        self.assertAlmostEqual(selfs[a], 10 - 4 - 1 - 0.3)
        self.assertAlmostEqual(selfs[b], 3)
        self.assertAlmostEqual(selfs[c], 1)
        self.assertAlmostEqual(selfs[e], 0.3)
        self.assertNotIn(dropped, selfs)
        summary = ledger.summarize(recorder.spans, wall=12)
        self.assertAlmostEqual(summary["unattributed_s"], 2)
        self.assertEqual(summary["layers"]["a"]["calls"], 1)
        self.assertTrue(summary["reconciled"])
        self.assertAlmostEqual(summary["reconcile_error"], 0)


def _held_wrappers():
    """Every module or class attribute that is one of the ledger's
    wrappers."""
    found = []
    for held in list(sys.modules.values()):
        owners = [held] + [value for value in vars(held).values()
                           if isinstance(value, type)]
        for owner in owners:
            for attr, value in list(vars(owner).items()):
                if getattr(value, "__qualname__", "") == \
                        "_wrap.<locals>.wrapper":
                    found.append((getattr(owner, "__name__", owner), attr))
    return found


class MetricNamesTest(unittest.TestCase):
    def test_per_layer_metrics_match_benchmark_json(self):
        with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
            declared = {m["name"]: m["unit"]
                        for m in json.load(f)["per_layer"]}
        summary = ledger.summarize([], wall=1.0)
        produced = ledger.layer_metrics([], summary, {}, 1, 0, 0.0)
        self.assertEqual(declared,
                         {name: unit for name, (_, unit) in produced.items()})


class RestoreTest(unittest.TestCase):
    def test_wrappers_removed_after_traced_region(self):
        from repro.designs.accumulator import build_problem
        import repro.smt.terms
        import repro.synthesis as api

        original = repro.smt.terms.substitute
        late = types.ModuleType("perfbench_late_import")
        sys.modules[late.__name__] = late
        try:
            session = ledger.Session()
            with session:
                # A module imported inside the region binds the wrapper.
                late.substitute = repro.smt.terms.substitute
                self.assertTrue(_held_wrappers())
                api.synthesize(build_problem())
            self.assertEqual(_held_wrappers(), [])
            self.assertIs(late.substitute, original)
            names = {span.name for span in session.recorder.spans}
            self.assertIn("synthesis.engine", names)
            self.assertIn("sat.search", names)
        finally:
            del sys.modules[late.__name__]


class OracleTest(unittest.TestCase):
    FLIPS = {"ts_rv32i": "alu_op"}

    def test_flipped_hole_is_rejected_and_counted(self):
        for workload, hole_name in self.FLIPS.items():
            with self.subTest(workload=workload):
                reps, failed = table1.run(workload, seed=1, seconds=0)
                self.assertEqual(failed, 0)
                design = reps[0]["design"]
                hole = next(h for h in table1.build(workload).sketch.holes
                            if h.name == hole_name)
                flipped = oracles.flip_hole(design, hole)
                bad = [{"error": None, "design": flipped,
                        "text": reps[0]["text"] + "flipped"}]
                self.assertEqual(table1.judge(workload, 1, bad), 1)
                self.assertIn("oracle", bad[0]["error"])

    def test_failed_job_is_rejected_and_counted(self):
        job = {"state": "failed", "error": "synthesis stopped: timeout"}
        self.assertTrue(oracles.service_job(job, None))
        records = [{"name": "acc_00000", "error": None, "job": job}]
        self.assertEqual(stream.check(records), 1)


if __name__ == "__main__":
    unittest.main()
