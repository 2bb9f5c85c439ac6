#!/usr/bin/env python3
"""Unit tests for tools/bench_compare.py - the benchmark regression gate.

Covers the document schema (what load/parse_document reject), the generic
comparison (config match, the asymmetric row rule, the tight / noisy /
invariant gates, the non-positive-baseline skip and the "gate gated
nothing" guard) and main()'s directory walk. The bench-specific rules (DVFS
columns, fault counts, sublinear balance) are computed by the benches
themselves and reach the gate as invariant rows.

Stdlib only; run directly (`python3 tests/tools/bench_compare_test.py`)
or through ctest as `bench_compare_test`.
"""

import contextlib
import copy
import importlib.util
import io
import json
import os
import tempfile
import unittest

_REPO = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
_SPEC = importlib.util.spec_from_file_location(
    "bench_compare", os.path.join(_REPO, "tools", "bench_compare.py"))
bench_compare = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_compare)


def row(name, metric, value, gate, unit="ticks/s"):
    return {"name": name, "metric": metric, "value": value, "unit": unit, "gate": gate}


def bench_doc(rate=1000.0, throughput=2000.0, identical=True, ticks=5000):
    """One row of each gate kind, over two row names."""
    return {
        "bench": "demo",
        "config": {"ticks": ticks, "threads": 1, "build_type": "release"},
        "rows": [
            row("small", "ticks_per_second", rate, "noisy"),
            row("small", "identical", identical, "invariant", "bool"),
            row("large", "ticks_per_second", rate * 4, "noisy"),
            row("large", "throughput", throughput, "tight", "work-ticks/s"),
        ],
    }


def edit(doc, change):
    doc = copy.deepcopy(doc)
    change(doc)
    return doc


def compare(baseline, current, threshold=0.25):
    return bench_compare.compare(bench_compare.parse_document(baseline, "baseline"),
                                 bench_compare.parse_document(current, "current"), threshold)


class CompareTest(unittest.TestCase):
    def test_identical_documents_pass(self):
        lines, failures = compare(bench_doc(), bench_doc())
        self.assertEqual(failures, [])
        for label in ("ticks_per_second[small]", "identical[small]",
                      "ticks_per_second[large]", "throughput[large]"):
            self.assertTrue(any(line.startswith(f"  {label}:") and line.endswith("ok")
                                for line in lines), label)

    def test_improvement_passes(self):
        _, failures = compare(bench_doc(rate=1000.0), bench_doc(rate=2000.0))
        self.assertEqual(failures, [])

    def test_noisy_drop_beyond_threshold_fails_every_row(self):
        _, failures = compare(bench_doc(rate=1000.0), bench_doc(rate=600.0))
        self.assertTrue(any(f.startswith("ticks_per_second[small]") for f in failures))
        self.assertTrue(any(f.startswith("ticks_per_second[large]") for f in failures))

    def test_noisy_drop_within_threshold_passes(self):
        _, failures = compare(bench_doc(rate=1000.0), bench_doc(rate=900.0))
        self.assertEqual(failures, [])

    def test_tight_row_gates_at_one_percent_not_global_threshold(self):
        # Simulated throughput is deterministic: a 5% drop is far inside the
        # 25% wall-clock threshold but must still fail the 1% gate.
        _, failures = compare(bench_doc(throughput=2000.0), bench_doc(throughput=1900.0))
        self.assertTrue(any(f.startswith("throughput[large]") for f in failures))

    def test_tight_limit_never_exceeds_threshold(self):
        _, failures = compare(bench_doc(throughput=2000.0), bench_doc(throughput=1995.0),
                              threshold=0.001)
        self.assertTrue(any(f.startswith("throughput[large]") for f in failures))

    def test_false_invariant_fails(self):
        _, failures = compare(bench_doc(identical=True), bench_doc(identical=False))
        self.assertIn("identical[small] no longer holds", failures)

    def test_config_mismatch_fails(self):
        for key, value in (("ticks", 100), ("threads", 4), ("build_type", "debug")):
            current = edit(bench_doc(), lambda d: d["config"].update({key: value}))
            _, failures = compare(bench_doc(), current)
            self.assertTrue(any(f"config mismatch on '{key}'" in f for f in failures), key)

    def test_config_key_on_one_side_only_fails(self):
        current = edit(bench_doc(), lambda d: d["config"].pop("threads"))
        _, failures = compare(bench_doc(), current)
        self.assertTrue(any("config mismatch on 'threads'" in f for f in failures))

    def test_missing_baseline_row_fails(self):
        current = edit(bench_doc(), lambda d: d.update(rows=d["rows"][:2]))  # "large" gone
        _, failures = compare(bench_doc(), current)
        self.assertTrue(any("rows missing" in f and "throughput[large]" in f for f in failures))

    def test_new_current_row_is_skipped_not_failed(self):
        current = edit(bench_doc(), lambda d: d["rows"].append(
            row("huge", "ticks_per_second", 50.0, "noisy")))
        lines, failures = compare(bench_doc(), current)
        self.assertEqual(failures, [])
        self.assertTrue(any("ticks_per_second[huge]" in line and "skipped" in line
                            for line in lines))

    def test_changed_gate_fails(self):
        current = edit(bench_doc(), lambda d: d["rows"][3].update(gate="noisy"))
        _, failures = compare(bench_doc(), current)
        self.assertTrue(any("gate changed from tight to noisy" in f for f in failures))

    def test_non_positive_baseline_is_skipped(self):
        baseline = edit(bench_doc(), lambda d: d["rows"][0].update(value=0.0))
        lines, failures = compare(baseline, bench_doc())
        self.assertEqual(failures, [])
        self.assertTrue(any("ticks_per_second[small]" in line and "not positive" in line
                            for line in lines))

    def test_gate_that_gated_nothing_fails(self):
        # Only an invariant left on both sides: zero rates compared must
        # fail, not silently pass.
        only_invariant = edit(bench_doc(), lambda d: d.update(rows=d["rows"][1:2]))
        _, failures = compare(only_invariant, only_invariant)
        self.assertTrue(any("gated nothing" in f for f in failures))

    def test_mismatched_bench_names_fail(self):
        current = edit(bench_doc(), lambda d: d.update(bench="other"))
        _, failures = compare(bench_doc(), current)
        self.assertTrue(any("wrong file pairing" in f for f in failures))


class SchemaTest(unittest.TestCase):
    def assertRejected(self, doc, message):
        with self.assertRaises(bench_compare.SchemaError) as raised:
            bench_compare.parse_document(doc, "doc.json")
        self.assertIn(message, str(raised.exception))

    def test_missing_config_rejected(self):
        self.assertRejected(edit(bench_doc(), lambda d: d.pop("config")), "no 'config'")

    def test_missing_rows_rejected(self):
        self.assertRejected(edit(bench_doc(), lambda d: d.pop("rows")), "no 'rows'")

    def test_missing_bench_rejected(self):
        self.assertRejected(edit(bench_doc(), lambda d: d.pop("bench")), "no 'bench'")

    def test_duplicate_row_rejected(self):
        self.assertRejected(edit(bench_doc(), lambda d: d["rows"].append(d["rows"][0])),
                            "duplicate row ticks_per_second[small]")

    def test_unknown_gate_rejected(self):
        self.assertRejected(edit(bench_doc(), lambda d: d["rows"][0].update(gate="loose")),
                            "unknown gate 'loose'")

    def test_row_without_unit_rejected(self):
        self.assertRejected(edit(bench_doc(), lambda d: d["rows"][0].pop("unit")),
                            "needs a string name, metric and unit")

    def test_value_must_match_its_gate(self):
        self.assertRejected(edit(bench_doc(), lambda d: d["rows"][0].update(value=True)),
                            "must be true/false for an invariant and a number otherwise")
        self.assertRejected(edit(bench_doc(), lambda d: d["rows"][1].update(value=1)),
                            "must be true/false for an invariant and a number otherwise")
        self.assertRejected(edit(bench_doc(), lambda d: d["rows"][0].update(value=None)),
                            "must be true/false for an invariant and a number otherwise")

    def test_load_reads_a_document(self):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "BENCH_demo.json")
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(bench_doc(), handle)
            doc = bench_compare.load(path)
        self.assertEqual(doc["bench"], "demo")
        self.assertEqual(doc["rows"][("large", "throughput")]["value"], 2000.0)

    def test_load_rejects_jsonl_and_unreadable_files(self):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "BENCH_demo.json")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(json.dumps({"bench": "demo"}) + "\n" + json.dumps({"name": "a"}))
            with self.assertRaises(bench_compare.SchemaError):
                bench_compare.load(path)
            with self.assertRaises(bench_compare.SchemaError):
                bench_compare.load(os.path.join(tmp, "no-such-file.json"))


class MainTest(unittest.TestCase):
    def _run_main(self, baselines, currents, argv_extra=()):
        """Writes {file name: document} into a baseline and a current directory
        and returns main()'s exit status and output."""
        with tempfile.TemporaryDirectory() as tmp:
            for sub, docs in (("baselines", baselines), ("current", currents)):
                os.mkdir(os.path.join(tmp, sub))
                for name, doc in docs.items():
                    with open(os.path.join(tmp, sub, name), "w", encoding="utf-8") as handle:
                        json.dump(doc, handle)
            output = io.StringIO()
            with contextlib.redirect_stdout(output):
                status = bench_compare.main(
                    ["--baseline", os.path.join(tmp, "baselines"),
                     "--current", os.path.join(tmp, "current"), *argv_extra])
        return status, output.getvalue()

    def test_pass_exit_zero(self):
        status, output = self._run_main({"BENCH_a.json": bench_doc()},
                                        {"BENCH_a.json": bench_doc()})
        self.assertEqual(status, 0)
        self.assertIn("PASS", output)

    def test_regression_exit_nonzero_with_refresh_command(self):
        status, output = self._run_main({"BENCH_a.json": bench_doc(rate=1000.0)},
                                        {"BENCH_a.json": bench_doc(rate=100.0)})
        self.assertEqual(status, 1)
        self.assertIn("cp ", output)

    def test_every_baseline_is_gated(self):
        status, output = self._run_main(
            {"BENCH_a.json": bench_doc(), "BENCH_b.json": bench_doc(rate=1000.0)},
            {"BENCH_a.json": bench_doc(), "BENCH_b.json": bench_doc(rate=100.0)})
        self.assertEqual(status, 1)
        self.assertIn("BENCH_a.json", output)
        self.assertIn("cp ", output.split("BENCH_b.json", 1)[1])

    def test_baseline_without_current_file_fails(self):
        status, output = self._run_main(
            {"BENCH_a.json": bench_doc(), "BENCH_b.json": bench_doc()},
            {"BENCH_a.json": bench_doc()})
        self.assertEqual(status, 1)
        self.assertIn("cannot read", output)

    def test_current_file_without_baseline_is_ignored(self):
        status, _ = self._run_main({"BENCH_a.json": bench_doc()},
                                   {"BENCH_a.json": bench_doc(), "BENCH_new.json": {}})
        self.assertEqual(status, 0)

    def test_schema_error_fails(self):
        status, output = self._run_main({"BENCH_a.json": bench_doc()},
                                        {"BENCH_a.json": {"bench": "demo"}})
        self.assertEqual(status, 1)
        self.assertIn("no 'config'", output)

    def test_empty_baseline_directory_fails(self):
        status, _ = self._run_main({}, {"BENCH_a.json": bench_doc()})
        self.assertEqual(status, 1)

    def test_threshold_flag_is_honored(self):
        status, _ = self._run_main({"BENCH_a.json": bench_doc(rate=1000.0)},
                                   {"BENCH_a.json": bench_doc(rate=900.0)},
                                   argv_extra=["--threshold", "0.05"])
        self.assertEqual(status, 1)


if __name__ == "__main__":
    unittest.main()
