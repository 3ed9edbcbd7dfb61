"""Tests of the benchmark harness itself: span arithmetic, summaries, and
every output check rejecting a deliberately corrupted output.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys
import tempfile
import unittest
from pathlib import Path
from unittest import mock

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))
sys.path.insert(0, str(HERE.parent.parent / "src"))

import checks  # noqa: E402
import spans  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402
from spans import Span  # noqa: E402

from keymine import cli  # noqa: E402


class SelfTimeTest(unittest.TestCase):
    def nested(self) -> list[Span]:
        return [
            Span("main", "cli", 0.0, 10.0, None),
            Span("mine_frequent", "mining", 1.0, 4.0, 0),
            Span("count_supports", "mining", 2.0, 3.0, 1),
            Span("assign_hands", "layout", 5.0, 9.0, 0),
        ]

    def test_self_time_subtracts_children(self):
        self.assertEqual(spans.self_times(self.nested()), [3.0, 2.0, 1.0, 4.0])

    def test_self_times_add_up_to_root(self):
        self.assertAlmostEqual(sum(spans.self_times(self.nested())), 10.0)

    def test_overlapping_children_count_once_and_clip_to_parent(self):
        s = [
            Span("main", "cli", 0.0, 10.0, None),
            Span("a", "corpus", 1.0, 5.0, 0),
            Span("b", "corpus", 4.0, 12.0, 0),
        ]
        self.assertEqual(spans.self_times(s)[0], 1.0)

    def test_layer_span_does_not_double_count_same_layer_nesting(self):
        layers = spans.layer_times(self.nested())
        self.assertEqual(layers["mining"], {"span": 3.0, "self": 3.0})
        self.assertEqual(layers["layout"], {"span": 4.0, "self": 4.0})
        self.assertEqual(layers["cli"]["self"], 3.0)

    def test_tracer_records_parents_and_counts(self):
        ticks = iter(range(100))
        tracer = spans.Tracer(clock=lambda: float(next(ticks)))
        inner = tracer.wrap("count_supports", "mining", lambda xs: list(xs))
        outer = tracer.wrap("mine_frequent", "mining", lambda: inner([1, 2]) + inner([3]))
        tracer.call("main", "cli", outer)
        self.assertEqual([s.parent for s in tracer.spans], [None, 0, 1, 1])
        self.assertEqual(tracer.count("count_supports"), 2)
        self.assertEqual(sum(len(r) for _, r in tracer.named_calls("count_supports")), 3)


class StatsTest(unittest.TestCase):
    def test_median_and_quartiles(self):
        s = stats.summarize([5.0, 1.0, 3.0, 2.0, 4.0])
        self.assertEqual((s["n"], s["median"], s["q1"], s["q3"]), (5, 3.0, 1.5, 4.5))

    def test_single_sample(self):
        self.assertEqual(stats.summarize([2.0])["q1"], 2.0)

    def test_nearest_rank_percentile(self):
        values = [float(v) for v in range(1, 101)]
        self.assertEqual(stats.percentile(values, 90), 90.0)
        self.assertEqual(stats.percentile(values, 99.9), 100.0)
        self.assertEqual(stats.percentile([7.0], 50), 7.0)

    def test_tail_percentile_needs_ten_samples_beyond(self):
        self.assertIsNone(stats.tail_percentile(19))
        self.assertEqual(stats.tail_percentile(20), 50.0)
        self.assertEqual(stats.tail_percentile(40), 75.0)
        self.assertEqual(stats.tail_percentile(100), 90.0)
        self.assertEqual(stats.tail_percentile(1000), 99.0)
        self.assertEqual(stats.tail_percentile(10000), 99.9)

    def test_least_off_cpu_drops_runs_the_host_held_up(self):
        runs = [{"wall_s": w, "cpu_s": c} for w, c in
                ((1.0, 0.97), (3.0, 1.0), (1.2, 1.19), (2.0, 1.0), (1.1, 1.08), (1.0, 0.99))]
        self.assertEqual([r["wall_s"] for r in stats.least_off_cpu(runs)], [1.0, 1.2, 1.1, 1.0])

    def test_least_off_cpu_keeps_at_least_the_less_held_up_half(self):
        runs = [{"wall_s": w, "cpu_s": c} for w, c in ((1.0, 0.8), (3.0, 1.0), (1.2, 1.0), (2.0, 1.0), (1.1, 1.0))]
        self.assertEqual([r["wall_s"] for r in stats.least_off_cpu(runs)], [1.0, 1.2, 1.1])
        self.assertEqual(stats.least_off_cpu(runs[:1]), runs[:1])
        with self.assertRaises(ValueError):
            stats.least_off_cpu([])

    def test_summary_reports_tail_only_with_enough_samples(self):
        self.assertNotIn("p50", stats.summarize([1.0] * 19))
        self.assertEqual(stats.summarize([float(v) for v in range(100)])["p90"], 89.0)


def run_cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


SMALL = {
    "DESIGN_CHARS": 3000, "EVAL_CHARS": 3000, "BN_CHARS": 4000,
    "BASKET_ROWS": 600, "BASKET_BACKGROUND": 40, "BASKET_GROUPS": 2,
}


class CheckerTest(unittest.TestCase):
    """Each workload at a small size: the real outputs pass every check,
    and each corruption is caught."""

    def setUp(self):
        self.tmp = Path(tempfile.mkdtemp())
        self.addCleanup(shutil.rmtree, self.tmp)
        patcher = mock.patch.multiple(workloads, **SMALL)
        patcher.start()
        self.addCleanup(patcher.stop)

    def design_layout(self, alphabet: Path, manifest: Path, out_dir: Path) -> None:
        code, _ = run_cli(["design", "--alphabet", str(alphabet), "--manifest", str(manifest),
                           "--output-dir", str(out_dir)])
        self.assertEqual(code, 0)

    def produce(self, workload: str) -> tuple[checks.Checker, Path, str]:
        prepared = workloads.prepare(workload, 0, self.tmp / "inputs", self.design_layout)
        out = self.tmp / "out"
        code, stdout = run_cli([*prepared.argv, "--output-dir", str(out)])
        self.assertEqual(code, 0)
        pinned = checks.output_digests(prepared, out)
        checker = checks.Checker(prepared, pinned)
        self.assertEqual(checker.check(out, stdout, 0), [])
        # A fresh checker that only recounts, so corruptions are seen by the
        # independent path and not just by the pinned digests.
        return checks.Checker(prepared, None), out, stdout

    def test_nonzero_exit_and_missing_output_fail(self):
        checker, out, stdout = self.produce("mine-baskets")
        self.assertTrue(checker.check(out, stdout, 1))
        (out / "rules.tsv").unlink()
        self.assertTrue(checker.check(out, stdout, 0))

    def test_pinned_digest_catches_any_decision_byte(self):
        prepared = workloads.prepare("mine-baskets", 0, self.tmp / "inputs", self.design_layout)
        out = self.tmp / "out"
        _, stdout = run_cli([*prepared.argv, "--output-dir", str(out)])
        checker = checks.Checker(prepared, checks.output_digests(prepared, out))
        with open(out / "rules.tsv", "a", encoding="utf-8") as f:
            f.write("\n")
        self.assertTrue(any("pinned" in f for f in checker.check(out, stdout, 0)))

    def test_design_requires_audit_pass(self):
        checker, out, stdout = self.produce("design-en")
        self.assertTrue(checker.check(out, stdout.replace("audit: pass", "audit: FAIL"), 0))

    def test_design_trace_floats_may_change_decisions_may_not(self):
        prepared = workloads.prepare("design-en", 0, self.tmp / "inputs", self.design_layout)
        out = self.tmp / "out"
        _, stdout = run_cli([*prepared.argv, "--output-dir", str(out)])
        checker = checks.Checker(prepared, checks.output_digests(prepared, out))
        trace = out / "trace.tsv"
        rows = [line.split("\t") for line in trace.read_text(encoding="utf-8").splitlines()]
        rows[5][2] = "0.5"
        trace.write_text("\n".join("\t".join(r) for r in rows) + "\n", encoding="utf-8")
        self.assertEqual(checker.check(out, stdout, 0), [])
        rows[5][-1] = "left" if rows[5][-1] == "right" else "right"
        trace.write_text("\n".join("\t".join(r) for r in rows) + "\n", encoding="utf-8")
        self.assertTrue(checker.check(out, stdout, 0))

    def test_design_layout_disagreeing_with_trace_fails(self):
        checker, out, stdout = self.produce("design-en")
        layout = json.loads((out / "layout.json").read_text(encoding="utf-8"))
        mapping = layout["mapping"]
        right = next(l for l, p in mapping.items() if p.endswith(("-06", "-07", "-08", "-09", "-10")))
        left = next(l for l, p in mapping.items() if p.endswith(("-01", "-02", "-03", "-04", "-05")))
        mapping[left], mapping[right] = mapping[right], mapping[left]
        (out / "layout.json").write_text(json.dumps(layout), encoding="utf-8")
        self.assertTrue(checker.check(out, stdout, 0))

    def test_evaluate_switching_must_match_raw_text(self):
        checker, out, stdout = self.produce("evaluate-en")
        report = json.loads((out / "report_02_random-01.json").read_text(encoding="utf-8"))
        report["hand_switching"] += 1
        (out / "report_02_random-01.json").write_text(json.dumps(report), encoding="utf-8")
        self.assertTrue(any("report_02" in f for f in checker.check(out, stdout, 0)))

    def test_evaluate_loads_must_match_monograph_sums(self):
        checker, out, stdout = self.produce("evaluate-en")
        path = out / "report_24_partial-08.tsv"
        rows = path.read_text(encoding="utf-8").splitlines()
        cells = rows[1].split("\t")
        cells[2] = str(int(cells[2]) + 1)
        path.write_text(rows[0] + "\n" + "\t".join(cells) + "\n", encoding="utf-8")
        self.assertTrue(checker.check(out, stdout, 0))

    def test_evaluate_comparison_must_be_ranked(self):
        checker, out, stdout = self.produce("evaluate-en")
        path = out / "comparison.tsv"
        lines = path.read_text(encoding="utf-8").splitlines()
        lines[1], lines[-1] = lines[-1], lines[1]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        self.assertTrue(any("ranked" in f for f in checker.check(out, stdout, 0)))

    def test_mine_bn_itemset_count_must_match_recount(self):
        checker, out, stdout = self.produce("mine-bn")
        path = out / "frequent_itemsets.tsv"
        lines = path.read_text(encoding="utf-8").splitlines()
        cells = lines[3].split("\t")
        cells[1] = str(int(cells[1]) + 1)
        lines[3] = "\t".join(cells)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        self.assertTrue(checker.check(out, stdout, 0))

    def test_mine_bn_missing_itemset_fails(self):
        checker, out, stdout = self.produce("mine-bn")
        path = out / "frequent_itemsets.tsv"
        lines = path.read_text(encoding="utf-8").splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n", encoding="utf-8")
        self.assertTrue(any("missing" in f for f in checker.check(out, stdout, 0)))

    def test_mine_bn_missing_rule_fails(self):
        checker, out, stdout = self.produce("mine-bn")
        path = out / "rules.tsv"
        lines = path.read_text(encoding="utf-8").splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n", encoding="utf-8")
        self.assertTrue(any("rules" in f for f in checker.check(out, stdout, 0)))

    def test_baskets_support_recount_by_subset_tests(self):
        checker, out, stdout = self.produce("mine-baskets")
        path = out / "frequent_itemsets.tsv"
        lines = path.read_text(encoding="utf-8").splitlines()
        i = next(i for i, line in enumerate(lines) if line.count(" ") >= 2)
        cells = lines[i].split("\t")
        cells[1] = str(int(cells[1]) - 1)
        lines[i] = "\t".join(cells)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        self.assertTrue(any("recount" in f for f in checker.check(out, stdout, 0)))

    def test_baskets_rule_confidence_checked(self):
        checker, out, stdout = self.produce("mine-baskets")
        path = out / "rules.tsv"
        lines = path.read_text(encoding="utf-8").splitlines()
        cells = lines[1].split("\t")
        cells[3] = "0.999999"
        lines[1] = "\t".join(cells)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        self.assertTrue(checker.check(out, stdout, 0))

    def test_recount_runs_again_for_new_output_bytes(self):
        checker, out, stdout = self.produce("mine-baskets")
        self.assertEqual(checker.check(out, stdout, 0), [])
        path = out / "rules.tsv"
        lines = path.read_text(encoding="utf-8").splitlines()
        cells = lines[1].split("\t")
        cells[2] = "0.000001"
        lines[1] = "\t".join(cells)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        self.assertTrue(checker.check(out, stdout, 0))


if __name__ == "__main__":
    unittest.main()
