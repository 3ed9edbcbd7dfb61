"""Layout scoring: loads, hand switching, report comparison, file formats."""

import json
import random
import re
import string

import pytest

from keymine.corpus import AlphabetConfig
from keymine.evaluation import (
    EvalReport,
    IncomparableReportsError,
    compare,
    read_report_json,
    write_comparison_tsv,
    write_report_json,
    write_report_tsv,
)
from keymine.layout import KeyPosition, KeyboardGeometry, Layout
from keymine.synth import random_text

import reference
from conftest import score

AB = AlphabetConfig(name="ab", letters=("a", "b"))


def split_layout(letters_left, letters_right, name="fixture"):
    positions = []
    mapping = {}
    for i, letter in enumerate(letters_left):
        positions.append(KeyPosition(f"L{i}", "left", 1, "home", "base", 1.0 + i))
        mapping[letter] = f"L{i}"
    for i, letter in enumerate(letters_right):
        positions.append(KeyPosition(f"R{i}", "right", 1, "home", "base", 1.0 + i))
        mapping[letter] = f"R{i}"
    if not letters_left:
        positions.append(KeyPosition("L_", "left", 1, "home", "base", 9.0))
    if not letters_right:
        positions.append(KeyPosition("R_", "right", 1, "home", "base", 9.0))
    return Layout(name=name, geometry=KeyboardGeometry(positions=positions),
                  mapping=mapping)


def swap_hands(layout):
    flipped = [
        KeyPosition(p.position_id, "right" if p.hand == "left" else "left",
                    p.finger, p.row, p.layer, p.cost)
        for p in layout.geometry.positions
    ]
    return Layout(name=layout.name + "-swapped",
                  geometry=KeyboardGeometry(positions=flipped),
                  mapping=dict(layout.mapping))


class TestEvaluate:
    def test_single_token_no_pairs(self):
        layout = split_layout(["a"], ["b"])
        report = score(layout, AB, "a")
        assert report.hand_switching == 0
        assert report.left_load == 1 and report.right_load == 0

    def test_perfect_alternation(self):
        layout = split_layout(["a"], ["b"])
        report = score(layout, AB, "abab")
        assert report.hand_switching == 3
        assert report.left_load == 2 and report.right_load == 2
        assert report.undetermined == 0

    def test_all_one_hand_never_switches(self):
        layout = split_layout(["a", "b"], [])
        report = score(layout, AB, "abababab")
        assert report.hand_switching == 0
        assert report.left_load == 8

    def test_undetermined_breaks_switching_chain(self):
        layout = split_layout(["a"], ["b"])
        report = score(layout, AB, "a7b")
        assert report.hand_switching == 0
        assert report.undetermined == 1

    def test_unmapped_letter_counts_undetermined(self):
        alpha = AlphabetConfig(name="abc", letters=("a", "b", "c"))
        layout = split_layout(["a"], ["b"])
        report = score(layout, alpha, "acb")
        assert report.undetermined == 1
        assert report.hand_switching == 0  # chain broken by c

    def test_key_outside_alphabet_stays_undetermined(self):
        layout = split_layout(["a", "7"], ["b"])
        report = score(layout, AB, "a7b7a")
        assert (report.left_load, report.right_load, report.undetermined) == (2, 1, 2)
        assert report.hand_switching == 0

    def test_spaces_never_counted(self):
        layout = split_layout(["a"], ["b"])
        report = score(layout, AB, "a b")
        assert report.total_chars == 2
        assert report.hand_switching == 1  # space is not a chain break

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_reference_scan(self, seed):
        rng = random.Random(seed)
        letters = list(string.ascii_lowercase[:10])
        alpha = AlphabetConfig(name="ten", letters=tuple(letters))
        texts = [
            random_text(letters, rng.randrange(1, 600), seed * 10 + i, space_prob=0.12,
                        junk="0%\u00a0\u3000", junk_prob=0.06)
            for i in range(1 + seed % 3)
        ]
        # a partial layout: some letters unmapped, one key outside the alphabet
        rng.shuffle(letters)
        cut, mapped = sorted(rng.sample(range(1, 11), 2))
        layout = split_layout(letters[:cut] + ["%"], letters[cut:mapped])
        runs, undetermined = reference.letter_runs(texts, alpha.letters)
        mono, di = reference.ngrams(runs, 1), reference.ngrams(runs, 2)
        by_id = {p.position_id: p for p in layout.geometry.positions}
        hands = {letter: by_id[pid].hand for letter, pid in layout.mapping.items()}
        want = reference.report("fixture", hands, mono, di, sum(mono.values()) + undetermined)
        assert score(layout, alpha, *texts)._asdict() == want

    @pytest.mark.parametrize("seed", range(10))
    def test_partition_identity(self, seed):
        letters = string.ascii_lowercase[:8]
        alpha = AlphabetConfig(name="eight", letters=tuple(letters))
        text = random_text(letters, 800, seed, junk="49", junk_prob=0.1)
        layout = split_layout(list(letters[:3]), list(letters[3:6]))
        report = score(layout, alpha, text)
        assert report.left_load + report.right_load + report.undetermined == report.total_chars
        report.validate()

    @pytest.mark.parametrize("seed", range(10))
    def test_hand_swap_symmetry(self, seed):
        letters = string.ascii_lowercase[:8]
        alpha = AlphabetConfig(name="eight", letters=tuple(letters))
        text = random_text(letters, 800, seed, junk="4", junk_prob=0.05)
        layout = split_layout(list(letters[:5]), list(letters[5:]))
        report = score(layout, alpha, text)
        mirrored = score(swap_hands(layout), alpha, text)
        assert mirrored.left_load == report.right_load
        assert mirrored.right_load == report.left_load
        assert mirrored.hand_switching == report.hand_switching
        assert mirrored.undetermined == report.undetermined

    def test_pure_function(self):
        layout = split_layout(["a"], ["b"])
        assert score(layout, AB, "abbaab") == score(layout, AB, "abbaab")


class TestEvaluateStreams:
    """Several sources scored from one digraph table, which holds no digraph
    across a source boundary, so no switch is counted there."""

    def test_sums_per_file_reports(self):
        layout = split_layout(["a"], ["b"])
        report = score(layout, AB, "ab", "ba")
        assert report.left_load == 2 and report.right_load == 2
        assert report.total_chars == 4

    def test_no_switch_across_file_boundary(self):
        layout = split_layout(["a"], ["b"])
        # "ab" + "ba" as two files: 1 + 1 switches, not the 3 of "abba"
        two = score(layout, AB, "ab", "ba")
        one = score(layout, AB, "abba")
        assert two.hand_switching == 2
        assert one.hand_switching == 2  # abba switches at ab and ba only
        split = score(layout, AB, "a", "b")
        assert split.hand_switching == 0


class TestEvalReport:
    def test_validate_checks_identity(self):
        report = EvalReport("x", 0, 1, 1, 1, 4)
        with pytest.raises(ValueError):
            report.validate()

    def test_validate_checks_switching_bound(self):
        report = EvalReport("x", 5, 2, 2, 0, 4)
        with pytest.raises(ValueError):
            report.validate()


    @pytest.mark.parametrize("counts", [
        (-5, 4, 4, 0, 8), (0, -3, 11, 0, 8), (0, 4, 5, -1, 8), (0, 0, 0, 0, -1),
    ], ids=["switching", "left", "undetermined", "total"])
    def test_validate_rejects_negative_counts(self, counts):
        with pytest.raises(ValueError, match="must be non-negative"):
            EvalReport("x", *counts).validate()


class TestCompare:
    # benchmark rows as published for three layouts; the first row's fields
    # do not sum to the shared total, which compare must tolerate
    ROWS = [
        EvalReport("designed", 410113, 380058, 340903, 133290, 856725),
        EvalReport("baseline-a", 358873, 475556, 242526, 138643, 856725),
        EvalReport("baseline-b", 358672, 319946, 363077, 173702, 856725),
    ]

    def test_highest_switching_ranks_first(self):
        rows = compare(list(reversed(self.ROWS)))
        assert [row.layout_name for row in rows] == [
            "designed", "baseline-a", "baseline-b"]

    def test_single_report_row_has_ratios(self):
        (row,) = compare([self.ROWS[1]])
        typed = 475556 + 242526
        assert row.switching_ratio == pytest.approx(358873 / typed)
        assert row.load_imbalance == pytest.approx((475556 - 242526) / typed)

    def test_ties_keep_input_order(self):
        a = EvalReport("first", 10, 6, 6, 0, 12)
        b = EvalReport("second", 10, 6, 6, 0, 12)
        rows = compare([a, b])
        assert [row.layout_name for row in rows] == ["first", "second"]

    def test_mismatched_totals_rejected(self):
        with pytest.raises(IncomparableReportsError):
            compare([EvalReport("x", 0, 1, 1, 0, 2), EvalReport("y", 0, 1, 1, 1, 3)])

    def test_empty_rejected(self):
        with pytest.raises(IncomparableReportsError):
            compare([])

    def test_zero_typed_gives_zero_ratios(self):
        (row,) = compare([EvalReport("x", 0, 0, 0, 5, 5)])
        assert row.switching_ratio == 0.0 and row.load_imbalance == 0.0


class TestReportFiles:
    REPORT = EvalReport("fixture", 3, 2, 2, 1, 5)

    def test_json_round_trip(self, tmp_path):
        path = tmp_path / "report.json"
        write_report_json(self.REPORT, path)
        assert read_report_json(path) == self.REPORT

    def test_json_keys_in_column_order(self, tmp_path):
        path = tmp_path / "report.json"
        write_report_json(self.REPORT, path)
        text = path.read_text(encoding="utf-8")
        assert list(json.loads(text)) == list(EvalReport._fields)
        assert text == (
            '{\n  "layout_name": "fixture",\n  "hand_switching": 3,\n  "left_load": 2,\n'
            '  "right_load": 2,\n  "undetermined": 1,\n  "total_chars": 5\n}\n')

    @pytest.mark.parametrize("value", [2.0, 1.9, True, "2", None], ids=repr)
    def test_non_integer_count_rejected_naming_the_file(self, tmp_path, value):
        path = tmp_path / "report.json"
        path.write_text(json.dumps({**self.REPORT._asdict(), "left_load": value}), encoding="utf-8")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: .*left_load must be an integer"):
            read_report_json(path)

    def test_malformed_json_rejected(self, tmp_path):
        path = tmp_path / "report.json"
        path.write_text(json.dumps({"layout_name": "x"}), encoding="utf-8")
        with pytest.raises(ValueError, match="hand_switching"):
            read_report_json(path)

    @pytest.mark.parametrize("report, message", [
        (EvalReport("x", 0, 1, 1, 1, 4), "loads plus undetermined"),
        (EvalReport("x", 5, 2, 2, 0, 4), "more hand switches"),
    ], ids=["loads", "switching"])
    def test_inconsistent_report_rejected_naming_the_file(self, tmp_path, report, message):
        path = tmp_path / "report.json"
        write_report_json(report, path)
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: .*{message}"):
            read_report_json(path)

    def test_report_tsv_format(self, tmp_path):
        path = tmp_path / "report.tsv"
        write_report_tsv(self.REPORT, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0].split("\t") == [
            "layout_name", "hand_switching", "left_load", "right_load",
            "undetermined", "total_chars"]
        assert lines[1].split("\t") == ["fixture", "3", "2", "2", "1", "5"]

    def test_comparison_tsv_format(self, tmp_path):
        path = tmp_path / "comparison.tsv"
        write_comparison_tsv(compare([self.REPORT]), path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0].split("\t") == [
            "layout_name", "hand_switching", "left_load", "right_load",
            "undetermined", "switching_ratio", "load_imbalance"]
        assert lines[1].startswith("fixture\t3\t2\t2\t1\t0.75")
