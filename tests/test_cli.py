"""End-to-end command tests driven through main(argv). Each command behind
a golden file runs once a session (`golden_runs` in conftest.py), and
test_reference.py compares its outputs with `data/golden/`; the tests here
check other behaviour, some of them on those runs."""

import json
import os
import random
import re
import string
import subprocess
import sys
import unicodedata
from collections import Counter
from pathlib import Path

import pytest

import keymine
from keymine import cli
from keymine import layout as layout_module
from keymine.cli import main
from keymine.corpus import AlphabetConfig, CorpusCounts, NGraphTable, read_manifest
from keymine.evaluation import read_report_json
from keymine.layout import (
    KeyPosition,
    KeyboardGeometry,
    Layout,
    assign_hands,
    default_geometry,
    load_geometry,
    load_layout,
    save_geometry,
    save_layout,
)
from keymine.synth import random_text, zipf_weights

from conftest import BANGLA, DATA, ENGLISH, WIDE, score, write_transactions_tsv
from oracles import random_db
import reference
from reference import brute_force_frequent


def write_corpus(tmp_path, texts, letters="abcd", name="tiny"):
    alpha_path = tmp_path / "alphabet.json"
    alpha_path.write_text(
        json.dumps({"name": name, "letters": list(letters)}), encoding="utf-8")
    manifest = tmp_path / "manifest.txt"
    lines = []
    for i, text in enumerate(texts):
        file = tmp_path / f"part{i}.txt"
        file.write_text(text, encoding="utf-8")
        lines.append(file.name)
    manifest.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return alpha_path, manifest


class TestStats:
    def test_tiny_corpus_monographs(self, tmp_path):
        alpha, manifest = write_corpus(tmp_path, ["abab"], "ab")
        out = tmp_path / "out"
        assert main(["stats", "--alphabet", str(alpha), "--manifest", str(manifest),
                     "--output-dir", str(out)]) == 0
        lines = (out / "monographs.tsv").read_text(encoding="utf-8").splitlines()
        assert "a+2" not in lines  # sanity: columns are tab separated
        assert lines[1].split("\t")[:2] == ["a", "2"]
        assert lines[2].split("\t")[:2] == ["b", "2"]

    def test_three_file_totals_are_additive(self, tmp_path):
        texts = ["abab", "bb", "aabb"]
        alpha, manifest = write_corpus(tmp_path, texts, "ab")
        out = tmp_path / "out"
        main(["stats", "--alphabet", str(alpha), "--manifest", str(manifest),
              "--output-dir", str(out), "--format", "json"])
        summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
        assert summary["total_letters"] == sum(len(t) for t in texts)
        assert summary["sources"] == 3

    def test_no_ngram_crosses_files(self, tmp_path):
        # one stream "abccab" would add c+c, b+c+c and c+c+a
        alpha, manifest = write_corpus(tmp_path, ["abc", "cab"], "abc")
        out = tmp_path / "out"
        assert main(["stats", "--alphabet", str(alpha), "--manifest", str(manifest),
                     "--output-dir", str(out)]) == 0

        def counts(name):
            lines = (out / name).read_text(encoding="utf-8").splitlines()[1:]
            return {ngram: int(count) for ngram, count, _ in (l.split("\t") for l in lines)}

        assert counts("digraphs.tsv") == {"a+b": 2, "b+c": 1, "c+a": 1}
        assert counts("trigraphs.tsv") == {"a+b+c": 1, "c+a+b": 1}

    def test_sample_corpus_digraphs_match_reference(self, golden_runs, data_dir):
        letters = json.loads(reference.read(data_dir / "alphabets" / "english.json"))["letters"]
        text = reference.read(data_dir / "sample" / "corpus.txt")
        runs, _ = reference.letter_runs([text], letters)
        got = {}
        digraphs = golden_runs / "sample-stats" / "digraphs.tsv"
        for line in digraphs.read_text(encoding="utf-8").splitlines()[1:]:
            ngram, count, _ = line.split("\t")
            got[tuple(ngram.split("+"))] = int(count)
        assert got == reference.ngrams(runs, 2)

    def test_empty_corpus_exits_nonzero(self, tmp_path):
        alpha, manifest = write_corpus(tmp_path, ["123 456"], "ab")
        assert main(["stats", "--alphabet", str(alpha), "--manifest", str(manifest),
                     "--output-dir", str(tmp_path / "out")]) == 1


class TestMine:
    def test_log_reports_candidates_and_scans(self, golden_runs):
        log = (golden_runs / "market9.stdout").read_text(encoding="utf-8")
        assert "level 1: 5 candidates, 5 frequent (1 scan)" in log
        assert "level 2: 10 candidates, 6 frequent (1 scan)" in log
        assert "scans performed: 3" in log

    def test_corpus_tables_are_freed_before_mining(self, tmp_path, data_dir):
        # a spy in place of `mine_frequent` looks for every live object of
        # the corpus counts and the digraph table, in a fresh interpreter so
        # that no other test's objects are alive
        argv = ["mine", "--alphabet", str(data_dir / "alphabets" / "english.json"),
                "--manifest", str(data_dir / "sample" / "manifest.txt"),
                "--min-support", "0.01", "--min-confidence", "0.1",
                "--output-dir", str(tmp_path / "out")]
        script = (
            "import gc\n"
            "from keymine import cli\n"
            "from keymine.corpus import CorpusCounts, NGraphTable\n"
            "seen = []\n"
            "def spy(db, params):\n"
            "    gc.collect()\n"
            "    seen.append([type(o).__name__ for o in gc.get_objects() if isinstance(o, CorpusCounts)\n"
            "                 or isinstance(o, NGraphTable) and o.n == 2])\n"
            "    return mine(db, params)\n"
            "mine, cli.mine_frequent = cli.mine_frequent, spy\n"
            f"assert cli.main({argv!r}) == 0\n"
            "assert seen == [[]], seen\n"
        )
        src = Path(keymine.__file__).resolve().parent.parent
        result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                                env={**os.environ, "PYTHONPATH": str(src)})
        assert result.returncode == 0, result.stderr

    def test_basket_rows_shuffled_renamed_and_reordered_mine_identically(self, tmp_path, data_dir,
                                                                         golden_runs):
        # a row is its set of items and the tids are labels: neither the order
        # of rows or items, nor the tids, nor a repeated item may change the output
        header, *lines = (data_dir / "baskets400.tsv").read_text(encoding="utf-8").splitlines()
        rows = [line.split("\t")[1].split() for line in lines]
        rng = random.Random(11)
        rng.shuffle(rows)
        for row in rows:
            rng.shuffle(row)
        rows[0].append(rows[0][0])
        moved = tmp_path / "moved.tsv"
        moved.write_text(header + "\n" + "".join(
            f"basket-{len(rows) - i}\t{' '.join(row)}\n" for i, row in enumerate(rows)),
            encoding="utf-8")
        out = tmp_path / "out"
        assert main(["mine", "--transactions", str(moved), "--min-support", "0.04",
                     "--min-confidence", "0.6", "--output-dir", str(out)]) == 0
        for name in ("frequent_itemsets.tsv", "rules.tsv"):
            assert (out / name).read_bytes() == (golden_runs / "baskets400" / name).read_bytes()

    def test_no_frequent_itemsets_is_one_scan(self, tmp_path, data_dir, capsys):
        main(["mine", "--transactions", str(data_dir / "market9.tsv"),
              "--min-support", "10", "--min-confidence", "0.7",
              "--output-dir", str(tmp_path / "out")])
        assert "scans performed: 1 (no frequent itemsets)" in capsys.readouterr().out

    def test_unsatisfiable_confidence_warns_and_exits_zero(self, tmp_path, data_dir, capsys):
        out = tmp_path / "out"
        assert main(["mine", "--transactions", str(data_dir / "market9.tsv"),
                     "--min-support", "2", "--min-confidence", "1.01",
                     "--output-dir", str(out)]) == 0
        assert "warning" in capsys.readouterr().out
        assert (out / "rules.tsv").read_text(encoding="utf-8").splitlines() == [
            "antecedent\tconsequent\tsupport\tconfidence"]

    @pytest.mark.parametrize("threshold, kept", [
        ("0.33333333333333334", False), ("0.3333333333333333", True)])
    def test_confidence_decided_on_its_digits(self, tmp_path, data_dir, threshold, kept):
        # I1 => I5 holds in 2 of I1's 6 transactions; float("0.33333333333333334") == 1/3,
        # but the decimal is above 1/3, so the rule must go
        out = tmp_path / "out"
        assert main(["mine", "--transactions", str(data_dir / "market9.tsv"),
                     "--min-support", "2", "--min-confidence", threshold,
                     "--output-dir", str(out)]) == 0
        rules = (out / "rules.tsv").read_text(encoding="utf-8").splitlines()
        assert ("I1\tI5\t0.222222\t0.333333" in rules) is kept
        manifest = json.loads((out / "run_manifest.json").read_text(encoding="utf-8"))
        assert manifest["parameters"]["min_confidence"] == float(threshold)
        # the float is one number for both thresholds; the text tells the runs apart
        assert manifest["parameters"]["min_confidence_text"] == threshold

    def test_bad_threshold_fails_before_writing(self, tmp_path, data_dir):
        out = tmp_path / "out"
        assert main(["mine", "--transactions", str(data_dir / "market9.tsv"),
                     "--min-support", "-3", "--min-confidence", "0.5",
                     "--output-dir", str(out)]) == 1
        assert not out.exists()

    @pytest.mark.parametrize("threshold", ["1e309", "inf"])
    def test_infinite_confidence_recorded_as_its_text(self, tmp_path, data_dir, threshold):
        out = tmp_path / "out"
        assert main(["mine", "--transactions", str(data_dir / "market9.tsv"),
                     "--min-support", "2", "--min-confidence", threshold,
                     "--output-dir", str(out)]) == 0
        assert (out / "rules.tsv").read_text(encoding="utf-8").splitlines()[1:] == []

        def refuse(constant):
            raise AssertionError(f"not RFC 8259 JSON: {constant}")

        text = (out / "run_manifest.json").read_text(encoding="utf-8")
        manifest = json.loads(text, parse_constant=refuse)
        assert manifest["parameters"]["min_confidence"] == threshold

    @pytest.mark.parametrize("text", ["-0.5", "-1e-999"])
    def test_negative_confidence_rejected(self, tmp_path, data_dir, capsys, text):
        # the float of -1e-999 is -0.0: the sign is read off the text's digits
        assert main(["mine", "--transactions", str(data_dir / "market9.tsv"),
                     "--min-support", "2", f"--min-confidence={text}",
                     "--output-dir", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == f"error: --min-confidence must be >= 0, got {text}\n"
        assert not (tmp_path / "out").exists()

    def test_nan_confidence_rejected(self, tmp_path, data_dir, capsys):
        argv = ["mine", "--transactions", str(data_dir / "market9.tsv"), "--min-support", "2",
                "--output-dir", str(tmp_path / "out")]
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"min_confidence": float("nan")}), encoding="utf-8")
        assert main(argv + ["--min-confidence", "nan"]) == 1
        assert main(argv + ["--config", str(config)]) == 1
        assert capsys.readouterr().err == "error: --min-confidence must be >= 0, got nan\n" * 2
        assert not (tmp_path / "out").exists()

    def test_fraction_support_converts_by_ceiling(self, tmp_path, data_dir):
        out = tmp_path / "out"
        # 0.22 of 9 transactions -> ceiling 1.98 -> count 2
        main(["mine", "--transactions", str(data_dir / "market9.tsv"),
              "--min-support", "0.22", "--min-confidence", "0.7",
              "--output-dir", str(out)])
        golden = (data_dir / "golden" / "frequent_itemsets.tsv").read_bytes()
        assert (out / "frequent_itemsets.tsv").read_bytes() == golden

    @staticmethod
    def seven_in_a_hundred(tmp_path):
        # `a b` in 7 of 100 rows: a support of exactly 0.07
        path = tmp_path / "db.tsv"
        path.write_text("tid\titems\n" + "".join(
            f"T{i}\t{'a b' if i < 7 else 'c'}\n" for i in range(100)), encoding="utf-8")
        return path

    def mined_at(self, out, db_path, *extra):
        assert main(["mine", "--transactions", str(db_path), "--min-confidence", "0.5",
                     "--output-dir", str(out), *extra]) == 0
        manifest = json.loads((out / "run_manifest.json").read_text(encoding="utf-8"))
        return manifest["parameters"]["min_support_count"], (
            out / "frequent_itemsets.tsv").read_text(encoding="utf-8").splitlines()

    def test_exact_fraction_flag_keeps_the_threshold(self, tmp_path):
        # 0.07 * 100 is 7.000000000000001 in floats; the threshold is exactly 7
        db_path = self.seven_in_a_hundred(tmp_path)
        count, lines = self.mined_at(tmp_path / "frac", db_path, "--min-support", "0.07")
        assert count == 7
        assert {"a\t7\t0.070000", "b\t7\t0.070000", "a b\t7\t0.070000"} <= set(lines)
        assert (count, lines) == self.mined_at(tmp_path / "count", db_path, "--min-support", "7")

    def test_exact_fraction_from_config_float(self, tmp_path):
        db_path = self.seven_in_a_hundred(tmp_path)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"min_support": 0.07}), encoding="utf-8")
        count, lines = self.mined_at(tmp_path / "out", db_path, "--config", str(config))
        assert count == 7 and "a b\t7\t0.070000" in lines

    @pytest.mark.parametrize("raw", ["1e-400", "1e-999999999", "0.0099999"])
    def test_fraction_below_one_row_is_a_count_of_one(self, tmp_path, raw):
        # positive, so in (0, 1], though the first two are 0.0 as floats; the
        # second's exact ratio, 1/10**999999999, is never built
        count, _ = self.mined_at(tmp_path / "out", self.seven_in_a_hundred(tmp_path),
                                 "--min-support", raw)
        assert count == 1

    @pytest.mark.parametrize("raw, message", [
        ("nan", "--min-support fraction must be in (0, 1], got nan"),
        ("inf", "--min-support fraction must be in (0, 1], got inf"),
        ("1.5", "--min-support fraction must be in (0, 1], got 1.5"),
        ("0.0", "--min-support fraction must be in (0, 1], got 0.0"),
        # its float is 1.0, but the decimal it is written as exceeds 1
        ("1.0000000000000001", "--min-support fraction must be in (0, 1], got 1.0000000000000001"),
        ("0", "--min-support count must be >= 1, got 0"),
        ("seven", "--min-support must be a count or a fraction, got 'seven'"),
    ])
    def test_bad_threshold_messages(self, tmp_path, data_dir, capsys, raw, message):
        assert main(["mine", "--transactions", str(data_dir / "market9.tsv"),
                     "--min-support", raw, "--min-confidence", "0.5",
                     "--output-dir", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_random_db_matches_brute_force(self, tmp_path):
        db = random_db(7, universe_size=6, n_transactions=20)
        db_path = tmp_path / "db.tsv"
        write_transactions_tsv(db, db_path)
        out = tmp_path / "out"
        main(["mine", "--transactions", str(db_path), "--min-support", "2",
              "--min-confidence", "0.0", "--output-dir", str(out)])
        expected = {" ".join(items): count
                    for items, count in brute_force_frequent(db.universe, db.rows, 2).items()}
        got = {}
        for line in (out / "frequent_itemsets.tsv").read_text(encoding="utf-8").splitlines()[1:]:
            itemset, count, _ = line.split("\t")
            got[itemset] = int(count)
        assert got == expected

    def test_corpus_source_mines_digraph_db(self, tmp_path):
        alpha, manifest = write_corpus(tmp_path, ["ababab"], "ab")
        out = tmp_path / "out"
        assert main(["mine", "--alphabet", str(alpha), "--manifest", str(manifest),
                     "--min-support", "2", "--min-confidence", "0.5",
                     "--output-dir", str(out)]) == 0
        lines = (out / "frequent_itemsets.tsv").read_text(encoding="utf-8").splitlines()
        assert "a b\t5\t1.000000" in lines


class TestDesign:
    def test_four_letter_seeding(self, tmp_path):
        # counts: a > b > c > d
        alpha, manifest = write_corpus(tmp_path, ["ab ab ab ac ac ad"], "abcd")
        out = tmp_path / "out"
        assert main(["design", "--alphabet", str(alpha), "--manifest", str(manifest),
                     "--output-dir", str(out)]) == 0
        layout = load_layout(out / "layout.json")
        hands = layout.hands_by_letter()
        assert hands["a"] == "right" and hands["d"] == "right"
        assert hands["b"] == "left" and hands["c"] == "left"

    def test_rerun_byte_identical(self, tmp_path):
        alpha, manifest = write_corpus(tmp_path, ["abcd dcba abab"], "abcd")
        outs = []
        for name in ("one", "two"):
            out = tmp_path / name
            assert main(["design", "--alphabet", str(alpha), "--manifest",
                         str(manifest), "--output-dir", str(out)]) == 0
            outs.append(out)
        for file in ("layout.json", "trace.tsv", "geometry.json", "run_manifest.json"):
            assert (outs[0] / file).read_bytes() == (outs[1] / file).read_bytes()

    def test_synthetic_corpus_trace_replays(self, tmp_path, capsys):
        text = random_text("abcdefgh", 2000, 3, space_prob=0.1)
        alpha, manifest = write_corpus(tmp_path, [text], "abcdefgh")
        assert main(["design", "--alphabet", str(alpha), "--manifest", str(manifest),
                     "--output-dir", str(tmp_path / "out")]) == 0
        assert "audit: pass" in capsys.readouterr().out

    def test_failed_audit_prints_its_message_and_exits_one(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "audit_partition", lambda *tables: "recorded hand 'x'")
        alpha, manifest = write_corpus(tmp_path, ["abcd abdc"], "abcd")
        assert main(["design", "--alphabet", str(alpha), "--manifest", str(manifest),
                     "--output-dir", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().out.splitlines()[-1] == "audit: FAIL: recorded hand 'x'"

    def test_capacity_overflow_names_letters(self, tmp_path, capsys):
        geometry = KeyboardGeometry(positions=[
            KeyPosition("L1", "left", 1, "home", "base", 1.0),
            KeyPosition("R1", "right", 1, "home", "base", 1.0),
        ])
        geo_path = tmp_path / "geometry.json"
        save_geometry(geometry, geo_path)
        alpha, manifest = write_corpus(tmp_path, ["ab ab ac ad"], "abcd")
        assert main(["design", "--alphabet", str(alpha), "--manifest", str(manifest),
                     "--geometry", str(geo_path),
                     "--output-dir", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert "d" in err  # the overflowing right-hand letter

    def test_custom_geometry_copied_into_output(self, tmp_path):
        geo_path = tmp_path / "geometry.json"
        save_geometry(KeyboardGeometry(positions=[
            KeyPosition("L1", "left", 1, "home", "base", 1.0),
            KeyPosition("L2", "left", 2, "home", "base", 1.2),
            KeyPosition("R1", "right", 1, "home", "base", 1.0),
            KeyPosition("R2", "right", 2, "home", "base", 1.2),
        ]), geo_path)
        alpha, manifest = write_corpus(tmp_path, ["ab ab ac ad"], "abcd")
        out = tmp_path / "out"
        assert main(["design", "--alphabet", str(alpha), "--manifest", str(manifest),
                     "--geometry", str(geo_path), "--output-dir", str(out)]) == 0
        assert (out / "geometry.json").read_bytes() == geo_path.read_bytes()
        layout = load_layout(out / "layout.json")
        assert set(layout.mapping.values()) == {"L1", "L2", "R1", "R2"}

    @pytest.mark.skipif(not Path("/dev/stdin").exists(), reason="no /dev/stdin")
    def test_geometry_read_from_a_pipe_is_copied(self, tmp_path, data_dir):
        # a pipe can be read once: the copy holds the bytes the design was made from
        geometry = (data_dir / "sample" / "layouts" / "geometry.json").read_bytes()
        alpha, manifest = write_corpus(tmp_path, ["ab ab ac ad"], "abcd")
        out = tmp_path / "out"
        src = Path(keymine.__file__).resolve().parent.parent
        result = subprocess.run(
            [sys.executable, "-m", "keymine.cli", "design", "--alphabet", str(alpha),
             "--manifest", str(manifest), "--geometry", "/dev/stdin", "--output-dir", str(out)],
            input=geometry, capture_output=True, env={**os.environ, "PYTHONPATH": str(src)})
        assert result.returncode == 0, result.stderr
        assert (out / "geometry.json").read_bytes() == geometry
        assert main(["evaluate", "--alphabet", str(alpha), "--manifest", str(manifest),
                     "--output-dir", str(tmp_path / "scored"), str(out / "layout.json")]) == 0

def make_eval_fixture(tmp_path):
    text = random_text("abcdef", 1500, 5, space_prob=0.1, junk="12", junk_prob=0.05)
    alpha, manifest = write_corpus(tmp_path, [text], "abcdef")
    design_dir = tmp_path / "designed"
    main(["design", "--alphabet", str(alpha), "--manifest", str(manifest),
          "--output-dir", str(design_dir)])
    return alpha, manifest, design_dir / "layout.json"


def write_fixture_layout(path, letters_left, letters_right, name):
    positions, mapping = [], {}
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
    layout = Layout(name=name, geometry=KeyboardGeometry(positions=positions),
                    mapping=mapping)
    save_geometry(layout.geometry, path.parent / f"{path.stem}-geometry.json")
    save_layout(layout, path, geometry_ref=f"{path.stem}-geometry.json")


class TestEvaluate:
    def test_strawman_never_switches_and_ranks_last(self, tmp_path, capsys):
        alpha, manifest, designed = make_eval_fixture(tmp_path)
        strawman = tmp_path / "strawman.json"
        write_fixture_layout(strawman, list("abcdef"), [], "one-hand")
        out = tmp_path / "out"
        assert main(["evaluate", "--alphabet", str(alpha), "--manifest", str(manifest),
                     "--output-dir", str(out), str(designed), str(strawman)]) == 0
        rows = (out / "comparison.tsv").read_text(encoding="utf-8").splitlines()[1:]
        assert rows[-1].startswith("one-hand\t0\t")

    def test_hand_swap_keeps_switching(self, tmp_path):
        alpha, manifest, designed = make_eval_fixture(tmp_path)
        original = load_layout(designed)
        flipped_positions = [
            KeyPosition(p.position_id, "right" if p.hand == "left" else "left",
                        p.finger, p.row, p.layer, p.cost)
            for p in original.geometry.positions
        ]
        swapped_dir = tmp_path / "swapped"
        swapped_dir.mkdir()
        swapped = Layout(name="swapped",
                         geometry=KeyboardGeometry(positions=flipped_positions),
                         mapping=dict(original.mapping))
        save_geometry(swapped.geometry, swapped_dir / "geometry.json")
        save_layout(swapped, swapped_dir / "layout.json", geometry_ref="geometry.json")
        out = tmp_path / "out"
        main(["evaluate", "--alphabet", str(alpha), "--manifest", str(manifest),
              "--output-dir", str(out), str(designed), str(swapped_dir / "layout.json")])
        reports = [read_report_json(out / name) for name in
                   ("report_01_layout.json", "report_02_layout.json")]
        assert reports[0].hand_switching == reports[1].hand_switching
        assert reports[0].left_load == reports[1].right_load

    def test_three_layouts_match_library_reports(self, tmp_path):
        alpha, manifest, designed = make_eval_fixture(tmp_path)
        half = tmp_path / "half.json"
        write_fixture_layout(half, list("abc"), list("def"), "half")
        straw = tmp_path / "straw.json"
        write_fixture_layout(straw, list("abcdef"), [], "one-hand")
        out = tmp_path / "out"
        assert main(["evaluate", "--alphabet", str(alpha), "--manifest", str(manifest),
                     "--output-dir", str(out),
                     str(designed), str(half), str(straw)]) == 0

        text = (tmp_path / "part0.txt").read_text(encoding="utf-8")
        alphabet = AlphabetConfig.from_json(alpha)
        for i, path in enumerate((designed, half, straw), start=1):
            layout = load_layout(path)
            expected = score(layout, alphabet, text)
            got = read_report_json(out / f"report_{i:02d}_{path.stem}.json")
            assert got == expected

    def test_switching_stops_at_file_boundary(self, tmp_path, capsys):
        # a left, b right: each file switches once; joined as "abab", the
        # files would switch a third time at the boundary
        alpha, manifest = write_corpus(tmp_path, ["ab", "ab"], "ab")
        split = tmp_path / "split.json"
        write_fixture_layout(split, ["a"], ["b"], "split")
        out = tmp_path / "out"
        assert main(["evaluate", "--alphabet", str(alpha), "--manifest", str(manifest),
                     "--output-dir", str(out), str(split)]) == 0
        assert read_report_json(out / "report_01_split.json").hand_switching == 2
        assert "split: switching 2, left 2, right 2, undetermined 0" in capsys.readouterr().out

    def test_bad_later_layout_writes_nothing(self, tmp_path, capsys):
        # every layout is loaded before the first report is written
        alpha, manifest, designed = make_eval_fixture(tmp_path)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"name": "x"}), encoding="utf-8")
        out = tmp_path / "out"
        assert main(["evaluate", "--alphabet", str(alpha), "--manifest", str(manifest),
                     "--output-dir", str(out), str(designed), str(bad)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {bad}: ")
        assert not out.exists()

    def test_malformed_layout_reports_field(self, tmp_path, capsys):
        alpha, manifest, _ = make_eval_fixture(tmp_path)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"name": "x"}), encoding="utf-8")
        assert main(["evaluate", "--alphabet", str(alpha), "--manifest", str(manifest),
                     "--output-dir", str(tmp_path / "out"), str(bad)]) == 1
        assert "geometry_ref" in capsys.readouterr().err


class TestInputsBeforeCounting:
    """`design` loads its geometry and `evaluate` its layouts, with the
    geometries they name, and `mine` checks its thresholds, before any
    corpus file is counted, so a bad one fails at once, however large the
    corpus."""

    @pytest.fixture
    def counted(self, monkeypatch):
        """The paths `CorpusCounts.add_file` is called with, in order."""
        calls = []
        add_file = CorpusCounts.add_file

        def spy(self, path):
            calls.append(path)
            return add_file(self, path)

        monkeypatch.setattr(CorpusCounts, "add_file", spy)
        return calls

    def test_bad_geometry_fails_before_counting(self, tmp_path, counted, capsys):
        malformed = tmp_path / "malformed.json"
        malformed.write_text('{"positions": [', encoding="utf-8")
        for geometry in (tmp_path / "missing.json", tmp_path, malformed):
            assert main(["design", *ENGLISH, "--geometry", str(geometry),
                         "--output-dir", str(tmp_path / "out")]) == 1
            assert capsys.readouterr().err.startswith(f"error: {geometry}: ")
        assert counted == []
        assert not (tmp_path / "out").exists()
        assert main(["design", *ENGLISH, "--output-dir", str(tmp_path / "out")]) == 0
        assert counted == read_manifest(DATA / "sample" / "manifest.txt")

    def test_bad_layout_fails_before_counting(self, tmp_path, counted, capsys):
        good = DATA / "sample" / "layouts" / "partial.json"
        malformed = tmp_path / "malformed.json"
        malformed.write_text("{", encoding="utf-8")
        dangling = tmp_path / "dangling.json"
        dangling.write_text(good.read_text(encoding="utf-8").replace(
            json.loads(good.read_bytes())["geometry_ref"], "nosuch.json"), encoding="utf-8")
        for layout in (tmp_path / "missing.json", malformed, dangling):
            assert main(["evaluate", *ENGLISH, "--output-dir", str(tmp_path / "out"),
                         str(good), str(layout)]) == 1
            assert capsys.readouterr().err.startswith(f"error: {layout}: ")
        assert counted == []
        assert main(["evaluate", *ENGLISH, "--output-dir", str(tmp_path / "out"),
                     str(good)]) == 0
        assert counted == read_manifest(DATA / "sample" / "manifest.txt")

    def test_missing_corpus_file_fails_before_any_is_counted(self, tmp_path, counted, capsys):
        # the manifest's files are checked to exist before the first is counted
        files = read_manifest(DATA / "sample" / "manifest.txt")
        manifest = tmp_path / "manifest.txt"
        manifest.write_text("".join(f"{path}\n" for path in [*files, tmp_path / "gone.txt"]),
                            encoding="utf-8")
        for command in ("stats", "mine", "design", "evaluate"):
            extra = {"mine": ["--min-support", "2", "--min-confidence", "0.5"],
                     "evaluate": [str(DATA / "sample" / "layouts" / "partial.json")]}
            assert main([command, "--alphabet", str(DATA / "alphabets" / "english.json"),
                         "--manifest", str(manifest), "--output-dir", str(tmp_path / "out"),
                         *extra.get(command, [])]) == 1
            assert capsys.readouterr().err == f"error: {tmp_path / 'gone.txt'}: No such file or directory\n"
        assert counted == []

    def test_negative_confidence_fails_before_counting(self, tmp_path, counted, capsys):
        assert main(["mine", *ENGLISH, "--min-support", "2", "--min-confidence=-1e-999",
                     "--output-dir", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == "error: --min-confidence must be >= 0, got -1e-999\n"
        assert counted == []
        assert not (tmp_path / "out").exists()


class TestOneLoadPerInput:
    """Each corpus command counts n-grams once and derives the lower tables;
    `evaluate` reads each geometry file once, however many layouts name it."""

    @pytest.fixture
    def count_calls(self, monkeypatch):
        calls = []

        def spy(alphabet, n):
            calls.append(n)
            return CorpusCounts(alphabet, n)

        monkeypatch.setattr(cli, "CorpusCounts", spy)
        return calls

    @pytest.fixture
    def geometry_loads(self, monkeypatch):
        loads = []

        def spy(path):
            loads.append(Path(path))
            return load_geometry(path)

        monkeypatch.setattr(layout_module, "load_geometry", spy)
        return loads

    @staticmethod
    def random_layouts(directory, geometry_ref, count, seed):
        """`count` layouts in `directory`, each mapping a seeded random
        subset of the English letters onto the default geometry."""
        rng = random.Random(seed)
        ids = [p.position_id for p in default_geometry().positions]
        paths = []
        for i in range(count):
            letters = rng.sample(string.ascii_lowercase, rng.randint(10, 26))
            mapping = dict(zip(letters, rng.sample(ids, len(letters))))
            path = directory / f"layout{i:02d}.json"
            path.write_text(json.dumps({"name": f"random{i:02d}", "geometry_ref": geometry_ref,
                                        "mapping": mapping}), encoding="utf-8")
            paths.append(path)
        return paths

    @pytest.mark.parametrize("command, extra, orders", [
        ("stats", [], [3]),
        ("design", [], [2]),
        ("evaluate", ["partial.json"], [2]),
    ])
    def test_one_count_per_command(self, tmp_path, data_dir, count_calls, command, extra, orders):
        layouts = [str(data_dir / "sample" / "layouts" / name) for name in extra]
        assert main([command, "--alphabet", str(data_dir / "alphabets" / "english.json"),
                     "--manifest", str(data_dir / "sample" / "manifest.txt"),
                     "--output-dir", str(tmp_path / "out"), *layouts]) == 0
        assert count_calls == orders

    def test_one_geometry_load_for_24_layouts(self, tmp_path, data_dir, geometry_loads):
        save_geometry(default_geometry(), tmp_path / "geometry.json")
        layouts = self.random_layouts(tmp_path, "geometry.json", 24, seed=11)
        out = tmp_path / "out"
        assert main(["evaluate", "--alphabet", str(data_dir / "alphabets" / "english.json"),
                     "--manifest", str(data_dir / "sample" / "manifest.txt"),
                     "--output-dir", str(out), *map(str, layouts)]) == 0
        assert geometry_loads == [tmp_path / "geometry.json"]
        assert len(list(out.glob("report_*.json"))) == 24

    def test_one_load_per_distinct_geometry(self, tmp_path, data_dir, geometry_loads):
        # the first and third layouts share a geometry; the second names its own
        for name in ("a", "b"):
            (tmp_path / name).mkdir()
            save_geometry(default_geometry(), tmp_path / name / "geometry.json")
        first, third = self.random_layouts(tmp_path / "a", "geometry.json", 2, seed=12)
        (second,) = self.random_layouts(tmp_path / "b", "geometry.json", 1, seed=13)
        assert main(["evaluate", "--alphabet", str(data_dir / "alphabets" / "english.json"),
                     "--manifest", str(data_dir / "sample" / "manifest.txt"),
                     "--output-dir", str(tmp_path / "out"),
                     str(first), str(second), str(third)]) == 0
        assert geometry_loads == [tmp_path / "a" / "geometry.json",
                                  tmp_path / "b" / "geometry.json"]


class TestCompareOnly:
    def test_ranks_written_reports(self, tmp_path):
        from keymine.evaluation import write_report_json
        from keymine.evaluation import EvalReport

        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        write_report_json(EvalReport("high", 30, 20, 20, 0, 40), a)
        write_report_json(EvalReport("low", 10, 25, 15, 0, 40), b)
        out = tmp_path / "out"
        assert main(["compare-only", "--output-dir", str(out), str(b), str(a)]) == 0
        rows = (out / "comparison.tsv").read_text(encoding="utf-8").splitlines()
        assert rows[1].startswith("high\t") and rows[2].startswith("low\t")

    def test_mismatched_totals_exit_nonzero(self, tmp_path, capsys):
        from keymine.evaluation import write_report_json
        from keymine.evaluation import EvalReport

        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        write_report_json(EvalReport("x", 1, 2, 2, 0, 4), a)
        write_report_json(EvalReport("y", 1, 2, 2, 1, 5), b)
        assert main(["compare-only", "--output-dir", str(tmp_path / "out"),
                     str(a), str(b)]) == 1
        assert "totals" in capsys.readouterr().err

def bangla_corpus_texts():
    """How `data/bangla/corpus1.txt` and `corpus2.txt` were made: seeded
    letter soup over the Bangla alphabet plus two decomposed pieces, with
    spaces, and with ZWNJ, ZWJ, danda and Bengali digits as junk, broken
    into lines of 72 characters. NFC composes the first piece, e + aa, to
    the letter o; it leaves the second, ya + nukta, as two letters, because
    the precomposed U+09DF is a composition exclusion."""
    letters = [*AlphabetConfig.from_json(DATA / "alphabets" / "bangla.json").letters,
               "\u09c7\u09be", "\u09af\u09bc"]
    junk = "\u200c\u200d\u0964" + "".join(map(chr, range(0x09E6, 0x09F0)))
    texts = []
    for seed in (1, 2):
        text = random_text(letters, 2000, seed, weights=zipf_weights(len(letters)),
                           space_prob=0.15, junk=junk, junk_prob=0.03)
        texts.append("\n".join(text[i:i + 72] for i in range(0, len(text), 72)) + "\n")
    return texts


class TestBanglaGolden:
    """The paper's own script end to end: the seeded Bangla corpus, the
    design that overflows the default geometry, and the shift layers of the
    designs on a wider one. test_reference.py compares the other Bangla
    runs with their golden files byte for byte."""

    @staticmethod
    def golden(data_dir, *parts):
        return data_dir.joinpath("golden", "bangla", *parts)

    def test_corpus_is_the_seeded_recipe_and_covers_the_script(self, data_dir):
        raw = [(data_dir / "bangla" / f"corpus{i}.txt").read_text(encoding="utf-8")
               for i in (1, 2)]
        assert raw == bangla_corpus_texts()
        text = "".join(raw)
        nfc = unicodedata.normalize("NFC", text)
        assert "\u09c7\u09be" in text and "\u09c7\u09be" not in nfc
        assert "\u09af\u09bc" in nfc
        letter = "[\u0981-\u09ce]"
        for joiner in ("\u200c", "\u200d"):
            assert re.search(letter + joiner + letter, text), "joiner inside a word"
        assert "\u0964" in text and re.search("[\u09e6-\u09ef]", text)

    def test_design_overflows_the_default_geometry(self, tmp_path, data_dir, capsys):
        # ROADMAP item 2: the left hand gets 33 letters for 30 positions
        out = tmp_path / "out"
        assert main(["design", *BANGLA, "--output-dir", str(out)]) == 1
        golden = self.golden(data_dir, "design", "stderr.txt").read_text(encoding="utf-8")
        assert capsys.readouterr().err == golden
        assert not out.exists()

    @pytest.mark.parametrize("tie_policy", ["left-biased", "balanced"])
    def test_design_on_a_wider_geometry_matches_golden_files(self, golden_runs, tie_policy):
        # 36 positions a hand; both hands spill over the 18 base positions.
        # test_reference.py compares the run's bytes with design-wide/
        layout = load_layout(golden_runs / f"bangla-design-{tie_policy}" / "layout.json")
        by_id = layout.geometry.by_id()
        shift = {by_id[pid].hand for pid in layout.mapping.values()
                 if by_id[pid].layer == "shift"}
        assert shift == {"left", "right"}


class TestMetamorphic:
    """Outputs that must move, or stay, as the definitions say when the
    inputs are changed in a known way."""

    def test_permuted_manifest_changes_only_its_hash(self, tmp_path, data_dir):
        # the corpus is the set of its files: listing them in another order
        # may change no output byte, trace floats included
        letters = string.ascii_lowercase
        texts = [random_text(letters, 3000, 60 + i, weights=zipf_weights(26),
                             space_prob=0.15, junk="0.,", junk_prob=0.02) for i in range(4)]
        alpha, manifest = write_corpus(tmp_path, texts, letters)
        names = manifest.read_text(encoding="utf-8").splitlines()
        partial = str(data_dir / "sample" / "layouts" / "partial.json")
        runs = [tmp_path / "listed", tmp_path / "permuted"]
        for out, listing in zip(runs, (names, [names[i] for i in (2, 0, 3, 1)])):
            manifest.write_text("\n".join(listing) + "\n", encoding="utf-8")
            corpus = ["--alphabet", str(alpha), "--manifest", str(manifest)]
            assert main(["stats", *corpus, "--output-dir", str(out / "stats")]) == 0
            assert main(["design", *corpus, "--output-dir", str(out / "design")]) == 0
            assert main(["mine", *corpus, "--min-support", "0.01", "--min-confidence", "0.1",
                         "--output-dir", str(out / "mine")]) == 0
            # both score the layout designed from the files as first listed
            assert main(["evaluate", *corpus, "--output-dir", str(out / "evaluate"),
                         str(runs[0] / "design" / "layout.json"), partial]) == 0
        files = sorted(p.relative_to(runs[0]) for p in runs[0].rglob("*") if p.is_file())
        assert files == sorted(p.relative_to(runs[1]) for p in runs[1].rglob("*") if p.is_file())
        for name in files:
            listed, permuted = (run / name for run in runs)
            if name.name != "run_manifest.json":
                assert listed.read_bytes() == permuted.read_bytes(), name
                continue
            listed, permuted = (json.loads(p.read_text(encoding="utf-8"))
                                for p in (listed, permuted))
            assert listed["inputs"].pop(str(manifest)) != permuted["inputs"].pop(str(manifest))
            assert listed == permuted

    def test_mirrored_hands_keep_switching_and_swap_loads(self, tmp_path, data_dir, golden_runs):
        # a designed and a partial layout and their mirrors, scored in one run
        originals = [golden_runs / "bangla-design-left-biased" / "layout.json",
                     data_dir / "bangla" / "layouts" / "partial.json"]
        mirrors = []
        for path in originals:
            layout = load_layout(path)
            positions = [p._replace(hand="right" if p.hand == "left" else "left")
                         for p in layout.geometry.positions]
            geometry = KeyboardGeometry(positions)
            mirror = tmp_path / f"mirrored-{path.stem}.json"
            save_geometry(geometry, tmp_path / f"mirrored-{path.stem}-geometry.json")
            save_layout(Layout(f"mirrored-{layout.name}", geometry, layout.mapping), mirror,
                        geometry_ref=f"mirrored-{path.stem}-geometry.json")
            mirrors.append(mirror)
        out = tmp_path / "out"
        paths = [*originals, *mirrors]
        assert main(["evaluate", *BANGLA, "--output-dir", str(out),
                     *map(str, paths)]) == 0
        reports = [read_report_json(out / f"report_{i:02d}_{p.stem}.json")
                   for i, p in enumerate(paths, start=1)]
        rows = {line.split("\t")[0]: line.split("\t")[1:] for line in
                (out / "comparison.tsv").read_text(encoding="utf-8").splitlines()[1:]}
        for original, mirror in zip(reports[:2], reports[2:]):
            assert original.left_load != original.right_load
            assert (mirror.hand_switching, mirror.left_load, mirror.right_load,
                    mirror.undetermined, mirror.total_chars) == (
                original.hand_switching, original.right_load, original.left_load,
                original.undetermined, original.total_chars)
            switching, left, right, *rest = rows[original.layout_name]
            assert rows[mirror.layout_name] == [switching, right, left, *rest]

    NGRAM_TSVS = ("monographs.tsv", "digraphs.tsv", "trigraphs.tsv")

    @staticmethod
    def bangla(data_dir):
        """The Bangla corpus files' texts, its letters, and its junk: the
        code points that are neither letters nor whitespace after NFC."""
        texts = [(data_dir / "bangla" / f"corpus{i}.txt").read_text(encoding="utf-8")
                 for i in (1, 2)]
        alphabet = json.loads((data_dir / "alphabets" / "bangla.json").read_text(encoding="utf-8"))
        letters = alphabet["letters"]
        nfc = unicodedata.normalize("NFC", "".join(texts))
        junk = sorted({ch for ch in nfc if ch not in letters and not ch.isspace()})
        return texts, letters, junk

    @staticmethod
    def stats(run, texts, letters):
        """`keymine stats` over `texts` as the files of one manifest; the
        output directory and the summary as a dict of strings."""
        run.mkdir()
        alpha, manifest = write_corpus(run, texts, letters, "bangla")
        out = run / "out"
        assert main(["stats", "--alphabet", str(alpha), "--manifest", str(manifest),
                     "--output-dir", str(out)]) == 0
        lines = (out / "summary.tsv").read_text(encoding="utf-8").splitlines()
        return out, dict(line.split("\t") for line in lines)

    @staticmethod
    def golden_summary(data_dir):
        path = TestBanglaGolden.golden(data_dir, "stats", "summary.tsv")
        return dict(line.split("\t") for line in path.read_text(encoding="utf-8").splitlines())

    def test_split_after_junk_keeps_tables_and_summary(self, tmp_path, data_dir):
        # a junk character already ends a run, so a file boundary right after
        # it cuts no n-gram; one at whitespace would, as whitespace does not
        texts, letters, junk = self.bangla(data_dir)
        after_junk = re.compile("(?<=[" + "".join(map(re.escape, junk)) + "])")
        pieces = [piece for text in texts for piece in after_junk.split(text) if piece]
        assert len(pieces) > 100
        out, summary = self.stats(tmp_path / "split", pieces, letters)
        for name in self.NGRAM_TSVS:
            golden = TestBanglaGolden.golden(data_dir, "stats", name)
            assert (out / name).read_bytes() == golden.read_bytes(), name
        assert summary == {**self.golden_summary(data_dir), "sources": str(len(pieces))}

    def test_files_joined_over_one_junk_character(self, tmp_path, data_dir):
        texts, letters, junk = self.bangla(data_dir)
        out, summary = self.stats(tmp_path / "joined", [junk[0].join(texts)], letters)
        for name in self.NGRAM_TSVS:
            golden = TestBanglaGolden.golden(data_dir, "stats", name)
            assert (out / name).read_bytes() == golden.read_bytes(), name
        golden = self.golden_summary(data_dir)
        assert summary == {**golden, "undetermined": str(int(golden["undetermined"]) + 1),
                           "sources": "1"}

    def test_permuted_alphabet_keeps_tables(self, tmp_path, data_dir):
        # the alphabet order breaks ties in the written order, not the counts
        texts, letters, _ = self.bangla(data_dir)
        permuted = list(letters)
        random.Random(7).shuffle(permuted)
        assert permuted != letters
        out, summary = self.stats(tmp_path / "permuted", texts, permuted)

        def table(path):
            lines = path.read_text(encoding="utf-8").splitlines()[1:]
            return Counter({ngram: int(count) for ngram, count, _ in
                            (line.split("\t") for line in lines)})

        for name in self.NGRAM_TSVS:
            golden = TestBanglaGolden.golden(data_dir, "stats", name)
            assert table(out / name) == table(golden), name
        assert summary == self.golden_summary(data_dir)

    # corpus -> (alphabet, design flags): Bangla overflows the default geometry
    CORPORA = {
        "sample": ("english.json", []),
        "bangla": ("bangla.json", ["--geometry", str(DATA / "bangla" / "layouts" / "geometry.json")]),
    }

    @staticmethod
    def tripled(tmp_path, corpus):
        """The corpus's manifest, and a manifest listing its files three times."""
        manifest = DATA / corpus / "manifest.txt"
        tripled = tmp_path / "tripled.txt"
        tripled.write_text("".join(f"{path}\n" for path in read_manifest(manifest) * 3),
                           encoding="utf-8")
        return manifest, tripled

    @pytest.mark.parametrize("tie_policy", ["left-biased", "balanced"])
    @pytest.mark.parametrize("corpus", ["sample", "bangla"])
    def test_corpus_listed_three_times_keeps_the_trace(self, tmp_path, corpus, tie_policy):
        # every count triples, and each affinity is a ratio of two counts
        alphabet, flags = self.CORPORA[corpus]
        outs = []
        for manifest in self.tripled(tmp_path, corpus):
            outs.append(tmp_path / manifest.stem)
            assert main(["design", "--alphabet", str(DATA / "alphabets" / alphabet),
                         "--manifest", str(manifest), "--tie-policy", tie_policy,
                         "--output-dir", str(outs[-1]), *flags]) == 0
        for name in ("trace.tsv", "layout.json"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name

    @pytest.mark.parametrize("tie_policy", ["left-biased", "balanced"])
    @pytest.mark.parametrize("corpus", ["sample", "bangla"])
    def test_reversed_runs_keep_the_trace(self, corpus, tie_policy):
        # the pair counts add both directions of a digraph; reversed on the
        # runs, not the text, which NFC would compose differently
        alphabet = AlphabetConfig.from_json(DATA / "alphabets" / self.CORPORA[corpus][0])
        files = reference.manifest_files(DATA / corpus / "manifest.txt")
        runs, _ = reference.letter_runs(map(reference.read, files), alphabet.letters)
        monographs = NGraphTable(n=1, counts=reference.ngrams(runs, 1), alphabet=alphabet)
        digraphs = []
        for each in (runs, [run[::-1] for run in runs]):
            counts = CorpusCounts(alphabet, 2)
            counts._add_runs(each)
            digraphs.append(counts.table())
        assert digraphs[0].counts != digraphs[1].counts
        traces = [assign_hands(monographs, table, tie_policy).trace for table in digraphs]
        assert traces[0] == traces[1]

    @pytest.mark.parametrize("corpus, support", [("sample", 475), ("bangla", 30)])
    def test_corpus_listed_three_times_mines_counts_times_three(self, tmp_path, capsys,
                                                                corpus, support):
        runs = []
        for manifest, count in zip(self.tripled(tmp_path, corpus), (support, 3 * support)):
            out = tmp_path / manifest.stem
            assert main(["mine", "--alphabet", str(DATA / "alphabets" / self.CORPORA[corpus][0]),
                         "--manifest", str(manifest), "--min-support", str(count),
                         "--min-confidence", "0.1", "--output-dir", str(out)]) == 0
            log = capsys.readouterr().out.splitlines()[:-1]  # the last line names `out`
            itemsets = [line.split("\t") for line in
                        (out / "frequent_itemsets.tsv").read_text(encoding="utf-8").splitlines()]
            runs.append((log, itemsets, (out / "rules.tsv").read_bytes()))
        (log, itemsets, rules), (log3, itemsets3, rules3) = runs
        assert log3 == log and log[-1].startswith("scans performed: ")
        assert len(itemsets) > 10 and rules.count(b"\n") > 1
        assert itemsets3 == [itemsets[0], *([items, str(3 * int(count)), support]
                                            for items, count, support in itemsets[1:])]
        assert rules3 == rules


class TestConfigAndManifest:
    def test_config_file_supplies_defaults(self, tmp_path, data_dir):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "transactions": str(data_dir / "market9.tsv"),
            "min_support": 2,
            "min_confidence": 0.7,
            "output_dir": str(tmp_path / "out"),
        }), encoding="utf-8")
        assert main(["mine", "--config", str(config)]) == 0
        golden = (data_dir / "golden" / "rules.tsv").read_bytes()
        assert (tmp_path / "out" / "rules.tsv").read_bytes() == golden

    def test_flag_overrides_config(self, tmp_path, data_dir):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "transactions": str(data_dir / "market9.tsv"),
            "min_support": 2,
            "min_confidence": 1.01,
        }), encoding="utf-8")
        out = tmp_path / "out"
        assert main(["mine", "--config", str(config), "--min-confidence", "0.7",
                     "--output-dir", str(out)]) == 0
        golden = (data_dir / "golden" / "rules.tsv").read_bytes()
        assert (out / "rules.tsv").read_bytes() == golden

    def test_flag_path_over_a_config_path(self, tmp_path, monkeypatch, capsys):
        # the flag wins and is the path opened, so the config is not named
        monkeypatch.chdir(tmp_path)
        alpha, manifest = write_corpus(tmp_path, ["abcabd"])
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"geometry": str(tmp_path / "other.json")}), encoding="utf-8")
        assert main(["design", "--config", str(config), "--alphabet", str(alpha),
                     "--manifest", str(manifest), "--geometry", "nosuch.json",
                     "--output-dir", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == "error: nosuch.json: No such file or directory\n"

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"min_supprt": 2}), encoding="utf-8")
        assert main(["mine", "--config", str(config), "--min-support", "2",
                     "--min-confidence", "0.5",
                     "--transactions", "unused.tsv"]) == 1
        assert "min_supprt" in capsys.readouterr().err

    def test_seed_is_not_an_option(self, tmp_path, data_dir):
        args = ["mine", "--transactions", str(data_dir / "market9.tsv"),
                "--min-support", "2", "--min-confidence", "0.7",
                "--output-dir", str(tmp_path / "out")]
        with pytest.raises(SystemExit):
            main(args + ["--seed", "1"])
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"seed": 1}), encoding="utf-8")
        assert main(args + ["--config", str(config)]) == 1

    def test_run_manifest_hashes_inputs(self, golden_runs, data_dir):
        import hashlib

        manifest = json.loads((golden_runs / "market9" / "run_manifest.json").read_bytes())
        digest = hashlib.sha256((data_dir / "market9.tsv").read_bytes()).hexdigest()
        assert manifest["inputs"][str(data_dir / "market9.tsv")] == digest
        assert manifest["command"] == "mine"
        assert "time" not in json.dumps(manifest).lower()

    # each command form with the exact files it reads: "{data}" is the data
    # directory, and "{tmp}" holds two layouts on one geometry, two reports
    # and a config file naming the sample corpus
    CORPUS = ["--alphabet", "{data}/alphabets/english.json",
              "--manifest", "{data}/sample/manifest.txt"]
    CORPUS_READS = ["{data}/alphabets/english.json", "{data}/sample/manifest.txt",
                    "{data}/sample/corpus.txt"]
    THRESHOLDS = ["--min-support", "2", "--min-confidence", "0.5"]

    @pytest.mark.parametrize("argv, reads", [
        (["stats", *CORPUS], CORPUS_READS),
        (["design", *CORPUS], CORPUS_READS),
        (["design", *CORPUS, "--geometry", "{tmp}/geometry.json"],
         [*CORPUS_READS, "{tmp}/geometry.json"]),
        (["evaluate", *CORPUS, "{tmp}/one.json", "{tmp}/two.json"],
         [*CORPUS_READS, "{tmp}/one.json", "{tmp}/two.json", "{tmp}/geometry.json"]),
        (["mine", *CORPUS, *THRESHOLDS], CORPUS_READS),
        (["mine", "--transactions", "{data}/market9.tsv", *THRESHOLDS], ["{data}/market9.tsv"]),
        (["compare-only", "{tmp}/report_a.json", "{tmp}/report_b.json"],
         ["{tmp}/report_a.json", "{tmp}/report_b.json"]),
        (["design", "--config", "{tmp}/config.json"], CORPUS_READS),
    ], ids=["stats", "design", "design-geometry", "evaluate-shared-geometry", "mine-corpus",
            "mine-transactions", "compare-only", "config"])
    def test_manifest_lists_the_bytes_each_command_read(self, tmp_path, data_dir, argv, reads):
        import hashlib

        layout = json.loads((data_dir / "sample" / "layouts" / "partial.json").read_bytes())
        for name in ("one", "two"):
            (tmp_path / f"{name}.json").write_text(json.dumps({**layout, "name": name}),
                                                   encoding="utf-8")
        save_geometry(default_geometry(), tmp_path / "geometry.json")
        for name in ("a", "b"):
            report = {"layout_name": name, "hand_switching": 3, "left_load": 2,
                      "right_load": 2, "undetermined": 0, "total_chars": 4}
            (tmp_path / f"report_{name}.json").write_text(json.dumps(report), encoding="utf-8")
        config = {"alphabet": str(data_dir / "alphabets" / "english.json"),
                  "manifest": str(data_dir / "sample" / "manifest.txt")}
        (tmp_path / "config.json").write_text(json.dumps(config), encoding="utf-8")

        def fill(text):
            return text.format(data=data_dir, tmp=tmp_path)

        out = tmp_path / "out"
        assert main([*map(fill, argv), "--output-dir", str(out)]) == 0
        inputs = json.loads((out / "run_manifest.json").read_bytes())["inputs"]
        assert inputs == {fill(path): hashlib.sha256(Path(fill(path)).read_bytes()).hexdigest()
                          for path in reads}

    def test_a_second_run_lists_only_its_own_inputs(self, tmp_path, data_dir):
        # two commands in one process: the second manifest holds none of the first's reads
        assert main(["stats", *ENGLISH, "--output-dir", str(tmp_path / "stats")]) == 0
        assert main(["mine", "--transactions", str(data_dir / "market9.tsv"), *self.THRESHOLDS,
                     "--output-dir", str(tmp_path / "mine")]) == 0
        inputs = json.loads((tmp_path / "mine" / "run_manifest.json").read_bytes())["inputs"]
        assert list(inputs) == [str(data_dir / "market9.tsv")]

    def test_no_command_imports_decimal(self, tmp_path, data_dir):
        # a fresh interpreter, since pytest itself imports `decimal`; `mine`
        # decides both thresholds on the digits of their texts, for a corpus
        # and for a transaction TSV, at a count and at a fraction; and no
        # command loads `array`: mining's level-2 count is a list
        alpha = data_dir / "alphabets" / "english.json"
        corpus = ["--alphabet", str(alpha), "--manifest", str(data_dir / "sample" / "manifest.txt")]
        baskets = ["--transactions", str(data_dir / "market9.tsv")]
        layout = data_dir / "sample" / "layouts" / "partial.json"
        commands = [["stats", *corpus], ["design", *corpus], ["evaluate", *corpus, str(layout)]]
        mines = [["mine", *source, "--min-support", support, "--min-confidence", "0.1"]
                 for source, support in [(corpus, "2"), (corpus, "0.01"), (baskets, "2"),
                                         (baskets, "0.3")]]
        for i, argv in enumerate(commands + mines):
            argv += ["--output-dir", str(tmp_path / f"{argv[0]}{i}")]
        script = (
            "import sys\n"
            "from keymine.cli import main\n"
            f"for argv in {commands + mines!r}:\n"
            "    assert main(argv) == 0, argv\n"
            "    assert 'array' not in sys.modules, ('array imported', argv)\n"
            "assert 'decimal' not in sys.modules, 'decimal imported'\n"
        )
        src = Path(keymine.__file__).resolve().parent.parent
        result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                                env={**os.environ, "PYTHONPATH": str(src)})
        assert result.returncode == 0, result.stderr

    def test_reruns_are_byte_identical_under_two_hash_seeds(self, tmp_path, data_dir):
        # str hashes, and so set and dict order, follow PYTHONHASHSEED; the
        # output files and the log (its output path aside) may not
        commands = {
            "mine": ["mine", "--transactions", str(data_dir / "baskets400.tsv"),
                     "--min-support", "0.04", "--min-confidence", "0.6"],
            "design": ["design", *BANGLA, *WIDE],
        }
        src = Path(keymine.__file__).resolve().parent.parent
        runs = {}
        for seed in ("1", "2"):
            for name, argv in commands.items():
                out = tmp_path / f"{name}-{seed}"
                result = subprocess.run(
                    [sys.executable, "-m", "keymine.cli", *argv, "--output-dir", str(out)],
                    capture_output=True, text=True,
                    env={**os.environ, "PYTHONPATH": str(src), "PYTHONHASHSEED": seed})
                assert result.returncode == 0, result.stderr
                files = {path.name: path.read_bytes() for path in sorted(out.iterdir())}
                runs[name, seed] = files, result.stdout.replace(str(out), "OUT")
        for name in commands:
            assert len(runs[name, "1"][0]) >= 3
            assert runs[name, "1"] == runs[name, "2"], name

    def test_no_command_imports_dataclasses(self, tmp_path, data_dir):
        # `dataclasses` pulls in `inspect`, `ast` and `dis`: a fifth of every
        # command's start-up; `hashlib` loads `_hashlib`, which maps OpenSSL's
        # libcrypto, where the interpreter's own SHA-256 serves the run
        # manifest. A fresh interpreter without site (-S), so that
        # no .pth file's imports are counted, runs --version and every command.
        # The package stands alone: with tests/ importable, no command loads
        # the test oracles, the reference model, conftest, or a keymine module from elsewhere
        alpha = data_dir / "alphabets" / "english.json"
        corpus = ["--alphabet", str(alpha), "--manifest", str(data_dir / "sample" / "manifest.txt")]
        layout = data_dir / "sample" / "layouts" / "partial.json"
        threshold = ["--min-support", "2", "--min-confidence", "0.5"]
        commands = [
            ["stats", *corpus],
            ["design", *corpus],
            ["evaluate", *corpus, str(layout)],
            ["mine", *corpus, *threshold],
            ["mine", "--transactions", str(data_dir / "market9.tsv"), *threshold],
            ["compare-only", str(tmp_path / "evaluate" / "report_01_partial.json")],
        ]
        for argv in commands:
            argv += ["--output-dir", str(tmp_path / argv[0])]
        script = (
            "import sys\n"
            "from keymine.cli import main\n"
            "try:\n"
            "    main(['--version'])\n"
            "except SystemExit as exc:\n"
            "    assert exc.code == 0, exc.code\n"
            f"assert all(main(argv) == 0 for argv in {commands!r})\n"
            "loaded = sorted({'dataclasses', 'inspect', 'hashlib', '_hashlib'} & set(sys.modules))\n"
            "assert not loaded, loaded\n"
            "import os\n"
            f"package = {str(Path(keymine.__file__).resolve().parent)!r}\n"
            "stray = sorted(name for name, module in sys.modules.items()\n"
            "               if name in ('oracles', 'reference', 'conftest') or name.split('.')[0] == 'keymine'\n"
            "               and os.path.dirname(os.path.realpath(module.__file__)) != package)\n"
            "assert not stray, stray\n"
        )
        src = Path(keymine.__file__).resolve().parent.parent
        path = os.pathsep.join([str(src), str(Path(__file__).resolve().parent)])
        result = subprocess.run([sys.executable, "-S", "-c", script], capture_output=True,
                                text=True, env={**os.environ, "PYTHONPATH": path})
        assert result.returncode == 0, result.stderr
        assert result.stdout.startswith("keymine ")
        assert (tmp_path / "compare-only" / "comparison.tsv").exists()

    def test_manifest_digest_falls_back_to_hashlib(self, tmp_path, data_dir):
        # on a build without the interpreter's own SHA-256 (both of its module
        # names blocked here) the manifest hashes through hashlib, to the same bytes
        corpus = ["stats", "--alphabet", str(data_dir / "alphabets" / "english.json"),
                  "--manifest", str(data_dir / "sample" / "manifest.txt")]
        assert main([*corpus, "--output-dir", str(tmp_path / "lean")]) == 0
        script = (
            "import sys\n"
            "sys.modules['_sha2'] = sys.modules['_sha256'] = None\n"
            "from keymine.cli import main\n"
            f"assert main({[*corpus, '--output-dir', str(tmp_path / 'fallback')]!r}) == 0\n"
            "assert 'hashlib' in sys.modules\n"
        )
        src = Path(keymine.__file__).resolve().parent.parent
        result = subprocess.run([sys.executable, "-S", "-c", script], capture_output=True,
                                text=True, env={**os.environ, "PYTHONPATH": str(src)})
        assert result.returncode == 0, result.stderr
        lean, fallback = (tmp_path / name / "run_manifest.json" for name in ("lean", "fallback"))
        assert fallback.read_bytes() == lean.read_bytes()
        assert len(json.loads(lean.read_bytes())["inputs"]) >= 3

    def test_missing_required_flag_reported(self, tmp_path, capsys):
        assert main(["stats", "--output-dir", str(tmp_path / "out")]) == 1
        assert "--alphabet" in capsys.readouterr().err

    @staticmethod
    def sample_argv(data_dir, command, out):
        argv = [command, "--alphabet", str(data_dir / "alphabets" / "english.json"),
                "--manifest", str(data_dir / "sample" / "manifest.txt"), "--output-dir", str(out)]
        return argv + (["--min-support", "0.01"] if command == "mine" else [])

    @pytest.mark.parametrize("command, key, value", [
        ("stats", "format", "xml"),
        ("design", "tie_policy", "coin-flip"),
        ("mine", "min_confidence", True),
        ("mine", "min_confidence", [0.5]),
    ], ids=["format-xml", "tie-policy-coin-flip", "min-confidence-true", "min-confidence-list"])
    def test_config_value_checked_as_flag(self, tmp_path, data_dir, capsys, command, key, value):
        # the flag exits through argparse; the same value from the config is
        # the config's fault, one error line naming the file and the key
        argv = self.sample_argv(data_dir, command, tmp_path / "out")
        config = tmp_path / "config.json"
        config.write_text(json.dumps({key: value}), encoding="utf-8")
        with pytest.raises(SystemExit):
            main(argv + [f"--{key.replace('_', '-')}={value}"])
        capsys.readouterr()
        assert main(argv + ["--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {config}: key {key!r}") and err.count("\n") == 1
        assert "--" not in err.removeprefix(f"error: {config}: ")  # names no flag
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["design", "mine"])
    def test_format_is_a_stats_flag_only(self, tmp_path, data_dir, capsys, command):
        argv = self.sample_argv(data_dir, command, tmp_path / "out") + ["--format", "json"]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments: --format json" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()
        stats = self.sample_argv(data_dir, "stats", tmp_path / "stats") + ["--format", "json"]
        assert main(stats) == 0
        assert (tmp_path / "stats" / "summary.json").is_file()

    def test_keys_of_other_commands_are_skipped(self, tmp_path, data_dir):
        out = tmp_path / "out"
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"min_support": 2, "name": 7}), encoding="utf-8")
        assert main(self.sample_argv(data_dir, "design", out) + ["--config", str(config)]) == 0
        manifest = json.loads((out / "run_manifest.json").read_text(encoding="utf-8"))
        assert manifest["parameters"]["name"] == "7"
        assert json.loads((out / "layout.json").read_text(encoding="utf-8"))["name"] == "7"

    def test_null_config_value_keeps_the_default(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        alpha, manifest = write_corpus(tmp_path, ["abab"], "ab")
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"output_dir": None, "format": None}), encoding="utf-8")
        assert main(["stats", "--alphabet", str(alpha), "--manifest", str(manifest),
                     "--config", str(config)]) == 0
        assert (tmp_path / "summary.tsv").is_file()
