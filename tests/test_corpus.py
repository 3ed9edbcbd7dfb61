"""Tokenization, n-graph counting, ranking, and corpus file handling."""

import json
import string
import unicodedata
from collections import Counter

import pytest

from keymine.corpus import (
    AlphabetConfig,
    IngestionError,
    NGraphTable,
    count_ngraphs,
    monograph_ranking,
    read_manifest,
    read_text,
    tokenize,
    write_ngraph_tsv,
)
from keymine.synth import random_text, zipf_weights

from conftest import join_streams

ABC = AlphabetConfig(name="abc", letters=("a", "b", "c"))
AB = AlphabetConfig(name="ab", letters=("a", "b"))


def reference_window_scan(text, alphabet, n):
    """Independent oracle: classify the raw text itself (NFC, skip
    whitespace, alphabet membership), then check every window explicitly."""
    chars = [(ch, ch in alphabet)
             for ch in unicodedata.normalize("NFC", text) if not ch.isspace()]
    counts = Counter()
    for i in range(len(chars) - n + 1):
        window = chars[i : i + n]
        if all(known for _, known in window):
            counts[tuple(ch for ch, _ in window)] += 1
    return counts


class TestAlphabetConfig:
    def test_membership_and_order(self):
        assert "a" in ABC and "z" not in ABC
        assert ABC.index_of("c") == 2

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            AlphabetConfig(name="x", letters=())

    def test_rejects_duplicate(self):
        with pytest.raises(ValueError, match="duplicate"):
            AlphabetConfig(name="x", letters=("a", "a"))

    def test_rejects_multi_code_point(self):
        with pytest.raises(ValueError, match="single code point"):
            AlphabetConfig(name="x", letters=("ab",))

    def test_rejects_whitespace(self):
        with pytest.raises(ValueError, match="whitespace"):
            AlphabetConfig(name="x", letters=("a", " "))

    def test_rejects_letters_that_decompose(self):
        # U+09DC is a composition exclusion: normalized text can never
        # contain it as a single code point, so it must be refused.
        with pytest.raises(ValueError, match="constituent"):
            AlphabetConfig(name="x", letters=("ড়",))

    def test_equal_on_name_and_letters(self):
        same = AlphabetConfig(name="abc", letters=tuple("abc"))
        assert same == ABC and hash(same) == hash(ABC) and len({same, ABC}) == 1
        assert ABC != AlphabetConfig(name="other", letters=("a", "b", "c"))
        assert ABC != AlphabetConfig(name="abc", letters=("c", "b", "a"))
        assert ABC != ("abc", ("a", "b", "c"))

    def test_from_json(self, tmp_path):
        path = tmp_path / "alpha.json"
        path.write_text(json.dumps({"name": "tiny", "letters": ["a", "b"]}), encoding="utf-8")
        alpha = AlphabetConfig.from_json(path)
        assert alpha.name == "tiny" and alpha.letters == ("a", "b")

    def test_from_json_invalid_json(self, tmp_path):
        path = tmp_path / "alpha.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(IngestionError, match="invalid JSON"):
            AlphabetConfig.from_json(path)

    def test_from_json_missing_keys(self, tmp_path):
        path = tmp_path / "alpha.json"
        path.write_text(json.dumps({"letters": ["a"]}), encoding="utf-8")
        with pytest.raises(IngestionError):
            AlphabetConfig.from_json(path)


class TestTokenize:
    def test_whitespace_removed(self):
        stream = tokenize("aba c", ABC)
        assert stream.runs == ["abac"]
        assert stream.undetermined_count == 0

    def test_digit_undetermined(self):
        stream = tokenize("a7b", AB)
        assert stream.runs == ["a", "b"]
        assert stream.undetermined_count == 1

    def test_runs_are_maximal(self):
        stream = tokenize("ab12 ba!b", AB)
        assert stream.runs == ["ab", "ba", "b"]
        assert stream.undetermined_count == 3

    def test_length_is_input_minus_whitespace(self):
        text = "ab\tc\nd  e"
        stream = tokenize(text, ABC)
        ws = sum(ch.isspace() for ch in text)
        assert stream.letter_count + stream.undetermined_count == len(text) - ws
        assert stream.undetermined_count == 2  # d, e

    def test_composed_and_decomposed_forms_agree(self):
        alpha = AlphabetConfig(name="acc", letters=("e", "é"))
        composed = tokenize("\u00e9", alpha)
        decomposed = tokenize("e\u0301", alpha)
        assert composed.runs == decomposed.runs == ["\u00e9"]
        assert composed.undetermined_count == decomposed.undetermined_count == 0

    def test_counts_letter_and_undetermined(self):
        stream = tokenize("ab12 ab", AB)
        assert stream.letter_count == 4
        assert stream.undetermined_count == 2

    def test_regex_metacharacters_are_plain_letters(self):
        # unescaped, "a-z" would be a range holding m and "^" a negation
        alpha = AlphabetConfig(name="meta", letters=("a", "-", "z", "]", "^", "\\"))
        stream = tokenize("a]^-\\zm_[a", alpha)
        assert stream.runs == ["a]^-\\z", "a"]
        assert stream.undetermined_count == 3  # m, _, [

    def test_unicode_whitespace_dropped_not_undetermined(self):
        # no-break space, ideographic space, line separator
        stream = tokenize("a\u00a0b\u3000a\u2028b", AB)
        assert stream.runs == ["abab"]
        assert stream.undetermined_count == 0

    def test_decomposed_bangla_vowel_sign_is_one_letter(self, data_dir):
        bangla = AlphabetConfig.from_json(data_dir / "alphabets" / "bangla.json")
        # KA + E sign + AA sign composes to KA + O sign (U+09CB) under NFC
        stream = tokenize("\u0995\u09c7\u09be", bangla)
        assert stream.runs == ["\u0995\u09cb"]
        assert stream.undetermined_count == 0
        assert count_ngraphs(stream, 1).counts[("\u09cb",)] == 1


class TestReadText:
    def test_reads_utf8(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("abc", encoding="utf-8")
        assert read_text(path) == "abc"

    def test_invalid_utf8_names_byte_offset(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_bytes(b"ab\xff\xfecd")
        with pytest.raises(IngestionError, match="byte offset 2"):
            read_text(path)


class TestCountNgraphs:
    def test_digraph_sliding_window(self):
        stream = tokenize("abab", AB)
        table = count_ngraphs(stream, 2)
        assert table.counts == {("a", "b"): 2, ("b", "a"): 1}
        assert table.total == 3

    def test_undetermined_breaks_adjacency(self):
        stream = tokenize("a7b", AB)
        table = count_ngraphs(stream, 2)
        assert table.counts == {} and table.total == 0

    def test_monographs_count_letters_only(self):
        stream = tokenize("a7a b", AB)
        table = count_ngraphs(stream, 1)
        assert table.counts == {("a",): 2, ("b",): 1}

    def test_invalid_order_rejected(self):
        stream = tokenize("ab", AB)
        with pytest.raises(ValueError):
            count_ngraphs(stream, 4)

    def test_empty_stream_empty_table(self):
        table = count_ngraphs(tokenize("", AB), 2)
        assert table.total == 0

    @pytest.mark.parametrize("seed", range(3))
    def test_trigraphs_match_reference_scan(self, seed):
        letters = string.ascii_lowercase[:6]
        alpha = AlphabetConfig(name="six", letters=tuple(letters))
        text = random_text(letters, 5000, seed, space_prob=0.1, junk="0189", junk_prob=0.05)
        stream = tokenize(text, alpha)
        for n in (1, 2, 3):
            table = count_ngraphs(stream, n)
            assert table.counts == reference_window_scan(text, alpha, n)
            assert table.total == sum(table.counts.values())

    def test_monograph_total_equals_letter_count(self):
        text = random_text("abc", 800, 5, junk="7", junk_prob=0.2)
        stream = tokenize(text, ABC)
        assert count_ngraphs(stream, 1).total == stream.letter_count

    def test_contiguous_digraph_total(self):
        # no undetermined tokens, single source: digraphs = letters - 1
        text = random_text("abc", 500, 9)
        stream = tokenize(text, ABC)
        assert count_ngraphs(stream, 2).total == stream.letter_count - 1


class TestMonographRanking:
    def test_singleton(self):
        table = count_ngraphs(tokenize("a", AB), 1)
        assert monograph_ranking(table) == [("a", 1, 100.0)]

    def test_descending_with_alphabet_tiebreak(self):
        alpha = AlphabetConfig(name="x", letters=("z", "m", "a"))
        table = count_ngraphs(tokenize("zzmaam", alpha), 1)
        # m and a tie at 2; alphabet order puts z, then m before a
        assert [(r.letter, r.count) for r in monograph_ranking(table)] == [
            ("z", 2), ("m", 2), ("a", 2)]

    def test_empty_table(self):
        assert monograph_ranking(count_ngraphs(tokenize("", AB), 1)) == []

    def test_requires_monograph_table(self):
        with pytest.raises(ValueError):
            monograph_ranking(count_ngraphs(tokenize("ab", AB), 2))

    def test_top_count_percentage_inversion(self):
        # a count of 74300 out of 821914 letters works out to 9.039875%
        counts = Counter({("a",): 74300, ("b",): 821914 - 74300})
        table = NGraphTable(n=1, counts=counts, alphabet=AB)
        row = next(r for r in monograph_ranking(table) if r.count == 74300)
        assert row.percentage == pytest.approx(9.039875, abs=1e-4)

    @pytest.mark.parametrize("seed", range(5))
    def test_percentages_sum_to_100(self, seed):
        letters = string.ascii_lowercase
        alpha = AlphabetConfig(name="en", letters=tuple(letters))
        text = random_text(letters, 3000, seed, weights=zipf_weights(26))
        ranking = monograph_ranking(count_ngraphs(tokenize(text, alpha), 1))
        assert sum(r.percentage for r in ranking) == pytest.approx(100.0, abs=1e-6)

    def test_determinism(self):
        text = random_text("abc", 1000, 3)
        a = count_ngraphs(tokenize(text, ABC), 2)
        b = count_ngraphs(tokenize(text, ABC), 2)
        assert a.counts == b.counts


class TestMergeAndManifest:
    def test_merge_is_additive(self):
        s1, s2 = tokenize("abab", AB), tokenize("bb", AB)
        merged = count_ngraphs(join_streams(s1, s2), 1)
        assert merged.counts == {("a",): 2, ("b",): 4}
        assert merged.total == 6

    def test_no_cross_file_digraphs(self):
        # "ab" and "ba" in one stream as separate runs: no (b,b) window
        s1, s2 = tokenize("ab", AB), tokenize("ba", AB)
        merged = count_ngraphs(join_streams(s1, s2), 2)
        assert merged.counts == {("a", "b"): 1, ("b", "a"): 1}

    def test_manifest_relative_paths_and_comments(self, tmp_path):
        (tmp_path / "sub").mkdir()
        (tmp_path / "sub" / "one.txt").write_text("ab", encoding="utf-8")
        manifest = tmp_path / "manifest.txt"
        manifest.write_text("# comment line\n\nsub/one.txt\n", encoding="utf-8")
        files = read_manifest(manifest)
        assert files == [tmp_path / "sub" / "one.txt"]

    def test_ngraph_tsv_format(self, tmp_path):
        table = count_ngraphs(tokenize("abab", AB), 2)
        path = tmp_path / "digraphs.tsv"
        write_ngraph_tsv(table, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "ngram\tcount\tpercentage"
        assert lines[1] == "a+b\t2\t66.666667"
