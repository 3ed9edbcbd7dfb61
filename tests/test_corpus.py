"""Letter runs, n-graph counting, ranking, and corpus file handling."""

import hashlib
import json
import random
import re
import string
import sys
import tracemalloc
import unicodedata
from collections import Counter
from itertools import repeat

import pytest

from keymine import corpus
from keymine.corpus import (
    _BATCH,
    AlphabetConfig,
    CorpusCounts,
    IngestionError,
    NGraphTable,
    derive_lower,
    digests,
    read_manifest,
    read_text,
    write_json,
    write_lines,
    write_ngraph_tsv,
)
from keymine.layout import assign_hands
from keymine.synth import random_text, zipf_weights

import reference
from conftest import counts_of, design_tables

ABC = AlphabetConfig(name="abc", letters=("a", "b", "c"))
AB = AlphabetConfig(name="ab", letters=("a", "b"))
AZ = AlphabetConfig(name="az", letters=tuple(string.ascii_lowercase))
# every code point for which `str.isspace()` holds
WHITESPACE = "".join(re.findall(r"\s", "".join(map(chr, range(sys.maxunicode + 1)))))


class TestAlphabetConfig:
    def test_membership_and_order(self):
        assert "a" in ABC.letters and "z" not in ABC.letters
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
        with pytest.raises(ValueError, match=r"\(U\+09A1 U\+09BC\) under NFC; .*constituent"):
            AlphabetConfig(name="x", letters=("ড়",))

    @pytest.mark.parametrize("letter, nfc", [("\u2126", "\u03a9"), ("\u212b", "\u00c5"),
                                             ("\u037e", ";"), ("\uf900", "\u8c48")],
                             ids=["ohm", "angstrom", "greek-question-mark", "cjk-compatibility"])
    def test_rejects_letters_that_nfc_replaces(self, letter, nfc):
        # NFC singletons: normalized text holds only the code point NFC gives
        with pytest.raises(ValueError) as info:
            AlphabetConfig(name="x", letters=("a", letter, "b"))
        assert str(info.value) == (f"alphabet entry {letter!r} (U+{ord(letter):04X}) normalizes to "
                                   f"{nfc!r} (U+{ord(nfc):04X}) under NFC; list that code point "
                                   "instead")

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

    def test_from_json_refuses_more_than_65535_letters(self, tmp_path):
        # letter codes are 16-bit; 65,536 distinct letters beyond the BMP
        path = tmp_path / "huge.json"
        letters = nfc_letters(0x10000, 65_536)
        path.write_text(json.dumps({"name": "huge", "letters": letters}), encoding="utf-8")
        with pytest.raises(IngestionError) as info:
            AlphabetConfig.from_json(path)
        message = str(info.value)
        assert message.startswith(f"{path}: alphabet has 65536 letters; at most 65535")
        assert "\n" not in message
        assert len(AlphabetConfig(name="most", letters=tuple(letters[:65_535])).letters) == 65_535


class TestTokenize:
    """A piece is normalized, stripped of whitespace and cut into maximal
    letter runs (`_letter_runs`); `CorpusCounts` counts every other code
    point left as undetermined."""

    @staticmethod
    def cut(text, alpha):
        """The runs `_letter_runs` cuts from a text, and the undetermined
        count of the text fed to `CorpusCounts` as one source."""
        return corpus._letter_runs(text, alpha)[1], counts_of(alpha, 2, text).undetermined_count

    def test_whitespace_removed(self):
        assert self.cut("aba c", ABC) == (["abac"], 0)

    def test_digit_undetermined(self):
        assert self.cut("a7b", AB) == (["a", "b"], 1)

    def test_runs_are_maximal(self):
        assert self.cut("ab12 ba!b", AB) == (["ab", "ba", "b"], 3)

    def test_length_is_input_minus_whitespace(self):
        text = "ab\tc\nd  e"
        counts = counts_of(ABC, 2, text)
        letters = derive_lower(counts.table(), counts.ends).total
        ws = sum(ch.isspace() for ch in text)
        assert letters + counts.undetermined_count == len(text) - ws
        assert counts.undetermined_count == 2  # d, e

    def test_composed_and_decomposed_forms_agree(self):
        alpha = AlphabetConfig(name="acc", letters=("e", "é"))
        assert self.cut("\u00e9", alpha) == self.cut("e\u0301", alpha) == (["\u00e9"], 0)
        # a mark after whitespace does not compose with the letter before it
        for space in WHITESPACE:
            assert self.cut(f"e{space}\u0301", alpha) == (["e"], 1)

    def test_counts_letter_and_undetermined(self):
        mono, _, _ = design_tables(AB, "ab12 ab")
        assert mono.total == 4
        assert counts_of(AB, 2, "ab12 ab").undetermined_count == 2

    def test_regex_metacharacters_are_plain_letters(self):
        # unescaped, "a-z" would be a range holding m and "^" a negation
        alpha = AlphabetConfig(name="meta", letters=("a", "-", "z", "]", "^", "\\"))
        assert self.cut("a]^-\\zm_[a", alpha) == (["a]^-\\z", "a"], 3)  # m, _, [

    def test_unicode_whitespace_dropped_not_undetermined(self):
        # no-break space, ideographic space, line separator
        assert self.cut("a\u00a0b\u3000a\u2028b", AB) == (["abab"], 0)

    @pytest.mark.parametrize("code", range(128), ids=lambda code: f"U+{code:04X}")
    def test_each_ascii_code_point_between_two_letters(self, code):
        # an ASCII piece drops its whitespace with one translate
        text = f"a{chr(code)}b"
        runs, undetermined = reference.letter_runs([text], AZ.letters)
        assert self.cut(text, AZ) == (runs, undetermined)
        assert counts_of(AZ, 2, text).table().counts == reference.ngrams(runs, 2)

    def test_ascii_text_without_whitespace_is_not_copied(self):
        # a long run read whole: translate would hold a second copy of it
        run = "ab" * 100_000
        assert corpus._letter_runs(run, AB)[0] is run
        assert corpus._letter_runs(run + "\x1f", AB) == (run, [run])

    def test_ascii_whitespace_beside_a_non_ascii_code_point(self):
        # one non-ASCII code point sends the piece through split and join
        spaces = "".join(chr(c) for c in range(128) if chr(c).isspace())
        assert len(spaces) == 10
        text = "".join(f"{letter}{space}" for letter, space in zip("abcdefghij", spaces)) + "k\u00e9l"
        runs, undetermined = reference.letter_runs([text], AZ.letters)
        assert runs == ["abcdefghijk", "l"] and undetermined == 1
        assert self.cut(text, AZ) == (runs, undetermined)
        assert counts_of(AZ, 2, text).table().counts == reference.ngrams(runs, 2)

    def test_decomposed_bangla_vowel_sign_is_one_letter(self, data_dir):
        bangla = AlphabetConfig.from_json(data_dir / "alphabets" / "bangla.json")
        # KA + E sign + AA sign composes to KA + O sign (U+09CB) under NFC
        assert self.cut("\u0995\u09c7\u09be", bangla) == (["\u0995\u09cb"], 0)
        mono, _, _ = design_tables(bangla, "\u0995\u09c7\u09be")
        assert mono.counts[("\u09cb",)] == 1


# letters that NFC composes or reorders, precomposed forms among them; U+0323
# and U+09D7 are left out, so they are undetermined unless NFC composes them
NFC_LETTERS = ("a", "e", "\u00e1", "\u00e9", "\u1ea1", "\u0301", "\u0995", "\u09c7", "\u09be",
               "\u09cb", "\u09cc", "\u1100", "\u1161", "\u11a8", "\uac00", "\uac01")
NFC_EDGES = {
    "mark-after-space": "e \u0301",
    "aa-sign-after-space": "\u09c7 \u09be",
    "aa-sign-composes": "\u09c7\u09be",
    "aa-sign-after-en-quad": "\u09c7\u2000\u09be",  # U+2000 is U+2002 under NFC
    "em-quad-between-words": "ae\u2001\u0301a\u2001\u09c7\u09d7",  # U+2001 is U+2003
    "every-space-before-a-mark": "".join(f"e{space}\u0301\u09c7{space}\u09be"
                                         for space in WHITESPACE),
    "jamo-across-space": "\u1100 \u1161",
    "jamo-compose": "\u1100\u1161\u11a8",
    "marks-reorder": "a\u0301\u0323",
    "marks-across-space": "a\u0301 \u0323",
    "no-whitespace": "\u0995\u09c7\u09be\u0995\u09c7\u09d7e\u0301a\u0323",
    "whitespace-only": "\u3000\u2001 \x85\u2028\t",
    "leading-and-trailing-whitespace": "\u2003\u0995\u09c7\u09be e\u0301\u3000",
    "astral-letter-then-mark": "\U0001d49c\u0301 \U0001d49c \u0301a\U0001d49c\u0323",
}


class TestWordByWordNfc:
    """A non-ASCII piece is normalized word by word. That equals NFC of the
    whole piece with its whitespace dropped because every whitespace code
    point is a starter whose NFD and NFC hold whitespace only, and no other
    code point's NFD or NFC holds whitespace: so no composite holds a
    whitespace code point, a combining mark never composes with a starter
    across one, and canonical reordering never moves a mark past one."""

    def test_whitespace_is_an_nfc_boundary(self):
        # against the running interpreter's Unicode data, over every code point
        assert WHITESPACE.isspace() and all(map(WHITESPACE.__contains__, " \u2000\u3000\x85"))
        for space in WHITESPACE:
            assert unicodedata.combining(space) == 0, f"U+{ord(space):04X}"
            for form in ("NFD", "NFC"):
                assert unicodedata.normalize(form, space).isspace(), f"U+{ord(space):04X}"
        others = re.sub(r"\s", "", "".join(map(chr, range(sys.maxunicode + 1))))
        for form in ("NFD", "NFC"):
            if re.search(r"\s", "".join(map(unicodedata.normalize, repeat(form), others))):
                found = [f"U+{ord(ch):04X}" for ch in others
                         if re.search(r"\s", unicodedata.normalize(form, ch))]
                pytest.fail(f"{form} of {', '.join(found)} holds whitespace")

    @pytest.mark.parametrize("astral", [False, True], ids=["bmp", "numbered"])
    @pytest.mark.parametrize("text", NFC_EDGES.values(), ids=NFC_EDGES)
    def test_edge_cases_match_nfc_of_the_whole(self, text, astral):
        # the reference normalizes the whole text and then drops whitespace
        alpha = AlphabetConfig(name="nfc", letters=(*NFC_LETTERS, *["\U0001d49c"] * astral))
        assert_text_digraphs_match_reference(alpha, text)
        runs, undetermined = reference.letter_runs([text], alpha.letters)
        # as `add_file` feeds it, in pieces that each end at whitespace
        pieces = re.split(r"(?<=\s)", text)
        for n in (2, 3):
            counts = counts_of(alpha, n, pieces)
            assert counts.table().counts == reference.ngrams(runs, n)
            assert derive_lower(counts.table(), counts.ends).counts == reference.ngrams(runs, n - 1)
            assert counts.undetermined_count == undetermined


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

    def test_drops_one_leading_byte_order_mark(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_bytes("\ufeff\ufeffa\ufeff".encode("utf-8"))
        assert read_text(path) == "\ufeffa\ufeff"


class TestWriters:
    def test_lines_end_in_lf(self, tmp_path):
        path = tmp_path / "out.tsv"
        write_lines(path, ["a\tb", "\u0995\r", ""])
        assert path.read_bytes() == "a\tb\n\u0995\r\n\n".encode("utf-8")

    def test_json_keeps_non_ascii_and_ends_in_lf(self, tmp_path):
        path = tmp_path / "out.json"
        write_json(path, {"b": ["\u0995"], "a": 1.5}, sort_keys=True)
        assert path.read_bytes() == '{\n  "a": 1.5,\n  "b": [\n    "\u0995"\n  ]\n}\n'.encode("utf-8")

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_json_refuses_non_finite(self, tmp_path, value):
        with pytest.raises(ValueError):
            write_json(tmp_path / "out.json", {"a": value})


class TestCountNgraphs:
    """The n-gram tables `CorpusCounts` counts, and the monographs derived
    from its digraphs."""

    def test_digraph_sliding_window(self):
        table = counts_of(AB, 2, "abab").table()
        assert table.counts == {("a", "b"): 2, ("b", "a"): 1}
        assert table.total == 3

    def test_undetermined_breaks_adjacency(self):
        table = counts_of(AB, 2, "a7b").table()
        assert table.counts == {} and table.total == 0

    def test_monographs_count_letters_only(self):
        table, _, _ = design_tables(AB, "a7a b")
        assert table.counts == {("a",): 2, ("b",): 1}

    def test_invalid_order_rejected(self):
        # every command counts at order 2 or 3 and derives the tables below
        for n in (1, 4):
            with pytest.raises(ValueError, match=f"n must be 2 or 3, got {n}"):
                CorpusCounts(AB, n)

    def test_empty_stream_empty_table(self):
        table = counts_of(AB, 2, "").table()
        assert table.total == 0

    @pytest.mark.parametrize("seed", range(3))
    def test_trigraphs_match_reference_scan(self, seed):
        letters = string.ascii_lowercase[:6]
        alpha = AlphabetConfig(name="six", letters=tuple(letters))
        text = random_text(letters, 5000, seed, space_prob=0.1, junk="0189", junk_prob=0.05)
        runs, undetermined = reference.letter_runs([text], letters)
        for n in (2, 3):
            counts = counts_of(alpha, n, text)
            assert counts.undetermined_count == undetermined
            for table in (counts.table(), derive_lower(counts.table(), counts.ends)):
                assert table.counts == reference.ngrams(runs, table.n)
                assert table.total == sum(table.counts.values())

    def test_monograph_total_equals_letter_count(self):
        text = random_text("abc", 800, 5, junk="7", junk_prob=0.2)
        runs, _ = reference.letter_runs([text], ABC.letters)
        mono, _, _ = design_tables(ABC, text)
        assert mono.total == sum(map(len, runs))

    def test_contiguous_digraph_total(self):
        # no undetermined tokens, single source: digraphs = letters - 1
        text = random_text("abc", 500, 9)
        runs, _ = reference.letter_runs([text], ABC.letters)
        assert counts_of(ABC, 2, text).table().total == sum(map(len, runs)) - 1


def nfc_letters(start, count):
    """`count` code points from `start` up that an alphabet accepts: no
    surrogate or whitespace, unchanged by NFC."""
    found = []
    c = start
    while len(found) < count:
        ch = chr(c)
        if not 0xD800 <= c < 0xE000 and not ch.isspace() and unicodedata.normalize("NFC", ch) == ch:
            found.append(ch)
        c += 1
    return found


def assert_digraphs_match_reference(alpha, runs):
    """The digraphs of `CorpusCounts` fed these runs raw equal the reference
    model's window count over the runs, and their keys hold the alphabet's
    own letter objects."""
    counts = CorpusCounts(alpha, 2)
    counts._add_runs(runs)
    table = counts.table().counts
    assert table == reference.ngrams(runs, 2)
    own = {id(ch) for ch in alpha.letters}
    assert all(id(a) in own and id(b) in own for a, b in table)


def assert_text_digraphs_match_reference(alpha, text):
    """A text fed whole to `CorpusCounts` as one source gives the reference
    model's runs, undetermined count and digraph table."""
    runs, undetermined = reference.letter_runs([text], alpha.letters)
    assert corpus._letter_runs(text, alpha)[1] == runs
    counts = counts_of(alpha, 2, text)
    assert counts.undetermined_count == undetermined
    assert counts.table().counts == reference.ngrams(runs, 2)


class TestPackedDigraphCount:
    """Digraphs are counted as packed pairs of 16-bit letter codes in
    batches of `_BATCH` letters; each case must equal the reference model's
    window count."""

    def test_a_to_z(self):
        letters = string.ascii_lowercase
        alpha = AlphabetConfig(name="az", letters=tuple(letters))
        text = random_text(letters, 20_000, 4, weights=zipf_weights(26),
                           space_prob=0.1, junk="0189.,", junk_prob=0.02)
        assert_text_digraphs_match_reference(alpha, text)

    @pytest.mark.parametrize("seed", range(3))
    def test_bangla_with_vowel_signs_composed_by_nfc(self, data_dir, seed):
        alpha = AlphabetConfig.from_json(data_dir / "alphabets" / "bangla.json")
        # E sign + AA sign composes to O sign, E sign + AU length mark to AU sign
        pool = [*alpha.letters, "\u09c7\u09be", "\u09c7\u09d7"]
        text = random_text(pool, 20_000, seed, space_prob=0.12, junk="।,০১", junk_prob=0.01)
        assert "\u09cb" in unicodedata.normalize("NFC", text)
        assert_text_digraphs_match_reference(alpha, text)

    def test_cjk(self):
        letters = [chr(0x4E00 + i) for i in range(400)]
        alpha = AlphabetConfig(name="cjk", letters=tuple(letters))
        text = random_text(letters, 30_000, 2, junk="。、", junk_prob=0.01)
        assert_text_digraphs_match_reference(alpha, text)

    def test_letters_beyond_the_bmp(self):
        # one letter past U+FFFF numbers every letter 1..|A|
        letters = [*"abc", *(chr(0x20000 + i) for i in range(40)), chr(0x1F600)]
        alpha = AlphabetConfig(name="astral", letters=tuple(letters))
        assert alpha._codes is not None
        text = random_text(letters, 20_000, 6, space_prob=0.05, junk="\U00020100z", junk_prob=0.02)
        assert_text_digraphs_match_reference(alpha, text)

    @pytest.mark.parametrize("first, astral", [(0, False), (1, False), (0, True)],
                             ids=["from-U+0000", "from-U+0001", "from-U+0000-numbered"])
    def test_code_points_up_to_the_alphabet_size(self, first, astral):
        # codes and letters overlap; from U+0000 the run separator cannot be
        # U+0000, and when letters are numbered it must still become code 0
        letters = nfc_letters(first, 120) + [chr(0x20000)] * astral
        alpha = AlphabetConfig(name="low", letters=tuple(letters))
        assert alpha._separator not in alpha.letters and (alpha._codes is not None) == astral
        text = random_text(letters, 20_000, 8, space_prob=0.05, junk="\u0100\u0101", junk_prob=0.02)
        assert_text_digraphs_match_reference(alpha, text)

    def test_codes_in_the_surrogate_range(self):
        # 56,000 letters, the last one beyond the BMP, so letters are numbered
        # and codes 0xD800..0xDFFF (55,296 and up) are lone UTF-16 surrogates
        letters = [*nfc_letters(0x100, 55_999), chr(0x20000)]
        alpha = AlphabetConfig(name="wide", letters=tuple(letters))
        assert alpha._codes is not None and len(alpha.letters) > 0xD800
        rng = random.Random(12)
        tail = letters[0xD800 - 200 :]
        runs = ["".join(rng.choices(tail, k=rng.randint(1, 60))) for _ in range(400)]
        assert_digraphs_match_reference(alpha, runs)

    def test_empty_stream(self):
        assert counts_of(AB, 2, "").table().counts == {}
        assert_digraphs_match_reference(AB, [])

    def test_runs_of_one_letter(self):
        assert_digraphs_match_reference(ABC, ["a", "b", "c", "a"] * 3000)

    def test_doubled_letters(self):
        assert_digraphs_match_reference(ABC, ["aa", "bbbb", "abba", "cc", "aaaaa"] * 1000)

    @pytest.mark.parametrize("extra", [-1, 0, 1, 2, _BATCH - 1, _BATCH, 2 * _BATCH + 3])
    def test_one_run_longer_than_a_batch(self, extra):
        rng = random.Random(extra)
        run = "".join(rng.choices("abc", k=_BATCH + extra))
        assert_digraphs_match_reference(ABC, [run])
        assert_digraphs_match_reference(ABC, ["ab", run, "ca"])

    @pytest.mark.parametrize("seed", range(8))
    def test_runs_across_batch_edges(self, seed):
        # run lengths around the batch size and its halves, so batches end on
        # every offset and both letter parities
        rng = random.Random(seed)
        sizes = [_BATCH // 2 - 1, _BATCH // 2, _BATCH // 2 + 1, _BATCH - 2, _BATCH - 1, 1, 2, 3]
        runs = ["".join(rng.choices("abc", k=rng.choice(sizes) + rng.randint(-2, 2) % 3))
                for _ in range(40)]
        assert_digraphs_match_reference(ABC, runs)

    def test_one_long_run_in_bounded_memory(self, data_dir):
        # the count reads the run in pieces of a batch, never copying it whole
        alpha = AlphabetConfig.from_json(data_dir / "alphabets" / "bangla.json")
        run = "".join(random.Random(3).choices(alpha.letters, k=1_000_000))
        counts = CorpusCounts(alpha, 2)
        tracemalloc.start()
        try:
            counts._add_runs([run])
            table = counts.table()
            result, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert table.total == len(run) - 1
        assert peak - result < 1_000_000

    def test_ascii_piece_in_bounded_memory(self):
        # whitespace goes with one translate, not a list of one string per
        # word: on this piece the word list peaked at 525 KB, one translate
        # at 173 KB
        rng = random.Random(5)
        piece = "".join(" " if rng.random() < 0.15 else rng.choice(string.ascii_lowercase)
                        for _ in range(1 << 16))
        counts = CorpusCounts(AZ, 2)
        counts.add_text(piece[:100])  # the counter's first keys
        tracemalloc.start()
        try:
            counts.add_text(piece)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert counts.undetermined_count == 0
        assert peak < 4 * len(piece)


def assert_derives_each_lower_order(alpha, *texts):
    """The reference model is the oracle: for n = 2 and 3, the running counts
    of the texts, each one source, must give its table at order n, and
    deriving from them its table at order n - 1."""
    runs, _ = reference.letter_runs(texts, alpha.letters)
    for n in (2, 3):
        counts = counts_of(alpha, n, *texts)
        assert counts.table() == NGraphTable(n, reference.ngrams(runs, n), alpha)
        assert derive_lower(counts.table(), counts.ends) == NGraphTable(
            n - 1, reference.ngrams(runs, n - 1), alpha)


class TestDeriveLower:
    @pytest.mark.parametrize("alphabet, manifest", [
        ("english.json", "sample/manifest.txt"),
        ("bangla.json", "bangla/manifest.txt"),
    ], ids=["sample", "bangla"])
    def test_checked_in_corpora(self, data_dir, alphabet, manifest):
        alpha = AlphabetConfig.from_json(data_dir / "alphabets" / alphabet)
        assert_derives_each_lower_order(
            alpha, *(read_text(path) for path in read_manifest(data_dir / manifest)))

    @pytest.mark.parametrize("seed", range(20))
    def test_junk_heavy_corpora(self, seed):
        letters = string.ascii_lowercase
        alpha = AlphabetConfig(name="az", letters=tuple(letters))
        text = random_text(letters, 3000, seed, weights=zipf_weights(26),
                           space_prob=0.1, junk="0.,;", junk_prob=0.45)
        # runs shorter than a window exist at both orders
        assert {1, 2} <= set(map(len, reference.letter_runs([text], letters)[0]))
        assert_derives_each_lower_order(alpha, text)

    def test_empty_stream(self):
        assert_derives_each_lower_order(AB, "")
        counts = counts_of(AB, 2, "")
        assert derive_lower(counts.table(), counts.ends).counts == {}

    def test_single_letter_runs(self):
        # no digraph at all, yet every letter is a run's end
        assert reference.letter_runs(["a1b2a3c 4a"], ABC.letters)[0] == ["a", "b", "a", "c", "a"]
        assert_derives_each_lower_order(ABC, "a1b2a3c 4a")
        counts = counts_of(ABC, 2, "a1b2a3c 4a")
        assert derive_lower(counts.table(), counts.ends).counts == {
            ("a",): 3, ("b",): 1, ("c",): 1}

    def test_nothing_below_monographs(self):
        with pytest.raises(ValueError):
            derive_lower(design_tables(AB, "ab")[0], Counter())


def printed_rows(table, tmp_path):
    """The rows `write_ngraph_tsv` writes for a table, as (ngram, count, percentage) text."""
    path = tmp_path / "table.tsv"
    write_ngraph_tsv(table, path)
    return [tuple(line.split("\t")) for line in path.read_text(encoding="utf-8").splitlines()[1:]]


# every block size up to 64 bytes, so a block ends at each offset of a word
# and of a multibyte code point; and a few larger ones
BLOCK_SIZES = [*range(1, 65), 100, 1000, 4096]


class TestCountsInBlocks:
    """A corpus file is read in blocks of `corpus._BLOCK` bytes and counted
    piece by piece; at any block size the tables, the undetermined count
    and the digests equal those of the reference model over whole texts."""

    @pytest.mark.parametrize("alphabet, texts", [
        # a prefix of the English sample: its runs cross many cuts
        ("english.json", lambda data: [(data / "sample" / "corpus.txt").read_bytes()[:3000]]),
        # vowel signs that NFC composes, one more at a file's end, and a
        # byte order mark, which only a file's first piece drops
        ("bangla.json", lambda data: [
            ("\ufeff" + (data / "bangla" / f"corpus{i}.txt").read_text(encoding="utf-8")[:1000])
            .encode() for i in (1, 2)] + ["\u0995\u09c7\u09be".encode()]),
    ], ids=["sample", "bangla"])
    def test_tables_and_digests_at_every_block_size(self, tmp_path, data_dir, monkeypatch,
                                                     alphabet, texts):
        alpha = AlphabetConfig.from_json(data_dir / "alphabets" / alphabet)
        files = []
        for i, raw in enumerate(texts(data_dir)):
            files.append(tmp_path / f"part{i}.txt")
            files[-1].write_bytes(raw)
        runs, undetermined = reference.letter_runs(map(reference.read, files), alpha.letters)
        expected = {n: reference.ngrams(runs, n) for n in (1, 2, 3)}
        hashes = {str(path): hashlib.sha256(path.read_bytes()).hexdigest() for path in files}
        for size in BLOCK_SIZES:
            monkeypatch.setattr(corpus, "_BLOCK", size)
            for n in (2, 3):
                digests.clear()
                counts = CorpusCounts(alpha, n)
                for path in files:
                    counts.add_file(path)
                table = counts.table()
                assert (size, table.counts) == (size, expected[n])
                assert derive_lower(table, counts.ends).counts == expected[n - 1]
                assert counts.undetermined_count == undetermined
                assert digests == hashes

    def test_bounded_memory(self, tmp_path):
        # a 4 MB corpus of words padded to 64 columns, so that the count
        # stays quick under tracemalloc; whitespace ends no run, so the whole
        # file is one run, open across every block. Above the trigraph table
        # it builds, the count holds a few blocks at a time, never the file
        rng = random.Random(5)
        path = tmp_path / "wide.txt"
        with path.open("w", encoding="utf-8") as file:
            for i in range(62_500):
                word = "".join(rng.choices(string.ascii_lowercase, k=rng.randint(2, 9)))
                file.write(f"{word:<63}" + ("\n" if i % 4 == 3 else " "))
        assert path.stat().st_size == 4_000_000
        tracemalloc.start()
        try:
            counts = CorpusCounts(AZ, 3)
            counts.add_file(path)
            table = counts.table()
            result, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sum(counts.ends.values()) == 1
        assert table.total == sum(len(word) for word in path.read_text().split()) - 2
        assert peak - result < 1_000_000


class TestMonographRanking:
    """The ranking `assign_hands` reads is `sorted_items()` of the monograph
    table, derived from the digraphs as `keymine design` derives it; the
    percentages are the column `write_ngraph_tsv` prints."""

    def test_singleton(self, tmp_path):
        table, _, _ = design_tables(AB, "a")
        assert table.sorted_items() == [(("a",), 1)]
        assert printed_rows(table, tmp_path) == [("a", "1", "100.000000")]

    def test_descending_with_alphabet_tiebreak(self):
        alpha = AlphabetConfig(name="x", letters=("z", "m", "a"))
        table, _, _ = design_tables(alpha, "zzmaam")
        # m and a tie at 2; alphabet order puts z, then m before a
        assert table.sorted_items() == [(("z",), 2), (("m",), 2), (("a",), 2)]

    def test_empty_table(self, tmp_path):
        table, _, _ = design_tables(AB, "")
        assert table.sorted_items() == []
        assert printed_rows(table, tmp_path) == []

    def test_requires_monograph_table(self):
        _, digraphs, _ = design_tables(AB, "ab")
        with pytest.raises(ValueError, match="monograph table"):
            assign_hands(digraphs, digraphs)

    def test_top_count_percentage_inversion(self, tmp_path):
        # a count of 74300 out of 821914 letters works out to 9.039875%
        counts = Counter({("a",): 74300, ("b",): 821914 - 74300})
        table = NGraphTable(n=1, counts=counts, alphabet=AB)
        assert ("a", "74300", "9.039875") in printed_rows(table, tmp_path)

    @pytest.mark.parametrize("seed", range(5))
    def test_percentages_sum_to_100(self, seed, tmp_path):
        letters = string.ascii_lowercase
        alpha = AlphabetConfig(name="en", letters=tuple(letters))
        text = random_text(letters, 3000, seed, weights=zipf_weights(26))
        rows = printed_rows(design_tables(alpha, text)[0], tmp_path)
        # each printed percentage is rounded to 6 places, off by at most 5e-7
        assert sum(float(pct) for _, _, pct in rows) == pytest.approx(100.0, abs=5e-7 * len(rows))

    def test_determinism(self):
        text = random_text("abc", 1000, 3)
        a = counts_of(ABC, 2, text).table()
        b = counts_of(ABC, 2, text).table()
        assert a.counts == b.counts


class TestMergeAndManifest:
    """Several sources counted by one `CorpusCounts`, which adds their
    counts and forms no n-gram across a source boundary; `read_manifest`;
    and `write_ngraph_tsv`."""

    def test_merge_is_additive(self):
        merged, _, _ = design_tables(AB, "abab", "bb")
        assert merged.counts == {("a",): 2, ("b",): 4}
        assert merged.total == 6

    def test_no_cross_file_digraphs(self):
        # "ab" and "ba" as two sources: no (b,b) window
        merged = counts_of(AB, 2, "ab", "ba").table()
        assert merged.counts == {("a", "b"): 1, ("b", "a"): 1}

    def test_manifest_relative_paths_and_comments(self, tmp_path):
        (tmp_path / "sub").mkdir()
        (tmp_path / "sub" / "one.txt").write_text("ab", encoding="utf-8")
        manifest = tmp_path / "manifest.txt"
        manifest.write_text("# comment line\n\nsub/one.txt\n", encoding="utf-8")
        files = read_manifest(manifest)
        assert files == [tmp_path / "sub" / "one.txt"]

    def test_manifest_lines_end_at_lf_only(self, tmp_path):
        name = "one\u2028two.txt"  # str.splitlines would cut this entry in two
        (tmp_path / name).write_text("ab", encoding="utf-8")
        manifest = tmp_path / "manifest.txt"
        manifest.write_text(f"# comment\r\n{name}\r\n", encoding="utf-8")
        assert read_manifest(manifest) == [tmp_path / name]

    def test_ngraph_tsv_format(self, tmp_path):
        table = counts_of(AB, 2, "abab").table()
        path = tmp_path / "digraphs.tsv"
        write_ngraph_tsv(table, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "ngram\tcount\tpercentage"
        assert lines[1] == "a+b\t2\t66.666667"
