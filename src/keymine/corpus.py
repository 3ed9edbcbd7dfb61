"""Corpus ingestion: tokenization and letter n-gram statistics.

Raw text is NFC-normalized, stripped of whitespace, and cut into maximal
runs of alphabet letters. The runs feed monograph, digraph and trigraph
frequency tables; any other code point is counted as "undetermined" and
ends a run, so no n-gram window spans it (typing a digit or an unknown
glyph interrupts the letter-to-letter flow).
"""

from __future__ import annotations

import json
import re
import unicodedata
from collections import Counter
from pathlib import Path
from typing import NamedTuple


class IngestionError(ValueError):
    """An input file that cannot be decoded, parsed or accepted; the message
    starts with the file's path."""


class AlphabetConfig:
    """Ordered set of Unicode code points considered typeable letters.

    The order is the canonical letter order used for deterministic
    tie-breaking throughout the pipeline. Treated as immutable; two
    alphabets are equal when their names and letters are.
    """

    __slots__ = ("name", "letters", "_index", "_runs")

    def __init__(self, name: str, letters: tuple[str, ...]) -> None:
        if not letters:
            raise ValueError("alphabet must contain at least one letter")
        seen: dict[str, int] = {}
        for i, ch in enumerate(letters):
            if len(ch) != 1:
                raise ValueError(f"alphabet entry {ch!r} is not a single code point")
            if len(unicodedata.normalize("NFC", ch)) != 1:
                # Composition exclusions (e.g. U+09DC) decompose under NFC
                # and would never match normalized text; require the parts.
                raise ValueError(
                    f"alphabet entry {ch!r} (U+{ord(ch):04X}) decomposes under "
                    "composed-form normalization; list its constituent code points instead"
                )
            if ch.isspace():
                raise ValueError(f"alphabet must not contain whitespace (U+{ord(ch):04X})")
            if ch in seen:
                raise ValueError(f"duplicate alphabet letter {ch!r}")
            seen[ch] = i
        self.name = name
        self.letters = letters
        self._index = seen
        self._runs = re.compile("[" + "".join(re.escape(ch) for ch in letters) + "]+")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.name, self.letters) == (other.name, other.letters)

    def __hash__(self) -> int:
        return hash((self.name, self.letters))

    def __contains__(self, ch: str) -> bool:
        return ch in self._index

    def __len__(self) -> int:
        return len(self.letters)

    def index_of(self, ch: str) -> int:
        """Position of a letter in the canonical order."""
        return self._index[ch]

    @classmethod
    def from_json(cls, path: str | Path) -> "AlphabetConfig":
        """Load an alphabet file: {"name": str, "letters": [str, ...]}."""
        path = Path(path)
        data = read_json(path)
        if not isinstance(data, dict) or "name" not in data or "letters" not in data:
            raise IngestionError(f"{path}: expected an object with 'name' and 'letters'")
        letters = data["letters"]
        if not isinstance(letters, list) or not all(isinstance(x, str) for x in letters):
            raise IngestionError(f"{path}: 'letters' must be a list of single-code-point strings")
        try:
            return cls(name=str(data["name"]), letters=tuple(letters))
        except ValueError as exc:
            raise IngestionError(f"{path}: {exc}") from exc


class LetterStream:
    """Text as its maximal runs of alphabet letters.

    Whitespace is gone; every other code point outside the alphabet ends a
    run and is counted in `undetermined_count`. A stream may hold the runs
    of several sources; a run never spans two, so no n-gram crosses them.
    """

    __slots__ = ("runs", "undetermined_count", "alphabet")

    def __init__(self, runs: list[str], undetermined_count: int, alphabet: AlphabetConfig) -> None:
        self.runs = runs
        self.undetermined_count = undetermined_count
        self.alphabet = alphabet

    @property
    def letter_count(self) -> int:
        return sum(map(len, self.runs))


def tokenize(text: str, alphabet: AlphabetConfig) -> LetterStream:
    """Normalize to composed form (NFC), drop whitespace, cut into letter runs.

    Every remaining code point is either part of a run or undetermined
    (digits, punctuation, foreign scripts), so letters plus undetermined
    equals the normalized input length minus its whitespace count.
    """
    text = "".join(unicodedata.normalize("NFC", text).split())
    runs = alphabet._runs.findall(text)
    undetermined = len(text) - sum(map(len, runs))
    return LetterStream(runs, undetermined, alphabet)


class NGraphTable(NamedTuple):
    """Frequency counts of letter n-grams (n = 1, 2 or 3) over a corpus."""

    n: int
    counts: Counter[tuple[str, ...]]
    alphabet: AlphabetConfig

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    def sorted_items(self) -> list[tuple[tuple[str, ...], int]]:
        """Entries in descending count order, ties by alphabet order."""
        idx = self.alphabet.index_of
        return sorted(
            self.counts.items(),
            key=lambda kv: (-kv[1], tuple(idx(ch) for ch in kv[0])),
        )


def count_ngraphs(stream: LetterStream, n: int) -> NGraphTable:
    """Count windows of n consecutive letters; windows never leave a run."""
    if n not in (1, 2, 3):
        raise ValueError(f"n must be 1, 2 or 3, got {n}")
    counts: Counter[tuple[str, ...]] = Counter()
    for run in stream.runs:
        counts.update(zip(*(run[i:] for i in range(n))))
    return NGraphTable(n=n, counts=counts, alphabet=stream.alphabet)


class RankedLetter(NamedTuple):
    letter: str
    count: int
    percentage: float


def monograph_ranking(table: NGraphTable) -> list[RankedLetter]:
    """Letters by descending frequency; ties broken by alphabet order.

    Percentage is 100 * count / total over all counted letters.
    """
    if table.n != 1:
        raise ValueError(f"ranking requires a monograph table, got n={table.n}")
    total = table.total
    if total == 0:
        return []
    return [
        RankedLetter(key[0], count, 100.0 * count / total)
        for key, count in table.sorted_items()
    ]


def read_text(path: str | Path) -> str:
    """Read a UTF-8 input file; a decoding failure names the file and the
    byte offset."""
    path = Path(path)
    raw = path.read_bytes()
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise IngestionError(f"{path}: not valid UTF-8 at byte offset {exc.start}") from exc


def read_json(path: str | Path):
    """Read a UTF-8 JSON input file; a decoding or parse failure names the file."""
    text = read_text(path)
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise IngestionError(f"{Path(path)}: invalid JSON: {exc}") from exc


def tokenize_file(path: str | Path, alphabet: AlphabetConfig) -> LetterStream:
    return tokenize(read_text(path), alphabet)


def read_manifest(path: str | Path) -> list[Path]:
    """Read a corpus manifest: one file path per line, '#' comments allowed.

    Relative paths are resolved against the manifest's directory. Sources
    listed here are tokenized independently; n-grams never cross files.
    """
    path = Path(path)
    base = path.parent
    paths: list[Path] = []
    for line in read_text(path).splitlines():
        entry = line.split("#", 1)[0].strip()
        if not entry:
            continue
        p = Path(entry)
        paths.append(p if p.is_absolute() else base / p)
    return paths


def write_ngraph_tsv(table: NGraphTable, path: str | Path) -> None:
    """Write a table as TSV: n-gram (code points joined by '+'), count, percentage."""
    total = table.total
    lines = ["ngram\tcount\tpercentage"]
    for key, count in table.sorted_items():
        pct = 100.0 * count / total if total else 0.0
        lines.append(f"{'+'.join(key)}\t{count}\t{pct:.6f}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
