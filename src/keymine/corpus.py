"""Corpus ingestion: tokenization and letter n-gram statistics, and the
reading and writing of every keymine file.

Raw text is NFC-normalized, stripped of whitespace, and cut into maximal
runs of alphabet letters. The runs feed monograph, digraph and trigraph
frequency tables; any other code point is counted as "undetermined" and
ends a run, so no n-gram window spans it (typing a digit or an unknown
glyph interrupts the letter-to-letter flow).

A command scans the runs once, for its highest order; each lower table is
derived from the one above it and the run ends (`derive_lower`).

Digraphs are counted without a Python-level step per letter: each letter
has a 16-bit code (its own code point when every letter of the alphabet
lies in the Basic Multilingual Plane, else its position 1..|A|, so an
alphabet holds at most 65,535 letters). Runs are joined into batches of a
few thousand letters, the batch is encoded as UTF-16, and the bytes are
read as 32-bit integers at letter offsets 0 and 1: each integer packs one
adjacent pair of codes, and one `Counter` counts them in C. Only the at
most (|A|+1)^2 distinct keys are decoded back into letter pairs.

This module also owns the file encoding: every input is read through
`read_text` and every output written through `write_lines` or `write_json`.
`read_text` records the sha256 of the bytes it read in `digests`, by path,
so a command's run manifest lists exactly the bytes the command used.
"""

from __future__ import annotations

import json
import re
import sys
import unicodedata
from collections import Counter
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple

# hashlib maps OpenSSL's libcrypto into the process for one digest per input
# file; the interpreter's own SHA-256 module gives the same bytes without it
try:
    from _sha2 import sha256  # 3.12 and later
except ImportError:
    try:
        from _sha256 import sha256  # 3.10 and 3.11
    except ImportError:  # a build without a built-in SHA-256
        from hashlib import sha256


class IngestionError(ValueError):
    """An input file that cannot be read, decoded, parsed or accepted; the
    message starts with the file's path."""


class UnreadableFileError(IngestionError):
    """A path that cannot be opened, read or made a directory (missing, a
    directory, under a file, no permission, a NUL byte in it): `<path>:
    <reason>`, with the command's key that named the path, if any, in `key`."""

    def __init__(self, path: Path, exc: OSError | ValueError, key: str | None = None) -> None:
        super().__init__(f"{path}: {getattr(exc, 'strerror', None) or exc}")
        self.key = key


_MAX_LETTERS = 0xFFFF  # letter codes are 16-bit; numbered letters take 1..|A|, and 0 separates runs


class AlphabetConfig:
    """Ordered set of Unicode code points considered typeable letters.

    The order is the canonical letter order used for deterministic
    tie-breaking throughout the pipeline. Treated as immutable.
    """

    __slots__ = ("name", "letters", "_index", "_runs", "_separator", "_codes")

    def __init__(self, name: str, letters: tuple[str, ...]) -> None:
        if not letters:
            raise ValueError("alphabet must contain at least one letter")
        if len(letters) > _MAX_LETTERS:
            raise ValueError(
                f"alphabet has {len(letters)} letters; at most {_MAX_LETTERS} are supported "
                "(digraphs are counted as pairs of 16-bit letter codes)"
            )
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
        # Runs are joined by a code point that is no letter; a letter beyond
        # U+FFFF has no 16-bit code point, so then every letter is translated
        # to its position 1..|A| and the separator to 0.
        self._separator = next(chr(c) for c in range(len(letters) + 1) if chr(c) not in seen)
        self._codes = None
        if max(letters) > "\uffff":
            self._codes = {ord(ch): i for i, ch in enumerate(letters, 1)}
            self._codes[ord(self._separator)] = 0

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
        if not isinstance(data["name"], str):
            raise IngestionError(f"{path}: field 'name' must be a string")
        letters = data["letters"]
        if not isinstance(letters, list) or not all(isinstance(x, str) for x in letters):
            raise IngestionError(f"{path}: 'letters' must be a list of single-code-point strings")
        try:
            return cls(name=data["name"], letters=tuple(letters))
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
    """Count windows of n consecutive letters; windows never leave a run.
    Digraph keys hold the alphabet's own letter objects."""
    if n not in (1, 2, 3):
        raise ValueError(f"n must be 1, 2 or 3, got {n}")
    if n == 2:
        return NGraphTable(n=2, counts=_count_digraphs(stream), alphabet=stream.alphabet)
    counts: Counter[tuple[str, ...]] = Counter()
    for run in stream.runs:
        counts.update(zip(*(run[i:] for i in range(n))))
    return NGraphTable(n=n, counts=counts, alphabet=stream.alphabet)


_BATCH = 4096  # letters joined into one encoded batch


def _batches(runs: list[str], separator: str) -> Iterator[str]:
    """The runs joined by `separator` into strings of at most `_BATCH`
    letters and separators. A longer run is cut into pieces of `_BATCH`
    letters, each starting with the last letter of the piece before, so
    every digraph lies in exactly one piece."""
    batch: list[str] = []
    size = 0
    for run in runs:
        pieces = (run,) if len(run) <= _BATCH else (
            run[i : i + _BATCH] for i in range(0, len(run) - 1, _BATCH - 1))
        for piece in pieces:
            if size + len(piece) > _BATCH:
                yield separator.join(batch)
                batch, size = [], 0
            batch.append(piece)
            size += len(piece) + 1
    yield separator.join(batch)


def _count_digraphs(stream: LetterStream) -> Counter[tuple[str, str]]:
    """Digraph counts from packed pairs of 16-bit letter codes (see the
    module docstring); a pair that holds the separator is dropped."""
    alphabet = stream.alphabet
    letters, codes = alphabet.letters, alphabet._codes
    pairs: Counter[int] = Counter()
    for batch in _batches(stream.runs, alphabet._separator):
        if codes is not None:
            batch = batch.translate(codes)
        data = memoryview(batch.encode("utf-16-le", "surrogatepass"))
        for view in (data, data[2:]):  # the pairs at even letter offsets, then at odd ones
            pairs.update(view[: len(view) & ~3].cast("I"))
    letter_of = dict(zip(map(ord, letters), letters) if codes is None else enumerate(letters, 1))
    counts: Counter[tuple[str, str]] = Counter()
    for key, count in pairs.items():
        # native byte order back to the UTF-16-LE bytes: the first letter's code is the low half
        key = int.from_bytes(key.to_bytes(4, sys.byteorder), "little")
        first, second = letter_of.get(key & 0xFFFF), letter_of.get(key >> 16)
        if first is not None and second is not None:
            counts[first, second] = count
    return counts


def derive_lower(table: NGraphTable, stream: LetterStream) -> NGraphTable:
    """The (n-1)-gram table of the stream whose n-gram table this is.

    Every (n-1)-gram window of a run but its last starts exactly one n-gram
    window, so each n-gram's count goes to its first n-1 letters, and each
    run of at least n-1 letters adds 1 to its last (n-1)-gram. Equal to
    `count_ngraphs(stream, n - 1)`, without scanning the runs' letters.
    """
    m = table.n - 1
    if m < 1:
        raise ValueError(f"no lower table below n={table.n}")
    counts: Counter[tuple[str, ...]] = Counter()
    for key, count in table.counts.items():
        counts[key[:m]] += count
    ends = Counter(run[-m:] for run in stream.runs if len(run) >= m)
    for end, count in ends.items():
        counts[tuple(end)] += count
    return NGraphTable(n=m, counts=counts, alphabet=table.alphabet)


digests: dict[str, str] = {}  # path -> sha256 of the bytes `read_text` last read there


def read_text(path: str | Path) -> str:
    """Read a UTF-8 input file, dropping one leading byte order mark, and
    record the sha256 of its bytes in `digests`; a read failure names the
    file and the reason, a decoding failure the file and the byte offset."""
    path = Path(path)
    try:
        raw = path.read_bytes()
    except (OSError, ValueError) as exc:  # ValueError: a NUL byte in the path
        raise UnreadableFileError(path, exc) from exc
    digests[str(path)] = sha256(raw).hexdigest()
    try:
        return raw.decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        raise IngestionError(f"{path}: not valid UTF-8 at byte offset {exc.start}") from exc


def read_json(path: str | Path):
    """Read a UTF-8 JSON input file; a decoding or parse failure names the
    file, and so do an integer too long to convert (over 4,300 digits) and
    arrays or objects nested past the recursion limit."""
    text = read_text(path)
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise IngestionError(f"{Path(path)}: invalid JSON: {exc}") from exc


def write_lines(path: str | Path, lines: Iterable[str]) -> None:
    """Write `lines` as UTF-8 text, each ended by LF on every platform."""
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def write_json(path: str | Path, data, sort_keys: bool = False) -> None:
    """Write `data` as UTF-8 JSON indented by 2, non-ASCII kept as is, and a
    final LF; a NaN or infinity is refused with `ValueError`."""
    write_lines(path, [json.dumps(data, ensure_ascii=False, indent=2, sort_keys=sort_keys,
                                  allow_nan=False)])


def tokenize_file(path: str | Path, alphabet: AlphabetConfig) -> LetterStream:
    return tokenize(read_text(path), alphabet)


def read_manifest(path: str | Path) -> list[Path]:
    """Read a corpus manifest: one file path per line, '#' comments allowed.

    Lines end at LF only; surrounding whitespace, a CR included, is
    stripped from each entry.

    Relative paths are resolved against the manifest's directory. Sources
    listed here are tokenized independently; n-grams never cross files.
    """
    path = Path(path)
    base = path.parent
    paths: list[Path] = []
    for line in read_text(path).split("\n"):
        entry = line.split("#", 1)[0].strip()
        if not entry:
            continue
        p = Path(entry)
        paths.append(p if p.is_absolute() else base / p)
    return paths


def write_ngraph_tsv(table: NGraphTable, path: str | Path) -> None:
    """Write a table as TSV: n-gram (code points joined by '+'), count, percentage."""
    total = table.total
    write_lines(path, ["ngram\tcount\tpercentage", *(
        f"{'+'.join(key)}\t{count}\t{100.0 * count / total if total else 0.0:.6f}"
        for key, count in table.sorted_items())])
