"""Corpus ingestion: letter runs and letter n-gram statistics, and the
reading and writing of every keymine file.

Raw text is NFC-normalized, stripped of whitespace, and cut into maximal
runs of alphabet letters. An ASCII piece is already NFC; it drops its ten
ASCII whitespace code points with one `str.translate`, so no list of words
is built. Any other piece is split on whitespace, and each word is
normalized on its own before the words are joined. Every whitespace code
point is a starter that composes with nothing and normalizes to whitespace
only, and no other code point normalizes to anything that holds
whitespace, so this equals NFC of the whole piece with its whitespace
dropped. Only a word that fails NFC's quick check, one that holds a code
point such as the Bengali vowel signs U+09BE and U+09D7, which may compose
with the code point before it, is decomposed and recomposed; the others
come back as they are. The runs feed monograph, digraph and trigraph
frequency tables; any other code point is counted as "undetermined" and
ends a run, so no n-gram window spans it (typing a digit or an unknown
glyph interrupts the letter-to-letter flow).

A command reads each corpus file in blocks of `_BLOCK` bytes (`read_pieces`)
and counts the text piece by piece into running totals (`CorpusCounts`), so
no list of runs and no whole file is ever held. A piece ends after an ASCII
space or LF byte. Such a byte never sits inside a multibyte sequence, so
each piece decodes on its own, and it is whitespace, so NFC of the pieces
equals NFC of the whole. Whitespace does not end a run, so the open run's
last n-1 letters carry into the next piece, until the file ends. A command
counts once, at its highest order; each lower table is derived from the
one above it and a count of the run ends (`derive_lower`).

Digraphs are counted without a Python-level step per letter: each letter
has a 16-bit code (its own code point when every letter of the alphabet
lies in the Basic Multilingual Plane, else its position 1..|A|, so an
alphabet holds at most 65,535 letters). Runs are joined into batches of a
few thousand letters, the batch is encoded as UTF-16, and the bytes are
read as 32-bit integers at letter offsets 0 and 1: each integer packs one
adjacent pair of codes, and one `Counter` counts them in C. Only the at
most (|A|+1)^2 distinct keys are decoded back into letter pairs.

This module also owns the file encoding: bulk inputs (corpus files and
transaction files) are read through `read_pieces`, the small JSON and
manifest inputs through `read_text`, and every output is written through
`write_lines` or `write_json`. Both readers record the sha256 of the bytes
they read in `digests`, by path, so a command's run manifest lists exactly
the bytes the command used.
"""

from __future__ import annotations

import json
import re
import sys
import unicodedata
from collections import Counter
from itertools import repeat
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
            if ch.isspace():
                raise ValueError(f"alphabet must not contain whitespace (U+{ord(ch):04X})")
            nfc = unicodedata.normalize("NFC", ch)
            if nfc != ch:
                # normalized text never holds such an entry: a composition
                # exclusion (e.g. U+09DC) decomposes under NFC, and a singleton
                # (e.g. U+2126 OHM SIGN) becomes another code point
                codes = " ".join(f"U+{ord(c):04X}" for c in nfc)
                instead = "its constituent code points" if len(nfc) > 1 else "that code point"
                raise ValueError(f"alphabet entry {ch!r} (U+{ord(ch):04X}) normalizes to {nfc!r} "
                                 f"({codes}) under NFC; list {instead} instead")
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


# the ASCII code points that `str.split()` splits on: a table mapping each to
# None, and the code points themselves, space first, as the likeliest
_ASCII_WHITESPACE = dict.fromkeys(c for c in range(128) if chr(c).isspace())
_ASCII_SPACES = sorted(map(chr, _ASCII_WHITESPACE), reverse=True)


def _letter_runs(text: str, alphabet: AlphabetConfig) -> tuple[str, list[str]]:
    """`text` normalized to composed form (NFC) with its whitespace dropped,
    and the maximal runs of alphabet letters in it.

    An ASCII piece, which NFC leaves as it is, drops its whitespace with one
    `translate`, which allocates only its result, so no list of words is
    built; an ASCII piece without whitespace (a long run read whole) is kept
    as it is, not copied. Any other piece is split on whitespace, as
    `translate` is slow beyond ASCII, and each word is normalized before the
    words are joined: nothing composes or reorders across whitespace (see
    the module docstring), and only the words that fail NFC's quick check
    are decomposed and recomposed.
    """
    if not text.isascii():
        text = "".join(map(unicodedata.normalize, repeat("NFC"), text.split()))
    elif any(map(text.__contains__, _ASCII_SPACES)):
        text = text.translate(_ASCII_WHITESPACE)
    return text, alphabet._runs.findall(text)


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


class CorpusCounts:
    """Running counts of a corpus fed piece by piece: its n-grams (n = 2 or
    3), `undetermined_count`, and `ends`, which counts each run by its last
    n-1 letters (all of a shorter run), as `derive_lower` takes them.

    A piece given to `add_text` ends at whitespace or at its source's end.
    Whitespace does not end a run, so a run that reaches the end of a piece
    stays open: its last n-1 letters carry into the next piece, until
    `end_source`. No n-gram crosses two sources.
    """

    __slots__ = ("alphabet", "n", "undetermined_count", "ends", "_grams", "_open")

    def __init__(self, alphabet: AlphabetConfig, n: int) -> None:
        if n not in (2, 3):
            raise ValueError(f"n must be 2 or 3, got {n}")
        self.alphabet = alphabet
        self.n = n
        self.undetermined_count = 0
        self.ends: Counter[str] = Counter()
        self._grams: Counter = Counter()  # packed pairs of letter codes at n = 2, else triples
        self._open = ""  # the open run's last n-1 letters

    def add_file(self, path: str | Path) -> None:
        """Count a corpus file, read in pieces that end after an ASCII
        space or LF byte; its last run ends with the file."""
        for piece in read_pieces(path, b" \n"):
            self.add_text(piece)
        self.end_source()

    def add_text(self, text: str) -> None:
        """Count one piece of a source, normalized to NFC and cut into
        maximal runs of alphabet letters (`_letter_runs`)."""
        text, runs = _letter_runs(text, self.alphabet)
        if not text:
            return  # whitespace alone neither ends nor extends a run
        self.undetermined_count += len(text) - sum(map(len, runs))
        is_letter = self.alphabet._index.__contains__
        if self._open:
            if is_letter(text[0]):
                runs[0] = self._open + runs[0]
            else:
                self.ends[self._open] += 1
        self._add_runs(runs)
        m = self.n - 1
        self._open = runs.pop()[-m:] if is_letter(text[-1]) else ""
        self.ends.update(run[-m:] for run in runs)

    def end_source(self) -> None:
        """End the open run, if any: the source it belongs to has ended."""
        if self._open:
            self.ends[self._open] += 1
            self._open = ""

    def _add_runs(self, runs: Iterable[str]) -> None:
        """Count the n-gram windows of `runs`; no window spans two runs.
        `ends` is left as it is."""
        if self.n != 2:
            grams, n = self._grams, self.n
            for run in runs:
                grams.update(zip(*(run[i:] for i in range(n))))
            return
        # digraphs as packed pairs of 16-bit letter codes (see the module
        # docstring); a pair that holds the separator is never a letter pair
        alphabet = self.alphabet
        codes, pairs = alphabet._codes, self._grams
        for batch in _batches(runs, alphabet._separator):
            if codes is not None:
                batch = batch.translate(codes)
            data = memoryview(batch.encode("utf-16-le", "surrogatepass"))
            for view in (data, data[2:]):  # the pairs at even letter offsets, then at odd ones
                pairs.update(view[: len(view) & ~3].cast("I"))

    def table(self) -> NGraphTable:
        """The n-gram counts so far. Digraph keys hold the alphabet's own
        letter objects."""
        if self.n != 2:
            return NGraphTable(n=self.n, counts=self._grams, alphabet=self.alphabet)
        letters, codes = self.alphabet.letters, self.alphabet._codes
        letter_of = dict(zip(map(ord, letters), letters) if codes is None else enumerate(letters, 1))
        counts: Counter[tuple[str, str]] = Counter()
        for key, count in self._grams.items():
            # native byte order back to the UTF-16-LE bytes: the first letter's code is the low half
            key = int.from_bytes(key.to_bytes(4, sys.byteorder), "little")
            first, second = letter_of.get(key & 0xFFFF), letter_of.get(key >> 16)
            if first is not None and second is not None:
                counts[first, second] = count
        return NGraphTable(n=2, counts=counts, alphabet=self.alphabet)


_BATCH = 4096  # letters joined into one encoded batch


def _batches(runs: Iterable[str], separator: str) -> Iterator[str]:
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


def derive_lower(table: NGraphTable, ends: Counter[str]) -> NGraphTable:
    """The (n-1)-gram table of the corpus whose n-gram table this is, given
    `ends`, the corpus's runs counted by their last n-1 or more letters (all
    of a shorter run), as `CorpusCounts` keeps them.

    Every (n-1)-gram window of a run but its last starts exactly one n-gram
    window, so each n-gram's count goes to its first n-1 letters, and each
    run of at least n-1 letters adds 1 to its last (n-1)-gram. Equal to
    counting the (n-1)-grams, without scanning the runs' letters.
    """
    m = table.n - 1
    if m < 1:
        raise ValueError(f"no lower table below n={table.n}")
    counts: Counter[tuple[str, ...]] = Counter()
    for key, count in table.counts.items():
        counts[key[:m]] += count
    for end, count in ends.items():
        if len(end) >= m:
            counts[tuple(end[-m:])] += count
    return NGraphTable(n=m, counts=counts, alphabet=table.alphabet)


_BLOCK = 1 << 16  # bytes `read_pieces` reads at a time

digests: dict[str, str] = {}  # path -> sha256 of the bytes last read there


def _decode(path: Path, raw: bytes | bytearray, start: int = 0) -> str:
    """UTF-8 bytes found at byte offset `start` of the file at `path`; a
    byte order mark at the file's start is dropped, and a decoding failure
    names the file and the offset in it."""
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise IngestionError(f"{path}: not valid UTF-8 at byte offset {start + exc.start}") from exc
    return text if start else text.removeprefix("\ufeff")


def read_bytes(path: str | Path) -> bytes:
    """The bytes of an input file, their sha256 recorded in `digests`; a
    read failure names the file and the reason."""
    path = Path(path)
    try:
        raw = path.read_bytes()
    except (OSError, ValueError) as exc:  # ValueError: a NUL byte in the path
        raise UnreadableFileError(path, exc) from exc
    digests[str(path)] = sha256(raw).hexdigest()
    return raw


def read_pieces(path: str | Path, cuts: bytes) -> Iterator[str]:
    """The UTF-8 text of a bulk input file, in pieces, read `_BLOCK` bytes
    at a time. A piece ends after the last of the ASCII bytes `cuts` in a
    block, or with the file; a block holding none joins the next. One
    leading byte order mark is dropped, and once every block is read their
    sha256 is recorded in `digests`. A read failure names the file and the
    reason, a decoding failure the file and the byte offset in it."""
    path = Path(path)
    try:
        file = path.open("rb")
    except (OSError, ValueError) as exc:  # ValueError: a NUL byte in the path
        raise UnreadableFileError(path, exc) from exc
    digest = sha256()
    start, held = 0, bytearray()  # the file offset of the piece being gathered, and its bytes so far
    with file:
        while True:
            try:
                block = file.read(_BLOCK)
            except OSError as exc:
                raise UnreadableFileError(path, exc) from exc
            if not block:
                break
            digest.update(block)
            cut = max(map(block.rfind, cuts)) + 1  # 0: no cut byte in the block
            if not cut:
                held += block
                continue
            held += block[:cut]
            yield _decode(path, held, start)
            start += len(held)
            held = bytearray(block[cut:])
    if held:
        yield _decode(path, held, start)
    digests[str(path)] = digest.hexdigest()


def read_text(path: str | Path) -> str:
    """Read a small UTF-8 input file whole, through `read_bytes`, dropping
    one leading byte order mark; a decoding failure names the file and the
    byte offset."""
    path = Path(path)
    return _decode(path, read_bytes(path))


def read_json(path: str | Path, raw: bytes | None = None):
    """Read a UTF-8 JSON input file whole, through `read_bytes` unless `raw`
    already holds its bytes; a decoding or parse failure names the file, and
    so do an integer too long to convert (over 4,300 digits) and arrays or
    objects nested past the recursion limit."""
    path = Path(path)
    text = _decode(path, read_bytes(path) if raw is None else raw)
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise IngestionError(f"{path}: invalid JSON: {exc}") from exc


def write_lines(path: str | Path, lines: Iterable[str]) -> None:
    """Write `lines` as UTF-8 text, each ended by LF on every platform."""
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def write_json(path: str | Path, data, sort_keys: bool = False) -> None:
    """Write `data` as UTF-8 JSON indented by 2, non-ASCII kept as is, and a
    final LF; a NaN or infinity is refused with `ValueError`."""
    write_lines(path, [json.dumps(data, ensure_ascii=False, indent=2, sort_keys=sort_keys,
                                  allow_nan=False)])


def read_manifest(path: str | Path) -> list[Path]:
    """Read a corpus manifest: one file path per line, '#' comments allowed.

    Lines end at LF only; surrounding whitespace, a CR included, is
    stripped from each entry.

    Relative paths are resolved against the manifest's directory. Sources
    listed here are counted as separate sources; n-grams never cross files.
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
