"""Write the seeded inputs of one CI recount job into a directory.

    PYTHONPATH=src python tests/recount_inputs.py JOB DIR

JOB is one of stats, design, corpus-mine, baskets, fuzz, longruns and ties:

- stats: `alphabet.json` (a-z), `part1.txt` and `part2.txt` (1M chars each,
  Zipf-weighted letters plus spaces and junk) and `manifest.txt` listing them;
- design: the same alphabet and one 2M-char `corpus.txt` in `manifest.txt`;
- corpus-mine: `part1.txt` and `part2.txt` over the 59 Bengali letters of
  data/alphabets/bangla.json plus two decomposed vowel signs that NFC
  composes, and `manifest.txt` listing them;
- baskets: `baskets.tsv`, 20,000 baskets of 1 to 8 draws from 340
  Zipf-weighted items;
- fuzz: four inputs, each an `alphabet.json`, `part1.txt` and
  `part2.txt` (100,000 chars each, CRLF lines) and `manifest.txt`. Two are
  Unicode, with NBSP, U+3000, U+0085 and form feeds among the letters and
  junk: `bmp/`, 27 letters all below U+10000, U+0000, U+0001 and U+FFFF
  among them, so runs are joined by U+0002 and each letter is its own
  code; and `astral/`, whose one letter past U+FFFF makes every letter a
  translated code. `bmp/`'s `alphabet.json`, `manifest.txt` and
  `part2.txt` start with a UTF-8 byte order mark, which every input drops.
  The third, `ascii/`, is all ASCII: the a-z alphabet, and junk holding
  all ten ASCII whitespace code points (tab, LF, VT, FF, CR, U+001C to
  U+001F and space) plus digits and punctuation, so its pieces drop their
  whitespace through keymine's ASCII path. The fourth, `nfc/`, has letters
  that NFC composes or reorders (e, a, their acute and dot-below forms,
  Bengali E and AA signs and their O and AU signs, Hangul jamo and
  syllables), and junk that draws every code point `str.isspace()` holds
  (29 of them, U+2000, U+2001, U+0085 and U+3000 among them) and the marks
  U+0301, U+0323, U+09BE, U+09D7, U+1161 and U+11A8, so composable pairs
  land on both sides of whitespace, which keymine's word-by-word NFC must
  keep apart;
- longruns: the a-z alphabet, `long.txt`, 1M Zipf-weighted letters with no
  whitespace and no junk, so the whole file is one run, far longer than
  the 4,096 letters that keymine's digraph count takes in one batch, and
  `run4095.txt` to `run8191.txt`, one run each of 4,095, 4,096, 4,097 and
  8,191 letters, in `manifest.txt`;
- ties: the a-z alphabet and one `corpus.txt` of two-letter words, each
  ended by a junk code point, in `manifest.txt`. Four seed letters take
  ranks 1 to 4, and every other letter appears only beside a seed: as
  often beside the rank-2 (left) seed as beside the rank-1 (right) one,
  and as often beside the rank-3 (left) seed as beside the rank-4 (right)
  one. So from rank 5 on, each letter's left and right joint digraph
  counts tie exactly.

keymine then runs on them, and `python tests/reference.py check OUT_DIR`
checks its outputs.
"""

import json
import random
import string
import sys
from pathlib import Path

from keymine.synth import random_text, zipf_weights

REPO = Path(__file__).resolve().parent.parent
AZ_JUNK = "0123456789.,;'"


def write_az_alphabet(work: Path) -> None:
    alphabet = {"name": "az", "letters": list(string.ascii_lowercase)}
    (work / "alphabet.json").write_text(json.dumps(alphabet))


def stats(work: Path) -> None:
    write_az_alphabet(work)
    for i in (1, 2):
        text = random_text(string.ascii_lowercase, 1_000_000, i, weights=zipf_weights(26),
                           space_prob=0.15, junk=AZ_JUNK, junk_prob=0.03)
        (work / f"part{i}.txt").write_text(text, encoding="utf-8")
    (work / "manifest.txt").write_text("part1.txt\npart2.txt\n")


def design(work: Path) -> None:
    write_az_alphabet(work)
    text = random_text(string.ascii_lowercase, 2_000_000, 3, weights=zipf_weights(26),
                       space_prob=0.15, junk=AZ_JUNK, junk_prob=0.03)
    (work / "corpus.txt").write_text(text, encoding="utf-8")
    (work / "manifest.txt").write_text("corpus.txt\n")


def corpus_mine(work: Path) -> None:
    alphabet = REPO / "data" / "alphabets" / "bangla.json"
    letters = json.loads(alphabet.read_text(encoding="utf-8"))["letters"]
    # E sign + AA sign and E sign + AU length mark compose to O and AU signs
    pool = [*letters, "\u09c7\u09be", "\u09c7\u09d7"]
    for i in (1, 2):
        text = random_text(pool, 1_000_000, 20 + i, weights=zipf_weights(len(pool)),
                           space_prob=0.15, junk="।,০১২৩0123", junk_prob=0.02)
        (work / f"part{i}.txt").write_text(text, encoding="utf-8")
    (work / "manifest.txt").write_text("part1.txt\npart2.txt\n")


def baskets(work: Path) -> None:
    rng = random.Random(19)
    items = [f"p{n:03d}" for n in range(340)]
    weights = [1 / (r + 1) for r in range(len(items))]
    lines = ["tid\titems"]
    for t in range(20000):
        basket = rng.choices(items, weights, k=rng.randint(1, 8))
        lines.append(f"T{t}\t{' '.join(basket)}")
    (work / "baskets.tsv").write_text("\n".join(lines) + "\n", encoding="utf-8")


FUZZ_LETTERS = {
    # under NFC "e" then the combining acute is the letter "é", and "a" then it
    # is "á", no letter
    "bmp": ["\x00", "\x01", "\uffff", "\u0301", "\u200d", "\u200c", "\u00e9",
            *"abcdefghijklmnopqrst"],
    "astral": ["\U0001d49c", "\u00df", "\u03b1", "\u03b2", *"abcdefghijkl"],
    "ascii": list(string.ascii_lowercase),
    "nfc": ["a", "e", "\u00e1", "\u00e9", "\u1ea1", "\u0301", "\u0995", "\u09c7", "\u09be",
            "\u09cb", "\u09cc", "\u1100", "\u1161", "\uac00", "\uac01", *"bcdfgh"],
}
FUZZ_JUNK = "\u00a0\u3000\x85\x0c09.,\u00e1"  # odd whitespace drops out; the rest is undetermined
# every ASCII whitespace code point, so each piece drops it with one translate
ASCII_JUNK = "\t\n\v\f\r\x1c\x1d\x1e\x1f 09.,;'!?-"
# every whitespace code point, and marks that NFC composes with a letter
# before them, each five times, so about half the junk is a mark
NFC_JUNK = ("".join(c for c in map(chr, range(sys.maxunicode + 1)) if c.isspace())
            + "\u0301\u0323\u09be\u09d7\u1161\u11a8" * 5)
FUZZ_JUNK_OF = {"bmp": FUZZ_JUNK, "astral": FUZZ_JUNK, "ascii": ASCII_JUNK, "nfc": NFC_JUNK}


def fuzz(work: Path) -> None:
    for seed, (name, letters) in enumerate(FUZZ_LETTERS.items(), start=40):
        out = work / name
        out.mkdir()
        bom = "\ufeff" if name == "bmp" else ""
        (out / "alphabet.json").write_text(bom + json.dumps({"name": name, "letters": letters}),
                                           encoding="utf-8")
        for i in (1, 2):
            text = random_text(letters, 100_000, seed + 10 * i, weights=zipf_weights(len(letters)),
                               space_prob=0.1, junk=FUZZ_JUNK_OF[name],
                               junk_prob=0.05)
            lines = (text[at:at + 70] for at in range(0, len(text), 70))
            head = bom if i == 2 else ""
            (out / f"part{i}.txt").write_bytes((head + "\r\n".join(lines)).encode("utf-8"))
        (out / "manifest.txt").write_text(bom + "part1.txt\npart2.txt\n", encoding="utf-8")


LONG_RUNS = (4095, 4096, 4097, 8191)  # one batch less one letter, one batch, one more, two pieces


def longruns(work: Path) -> None:
    write_az_alphabet(work)
    text = random_text(string.ascii_lowercase, 1_000_000, 5, weights=zipf_weights(26))
    (work / "long.txt").write_text(text, encoding="utf-8")
    names = ["long.txt"]
    for seed, size in enumerate(LONG_RUNS, start=6):
        names.append(f"run{size}.txt")
        (work / names[-1]).write_text(random_text(string.ascii_lowercase, size, seed),
                                      encoding="utf-8")
    (work / "manifest.txt").write_text("".join(f"{name}\n" for name in names))


TIE_SEEDS = "aeio"  # ranks 1 to 4: a and e tie on count, as do i and o, and alphabet order ranks them


def ties(work: Path) -> None:
    write_az_alphabet(work)
    rng = random.Random(23)
    right1, left2, left3, right4 = TIE_SEEDS
    words = []
    for letter in sorted(set(string.ascii_lowercase) - set(TIE_SEEDS)):
        # more beside ranks 1 and 2 than beside ranks 3 and 4, so the seeds rank as listed
        pairs = {right1: rng.randint(3000, 6000), left3: rng.randint(500, 2500)}
        pairs[left2], pairs[right4] = pairs[right1], pairs[left3]
        for seed, count in pairs.items():
            words += (letter + seed if rng.random() < 0.5 else seed + letter for _ in range(count))
    rng.shuffle(words)
    text = "".join(word + rng.choice(AZ_JUNK) for word in words)
    lines = (text[at:at + 75] for at in range(0, len(text), 75))
    (work / "corpus.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    (work / "manifest.txt").write_text("corpus.txt\n")


JOBS = {"stats": stats, "design": design, "corpus-mine": corpus_mine, "baskets": baskets,
        "fuzz": fuzz, "longruns": longruns, "ties": ties}

if __name__ == "__main__":
    if len(sys.argv) != 3 or sys.argv[1] not in JOBS:
        sys.exit(f"usage: recount_inputs.py {{{','.join(JOBS)}}} DIR")
    JOBS[sys.argv[1]](Path(sys.argv[2]))
