"""Seeded inputs and keymine arguments for each workload.

Inputs are built with `keymine.synth` and plain `random`; nothing else of
the program runs while they are generated, except `keymine design` for the
one designed layout that `evaluate-en` scores.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import shutil
import string
from dataclasses import dataclass, field
from pathlib import Path

# Why each workload exists is in BENCHMARK.json and README.md.
WORKLOADS = ("design-en", "evaluate-en", "mine-bn", "mine-baskets")

# A seed selects one of this many input variants, each with pinned input
# and output digests in pins.json, so every run compares byte for byte.
VARIANTS = 32

ENGLISH = string.ascii_lowercase
BENGALI = (
    "অআইঈউঊঋএঐওঔ"
    "কখগঘঙচছজঝঞট"
    "ঠডঢণতথদধনপফ"
    "বভমযরলশষসহ়"
    "ৎংঃঁািীুূৃে"
    "ৈোৌ্"
)
EN_JUNK = "0123456789.,;:!?'-"
BN_JUNK = "।,0123456789০১"  # danda and Bengali digits

DESIGN_FILES, DESIGN_CHARS = 4, 32_000
EVAL_FILES, EVAL_CHARS = 4, 45_000
EVAL_RANDOM, EVAL_PARTIAL = 15, 8
BN_FILES, BN_CHARS = 8, 20_000
BN_MIN_SUPPORT, BN_MIN_CONFIDENCE = "0.00002", "0.05"
BASKET_ROWS = 15_000
BASKET_BACKGROUND = 300
BASKET_GROUPS, BASKET_GROUP_SIZE = 8, 5
BASKET_MIN_SUPPORT, BASKET_MIN_CONFIDENCE = "0.005", "0.5"


class BenchError(Exception):
    """The benchmark cannot produce a valid result; it exits non-zero."""


def digest_files(paths: list[Path], base: Path) -> str:
    """One digest over the relative names and bytes of the given files."""
    h = hashlib.sha256()
    for p in sorted(paths, key=lambda p: p.relative_to(base).as_posix()):
        h.update(p.relative_to(base).as_posix().encode() + b"\0")
        data = p.read_bytes()
        h.update(str(len(data)).encode() + b"\0" + data)
    return h.hexdigest()


@dataclass
class Prepared:
    """Generated inputs of one workload variant plus what the checks expect."""

    workload: str
    variant: int
    inputs: list[Path]
    argv: list[str]
    base: Path
    corpus: list[Path] = field(default_factory=list)
    letters: str = ""
    layouts: list[Path] = field(default_factory=list)

    def input_digest(self) -> str:
        return digest_files(self.inputs, self.base)

    def input_bytes(self) -> int:
        return sum(p.stat().st_size for p in self.inputs)


# ---------------------------------------------------------------- inputs


def _write_alphabet(path: Path, name: str, letters: str) -> None:
    path.write_text(
        json.dumps({"name": name, "letters": list(letters)}, ensure_ascii=False, indent=2) + "\n",
        encoding="utf-8",
    )


def _write_corpus(base: Path, prefix: str, texts: list[str]) -> list[Path]:
    files = []
    for i, text in enumerate(texts, start=1):
        path = base / f"{prefix}{i:02d}.txt"
        # Break the soup into lines so files look like text, not one record.
        lines = [text[j : j + 72] for j in range(0, len(text), 72)]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        files.append(path)
    (base / "manifest.txt").write_text(
        "".join(f"{p.name}\n" for p in files), encoding="utf-8"
    )
    return files


def _english_texts(synth, seed: int, files: int, chars: int) -> list[str]:
    weights = synth.zipf_weights(len(ENGLISH))
    return [
        synth.random_text(
            ENGLISH, chars, seed * 100 + i, weights=weights,
            space_prob=0.15, junk=EN_JUNK, junk_prob=0.01,
        )
        for i in range(files)
    ]


def _prepare_design(synth, variant: int, base: Path) -> Prepared:
    _write_alphabet(base / "alphabet.json", "english", ENGLISH)
    files = _write_corpus(base, "en", _english_texts(synth, 1000 + variant, DESIGN_FILES, DESIGN_CHARS))
    inputs = [base / "alphabet.json", base / "manifest.txt", *files]
    argv = ["design", "--alphabet", str(base / "alphabet.json"), "--manifest", str(base / "manifest.txt")]
    return Prepared("design-en", variant, inputs, argv, base, files, ENGLISH)


def _random_layout(rng: random.Random, name: str, letters: list[str], positions: dict, unmapped: int) -> dict:
    letters = list(letters)
    rng.shuffle(letters)
    letters = letters[: len(letters) - unmapped]
    n_left = rng.randint(len(letters) // 2 - 3, len(letters) // 2 + 3)
    mapping = {}
    for hand, group in (("left", letters[:n_left]), ("right", letters[n_left:])):
        slots = rng.sample(positions[hand], len(group))
        mapping.update(zip(group, slots))
    return {"name": name, "geometry_ref": "geometry.json", "mapping": dict(sorted(mapping.items()))}


def _prepare_evaluate(synth, variant: int, base: Path, design_layout) -> Prepared:
    """`design_layout(alphabet, manifest, out_dir)` runs `keymine design`;
    its layout.json and geometry.json become two of the inputs."""
    _write_alphabet(base / "alphabet.json", "english", ENGLISH)
    files = _write_corpus(base, "en", _english_texts(synth, 2000 + variant, EVAL_FILES, EVAL_CHARS))
    layouts = base / "layouts"
    layouts.mkdir()
    # The designed layout comes from the first corpus file alone, which
    # keeps set-up short.
    first = base / "design_manifest.txt"
    first.write_text(files[0].name + "\n", encoding="utf-8")
    design_out = base / "design_out"
    design_layout(base / "alphabet.json", first, design_out)
    (layouts / "geometry.json").write_bytes((design_out / "geometry.json").read_bytes())
    (layouts / "designed.json").write_bytes((design_out / "layout.json").read_bytes())
    shutil.rmtree(design_out)
    first.unlink()

    geometry = json.loads((layouts / "geometry.json").read_text(encoding="utf-8"))
    positions = {
        hand: sorted(p["id"] for p in geometry if p["hand"] == hand)
        for hand in ("left", "right")
    }
    rng = random.Random(3000 + variant)
    layout_files = [layouts / "designed.json"]
    specs = [(f"random-{j:02d}", 0) for j in range(1, EVAL_RANDOM + 1)]
    specs += [(f"partial-{j:02d}", rng.randint(2, 8)) for j in range(1, EVAL_PARTIAL + 1)]
    for name, unmapped in specs:
        path = layouts / f"{name}.json"
        data = _random_layout(rng, name, list(ENGLISH), positions, unmapped)
        path.write_text(json.dumps(data, indent=2) + "\n", encoding="utf-8")
        layout_files.append(path)
    inputs = [base / "alphabet.json", base / "manifest.txt", *files, layouts / "geometry.json", *layout_files]
    argv = [
        "evaluate", "--alphabet", str(base / "alphabet.json"),
        "--manifest", str(base / "manifest.txt"), *map(str, layout_files),
    ]
    return Prepared("evaluate-en", variant, inputs, argv, base, files, ENGLISH, layout_files)


def _prepare_mine_bn(synth, variant: int, base: Path) -> Prepared:
    _write_alphabet(base / "alphabet.json", "bangla", BENGALI)
    # Weights 1/sqrt(rank) keep even the rarest letter pair far above the
    # support threshold, so all 1711 pairs are frequent on every variant.
    weights = [1.0 / math.sqrt(k) for k in range(1, len(BENGALI) + 1)]
    texts = [
        synth.random_text(
            BENGALI, BN_CHARS, (4000 + variant) * 100 + i, weights=weights,
            space_prob=0.12, junk=BN_JUNK, junk_prob=0.01,
        )
        for i in range(BN_FILES)
    ]
    files = _write_corpus(base, "bn", texts)
    inputs = [base / "alphabet.json", base / "manifest.txt", *files]
    argv = [
        "mine", "--alphabet", str(base / "alphabet.json"), "--manifest", str(base / "manifest.txt"),
        "--min-support", BN_MIN_SUPPORT, "--min-confidence", BN_MIN_CONFIDENCE,
    ]
    return Prepared("mine-bn", variant, inputs, argv, base, files, BENGALI)


def _basket_rows(variant: int) -> list[list[str]]:
    """Rows of a market-basket database with planted co-occurring groups.

    A group joins a row with probability 0.06, each member dropped with
    probability 0.1, so every subset of every group is frequent. Background
    items are uniform: each is frequent on its own (about 1.7% of rows
    against a 0.5% threshold), but no pair of them comes near it.
    """
    rng = random.Random(5000 + variant)
    background = [f"b{i:03d}" for i in range(BASKET_BACKGROUND)]
    groups = [
        [f"g{g}{chr(ord('a') + j)}" for j in range(BASKET_GROUP_SIZE)]
        for g in range(BASKET_GROUPS)
    ]
    rows = []
    for _ in range(BASKET_ROWS):
        row: list[str] = []
        for group in groups:
            if rng.random() < 0.06:
                row += [item for item in group if rng.random() >= 0.1]
        row += rng.sample(background, rng.randint(1, max(1, 10 - len(row))))
        rows.append(row[:10])
    return rows


def _prepare_baskets(variant: int, base: Path) -> Prepared:
    path = base / "baskets.tsv"
    lines = ["tid\titems"]
    lines += [f"R{i}\t{' '.join(row)}" for i, row in enumerate(_basket_rows(variant), start=1)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    argv = [
        "mine", "--transactions", str(path),
        "--min-support", BASKET_MIN_SUPPORT, "--min-confidence", BASKET_MIN_CONFIDENCE,
    ]
    return Prepared("mine-baskets", variant, [path], argv, base)


def prepare(workload: str, variant: int, base: Path, design_layout) -> Prepared:
    """Generate one workload variant's inputs under `base` (created empty)."""
    from keymine import synth

    base.mkdir(parents=True)
    if workload == "design-en":
        return _prepare_design(synth, variant, base)
    if workload == "evaluate-en":
        return _prepare_evaluate(synth, variant, base, design_layout)
    if workload == "mine-bn":
        return _prepare_mine_bn(synth, variant, base)
    if workload == "mine-baskets":
        return _prepare_baskets(variant, base)
    raise BenchError(f"unknown workload {workload!r}")
