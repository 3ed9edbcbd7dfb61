"""Output checks for every timed and traced run.

Two kinds of check. The decision outputs are compared byte for byte with
the digests pinned in pins.json. Independently of those, each workload's
outputs are recomputed from the raw input files by the benchmark's own
arithmetic, which shares no code with keymine: raw-text digraph and
monograph counts for `evaluate-en` and `mine-bn`, subset tests on the TSV
rows for `mine-baskets`, and for `design-en` the audit line, the frequency
ranking and the hand split. A check returns a list of failure messages;
an empty list means the run passed.
"""

from __future__ import annotations

import hashlib
import json
import math
import unicodedata
from collections import Counter
from itertools import combinations
from pathlib import Path

from workloads import Prepared

TRACE_COLUMNS = ("rank", "letter", "hand")


def trace_projection(text: str) -> str:
    """trace.tsv reduced to rank, letter and hand: its float columns may
    change how they are computed, its decisions may not."""
    lines = text.splitlines()
    header = lines[0].split("\t") if lines else []
    if not all(c in header for c in TRACE_COLUMNS):
        return ""
    cols = [header.index(c) for c in TRACE_COLUMNS]
    out = []
    for line in lines:
        parts = line.split("\t")
        out.append("\t".join(parts[c] if c < len(parts) else "" for c in cols))
    return "\n".join(out) + "\n"


def decision_files(prepared: Prepared) -> list[str]:
    """Names of the output files whose bytes are pinned."""
    if prepared.workload == "design-en":
        return ["layout.json", "trace.tsv"]
    if prepared.workload == "evaluate-en":
        names = []
        for i, path in enumerate(prepared.layouts, start=1):
            names += [f"report_{i:02d}_{path.stem}.json", f"report_{i:02d}_{path.stem}.tsv"]
        return names + ["comparison.tsv"]
    return ["frequent_itemsets.tsv", "rules.tsv"]


def output_digests(prepared: Prepared, out_dir: Path) -> dict[str, str | None]:
    digests: dict[str, str | None] = {}
    for name in decision_files(prepared):
        path = out_dir / name
        if not path.is_file():
            digests[name] = None
            continue
        data = path.read_bytes()
        if name == "trace.tsv":
            data = trace_projection(data.decode("utf-8", "replace")).encode("utf-8")
        digests[name] = hashlib.sha256(data).hexdigest()
    return digests


# --------------------------------------------------- raw-text recounting


def _letter_runs(path: Path, letters: frozenset[str]) -> tuple[Counter, Counter, int]:
    """Monograph and ordered digraph counts plus the non-whitespace code
    point total of one file, straight from its NFC text."""
    text = unicodedata.normalize("NFC", path.read_text(encoding="utf-8"))
    chars = "".join(text.split())
    mono = Counter(ch for ch in chars if ch in letters)
    di = Counter(
        (a, b) for a, b in zip(chars, chars[1:]) if a in letters and b in letters
    )
    return mono, di, len(chars)


class CorpusCounts:
    """Corpus-wide monograph counts, ordered digraph counts and token total."""

    def __init__(self, files: list[Path], letters: str):
        alphabet = frozenset(letters)
        self.mono: Counter = Counter()
        self.di: Counter = Counter()
        self.tokens = 0
        for path in files:
            mono, di, total = _letter_runs(path, alphabet)
            self.mono += mono
            self.di += di
            self.tokens += total

    @property
    def digraphs(self) -> int:
        return sum(self.di.values())


# -------------------------------------------------------- per workload


def _parse_tsv(path: Path) -> list[list[str]]:
    lines = path.read_text(encoding="utf-8").splitlines()
    return [line.split("\t") for line in lines[1:]]


def _fmt(x: float) -> str:
    return f"{x:.6f}"


def check_design(prepared: Prepared, out_dir: Path, counts: CorpusCounts) -> list[str]:
    failures = []
    layout = json.loads((out_dir / "layout.json").read_text(encoding="utf-8"))
    geometry = json.loads((out_dir / "geometry.json").read_text(encoding="utf-8"))
    hand_of_position = {p["id"]: p["hand"] for p in geometry}
    mapping = layout["mapping"]
    present = {ch for ch, n in counts.mono.items() if n}
    if set(mapping) != present:
        failures.append("design: layout maps a different letter set than the corpus has")
    order = {ch: i for i, ch in enumerate(prepared.letters)}
    ranking = sorted(present, key=lambda ch: (-counts.mono[ch], order[ch]))
    rows = _parse_tsv(out_dir / "trace.tsv")
    if [r[1] for r in rows] != ranking:
        failures.append("design: trace letters are not in monograph-frequency order")
    for rank, row in enumerate(rows, start=1):
        letter, hand = row[1], row[-1]
        if row[0] != str(rank):
            failures.append(f"design: trace row {rank} has rank {row[0]}")
            break
        if hand_of_position.get(mapping.get(letter)) != hand:
            failures.append(f"design: trace sends {letter!r} {hand}, the layout does not")
            break
    return failures


def _layout_hands(path: Path) -> dict[str, str]:
    layout = json.loads(path.read_text(encoding="utf-8"))
    geometry = json.loads((path.parent / layout["geometry_ref"]).read_text(encoding="utf-8"))
    hand_of_position = {p["id"]: p["hand"] for p in geometry}
    return {letter: hand_of_position[pid] for letter, pid in layout["mapping"].items()}


def expected_report(layout_path: Path, counts: CorpusCounts) -> dict:
    """Evaluation by table arithmetic: switching is the digraph count over
    pairs on different hands, loads are monograph sums."""
    hands = _layout_hands(layout_path)
    name = json.loads(layout_path.read_text(encoding="utf-8"))["name"]
    switching = sum(
        n for (a, b), n in counts.di.items()
        if a in hands and b in hands and hands[a] != hands[b]
    )
    left = sum(n for ch, n in counts.mono.items() if hands.get(ch) == "left")
    right = sum(n for ch, n in counts.mono.items() if hands.get(ch) == "right")
    return {
        "layout_name": name,
        "hand_switching": switching,
        "left_load": left,
        "right_load": right,
        "undetermined": counts.tokens - left - right,
        "total_chars": counts.tokens,
    }


def check_evaluate(prepared: Prepared, out_dir: Path, counts: CorpusCounts) -> list[str]:
    failures = []
    expected_rows = []
    for i, path in enumerate(prepared.layouts, start=1):
        want = expected_report(path, counts)
        stem = f"report_{i:02d}_{path.stem}"
        got = json.loads((out_dir / f"{stem}.json").read_text(encoding="utf-8"))
        if got != want:
            failures.append(f"evaluate: {stem}.json is {got}, raw-text recount gives {want}")
        tsv = _parse_tsv(out_dir / f"{stem}.tsv")
        if tsv != [[str(v) for v in want.values()]]:
            failures.append(f"evaluate: {stem}.tsv disagrees with the raw-text recount")
        typed = want["left_load"] + want["right_load"]
        expected_rows.append([
            want["layout_name"], str(want["hand_switching"]), str(want["left_load"]),
            str(want["right_load"]), str(want["undetermined"]),
            _fmt(want["hand_switching"] / typed if typed else 0.0),
            _fmt(abs(want["left_load"] - want["right_load"]) / typed if typed else 0.0),
        ])
    rows = _parse_tsv(out_dir / "comparison.tsv")
    if sorted(rows) != sorted(expected_rows):
        failures.append("evaluate: comparison.tsv rows disagree with the raw-text recount")
    switching = [int(r[1]) for r in rows if len(r) > 1 and r[1].isdigit()]
    if switching != sorted(switching, reverse=True):
        failures.append("evaluate: comparison.tsv is not ranked by hand switching")
    return failures


def _check_itemsets_and_rules(
    label: str, out_dir: Path, support: dict[frozenset, int], n_rows: int,
    min_count: int, min_confidence: float, complete: bool,
) -> list[str]:
    """Compare reported itemsets and rules with independently counted
    supports. With `complete`, `support` holds every itemset that can be
    frequent, so missing itemsets are caught as well."""
    failures = []
    reported = {}
    for row in _parse_tsv(out_dir / "frequent_itemsets.tsv"):
        items = frozenset(row[0].split(" "))
        count = support.get(items)
        if count is None or str(count) != row[1]:
            failures.append(f"{label}: itemset {row[0]!r} reports {row[1]}, recount gives {count}")
        elif count < min_count:
            failures.append(f"{label}: itemset {row[0]!r} is below the support threshold")
        elif row[2] != _fmt(count / n_rows):
            failures.append(f"{label}: itemset {row[0]!r} support {row[2]} is wrong")
        reported[items] = count
        if len(failures) > 5:
            return failures
    if complete:
        want = {s for s, n in support.items() if n >= min_count}
        if want != set(reported):
            failures.append(f"{label}: {len(want ^ set(reported))} itemsets missing or extra")
    expected_rules = set()
    for items, count in reported.items():
        if count is None:
            continue
        for r in range(1, len(items)):
            for antecedent in combinations(sorted(items), r):
                count_a = support.get(frozenset(antecedent))
                if count_a and count / count_a >= min_confidence:
                    expected_rules.add((
                        frozenset(antecedent), items - frozenset(antecedent),
                        _fmt(count / n_rows), _fmt(count / count_a),
                    ))
    rules = {
        (frozenset(r[0].split(" ")), frozenset(r[1].split(" ")), r[2], r[3])
        for r in _parse_tsv(out_dir / "rules.tsv")
    }
    if rules != expected_rules:
        failures.append(
            f"{label}: rules.tsv has {len(rules - expected_rules)} unexpected and "
            f"{len(expected_rules - rules)} missing rules"
        )
    return failures


def digraph_supports(counts: CorpusCounts) -> dict[frozenset, int]:
    """Support of every single letter and unordered pair when each digraph
    occurrence is one transaction over its (unordered) letters."""
    support: Counter = Counter()
    for (a, b), n in counts.di.items():
        support[frozenset((a, b))] += n
        if a != b:
            support[frozenset((a,))] += n
            support[frozenset((b,))] += n
    return dict(support)


def check_mine_bn(out_dir: Path, counts: CorpusCounts, min_support: str, min_confidence: str) -> list[str]:
    n = counts.digraphs
    min_count = math.ceil(float(min_support) * n)
    # Digraph transactions hold at most two letters, so these supports
    # cover every itemset that can be frequent.
    return _check_itemsets_and_rules(
        "mine-bn", out_dir, digraph_supports(counts), n, min_count, float(min_confidence), True
    )


def read_basket_rows(path: Path) -> list[frozenset[str]]:
    rows = []
    for line in path.read_text(encoding="utf-8").splitlines()[1:]:
        rows.append(frozenset(line.split("\t")[1].split()))
    return rows


def check_baskets(path: Path, out_dir: Path, min_support: str, min_confidence: str) -> list[str]:
    rows = read_basket_rows(path)
    n = len(rows)
    min_count = math.ceil(float(min_support) * n)
    singles = Counter(item for basket in rows for item in basket)
    support: dict[frozenset, int] = {frozenset((item,)): c for item, c in singles.items()}
    for row in _parse_tsv(out_dir / "frequent_itemsets.tsv"):
        items = frozenset(row[0].split(" "))
        for r in range(2, len(items) + 1):
            for sub in combinations(sorted(items), r):
                sub = frozenset(sub)
                if sub not in support:
                    support[sub] = sum(1 for basket in rows if sub <= basket)
    return _check_itemsets_and_rules(
        "mine-baskets", out_dir, support, n, min_count, float(min_confidence), False
    )


class Checker:
    """Checks one workload variant's outputs against its pins and against
    the independent recount. The recount runs once per distinct set of
    output bytes: identical bytes cannot change its verdict."""

    def __init__(self, prepared: Prepared, pinned: dict[str, str] | None):
        self.prepared = prepared
        self.pinned = pinned
        self._counts: CorpusCounts | None = None
        self._passed: set[tuple] = set()

    def counts(self) -> CorpusCounts:
        if self._counts is None:
            self._counts = CorpusCounts(self.prepared.corpus, self.prepared.letters)
        return self._counts

    def _flag(self, name: str) -> str:
        argv = self.prepared.argv
        return argv[argv.index(name) + 1]

    def independent(self, out_dir: Path) -> list[str]:
        w = self.prepared.workload
        if w == "design-en":
            return check_design(self.prepared, out_dir, self.counts())
        if w == "evaluate-en":
            return check_evaluate(self.prepared, out_dir, self.counts())
        if w == "mine-bn":
            return check_mine_bn(
                out_dir, self.counts(),
                self._flag("--min-support"), self._flag("--min-confidence"),
            )
        return check_baskets(
            self.prepared.inputs[0], out_dir, self._flag("--min-support"), self._flag("--min-confidence")
        )

    def check(self, out_dir: Path, stdout: str, exit_code: int) -> list[str]:
        if exit_code != 0:
            return [f"exit code {exit_code}"]
        digests = output_digests(self.prepared, out_dir)
        missing = [name for name, d in digests.items() if d is None]
        if missing:
            return [f"missing outputs: {', '.join(missing)}"]
        failures = []
        if self.pinned is not None:
            differ = sorted(name for name in digests if digests[name] != self.pinned.get(name))
            if differ:
                failures.append(f"outputs differ from the pinned bytes: {', '.join(differ)}")
        if self.prepared.workload == "design-en" and "audit: pass" not in stdout.splitlines():
            failures.append("design: stdout has no 'audit: pass' line")
        key = tuple(sorted(digests.items()))
        if key not in self._passed:
            try:
                found = self.independent(out_dir)
            except (OSError, ValueError, KeyError, IndexError) as exc:
                found = [f"unreadable output: {type(exc).__name__}: {exc}"]
            if found:
                failures += found
            else:
                self._passed.add(key)
        return failures
