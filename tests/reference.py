"""A reference model of keymine's outputs that shares no code with keymine.

It imports nothing from `keymine`: every output of a run is derived again
from the raw inputs by plain standard-library code (differential testing,
McKeeman, "Differential Testing for Software", DTJ 10(1), 1998).

    python tests/reference.py check OUT_DIR

reads the command, its parameters and its input paths from the
`run_manifest.json` that keymine wrote into OUT_DIR; relative paths are
resolved against the current directory, as they were for the run. It
re-derives every n-gram table and summary, every trace hand and layout hand,
every evaluation report and the comparison, every level-1 and level-2
frequent itemset, `min_support_count` and every rule; prints each
disagreement, naming the file; and exits 1 on any.

The hand rule decides on integer joint counts. keymine decides on sums of
floats, which agree except on an exact integer tie, so there either hand is
accepted and the tie is printed.

`support_count` and `brute_force_frequent` are the Apriori test oracles;
they work on plain `{itemset: count}` rows.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
import sys
import unicodedata
from collections import Counter
from fractions import Fraction
from itertools import combinations, zip_longest
from pathlib import Path

HANDS = ("left", "right")
SEED_HANDS = {1: "right", 2: "left", 3: "left", 4: "right"}  # ranks 1-4


def read(path) -> str:
    """A UTF-8 file's text, one leading byte order mark dropped; no newline
    translation."""
    return Path(path).read_bytes().decode("utf-8").removeprefix("\ufeff")


# ---- corpus --------------------------------------------------------------


def manifest_files(path) -> list[Path]:
    """A corpus manifest's files: one path a line, '#' starts a comment,
    relative to the manifest's directory."""
    path = Path(path)
    entries = (line.split("#", 1)[0].strip() for line in read(path).split("\n"))
    return [path.parent / entry for entry in entries if entry]


def letter_runs(texts, letters) -> tuple[list[str], int]:
    """The maximal runs of alphabet letters in each text, once it is NFC and
    its whitespace is dropped, and the count of the other code points left
    (undetermined). No run spans two texts."""
    letter_run = re.compile("[" + "".join(map(re.escape, letters)) + "]+")
    runs, undetermined = [], 0
    for text in texts:
        text = re.sub(r"\s", "", unicodedata.normalize("NFC", text))
        more = letter_run.findall(text)
        runs += more
        undetermined += len(text) - sum(map(len, more))
    return runs, undetermined


def ngrams(runs, n: int) -> Counter:
    """Windows of n letters inside each run, as tuples of letters."""
    return Counter(tuple(run[i : i + n]) for run in runs for i in range(len(run) - n + 1))


def corpus(parameters) -> tuple[list[str], list[str], int, list[Path]]:
    """A corpus command's alphabet letters, letter runs, undetermined count
    and files."""
    letters = json.loads(read(parameters["alphabet"]))["letters"]
    files = manifest_files(parameters["manifest"])
    return letters, *letter_runs(map(read, files), letters), files


def ranked(counts: Counter, letters) -> list:
    """Table rows by descending count, ties by alphabet index."""
    index = {ch: i for i, ch in enumerate(letters)}
    return sorted(counts.items(), key=lambda kv: (-kv[1], [index[ch] for ch in kv[0]]))


def table_lines(counts: Counter, letters) -> list[str]:
    total = sum(counts.values())
    return ["ngram\tcount\tpercentage"] + [
        f"{'+'.join(key)}\t{n}\t{100 * n / total:.6f}" for key, n in ranked(counts, letters)
    ]


# ---- evaluation ----------------------------------------------------------

REPORT_FIELDS = ("layout_name", "hand_switching", "left_load", "right_load", "undetermined", "total_chars")


def report(name: str, hands: dict, mono: Counter, di: Counter, total_chars: int) -> dict:
    """A layout's report by table arithmetic: loads are monograph counts per
    hand, switching the digraphs whose two letters sit on different hands."""
    load = {hand: sum(n for (ch,), n in mono.items() if hands.get(ch) == hand) for hand in HANDS}
    switching = sum(n for (a, b), n in di.items() if a in hands and b in hands and hands[a] != hands[b])
    values = (name, switching, load["left"], load["right"],
              total_chars - load["left"] - load["right"], total_chars)
    return dict(zip(REPORT_FIELDS, values))


def comparison_lines(reports) -> list[str]:
    lines = ["\t".join(REPORT_FIELDS[:5] + ("switching_ratio", "load_imbalance"))]
    for r in sorted(reports, key=lambda r: -r["hand_switching"]):
        typed = r["left_load"] + r["right_load"]
        ratio = r["hand_switching"] / typed if typed else 0.0
        imbalance = abs(r["left_load"] - r["right_load"]) / typed if typed else 0.0
        lines.append("\t".join(str(r[f]) for f in REPORT_FIELDS[:5]) + f"\t{ratio:.6f}\t{imbalance:.6f}")
    return lines


def layout_hands(path) -> tuple[str, dict]:
    """A layout file's name and letter -> hand, through its geometry_ref."""
    path = Path(path)
    layout = json.loads(read(path))
    geometry = json.loads(read(path.parent / layout["geometry_ref"]))
    key_hand = {pos["id"]: pos["hand"] for pos in geometry}
    return layout["name"], {letter: key_hand[pid] for letter, pid in layout["mapping"].items()}


# ---- Apriori -------------------------------------------------------------


class UniverseTooLargeError(ValueError):
    """Brute-force enumeration refused: the universe is too big."""


def support_count(rows: dict, items) -> int:
    """Number of transactions holding every given item."""
    needed = frozenset(items)
    return sum(n for row, n in rows.items() if needed.issubset(row))


def brute_force_frequent(universe, rows: dict, least: int) -> dict:
    """Every itemset held by at least `least` transactions, with its count,
    level by level in universe order: each subset of the universe is counted
    by `support_count`. Refuses universes above 20 items."""
    if len(universe) > 20:
        raise UniverseTooLargeError(
            f"brute force over {len(universe)} items would enumerate "
            f"2^{len(universe)} subsets; limit is 20"
        )
    found: dict = {}
    for k in range(1, len(universe) + 1):
        level = {items: support_count(rows, items) for items in combinations(universe, k)}
        level = {items: n for items, n in level.items() if n >= least}
        if not level:
            break
        found.update(level)
    return found


def exact_fraction(text: str, transactions: int) -> Fraction:
    """The exact fraction of a decimal threshold's text, or 0 when it lies
    below 10**-len(str(transactions)), under 1/transactions, the least ratio
    of two counts of at most `transactions`: there the Fraction of a text
    such as 1e-999999999 is too big to build."""
    text = text.strip()
    digits, _, exponent = text.lower().partition("e")
    if exponent and len(digits) + int(exponent) <= -len(str(transactions)):
        return Fraction(0)
    return Fraction(text)


def support_threshold(text: str, transactions: int) -> int:
    """`min_support_count` for a --min-support text: an integer is the count
    itself, any other number the exact fraction of the transactions, rounded
    up, and at least 1."""
    text = text.strip()
    if re.fullmatch(r"[+-]?\d+", text):
        return int(text)
    return max(1, math.ceil(exact_fraction(text, transactions) * transactions))


def rule_lines(found: dict, confidence: str, transactions: int) -> list[str]:
    """rules.tsv re-derived from the found itemset counts: for each set of at
    least 2 items, in the found order, each non-empty proper antecedent A in
    `combinations` order, kept when count * den >= num * count(A), where
    num/den is the exact fraction of the --min-confidence text."""
    lines = ["antecedent\tconsequent\tsupport\tconfidence"]
    if float(confidence) > 1:
        return lines  # no confidence exceeds 1, and 1e999999999 has no Fraction to build
    bar = exact_fraction(confidence, transactions)
    for items, n in found.items():
        for size in range(1, len(items)):
            for antecedent in combinations(items, size):
                if n * bar.denominator >= bar.numerator * found[antecedent]:
                    consequent = [item for item in items if item not in antecedent]
                    lines.append(f"{' '.join(antecedent)}\t{' '.join(consequent)}"
                                 f"\t{n / transactions:.6f}\t{n / found[antecedent]:.6f}")
    return lines


def basket_rows(path) -> Counter:
    """A transaction TSV's rows: each line's distinct items, in string order."""
    rows: Counter = Counter()
    for line in read(path).replace("\r\n", "\n").split("\n"):
        if line.strip() and not line.startswith("#") and line != "tid\titems":
            _, items = line.split("\t")
            rows[tuple(sorted(set(items.split())))] += 1
    return rows


def low_levels(rows: dict, rank: dict, least: int) -> dict:
    """Levels 1 and 2 of the frequent itemsets, each in universe order, counted
    with `Counter`s: items, then the pairs of frequent items in each row."""
    singles = Counter()
    for row, n in rows.items():
        for item in row:
            singles[item] += n
    frequent = sorted((item for item, n in singles.items() if n >= least), key=rank.get)
    keep = set(frequent)
    pairs = Counter()
    for row, n in rows.items():
        for pair in combinations(sorted(keep.intersection(row), key=rank.get), 2):
            pairs[pair] += n
    found = {(item,): singles[item] for item in frequent}
    found.update((pair, pairs[pair]) for pair in combinations(frequent, 2) if pairs[pair] >= least)
    return found


# ---- checks, one per command ----------------------------------------------


def differ(path, got: str, want: list[str]):
    """One disagreement naming the first line of `path` that is not `want`."""
    for i, pair in enumerate(zip_longest(got.split("\n"), [*want, ""])):
        if pair[0] != pair[1]:
            g, w = ("the end of the file" if text is None else repr(text) for text in pair)
            yield f"{path}: line {i + 1} is {g}, the reference has {w}"
            return


def check_stats(out: Path, parameters: dict):
    letters, runs, undetermined, files = corpus(parameters)
    tables = {n: ngrams(runs, n) for n in (1, 2, 3)}
    for n, name in ((1, "monographs.tsv"), (2, "digraphs.tsv"), (3, "trigraphs.tsv")):
        yield from differ(out / name, read(out / name), table_lines(tables[n], letters))
    summary = {"total_letters": sum(tables[1].values()), "distinct_letters": len(tables[1]),
               "undetermined": undetermined, "sources": len(files)}
    if parameters["format"] == "json":
        got = json.loads(read(out / "summary.json"))
        if got != summary:
            yield f"{out / 'summary.json'}: {got}, the reference has {summary}"
    else:
        lines = [f"{key}\t{value}" for key, value in summary.items()]
        yield from differ(out / "summary.tsv", read(out / "summary.tsv"), lines)


def check_design(out: Path, parameters: dict):
    """Each trace row's rank, letter, hand and (to 1e-9) its four floats; the
    layout places each hand's letters, in rank order, on its positions
    cheapest first, the base layer first on equal cost."""
    letters, runs, _, _ = corpus(parameters)
    mono, di = ngrams(runs, 1), ngrams(runs, 2)
    ranking = [key[0] for key, n in ranked(mono, letters)]
    path = out / "trace.tsv"
    rows = [line.split("\t") for line in read(path).split("\n")[1:-1]]
    if len(rows) != len(ranking):
        yield f"{path}: {len(rows)} rows for the reference's {len(ranking)} ranked letters"
    total = sum(di.values())
    holding = Counter()  # digraphs holding each letter, a doubled letter once
    for (a, b), n in di.items():
        holding[a] += n
        if b != a:
            holding[b] += n
    placed = {hand: [] for hand in HANDS}
    alternated = 0  # `balanced` letters sent by alternation so far
    for rank, (letter, row) in enumerate(zip(ranking, rows), start=1):
        if row[:2] != [str(rank), letter]:
            yield f"{path}: row {rank} is {row[:2]}, the reference ranks {letter!r} {rank}"
            return
        jl, jr = (sum(di[letter, y] + di[y, letter] for y in placed[hand]) for hand in HANDS)
        own = holding[letter]
        floats = [j / total if total else 0.0 for j in (jl, jr)]
        floats += [j / own if own else 0.0 for j in (jl, jr)]
        if not all(math.isclose(float(g), w, rel_tol=1e-9) for g, w in zip(row[2:6], floats)):
            yield f"{path}: rank {rank} {letter!r}: {row[2:6]}, the reference has {floats}"
        got = row[6]
        if rank in SEED_HANDS:
            want = SEED_HANDS[rank]
        elif jl != jr:  # opposite the hand it shares more digraphs with
            want = "right" if jl > jr else "left"
        else:
            want = HANDS[alternated % 2] if parameters["tie_policy"] == "balanced" else "left"
            print(f"{path}: rank {rank} {letter!r}: exact tie at {jl}; the rule gives {want}, "
                  f"keymine chose {got}")
            if got == want and parameters["tie_policy"] == "balanced":
                alternated += 1
            if got in HANDS:
                want = got
        if got != want:
            yield (f"{path}: rank {rank} {letter!r}: joint counts {jl} left, {jr} right; "
                   f"hand {got!r}, the rule gives {want!r}")
            if got not in HANDS:
                return
        placed[got].append(letter)
    geometry = json.loads(read(out / "geometry.json"))
    if parameters["geometry"] != "<default>" and read(out / "geometry.json") != read(parameters["geometry"]):
        yield f"{out / 'geometry.json'}: not a copy of {parameters['geometry']}"
    want_mapping = {}
    for hand in HANDS:
        slots = sorted((pos for pos in geometry if pos["hand"] == hand),
                       key=lambda pos: (pos["cost"], pos["layer"] != "base"))
        want_mapping.update(zip(placed[hand], (pos["id"] for pos in slots)))
    layout = json.loads(read(out / "layout.json"))
    key_hand = {pos["id"]: pos["hand"] for pos in geometry}
    for letter in sorted(set(layout["mapping"]) | set(want_mapping)):
        got, want = layout["mapping"].get(letter), want_mapping.get(letter)
        if got != want:
            yield (f"{out / 'layout.json'}: {letter!r} on {got} ({key_hand.get(got)} hand), "
                   f"the reference places it on {want} ({key_hand.get(want)} hand)")
    if (layout["name"], layout["geometry_ref"]) != (parameters["name"], "geometry.json"):
        yield f"{out / 'layout.json'}: name or geometry_ref differ from the run's"


def check_evaluate(out: Path, parameters: dict):
    letters, runs, undetermined, _ = corpus(parameters)
    mono, di = ngrams(runs, 1), ngrams(runs, 2)
    total_chars = sum(mono.values()) + undetermined
    reports = []
    for i, layout_path in enumerate(parameters["layouts"], start=1):
        want = report(*layout_hands(layout_path), mono, di, total_chars)
        reports.append(want)
        stem = out / f"report_{i:02d}_{Path(layout_path).stem}"
        got = json.loads(read(f"{stem}.json"))
        for field in REPORT_FIELDS:
            if got.get(field) != want[field]:
                yield f"{stem}.json: {field} is {got.get(field)!r}, the reference has {want[field]!r}"
        lines = ["\t".join(REPORT_FIELDS), "\t".join(map(str, want.values()))]
        yield from differ(f"{stem}.tsv", read(f"{stem}.tsv"), lines)
    yield from differ(out / "comparison.tsv", read(out / "comparison.tsv"), comparison_lines(reports))


def check_compare_only(out: Path, parameters: dict):
    reports = [json.loads(read(path)) for path in parameters["reports"]]
    yield from differ(out / "comparison.tsv", read(out / "comparison.tsv"), comparison_lines(reports))


def check_mine(out: Path, parameters: dict):
    """`min_support_count`; levels 1-2 of frequent_itemsets.tsv, row for row;
    every longer row's count and its place in (size, universe) order; over
    at most 20 items, every row against the brute-force oracle; and every
    line of rules.tsv, from the found counts."""
    if "transactions" in parameters:
        rows = basket_rows(parameters["transactions"])
        universe = sorted({item for row in rows for item in row})
    else:
        letters, runs, _, _ = corpus(parameters)
        index = {ch: i for i, ch in enumerate(letters)}
        rows = Counter()
        for pair, n in ngrams(runs, 2).items():  # one transaction per digraph, order forgotten
            rows[tuple(sorted(set(pair), key=index.get))] += n
        universe = sorted({item for row in rows for item in row}, key=index.get)
    rank = {item: i for i, item in enumerate(universe)}
    transactions = sum(rows.values())
    least = support_threshold(parameters["min_support"], transactions)
    if least != parameters["min_support_count"]:
        yield (f"{out / 'run_manifest.json'}: min_support_count {parameters['min_support_count']}, "
               f"the reference has {least} for {parameters['min_support']!r} of {transactions}")
    path = out / "frequent_itemsets.tsv"
    found = {}
    for line in read(path).split("\n")[1:-1]:
        itemset, count, _ = line.split("\t")
        found[tuple(itemset.split(" "))] = int(count)
    # levels 1-2 as the reference counts them, then the longer rows as found
    want = {**low_levels(rows, rank, least), **{s: n for s, n in found.items() if len(s) > 2}}
    lines = [f"{' '.join(items)}\t{n}\t{n / transactions:.6f}" for items, n in want.items()]
    yield from differ(path, read(path), ["itemset\tcount\tsupport", *lines])
    for items, n in found.items():
        if len(items) > 2 and not n == support_count(rows, items) >= least:
            yield f"{path}: {' '.join(items)} counted {n}, the reference counts {support_count(rows, items)}"
    order = [(len(items), [rank.get(item, -1) for item in items]) for items in found]
    if order != sorted(order):
        yield f"{path}: itemsets are not in (size, universe) order"
    if len(universe) <= 20:
        want = brute_force_frequent(universe, rows, least)
        if found != want:
            yield f"{path}: {len(found)} itemsets, the brute-force oracle finds {len(want)}"
    rules = out / "rules.tsv"
    yield from differ(rules, read(rules),
                      rule_lines(found, parameters["min_confidence_text"], transactions))


CHECKS = {"stats": check_stats, "design": check_design, "evaluate": check_evaluate,
          "mine": check_mine, "compare-only": check_compare_only}


def check(out_dir) -> list[str]:
    """Every disagreement between the run in `out_dir` and the reference."""
    out = Path(out_dir)
    run = json.loads(read(out / "run_manifest.json"))
    problems = []
    try:
        for name, digest in run["inputs"].items():
            if hashlib.sha256(Path(name).read_bytes()).hexdigest() != digest:
                problems.append(f"{name}: changed since the run (sha256 in {out / 'run_manifest.json'})")
        problems += CHECKS[run["command"]](out, run["parameters"])
    except (OSError, LookupError, ValueError, TypeError) as exc:
        problems.append(f"{out}: cannot check the {run['command']} run: {exc!r}")
    return problems


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2 or argv[0] != "check":
        print("usage: python tests/reference.py check OUT_DIR", file=sys.stderr)
        return 2
    problems = check(argv[1])
    for problem in problems:
        print(problem)
    print(f"reference: {len(problems)} disagreement(s) in {argv[1]}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
