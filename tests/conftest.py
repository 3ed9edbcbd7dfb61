"""Shared fixtures: the nine-transaction demo database, repo paths, a spy
on Apriori's counting, a helper that counts a text's letter tables, one
that builds a hand partition from hand lists, and one that scores a layout
the way `keymine evaluate` does."""

from collections import Counter
from pathlib import Path

import pytest

from keymine import mining
from keymine.corpus import LetterStream, count_ngraphs, tokenize
from keymine.evaluation import EvalReport, evaluate
from keymine.layout import HandPartition, Layout, TraceRecord
from keymine.mining import CountedItemset, TransactionDB

REPO = Path(__file__).resolve().parent.parent
DATA = REPO / "data"

MARKET9_ROWS = [
    ("T100", ["I1", "I2", "I5"]),
    ("T200", ["I2", "I4"]),
    ("T300", ["I2", "I3"]),
    ("T400", ["I1", "I2", "I4"]),
    ("T500", ["I1", "I3"]),
    ("T600", ["I2", "I3"]),
    ("T700", ["I1", "I3"]),
    ("T800", ["I1", "I2", "I3", "I5"]),
    ("T900", ["I1", "I2", "I3"]),
]
MARKET9_UNIVERSE = ("I1", "I2", "I3", "I4", "I5")


def market9_db() -> TransactionDB:
    """The nine transactions as counted rows, built apart from the TSV reader."""
    return TransactionDB(MARKET9_UNIVERSE, Counter(tuple(items) for _, items in MARKET9_ROWS))


@pytest.fixture
def market9() -> TransactionDB:
    return market9_db()


@pytest.fixture
def count_spy(monkeypatch) -> list[list[CountedItemset]]:
    """Every scan `mining._LevelRows.count` makes while the test runs: one
    list per call, holding each candidate with its count in the order the
    call returns them. Clear it to start a new record."""
    scans: list[list[CountedItemset]] = []
    count = mining._LevelRows.count

    def spy(rows, candidates, k):
        counted, supports = count(rows, candidates, k)
        scan = list(map(CountedItemset, counted, supports))
        assert len(scan) == len(supports)  # the two sequences are aligned
        scans.append(scan)
        return [ci.items for ci in scan], supports

    monkeypatch.setattr(mining._LevelRows, "count", spy)
    return scans


def write_transactions_tsv(db: TransactionDB, path: Path) -> None:
    """Write one TSV line per transaction: a row of multiplicity n is n lines."""
    lines = ["tid\titems"]
    for row, n in db.rows.items():
        lines += [f"T{len(lines)}\t{' '.join(row)}" for _ in range(n)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def corpus_tables(text, alphabet):
    """The monograph and digraph tables of one text."""
    stream = tokenize(text, alphabet)
    return count_ngraphs(stream, 1), count_ngraphs(stream, 2)


def hand_partition(left=(), right=()) -> HandPartition:
    """A partition with these letters on each hand, in the order given: trace
    records with the given hands and zero statistics, left letters first."""
    hands = [(letter, "left") for letter in left] + [(letter, "right") for letter in right]
    return HandPartition([TraceRecord(rank, letter, 0.0, 0.0, 0.0, 0.0, hand)
                          for rank, (letter, hand) in enumerate(hands, start=1)])


def score(layout: Layout, *streams: LetterStream) -> EvalReport:
    """Evaluate a layout as `keymine evaluate` does: the runs of every source
    in one stream, whose tables are counted once."""
    stream = join_streams(*streams)
    mono, di = count_ngraphs(stream, 1), count_ngraphs(stream, 2)
    return evaluate(mono, di, mono.total + stream.undetermined_count, layout)


def join_streams(*streams: LetterStream) -> LetterStream:
    """One stream holding the runs and undetermined counts of all sources."""
    return LetterStream([run for s in streams for run in s.runs],
                        sum(s.undetermined_count for s in streams), streams[0].alphabet)


@pytest.fixture
def data_dir() -> Path:
    return DATA


# One pass/fail line per acceptance criterion, shown in the terminal summary
# regardless of capture settings. test_acceptance.py appends to this.
ACCEPTANCE_RESULTS: list[tuple[str, bool, str]] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for name, ok, detail in ACCEPTANCE_RESULTS:
        status = "PASS" if ok else "FAIL"
        suffix = f" ({detail})" if detail else ""
        terminalreporter.write_line(f"{status}  {name}{suffix}")
