"""Shared fixtures: the nine-transaction demo database, repo paths, the
commands behind the golden files run once a session, a spy on Apriori's
counting, a helper that counts texts through `CorpusCounts` as a command
counts its corpus files, one that builds the tables `keymine design` and
`keymine evaluate` work from, one that builds a hand partition from hand
lists, and one that scores a layout the way `keymine evaluate` does."""

import contextlib
import io
from collections import Counter
from pathlib import Path

import pytest

from keymine import mining
from keymine.cli import main
from keymine.corpus import AlphabetConfig, CorpusCounts, NGraphTable, derive_lower
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


ENGLISH = ["--alphabet", str(DATA / "alphabets" / "english.json"),
           "--manifest", str(DATA / "sample" / "manifest.txt")]
BANGLA = ["--alphabet", str(DATA / "alphabets" / "bangla.json"),
          "--manifest", str(DATA / "bangla" / "manifest.txt")]
WIDE = ["--geometry", str(DATA / "bangla" / "layouts" / "geometry.json")]

# the commands behind the sample and Bangla golden files, in dependency
# order; "{tmp}" is the directory holding every run's output directory
GOLDEN_RUNS = {
    "sample-stats": ["stats", *ENGLISH],
    "sample-design": ["design", *ENGLISH],
    "sample-evaluate": ["evaluate", *ENGLISH, "{tmp}/sample-design/layout.json",
                        str(DATA / "sample" / "layouts" / "partial.json")],
    "sample-mine": ["mine", *ENGLISH, "--min-support", "0.01", "--min-confidence", "0.1"],
    "market9": ["mine", "--transactions", str(DATA / "market9.tsv"),
                "--min-support", "2", "--min-confidence", "0.7"],
    "baskets400": ["mine", "--transactions", str(DATA / "baskets400.tsv"),
                   "--min-support", "0.04", "--min-confidence", "0.6"],
    "compare-only": ["compare-only", "{tmp}/sample-evaluate/report_01_layout.json",
                     "{tmp}/sample-evaluate/report_02_partial.json"],
    "bangla-stats": ["stats", *BANGLA],
    "bangla-design-left-biased": ["design", *BANGLA, *WIDE, "--tie-policy", "left-biased"],
    "bangla-design-balanced": ["design", *BANGLA, *WIDE, "--tie-policy", "balanced"],
    "bangla-evaluate": ["evaluate", *BANGLA, "{tmp}/bangla-design-left-biased/layout.json",
                        str(DATA / "bangla" / "layouts" / "partial.json")],
    "bangla-mine": ["mine", *BANGLA, "--min-support", "0.01", "--min-confidence", "0.1"],
}


def run_all(tmp: Path, runs: dict) -> Path:
    """Run each command in order, into `tmp/<name>`, and keep its stdout in
    `tmp/<name>.stdout`."""
    for name, argv in runs.items():
        argv = [arg.format(tmp=tmp) for arg in argv]
        with contextlib.redirect_stdout(io.StringIO()) as stdout:
            assert main([*argv, "--output-dir", str(tmp / name)]) == 0, name
        (tmp / f"{name}.stdout").write_text(stdout.getvalue(), encoding="utf-8")
    return tmp


@pytest.fixture(scope="session")
def golden_runs(tmp_path_factory) -> Path:
    """Every `GOLDEN_RUNS` command, run once a session. A test that edits a
    run's files edits a copy."""
    return run_all(tmp_path_factory.mktemp("golden"), GOLDEN_RUNS)


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


def counts_of(alphabet: AlphabetConfig, n: int, *sources) -> CorpusCounts:
    """`CorpusCounts` of order n over the sources, as a command counts its
    corpus files: each source is a text or a list of its pieces, and ends
    with `end_source`, so no n-gram crosses two."""
    counts = CorpusCounts(alphabet, n)
    for source in sources:
        for piece in [source] if isinstance(source, str) else source:
            counts.add_text(piece)
        counts.end_source()
    return counts


def design_tables(alphabet: AlphabetConfig,
                  *sources) -> tuple[NGraphTable, NGraphTable, CorpusCounts]:
    """The monograph and digraph tables of the sources, as `keymine design`
    and `keymine evaluate` build them: digraphs counted, monographs derived
    from them; and the counts they came from."""
    counts = counts_of(alphabet, 2, *sources)
    digraphs = counts.table()
    return derive_lower(digraphs, counts.ends), digraphs, counts


def hand_partition(left=(), right=()) -> HandPartition:
    """A partition with these letters on each hand, in the order given: trace
    records with the given hands and zero statistics, left letters first."""
    hands = [(letter, "left") for letter in left] + [(letter, "right") for letter in right]
    return HandPartition([TraceRecord(rank, letter, 0.0, 0.0, 0.0, 0.0, hand)
                          for rank, (letter, hand) in enumerate(hands, start=1)])


def score(layout: Layout, alphabet: AlphabetConfig, *texts: str) -> EvalReport:
    """Evaluate a layout as `keymine evaluate` does: each text one source,
    the digraphs of all of them counted once and the monographs derived."""
    mono, di, counts = design_tables(alphabet, *texts)
    return evaluate(mono, di, mono.total + counts.undetermined_count, layout)


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
