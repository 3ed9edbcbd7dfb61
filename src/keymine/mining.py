"""Apriori frequent-itemset mining and strong-association-rule generation.

Works over an in-memory transaction database of counted rows, one per
distinct itemset. Itemsets are kept as tuples in canonical universe order,
holding the universe's own item objects, so a database keeps one string per
item however many rows it has. Each level joins within groups that share a
prefix, and its candidates come out in universe order. The miner performs
exactly one scan per level. Before a scan the rows are cut to the items that
some candidate holds and, from k = 3 on, split into the pieces that the
level's candidates link together; the rows are kept for the next level,
which cuts them further, so rows that become equal merge and rows too short
for the level drop out. At k = 2 the scan adds each row's multiplicity for
every pair it holds into one flat triangular array of counts; at every other
k it counts the size-k subsets of the rows in one `Counter`. Each candidate's
count is read out as the candidates are walked: level 2's, every pair of
frequent items, come lazily from the join and are never listed, and a level
keeps only its frequent itemsets and the number of candidates it counted. A
level longer than every row is never built: it is a scan over no rows,
recorded only when its join yields a candidate.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain, combinations, repeat
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator, NamedTuple, Sequence

from .corpus import IngestionError, NGraphTable, read_text

if TYPE_CHECKING:
    from decimal import Decimal


class MiningInvariantError(RuntimeError):
    """Internal inconsistency, e.g. a frequent itemset with an uncounted subset."""


class TransactionDB:
    """Item transactions as counted rows: `rows` maps each distinct itemset
    (deduplicated, in universe order) to the number of transactions holding
    exactly it. `len(db)` is the total transaction count."""

    __slots__ = ("universe", "rows")

    def __init__(self, universe: tuple[str, ...], rows: dict[tuple[str, ...], int]) -> None:
        self.universe = universe
        self.rows = rows

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.universe, self.rows) == (other.universe, other.rows)

    def __len__(self) -> int:
        return sum(self.rows.values())


class _MiningParams(NamedTuple):
    min_support_count: int
    min_confidence: float | Decimal


class MiningParams(_MiningParams):
    """Thresholds for the miner. Support is an absolute transaction count.

    Confidence is decided on the exact ratio of its decimal text: a float's
    shortest text (0.1 is one tenth) or a `Decimal`'s own digits. A
    confidence above 1.0 is permitted but unsatisfiable: it yields no rules.
    """

    __slots__ = ()

    def __new__(cls, min_support_count: int, min_confidence: float | Decimal) -> MiningParams:
        if min_support_count < 1:
            raise ValueError("min_support_count must be >= 1")
        # NaN is unequal to itself; ordering a Decimal NaN would raise instead of failing
        if min_confidence != min_confidence or min_confidence < 0:
            raise ValueError("min_confidence must be >= 0")
        return super().__new__(cls, min_support_count, min_confidence)

    @classmethod
    def _make(cls, iterable: Iterable) -> MiningParams:
        return cls(*iterable)  # so `_replace` validates too


class CountedItemset(NamedTuple):
    items: tuple[str, ...]
    support_count: int


class FrequentLevel(NamedTuple):
    """One Apriori level: the frequent k-itemsets with their counts, and
    `candidates`, the number of k-itemsets counted to find them."""

    k: int
    universe: tuple[str, ...]
    itemsets: tuple[CountedItemset, ...]
    candidates: int

    def counts(self) -> dict[tuple[str, ...], int]:
        return {ci.items: ci.support_count for ci in self.itemsets}


def _join_graph(candidates: list[tuple[str, ...]]) -> dict[str, set[str]]:
    """Link two items when some candidate holds both: each candidate item maps
    to every item it shares a candidate with, itself included."""
    links: dict[str, set[str]] = {}
    for cand in candidates:
        for item in cand:
            links.setdefault(item, set()).update(cand)
    return links


def _pieces(row: tuple[str, ...], links: dict[str, set[str]]) -> Iterator[tuple[str, ...]]:
    """The connected pieces of `row` in the join graph restricted to the row's
    items, each in row order. Every item of the row must be in `links`."""
    rest = set(row)
    for start in row:
        if start in rest:
            rest.discard(start)
            piece, frontier = {start}, [start]
            while frontier:
                near = links[frontier.pop()] & rest
                rest -= near
                piece |= near
                frontier += near
            yield row if len(piece) == len(row) else tuple(filter(piece.__contains__, row))


class _LevelRows:
    """The rows a level is counted over: a database's rows, cut to the items
    that some candidate holds. From k = 3 on, each cut row is also split into
    its pieces: the connected parts of the level's join graph (two items are
    linked when some candidate holds both) restricted to the row. A candidate
    inside a row links all its items, so it lies inside exactly one piece and
    counting over the pieces is exact. Equal rows merge, adding their
    multiplicities, and rows below k items drop out.

    Level 2 counts every pair of the wanted items in one flat triangular
    array of 8-byte counts, indexed by the items' rank among the wanted items
    in universe order (Bodon's counting scheme); every other level counts the
    size-k subsets of the rows in one `Counter`. Either way each candidate's
    count is read out as the candidates are walked.

    Each cut starts from the previous level's rows, which is right as long as
    every level's candidates hold only items of the previous level's
    candidates, and every pair of items a candidate holds sits in some
    candidate of the previous level, as Apriori's do (each (k-1)-subset of a
    k-candidate is a frequent (k-1)-itemset). `longest` is the size of the
    longest row."""

    def __init__(self, db: TransactionDB) -> None:
        self.universe = db.universe
        self.rows = db.rows
        self.held = set(db.universe)  # every item the rows can still hold
        self.longest = max(map(len, self.rows), default=0)

    def count(self, candidates: Iterable[tuple[str, ...]], k: int) -> Iterator[CountedItemset]:
        """Count canonical, distinct size-k candidates, yielding each with its
        count in the order given. `candidates` is walked more than once: for
        the items to cut the rows to (and, from k = 3 on, for the join graph)
        and again as the counts are read out."""
        wanted = set(chain.from_iterable(candidates))
        if not self.held <= wanted:
            cut: dict[tuple[str, ...], int] = {}
            for row, n in self.rows.items():
                row = tuple(filter(wanted.__contains__, row))
                if len(row) >= k:
                    cut[row] = cut.get(row, 0) + n
            if k >= 3:  # Apriori's 2-candidates pair every wanted item: no row splits
                links, pieces = _join_graph(candidates), {}
                for row, n in cut.items():
                    for piece in _pieces(row, links):
                        if len(piece) >= k:
                            pieces[piece] = pieces.get(piece, 0) + n
                cut = pieces
            self.rows, self.held = cut, wanted
            self.longest = max(map(len, cut), default=0)
        if k == 2:
            from array import array  # only level 2 uses one; kept off the other commands' imports

            # the pair (a, b), a before b in universe order, sits at start[b] + rank[a]
            rank = {item: r for r, item in enumerate(filter(wanted.__contains__, self.universe))}
            start = {item: r * (r - 1) // 2 for item, r in rank.items()}
            pairs = array("q", bytes(8 * (len(rank) * (len(rank) - 1) // 2)))
            for row, n in self.rows.items():
                for a, b in combinations(row, 2):
                    pairs[start[b] + rank[a]] += n
            for c in candidates:
                yield CountedItemset(c, pairs[start[c[1]] + rank[c[0]]])
            return
        unit_rows = [row for row, n in self.rows.items() if n == 1]
        counts = Counter(chain.from_iterable(map(combinations, unit_rows, repeat(k))))
        for row, n in self.rows.items():
            if n > 1:
                for sub in combinations(row, k):
                    counts[sub] += n
        # pop frees each counted key as its result is read out (lower peak RSS)
        for c in candidates:
            yield CountedItemset(c, counts.pop(c, 0))


class _Join:
    """The candidates `generate_candidates` lists, yielded lazily each time
    the join is walked, so that level 2's pairs need never be listed."""

    def __init__(self, prev: FrequentLevel) -> None:
        rank = {item: i for i, item in enumerate(prev.universe)}.__getitem__
        self.frequent = {ci.items for ci in prev.itemsets}
        self.groups: dict[tuple[str, ...], list[str]] = {}
        for items in sorted(self.frequent, key=lambda c: tuple(map(rank, c))):
            self.groups.setdefault(items[:-1], []).append(items[-1])

    def _kept(self, cand: tuple[str, ...]) -> bool:
        return all(cand[:j] + cand[j + 1 :] in self.frequent for j in range(len(cand) - 2))

    def __iter__(self) -> Iterator[tuple[str, ...]]:
        # groups chain in C, so the k = 2 join (one empty prefix) stays a bare `combinations`
        return chain.from_iterable(
            filter(self._kept, map(prefix.__add__, combinations(lasts, 2))) if prefix
            else combinations(lasts, 2)
            for prefix, lasts in self.groups.items()
        )


def generate_candidates(prev: FrequentLevel) -> list[tuple[str, ...]]:
    """Join the frequent (k-1)-itemsets with themselves, then prune.

    The level is sorted once and grouped by prefix (all items but the last);
    two itemsets join only within their group, the one whose last item sorts
    first going first, so the join costs time linear in its output and the
    candidates come out in universe order. Both parents of a candidate are
    frequent, so pruning checks only the subsets that drop a prefix item,
    and nothing at k = 2.
    """
    return list(_Join(prev))


class Levels(list):
    """Frequent levels plus `scans`, the database passes that produced them:
    one more than the levels when the last pass found nothing frequent. A
    level longer than every row counts as a pass over no rows, although its
    candidates are never built."""

    scans = 0


def mine_frequent(db: TransactionDB, params: MiningParams) -> Levels:
    """Level-wise search: L1, L2, ... until a level is empty or nothing joins.

    Exactly one database scan per level, over rows cut further at each
    level. Level 2's candidates, every pair of frequent items, are walked
    lazily from the join and never listed; from level 3 on they are listed
    by `generate_candidates`. Only the frequent itemsets of a level are
    kept, with the number of candidates counted. Once no row holds more
    than k items, every (k+1)-candidate has support 0, so the search stops
    without building them; that level still counts as a scan, over no rows,
    if its join yields a candidate. Returned levels contain only non-empty
    frequent sets.
    """
    if not db.universe:
        raise ValueError("cannot mine a database with an empty universe")
    levels = Levels()
    rows = _LevelRows(db)
    candidates: Iterable[tuple[str, ...]] = [(item,) for item in db.universe]
    k = 1
    while True:
        walked, frequent = 0, []
        for ci in rows.count(candidates, k):
            walked += 1
            if ci.support_count >= params.min_support_count:
                frequent.append(ci)
        levels.scans += 1
        if not frequent:
            break
        level = FrequentLevel(
            k=k, universe=db.universe, itemsets=tuple(frequent), candidates=walked
        )
        levels.append(level)
        join = _Join(level)
        if not any(join):
            break
        if rows.longest <= k:
            levels.scans += 1  # the next level: a scan over no rows
            break
        candidates = join if k == 1 else generate_candidates(level)
        k += 1
    return levels


def frequent_map(levels: Iterable[FrequentLevel]) -> dict[tuple[str, ...], int]:
    """All frequent itemsets across levels with their support counts."""
    merged: dict[tuple[str, ...], int] = {}
    for level in levels:
        merged.update(level.counts())
    return merged


class _AssociationRule(NamedTuple):
    antecedent: tuple[str, ...]
    consequent: tuple[str, ...]
    support: float
    confidence: float


class AssociationRule(_AssociationRule):
    """antecedent => consequent with support count(A∪B)/|D| and
    confidence count(A∪B)/count(A)."""

    __slots__ = ()

    def __new__(
        cls, antecedent: tuple[str, ...], consequent: tuple[str, ...], support: float, confidence: float
    ) -> AssociationRule:
        if not antecedent or not consequent:
            raise ValueError("rule sides must be non-empty")
        if set(antecedent) & set(consequent):
            raise ValueError("rule sides must be disjoint")
        return super().__new__(cls, antecedent, consequent, support, confidence)

    @classmethod
    def _make(cls, iterable: Iterable) -> AssociationRule:
        return cls(*iterable)  # so `_replace` validates too


def generate_rules(
    levels: Sequence[FrequentLevel], db_size: int, params: MiningParams
) -> list[AssociationRule]:
    """Emit every rule A => F\\A over frequent F meeting the confidence bar.

    All 2^k - 2 non-empty proper subsets of each frequent k-itemset are
    enumerated directly; k stays small (5 on the market-basket benchmark).
    A rule is kept when count(A∪B)·den >= num·count(A), where num/den is
    the exact ratio of the threshold's decimal text, so no float rounding
    decides it.
    """
    if db_size <= 0:
        raise ValueError("db_size must be positive")
    if params.min_confidence > 1:
        return []  # no confidence exceeds 1
    from decimal import Decimal  # only `mine` makes rules; kept off the other commands' imports

    threshold = Decimal(str(params.min_confidence))
    # every count is at least 1 of at most db_size transactions, so no rule falls below
    # 1/db_size and a threshold under 10**-len(str(db_size)) keeps them all; its ratio,
    # whose denominator grows with the exponent (1e-999999999), is then never built
    tiny = threshold.adjusted() < -len(str(db_size))
    num, den = (0, 1) if tiny else threshold.as_integer_ratio()
    counts = frequent_map(levels)
    rules: list[AssociationRule] = []
    for level in levels:
        if level.k < 2:
            continue
        for ci in level.itemsets:
            for r in range(1, len(ci.items)):
                for antecedent in combinations(ci.items, r):
                    count_a = counts.get(antecedent)
                    if count_a is None:
                        raise MiningInvariantError(
                            f"subset {antecedent!r} of frequent itemset {ci.items!r} "
                            "was never counted; levels are inconsistent"
                        )
                    if ci.support_count * den >= num * count_a:
                        consequent = tuple(x for x in ci.items if x not in antecedent)
                        rules.append(
                            AssociationRule(
                                antecedent=antecedent,
                                consequent=consequent,
                                support=ci.support_count / db_size,
                                confidence=ci.support_count / count_a,
                            )
                        )
    return rules


def digraphs_as_transactions(table: NGraphTable) -> TransactionDB:
    """View each digraph occurrence as one transaction over unordered pairs.

    The itemset is {first, second} in alphabet order; a doubled letter
    yields a singleton transaction, and "ab" and "ba" share one row. The
    universe is the letters present, in alphabet order, and rows and
    universe hold one string object per letter. Hand-switching benefit is
    direction-symmetric, so the directional statistics stay in the digraph
    table while the transaction view deliberately forgets order.
    """
    if table.n != 2:
        raise ValueError(f"digraph table required, got n={table.n}")
    index = table.alphabet.index_of
    own: dict[str, str] = {}
    rows: Counter[tuple[str, ...]] = Counter()
    for (a, b), count in table.counts.items():
        a, b = own.setdefault(a, a), own.setdefault(b, b)
        rows[(a,) if a == b else (a, b) if index(a) < index(b) else (b, a)] += count
    return TransactionDB(universe=tuple(sorted(own, key=index)), rows=rows)


def read_transactions_tsv(path: str | Path) -> TransactionDB:
    """Load a transaction DB from TSV: tid, space-separated item list.

    The universe is the sorted set of items, so a row is its distinct items
    in string order; each line is counted as it is read, and rows and
    universe hold one string object per item.
    """
    path = Path(path)
    held: dict[str, str] = {}
    rows: Counter[tuple[str, ...]] = Counter()
    for lineno, line in enumerate(read_text(path).splitlines(), 1):
        if not line.strip() or line.startswith("#") or line == "tid\titems":
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise IngestionError(f"{path}:{lineno}: expected 2 tab-separated columns")
        rows[tuple(sorted({held.setdefault(item, item) for item in parts[1].split()}))] += 1
    return TransactionDB(universe=tuple(sorted(held)), rows=rows)


def write_frequent_tsv(levels: Sequence[FrequentLevel], db_size: int, path: str | Path) -> None:
    lines = ["itemset\tcount\tsupport"]
    for level in levels:
        for ci in level.itemsets:
            lines.append(f"{' '.join(ci.items)}\t{ci.support_count}\t{ci.support_count / db_size:.6f}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_rules_tsv(rules: Sequence[AssociationRule], path: str | Path) -> None:
    lines = ["antecedent\tconsequent\tsupport\tconfidence"]
    for rule in rules:
        lines.append(
            f"{' '.join(rule.antecedent)}\t{' '.join(rule.consequent)}"
            f"\t{rule.support:.6f}\t{rule.confidence:.6f}"
        )
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
