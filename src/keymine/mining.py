"""Apriori frequent-itemset mining and strong-association-rule generation.

Works over an in-memory transaction database of counted rows, one per
distinct itemset. Itemsets are kept as tuples in canonical universe order,
holding the universe's own item objects, so a database keeps one string per
item however many rows it has. The miner performs exactly one scan per
level. Before a scan the rows are cut to the items that some candidate holds
and, from k = 3 on, split into the pieces that the level's candidates link
together; the rows are kept for the next level, which cuts them further, so
rows that become equal merge and rows too short for the level drop out.
Level 2 is counted from the frequent items themselves: the scan adds each
row's multiplicity for every pair it holds into one flat triangular list of
counts, laid out in the order `combinations` yields the pairs of those
items. The list holds one 8-byte reference per pair; a count above 256 also
costs a 32-byte int object, since CPython caches only the smaller ones.
Level 2's candidates, every pair of frequent items, come lazily from that
`combinations` and are never listed, and the list itself is the level's
supports. From k = 2 on, each level is sorted once and joined within
groups that share a prefix, and the next level's candidates come out in
universe order. Level 1 counts bare items and every level from 3 on the
size-k subsets of the rows, each in one `Counter`, from which the
candidates' supports are popped into a list, in C. Every level thus reads
out as two aligned sequences, candidates and supports, and the support
threshold is applied to them in C: an itemset becomes a Python object only
when it is frequent. A level keeps only its frequent itemsets and the number
of candidates it counted. A level longer than every row is never built: it
is a scan over no rows, recorded only when its join yields a candidate.

Thresholds are decided on the exact digits they are written with, in
integers: `decimal_parts` reads a threshold's text (or a float's or a
`Decimal`'s) as sign, digits and exponent, and `exact_ratio` builds its
ratio only where a decision on counts can turn on it, so the `decimal`
module is never imported and no power of ten grows with the exponent.
"""

from __future__ import annotations

import math
from collections import Counter
from functools import partial
from itertools import chain, combinations, compress, repeat
from operator import itemgetter, le
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator, NamedTuple, Sequence

from .corpus import IngestionError, NGraphTable, read_pieces, write_lines

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

    def __len__(self) -> int:
        return sum(self.rows.values())


class _MiningParams(NamedTuple):
    min_support_count: int
    min_confidence: str | float | Decimal


class MiningParams(_MiningParams):
    """Thresholds for the miner. Support is an absolute transaction count.

    Confidence is decided on the exact ratio of the decimal it is written as
    (see `decimal_parts`): a text as it stands (a flag's), a float as its
    shortest text (0.1 is one tenth), a `Decimal` as its own digits. NaN and
    any value below 0 are refused, -1e-999 included. A confidence above 1 is
    permitted but unsatisfiable: it yields no rules.
    """

    __slots__ = ()

    def __new__(cls, min_support_count: int, min_confidence: str | float | Decimal) -> MiningParams:
        if min_support_count < 1:
            raise ValueError("min_support_count must be >= 1")
        try:
            refused = decimal_parts(min_confidence)[0] < 0
        except ValueError:  # NaN, or a text that float() does not read
            refused = True
        if refused:
            raise ValueError("min_confidence must be >= 0")
        return super().__new__(cls, min_support_count, min_confidence)

    @classmethod
    def _make(cls, iterable: Iterable) -> MiningParams:
        return cls(*iterable)  # so `_replace` validates too


class CountedItemset(NamedTuple):
    items: tuple[str, ...]
    support_count: int


# builds a CountedItemset from an (items, count) pair without a Python-level call
_counted = partial(tuple.__new__, CountedItemset)


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

    Level 2 is given the frequent items, not their pairs, and counts every
    pair of them in one flat triangular list of counts (Bodon's counting
    scheme), laid out a-major: with the items ranked in universe order, the
    pair (a, b), a before b, sits at base[a] + rank[b], where
    base[a] = r(2m - r - 1)/2 - r - 1 for a of rank r among m items. The
    list then holds the pairs in the order `combinations(items, 2)` yields
    them, which is the order of Apriori's level-2 candidates, so the list is
    the level's supports as it stands, aligned with the lazy pairs. It costs
    an 8-byte reference per pair, as an array of 8-byte counts would, plus a
    32-byte int for each count above 256, the largest int CPython caches. Level 1
    counts bare items and every later level the size-k subsets of the rows,
    each in one `Counter`, and the candidates' counts are popped from it into
    a list, in C.

    Each cut starts from the previous level's rows, which is right as long as
    every level's candidates hold only items of the previous level's
    candidates, and every pair of items a candidate holds sits in some
    candidate of the previous level, as Apriori's do (each (k-1)-subset of a
    k-candidate is a frequent (k-1)-itemset). `longest` is the size of the
    longest row."""

    def __init__(self, db: TransactionDB) -> None:
        self.rows = db.rows
        self.held = set(db.universe)  # every item the rows can still hold
        self.longest = max(map(len, self.rows), default=0)

    def count(
        self, candidates: Sequence[tuple[str, ...]], k: int
    ) -> tuple[Iterable[tuple[str, ...]], Sequence[int]]:
        """Count canonical, distinct size-k candidates: two aligned
        sequences, the candidates and their supports, in the order given.
        `candidates` is walked more than once: for the items to cut the rows
        to (and, from k = 3 on, for the join graph) and again as the counts
        are read out. At k = 2 `candidates` is not the pairs but the items
        they pair, as 1-itemsets in universe order: every pair of them is
        counted, and the pairs come back as a lazy `combinations` of the
        items, aligned with the pair list."""
        wanted = set(chain.from_iterable(candidates))
        if not self.held <= wanted:
            cut: dict[tuple[str, ...], int] = {}
            # each row filtered in C, in step with its multiplicity
            kept = map(tuple, map(filter, repeat(wanted.__contains__), self.rows))
            for row, n in zip(kept, self.rows.values()):
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
            # a-major: the pair (a, b), a before b in universe order, sits at
            # base[a] + rank[b], the place `combinations(items, 2)` yields it in
            items = tuple(chain.from_iterable(candidates))
            m = len(items)
            rank = {item: r for r, item in enumerate(items)}
            base = {item: r * (2 * m - r - 1) // 2 - r - 1 for item, r in rank.items()}
            # a list, not an array("q"): `+=` on a list stores the int object, with no
            # unboxing and reboxing of a C long long, and ints up to 256 are cached
            pairs = [0] * (m * (m - 1) // 2)
            for row, n in self.rows.items():
                for a, b in combinations(row, 2):
                    pairs[base[a] + rank[b]] += n
            return combinations(items, 2), pairs
        subsets = iter if k == 1 else partial(combinations, r=k)  # level 1 counts bare items
        unit_rows = [row for row, n in self.rows.items() if n == 1]
        counts = Counter(chain.from_iterable(map(subsets, unit_rows)))
        for row, n in self.rows.items():
            if n > 1:
                for sub in subsets(row):
                    counts[sub] += n
        # pop frees each counted key as its support is read out (lower peak RSS)
        keys = map(itemgetter(0), candidates) if k == 1 else candidates
        return candidates, list(map(counts.pop, keys, repeat(0)))


def _joined(prev: FrequentLevel) -> Iterator[tuple[str, ...]]:
    """The candidates `generate_candidates` lists, yielded lazily, so that a
    probe for the first one builds no others."""
    rank = {item: i for i, item in enumerate(prev.universe)}.__getitem__
    frequent = {ci.items for ci in prev.itemsets}
    groups: dict[tuple[str, ...], list[str]] = {}
    for items in sorted(frequent, key=lambda c: tuple(map(rank, c))):
        groups.setdefault(items[:-1], []).append(items[-1])
    for prefix, lasts in groups.items():
        for cand in map(prefix.__add__, combinations(lasts, 2)):
            if all(cand[:j] + cand[j + 1 :] in frequent for j in range(len(cand) - 2)):
                yield cand


def generate_candidates(prev: FrequentLevel) -> list[tuple[str, ...]]:
    """Join the frequent (k-1)-itemsets with themselves, then prune.

    The level is sorted once and grouped by prefix (all items but the last);
    two itemsets join only within their group, the one whose last item sorts
    first going first, so the join costs time linear in its output and the
    candidates come out in universe order. Both parents of a candidate are
    frequent, so pruning checks only the subsets that drop a prefix item,
    and nothing at k = 2. `mine_frequent` counts level 2 from the frequent
    items, not from this join, and joins each later level once, here.
    """
    return list(_joined(prev))


class Levels(list):
    """Frequent levels plus `scans`, the database passes that produced them:
    one more than the levels when the last pass found nothing frequent. A
    level longer than every row counts as a pass over no rows, although its
    candidates are never built."""

    scans = 0


def mine_frequent(db: TransactionDB, params: MiningParams) -> Levels:
    """Level-wise search: L1, L2, ... until a level is empty or nothing joins.

    Exactly one database scan per level, over rows cut further at each
    level. Level 2 is counted from the frequent items, and its candidates,
    every pair of them, are never listed; from level 3 on they are listed
    by `generate_candidates`, which sorts and joins each level once. Each
    level's candidates and supports are thresholded in C, so only its
    frequent itemsets become `CountedItemset`s; they are kept, with the
    number of candidates counted. Once no row holds more than k items, every
    (k+1)-candidate has support 0, so the search stops without building
    them; that level still counts as a scan, over no rows, if its join
    yields a candidate. Returned levels contain only non-empty frequent sets.
    """
    if not db.universe:
        raise ValueError("cannot mine a database with an empty universe")
    levels = Levels()
    rows = _LevelRows(db)
    candidates = [(item,) for item in db.universe]
    k = 1
    while True:
        counted, supports = rows.count(candidates, k)
        walked = len(supports)
        frequent = tuple(map(_counted, compress(
            zip(counted, supports), map(le, repeat(params.min_support_count), supports))))
        del counted, supports  # level 2's pair list goes before the next level is counted
        levels.scans += 1
        if not frequent:
            break
        level = FrequentLevel(k=k, universe=db.universe, itemsets=frequent, candidates=walked)
        levels.append(level)
        if rows.longest <= k:  # the next level: a scan over no rows, if its join yields a candidate
            levels.scans += any(_joined(level))
            break
        # level 2 is counted from the frequent items, as every pair of them
        candidates = [ci.items for ci in frequent] if k == 1 else generate_candidates(level)
        if len(candidates) <= (k == 1):  # nothing joins: level 2 needs two items to pair
            break
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


# builds an AssociationRule without a Python-level call or its checks, for
# `generate_rules`, whose sides are disjoint, non-empty subsets of one itemset
_rule = partial(tuple.__new__, AssociationRule)


def decimal_parts(value: str | float | Decimal) -> tuple[int, str, int | float]:
    """The exact value of a number as it is written, as `(sign, digits,
    exponent)`: sign * int(digits) * 10**exponent, where `digits` are ASCII
    with no leading or trailing zero ("" for zero, whose sign is 1). A string
    is read as it stands, any other value as its str() (a float's shortest
    text, a `Decimal`'s own digits), and every text float() reads is taken: a
    sign, surrounding whitespace, `_` between digits, Unicode digits, an
    exponent. An infinity is "1" at exponent `math.inf`; NaN, or a text
    float() refuses, raises ValueError. No power of ten is built, so
    1e-999999999 costs what 1e-9 does."""
    text = value if isinstance(value, str) else str(value)
    float(text)  # ValueError for any text float() refuses
    text = text.strip().replace("_", "").lower()
    if not text.isascii():  # what float() reads beyond ASCII are decimal digits
        text = "".join(c if c.isascii() else str(int(c)) for c in text)
    sign = -1 if text[0] == "-" else 1
    text = text.lstrip("+-")
    if text[0] == "n":
        raise ValueError(f"not a number: {value!r}")
    if text[0] == "i":  # inf or infinity
        return sign, "1", math.inf
    mantissa, _, exponent = text.partition("e")
    whole, _, fraction = mantissa.partition(".")
    digits = (whole + fraction).lstrip("0")
    significant = digits.rstrip("0")
    if not significant:
        return 1, "", 0
    power = _int(exponent.lstrip("+-")) * (-1 if exponent.startswith("-") else 1)
    return sign, significant, power - len(fraction) + len(digits) - len(significant)


def _int(digits: str) -> int:
    """The value of a string of ASCII digits, 0 when it is empty, however
    long: int() reads at most sys.get_int_max_str_digits() at once, and
    never fewer than 640."""
    value = 0
    for at in range(0, len(digits), 512):
        value = value * 10 ** len(digits[at : at + 512]) + int(digits[at : at + 512])
    return value


def exact_ratio(threshold: str | float | Decimal, n: int) -> tuple[int, int]:
    """The exact ratio num/den, in lowest terms, of a threshold as it is
    written (see `decimal_parts`), for deciding on ratios of counts of at
    most `n`, which lie in [1/n, n]. A threshold below 10**-len(str(n)), so
    below 1/n, comes back as (0, 1), and one at or above 10**len(str(n)), so
    above n, as (±10**len(str(n)), 1): every such decision comes out the
    same, and no ratio whose terms grow with the exponent (1e-999999999,
    1e999999999) is built."""
    sign, digits, exponent = decimal_parts(threshold)
    width = len(str(n))
    lead = len(digits) + exponent  # the threshold lies in [10**(lead - 1), 10**lead)
    if not digits or lead <= -width:
        return 0, 1
    if lead > width:
        return sign * 10**width, 1
    num = _int(digits)
    if exponent >= 0:
        return sign * num * 10**exponent, 1
    den = 10**-exponent
    common = math.gcd(num, den)
    return sign * num // common, den // common


def generate_rules(
    levels: Sequence[FrequentLevel], db_size: int, params: MiningParams
) -> list[AssociationRule]:
    """Emit every rule A => F\\A over frequent F meeting the confidence bar.

    All 2^k - 2 non-empty proper subsets of each frequent k-itemset are
    enumerated directly; k stays small (5 on the market-basket benchmark).
    Each antecedent is paired with its consequent by walking the r-subsets
    forwards and the (k - r)-subsets backwards, both from `combinations`.
    A rule is kept when count(A∪B)·den >= num·count(A), where num/den is
    the exact ratio of the threshold's decimal text, so no float rounding
    decides it.
    """
    if db_size <= 0:
        raise ValueError("db_size must be positive")
    # a confidence is a count of at least 1 over one of at most db_size
    num, den = exact_ratio(params.min_confidence, db_size)
    if num > den:
        return []  # no confidence exceeds 1
    counts = frequent_map(levels)
    rules: list[AssociationRule] = []
    for level in levels:
        if level.k < 2:
            continue
        for items, count in level.itemsets:
            k, support = len(items), count / db_size  # k from the items: levels may be hand-built
            for r in range(1, k):
                # in lexicographic order the i-th r-subset's complement is the
                # i-th (k - r)-subset from the end
                sides = zip(combinations(items, r), reversed(list(combinations(items, k - r))))
                for antecedent, consequent in sides:
                    count_a = counts.get(antecedent)
                    if count_a is None:
                        raise MiningInvariantError(
                            f"subset {antecedent!r} of frequent itemset {items!r} "
                            "was never counted; levels are inconsistent"
                        )
                    if count * den >= num * count_a:
                        rules.append(_rule((antecedent, consequent, support, count / count_a)))
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


def _itemsets(path: Path, pieces: Iterable[str], held: dict[str, str]) -> Iterator[tuple[str, ...]]:
    """Each transaction line's distinct items in string order, from text
    pieces that each end after an LF or at the file's end. `held` maps each
    item to the first equal string read, which stands for it in every row."""
    first = 1  # the number of the piece's first line
    for piece in pieces:
        lines = piece.replace("\r\n", "\n").split("\n")
        for lineno, line in enumerate(lines, first):
            if not line.strip() or line.startswith("#") or line == "tid\titems":
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise IngestionError(f"{path}:{lineno}: expected 2 tab-separated columns")
            items = parts[1].split()
            yield tuple(sorted(set(map(held.setdefault, items, items))))
        # the piece's last line, empty unless the file ends there, goes on in the next piece
        first += len(lines) - 1


def read_transactions_tsv(path: str | Path) -> TransactionDB:
    """Load a transaction DB from TSV: tid, space-separated item list.

    The universe is the sorted set of items, so a row is its distinct items
    in string order; the file is read in pieces of whole lines, whose rows
    are counted in one `Counter`, and rows and universe hold one string
    object per item. Lines end at LF, and one CR before it is dropped; no
    other code point ends a line.
    """
    path = Path(path)
    held: dict[str, str] = {}
    rows = Counter(_itemsets(path, read_pieces(path, b"\n"), held))
    return TransactionDB(universe=tuple(sorted(held)), rows=rows)


def write_frequent_tsv(levels: Sequence[FrequentLevel], db_size: int, path: str | Path) -> None:
    write_lines(path, ["itemset\tcount\tsupport", *(
        f"{' '.join(ci.items)}\t{ci.support_count}\t{ci.support_count / db_size:.6f}"
        for level in levels for ci in level.itemsets)])


def write_rules_tsv(rules: Sequence[AssociationRule], path: str | Path) -> None:
    write_lines(path, ["\t".join(AssociationRule._fields), *(
        f"{' '.join(rule.antecedent)}\t{' '.join(rule.consequent)}"
        f"\t{rule.support:.6f}\t{rule.confidence:.6f}" for rule in rules)])
