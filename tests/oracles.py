"""Test oracles and seeded fixtures that no command runs.

`brute_force_frequent` mines by enumerating every subset of the universe
and counts support with `support_count`, a plain per-row subset test, so it
shares no counting code with `keymine.mining._LevelRows`. `random_db` and
the two-group corpus are seeded inputs for the tests that cross-check the
miner and the hand rule.
"""

from __future__ import annotations

import random
import string
from itertools import combinations
from typing import Iterable

from keymine.corpus import AlphabetConfig
from keymine.mining import CountedItemset, FrequentLevel, MiningParams, TransactionDB


class UniverseTooLargeError(ValueError):
    """Brute-force enumeration refused: the universe is too big."""


def support_count(db: TransactionDB, items: Iterable[str]) -> int:
    """Number of transactions containing every given item."""
    needed = frozenset(items)
    return sum(n for row, n in db.rows.items() if needed.issubset(row))


def brute_force_frequent(db: TransactionDB, params: MiningParams) -> list[FrequentLevel]:
    """Oracle miner: enumerate every non-empty subset of the universe.

    Exponential by design, so it refuses universes above 20 items. Support
    counting goes through `support_count`, a code path independent of
    `_LevelRows.count`.
    """
    if len(db.universe) > 20:
        raise UniverseTooLargeError(
            f"brute force over {len(db.universe)} items would enumerate "
            f"2^{len(db.universe)} subsets; limit is 20"
        )
    levels: list[FrequentLevel] = []
    for k in range(1, len(db.universe) + 1):
        counted = [
            CountedItemset(items, support_count(db, items))
            for items in combinations(db.universe, k)
        ]
        frequent = tuple(ci for ci in counted if ci.support_count >= params.min_support_count)
        if not frequent:
            break
        levels.append(
            FrequentLevel(k=k, universe=db.universe, itemsets=frequent, candidates=len(counted))
        )
    return levels


def random_db(
    seed: int,
    universe_size: int = 8,
    n_transactions: int = 30,
    max_items: int = 4,
) -> TransactionDB:
    """Random transaction database over single-letter items A, B, C, ..."""
    rng = random.Random(seed)
    universe = tuple(string.ascii_uppercase[:universe_size])
    rows: dict[tuple[str, ...], int] = {}
    for _ in range(n_transactions):
        size = rng.randint(1, min(max_items, universe_size))
        row = tuple(sorted(rng.sample(universe, size)))
        rows[row] = rows.get(row, 0) + 1
    return TransactionDB(universe, rows)


# Two-group corpus: within-group frequency weights are spaced so the top
# ranked letter and the fourth come from group one and ranks two and three
# from group two, regardless of seed, at the default length.
GROUP_ONE = "abcde"
GROUP_TWO = "fghij"
_GROUP_ONE_WEIGHTS = [44, 24, 15, 10, 7]
_GROUP_TWO_WEIGHTS = [36, 30, 13, 9, 6]


def two_group_text(seed: int, length: int = 20000, stay_prob: float = 0.05) -> str:
    """Text over two disjoint 5-letter groups that almost always alternates
    groups, so nearly every digraph crosses them."""
    rng = random.Random(seed)
    groups = (
        (list(GROUP_ONE), _GROUP_ONE_WEIGHTS),
        (list(GROUP_TWO), _GROUP_TWO_WEIGHTS),
    )
    current = 0
    out = []
    for _ in range(length):
        letters, weights = groups[current]
        out.append(rng.choices(letters, weights=weights, k=1)[0])
        if rng.random() >= stay_prob:
            current = 1 - current
    return "".join(out)


def two_group_alphabet() -> AlphabetConfig:
    return AlphabetConfig(name="two-group", letters=tuple(GROUP_ONE + GROUP_TWO))
