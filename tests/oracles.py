"""Seeded fixtures that no command runs: `random_db` and the two-group
corpus are inputs for the tests that cross-check the miner and the hand
rule. The oracles they are checked against live in `reference.py`.
"""

from __future__ import annotations

import random
import string

from keymine.corpus import AlphabetConfig
from keymine.mining import TransactionDB


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
