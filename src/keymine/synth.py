"""Seeded synthetic corpora.

Everything here is a pure function of its seed — no wall-clock or OS
entropy — so tests and fixtures built on top are reproducible.
"""

from __future__ import annotations

import random
from typing import Sequence


def random_text(
    letters: Sequence[str],
    length: int,
    seed: int,
    *,
    weights: Sequence[float] | None = None,
    space_prob: float = 0.0,
    junk: str = "",
    junk_prob: float = 0.0,
) -> str:
    """Weighted random letter soup with optional spaces and junk characters.

    Junk characters (digits, punctuation) land outside the alphabet and so
    are counted as undetermined; spaces vanish during tokenization.
    """
    rng = random.Random(seed)
    out = []
    for _ in range(length):
        roll = rng.random()
        if junk and roll < junk_prob:
            out.append(rng.choice(junk))
        elif space_prob and roll < junk_prob + space_prob:
            out.append(" ")
        else:
            out.append(rng.choices(letters, weights=weights, k=1)[0])
    return "".join(out)


def zipf_weights(n: int) -> list[float]:
    return [1.0 / k for k in range(1, n + 1)]
