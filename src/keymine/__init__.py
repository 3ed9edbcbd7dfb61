"""Corpus-driven keyboard layout design and evaluation toolkit.

Pipeline: cut a text corpus into runs of alphabet letters, count
letter n-grams once over the whole corpus at a command's highest order and
derive the lower-order tables from it, view digraphs as counted item
transactions to mine frequent itemsets and strong association rules,
assign letters to hands for maximum hand alternation from the pair counts
of the digraph table, place them on keys by frequency, and score arbitrary
layouts against the corpus's tables.
"""

__version__ = "0.1.0"

from .corpus import AlphabetConfig, IngestionError, NGraphTable
from .evaluation import EvalReport, compare, evaluate
from .layout import (
    HandPartition,
    KeyboardGeometry,
    Layout,
    assign_hands,
    audit_partition,
    default_geometry,
    place_keys,
)
from .mining import (
    AssociationRule,
    CountedItemset,
    FrequentLevel,
    MiningParams,
    TransactionDB,
    digraphs_as_transactions,
    generate_candidates,
    generate_rules,
    mine_frequent,
)

__all__ = [
    "AlphabetConfig",
    "AssociationRule",
    "CountedItemset",
    "EvalReport",
    "FrequentLevel",
    "HandPartition",
    "IngestionError",
    "KeyboardGeometry",
    "Layout",
    "MiningParams",
    "NGraphTable",
    "TransactionDB",
    "assign_hands",
    "audit_partition",
    "compare",
    "default_geometry",
    "digraphs_as_transactions",
    "evaluate",
    "generate_candidates",
    "generate_rules",
    "mine_frequent",
    "place_keys",
]
