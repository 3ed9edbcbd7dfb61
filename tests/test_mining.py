"""Level-wise miner, brute-force oracle, rule generation, digraph adapter."""

import itertools
import random
import string
from collections.abc import Sized
from decimal import Decimal

import pytest

from keymine import mining
from keymine.corpus import AlphabetConfig, IngestionError, count_ngraphs, tokenize
from keymine.mining import (
    AssociationRule,
    FrequentLevel,
    CountedItemset,
    MiningParams,
    MiningInvariantError,
    TransactionDB,
    digraphs_as_transactions,
    frequent_map,
    generate_candidates,
    generate_rules,
    mine_frequent,
    read_transactions_tsv,
)
from keymine.synth import random_text

from conftest import MARKET9_UNIVERSE, write_transactions_tsv
from oracles import UniverseTooLargeError, brute_force_frequent, random_db, support_count

PARAMS2 = MiningParams(min_support_count=2, min_confidence=0.7)


class TestTransactionDB:
    def test_equal_itemsets_share_one_counted_row(self, tmp_path):
        path = tmp_path / "db.tsv"
        path.write_text("tid\titems\nT1\ta b\nT2\tb a a\nT3\ta\n", encoding="utf-8")
        db = read_transactions_tsv(path)
        assert db.rows == {("a", "b"): 2, ("a",): 1}
        assert len(db) == 3

    def test_rows_hold_the_universe_item_objects(self, data_dir):
        # equal strings built apart are distinct objects; every row must hold
        # the universe's own, so a database keeps one string per item
        def foreign(db):
            ids = {id(item) for item in db.universe}
            return [item for row in db.rows for item in row if id(item) not in ids]

        baskets = read_transactions_tsv(data_dir / "baskets400.tsv")
        assert len(baskets.rows) > 100
        alpha = AlphabetConfig(name="greek", letters=("α", "β", "γ"))
        digraphs = digraphs_as_transactions(count_ngraphs(tokenize("αβγαγββα", alpha), 2))
        assert len(digraphs.rows) == 4
        assert foreign(baskets) == foreign(digraphs) == []

    def test_equal_on_universe_and_rows(self):
        db = TransactionDB(("a", "b"), {("a", "b"): 2, ("a",): 1})
        assert db == TransactionDB(("a", "b"), {("a",): 1, ("a", "b"): 2})
        assert db != TransactionDB(("b", "a"), {("a", "b"): 2, ("a",): 1})
        assert db != TransactionDB(("a", "b"), {("a", "b"): 2, ("a",): 2})
        assert db != (("a", "b"), {("a", "b"): 2, ("a",): 1})
        with pytest.raises(TypeError):
            hash(db)  # mutable rows: unhashable, as it always was

    def test_support_count_subset_semantics(self, market9):
        assert support_count(market9, ("I1", "I2")) == 4
        assert support_count(market9, ("I3", "I4")) == 0


class TestMiningParams:
    def test_rejects_nonpositive_count(self):
        with pytest.raises(ValueError):
            MiningParams(min_support_count=0, min_confidence=0.5)

    def test_rejects_negative_confidence(self):
        with pytest.raises(ValueError):
            MiningParams(min_support_count=1, min_confidence=-0.1)

    def test_rejects_nan_confidence(self):
        # every comparison with NaN is false, so it would pass a `< 0` check and admit no rule
        for nan in (float("nan"), Decimal("NaN")):
            with pytest.raises(ValueError):
                MiningParams(min_support_count=1, min_confidence=nan)

    def test_messages_and_replace_are_checked_too(self):
        with pytest.raises(ValueError, match="^min_support_count must be >= 1$"):
            MiningParams(0, 0.5)
        with pytest.raises(ValueError, match="^min_confidence must be >= 0$"):
            MiningParams(1, float("nan"))
        params = MiningParams(2, 0.5)
        assert params._replace(min_confidence=0.7) == MiningParams(2, 0.7)
        with pytest.raises(ValueError, match="^min_support_count must be >= 1$"):
            params._replace(min_support_count=0)
        with pytest.raises(ValueError, match="^min_confidence must be >= 0$"):
            params._replace(min_confidence=Decimal("NaN"))

    def test_confidence_above_one_allowed_but_unsatisfiable(self, market9):
        params = MiningParams(min_support_count=2, min_confidence=1.01)
        levels = mine_frequent(market9, params)
        assert generate_rules(levels, len(market9), params) == []


class TestCountSupports:
    """Supports as `mine_frequent` counts them: at support 1 every itemset
    some row holds is frequent, with its count."""

    def test_singleton_counts(self, market9):
        level1 = mine_frequent(market9, MiningParams(1, 0.0))[0]
        assert level1.counts() == {
            ("I1",): 6, ("I2",): 7, ("I3",): 6, ("I4",): 2, ("I5",): 2}

    def test_pair_count(self, market9):
        level2 = mine_frequent(market9, MiningParams(1, 0.0))[1]
        assert level2.counts()[("I1", "I2")] == 4

    def test_row_multiplicity_is_added(self):
        db = TransactionDB(universe=("a", "b"), rows={("a", "b"): 5, ("a",): 2})
        assert frequent_map(mine_frequent(db, MiningParams(1, 0.0))) == {
            ("a",): 7, ("b",): 5, ("a", "b"): 5}

    def test_empty_db_counts_zero(self):
        levels = mine_frequent(TransactionDB(("A", "B"), {}), MiningParams(1, 0.0))
        assert levels == [] and levels.scans == 1

    @pytest.mark.parametrize("seed", range(24))
    def test_weighted_db_matches_support_count(self, seed, count_spy):
        # a universe in shuffled order with two items no row holds; every count
        # of every scan, the idle items' zeros included, is checked
        rng = random.Random(seed)
        universe = tuple(rng.sample(string.ascii_uppercase[:10], 10))
        idle, active = universe[:2], universe[2:]
        rows: dict[tuple[str, ...], int] = {}
        for _ in range(rng.randint(5, 25)):
            picked = set(rng.sample(active, rng.randint(1, 6)))
            row = tuple(item for item in universe if item in picked)
            rows[row] = rows.get(row, 0) + rng.randint(1, 5)
        db = TransactionDB(universe, rows)
        assert max(rows.values()) > 1
        found = frequent_map(mine_frequent(db, MiningParams(1, 0.0)))
        assert set(found) == {
            sub for row in rows for k in range(1, len(row) + 1)
            for sub in itertools.combinations(row, k)}
        counted = [ci for scan in count_spy for ci in scan]
        assert {(item,) for item in idle} <= {ci.items for ci in counted}
        for ci in counted:
            assert ci.support_count == support_count(db, ci.items)


def level_of(k, itemset_counts, universe=MARKET9_UNIVERSE):
    itemsets = tuple(
        CountedItemset(items, count) for items, count in sorted(itemset_counts.items())
    )
    return FrequentLevel(k=k, universe=universe, itemsets=itemsets, candidates=len(itemsets))


def reference_join(prev):
    """The all-pairs join `generate_candidates` replaced: every pair of
    frequent (k-1)-itemsets is compared for a shared prefix, and every
    (k-1)-subset of a joined candidate is checked."""
    order = {item: i for i, item in enumerate(prev.universe)}
    frequent = {ci.items for ci in prev.itemsets}
    members = sorted(frequent, key=lambda c: [order[i] for i in c])
    joined = []
    for a_pos, l1 in enumerate(members):
        for l2 in members[a_pos + 1:]:
            if l1[:-1] == l2[:-1] and order[l1[-1]] < order[l2[-1]]:
                joined.append(l1 + (l2[-1],))
    return [cand for cand in joined
            if all(sub in frequent for sub in itertools.combinations(cand, len(cand) - 1))]


def random_closed_level(seed, k):
    """Level k of a seeded downward-closed family: the k-subsets of a few
    random sets, over a universe in shuffled order, listed in random order."""
    rng = random.Random(seed)
    universe = tuple(rng.sample(string.ascii_lowercase[:9], 9))
    itemsets = set()
    for _ in range(rng.randint(2, 6)):
        top = sorted(rng.sample(universe, rng.randint(k, 7)), key=universe.index)
        itemsets.update(itertools.combinations(top, k))
    listed = [CountedItemset(items, 1) for items in sorted(itemsets)]
    rng.shuffle(listed)
    return FrequentLevel(k=k, universe=universe, itemsets=tuple(listed), candidates=len(listed))


class TestGenerateCandidates:
    @pytest.mark.parametrize("k", range(1, 5))
    @pytest.mark.parametrize("seed", range(12))
    def test_matches_reference_join(self, seed, k):
        level = random_closed_level(seed, k)
        assert generate_candidates(level) == reference_join(level)

    L2 = level_of(2, {
        ("I1", "I2"): 4, ("I1", "I3"): 4, ("I1", "I5"): 2,
        ("I2", "I3"): 4, ("I2", "I4"): 2, ("I2", "I5"): 2,
    })

    def test_join_and_prune_from_l2(self):
        # the join also forms {I1,I3,I5}, {I2,I3,I5}, {I2,I4,I5} and
        # {I2,I3,I4}; all four die in the prune step
        assert generate_candidates(self.L2) == [("I1", "I2", "I3"), ("I1", "I2", "I5")]

    def test_join_from_l3_prunes_everything(self):
        l3 = level_of(3, {("I1", "I2", "I3"): 2, ("I1", "I2", "I5"): 2})
        # join gives {I1,I2,I3,I5}, pruned because {I2,I3,I5} is absent
        assert generate_candidates(l3) == []

    def test_single_itemset_joins_to_nothing(self):
        l1 = level_of(1, {("I1",): 6})
        assert generate_candidates(l1) == []

    def test_prefix_condition_requires_shared_front(self):
        level = level_of(2, {("I1", "I2"): 3, ("I3", "I4"): 3})
        assert generate_candidates(level) == []


class TestMineFrequent:
    def test_worked_example_levels(self, market9):
        levels = mine_frequent(market9, PARAMS2)
        assert [lv.k for lv in levels] == [1, 2, 3]
        assert levels[0].counts() == {
            ("I1",): 6, ("I2",): 7, ("I3",): 6, ("I4",): 2, ("I5",): 2}
        assert levels[1].counts() == {
            ("I1", "I2"): 4, ("I1", "I3"): 4, ("I1", "I5"): 2,
            ("I2", "I3"): 4, ("I2", "I4"): 2, ("I2", "I5"): 2}
        assert levels[2].counts() == {("I1", "I2", "I3"): 2, ("I1", "I2", "I5"): 2}
        # the level-4 candidate set is empty, so no fourth scan runs
        assert levels.scans == 3

    def test_c2_includes_infrequent_candidates(self, market9, count_spy):
        levels = mine_frequent(market9, PARAMS2)
        c2 = {c.items: c.support_count for c in count_spy[1]}
        assert len(c2) == levels[1].candidates == 10
        assert c2[("I1", "I4")] == 1 and c2[("I3", "I4")] == 0

    def test_threshold_above_db_size_yields_no_levels(self, market9):
        params = MiningParams(min_support_count=10, min_confidence=0.5)
        levels = mine_frequent(market9, params)
        assert levels == [] and levels.scans == 1

    @staticmethod
    def spied(monkeypatch, count_spy, db, params):
        """Mine, recording the size of every candidate `generate_candidates`
        lists and every k counted."""
        built = []
        join = mining.generate_candidates

        def spy_join(prev):
            candidates = join(prev)
            built.extend(map(len, candidates))
            return candidates

        monkeypatch.setattr(mining, "generate_candidates", spy_join)
        levels = mine_frequent(db, params)
        return levels, built, [len(scan[0].items) for scan in count_spy]

    def test_empty_last_level_still_counts_as_a_scan(self, monkeypatch, count_spy):
        # digraph rows hold at most two letters and every pair is frequent, so
        # level 3 joins to a candidate but is a scan over no rows, never built
        alpha = AlphabetConfig(name="abc", letters=("a", "b", "c"))
        table = count_ngraphs(tokenize("abcabcacb" * 5, alpha), 2)
        db = digraphs_as_transactions(table)
        levels, built, counted = self.spied(monkeypatch, count_spy, db, MiningParams(1, 0.0))
        assert [lv.k for lv in levels] == [1, 2]
        assert len(levels[1].itemsets) == 3
        assert levels.scans == 3
        # no candidate longer than the last mined level is built
        assert counted == [1, 2] and all(size <= 2 for size in built)

    def test_pair_candidates_are_walked_not_listed(self, monkeypatch):
        # level 2 counts every pair of 40 frequent items without listing the
        # 780 pairs; level 3 lists its candidates as before
        universe = tuple(f"i{n:02d}" for n in range(40))
        rows = {universe[n:n + 3]: 2 for n in range(38)}
        given = {}
        count = mining._LevelRows.count

        def spy(rows, candidates, k):
            given[k] = candidates
            return count(rows, candidates, k)

        monkeypatch.setattr(mining._LevelRows, "count", spy)
        levels = mine_frequent(TransactionDB(universe, rows), MiningParams(2, 0.0))
        assert [(lv.k, lv.candidates) for lv in levels] == [(1, 40), (2, 780), (3, 38)]
        assert not isinstance(given[2], Sized)
        assert isinstance(given[3], list)

    # levels mined and scans made
    STOPS = {
        # {b, c} is infrequent, so the join's only candidate {a, b, c} is pruned
        "pruned join": ([1, 2], 2),
        # the row {b, c, d} holds 3 items until level 2 cuts d away
        "row cut to k items": ([1, 2], 3),
        # one row holds 3 items, so level 3 is built and counted after level 2
        "row of k+1 items": ([1, 2, 3], 3),
        # level 3 splits the only row of 4 items into pieces of 2, so the
        # level-4 candidate {a, b, c, d} is joined but never built or counted
        "row split below k+1 items": ([1, 2, 3], 4),
    }

    @pytest.mark.parametrize("case", STOPS)
    def test_no_level_is_built_beyond_the_longest_row(self, monkeypatch, count_spy, case):
        db, support = STOP_DBS[case]
        ks, scans = self.STOPS[case]
        levels, built, counted = self.spied(monkeypatch, count_spy, db, MiningParams(support, 0.0))
        assert [lv.k for lv in levels] == ks and levels.scans == scans
        # no candidate longer than the last mined level is built
        assert counted == ks and all(size <= ks[-1] for size in built)

    def test_frequent_subset_of_candidates(self, market9, count_spy):
        levels = mine_frequent(market9, PARAMS2)
        assert len(count_spy) == len(levels)
        for level, scan in zip(levels, count_spy):
            candidates = {c.items for c in scan}
            assert {i.items for i in level.itemsets} <= candidates


def weighted_db(seed):
    """Seeded counted rows over a universe in shuffled order: 1-5 of seven
    common items, plus one of three rare items in about 30% of rows, each
    drawn with multiplicity 1-3 (a row drawn twice adds both)."""
    rng = random.Random(seed)
    universe = tuple(rng.sample(string.ascii_lowercase[:10], 10))
    common, rare = universe[:7], universe[7:]
    rows: dict[tuple[str, ...], int] = {}
    for _ in range(rng.randint(25, 40)):
        picked = set(rng.sample(common, rng.randint(1, 5)))
        if rng.random() < 0.3:
            picked.add(rng.choice(rare))
        row = tuple(item for item in universe if item in picked)
        rows[row] = rows.get(row, 0) + rng.choice((1, 1, 1, 2, 3))
    return TransactionDB(universe, rows)


def _stop_dbs():
    """Small DBs, with their support counts, whose rows end before the join does."""
    alpha = AlphabetConfig(name="abcd", letters=("a", "b", "c", "d"))
    digraphs = digraphs_as_transactions(count_ngraphs(tokenize("abacadbcbdcd" * 2, alpha), 2))
    return {
        # every pair is frequent and no row holds 3 items: level 3 joins, and stops
        "digraphs, all pairs frequent": (digraphs, 2),
        # {b, c} is infrequent: the level-3 join is pruned away, and the miner stops
        "pruned join": (TransactionDB(("a", "b", "c", "d"), {
            ("a", "b"): 2, ("a", "c"): 2, ("b", "c"): 1, ("d",): 1}), 2),
        # level 2 cuts the infrequent d from the only row of 3 items
        "row cut to k items": (TransactionDB(("a", "b", "c", "d"), {
            ("a", "b"): 2, ("a", "c"): 2, ("b", "c"): 1, ("b", "c", "d"): 1}), 2),
        # a row of exactly 3 items keeps level 3; level 4 joins to nothing
        "row of k+1 items": (TransactionDB(("a", "b", "c"), {
            ("a", "b", "c"): 2, ("a", "b"): 1, ("c",): 1}), 2),
        # every 3-subset of {a, b, c, d} and {x, y, z} is frequent, but only
        # {a, b, x, y} holds 4 items and no candidate links {a, b} to {x, y};
        # {e, x} is frequent, so level 3 cuts e away and splits the rows
        "row split below k+1 items": (TransactionDB(tuple("abcdexyz"), {
            ("a", "b", "c"): 2, ("a", "b", "d"): 2, ("a", "c", "d"): 2, ("b", "c", "d"): 2,
            ("x", "y", "z"): 2, ("e", "x"): 2, ("a", "b", "x", "y"): 1}), 2),
    }


STOP_DBS = _stop_dbs()


def planted_db(seed):
    """Seeded counted rows over a universe in shuffled order with three
    planted 4-item groups, the first two sharing one item, and three
    background items. A row carries one group, with multiplicity 2-3, or two,
    with multiplicity 1; each member is dropped with probability 0.2, and one
    background item joins 30% of rows."""
    rng = random.Random(seed)
    universe = tuple(rng.sample(string.ascii_lowercase[:14], 14))
    groups = (universe[0:4], universe[3:7], universe[7:11])
    rows: dict[tuple[str, ...], int] = {}
    for _ in range(rng.randint(25, 35)):
        carried = rng.sample(groups, rng.randint(1, 2))
        picked = {item for group in carried for item in group if rng.random() >= 0.2}
        if rng.random() < 0.3:
            picked.add(rng.choice(universe[11:]))
        row = tuple(item for item in universe if item in picked)
        rows[row] = rows.get(row, 0) + (1 if len(carried) > 1 else rng.choice((2, 3)))
    return TransactionDB(universe, rows)


def split_row(row, candidates):
    """The pieces of `row`: its items grouped so that two items share a group
    whenever some candidate holds both, each group in row order."""
    groups = [{item} for item in row]
    for cand in candidates:
        inside = set(cand) & set(row)
        touched = [g for g in groups if g & inside]
        if len(touched) > 1:
            groups = [g for g in groups if not g & inside] + [set().union(*touched)]
    return [tuple(item for item in row if item in g) for g in groups]


def scan_candidates(levels, counted):
    """The candidates of every scan `mine_frequent` made: those of each scan
    it counted, plus the joined candidates of a last scan over no rows."""
    scans = [[ci.items for ci in scan] for scan in counted]
    last = generate_candidates(levels[-1]) if len(counted) == len(levels) else []
    return scans + [last] if last else scans


class TestLevelOracle:
    CASES = [*range(16), *STOP_DBS, *(f"planted {seed}" for seed in range(8))]

    @staticmethod
    def mined(case, count_spy):
        """Mine a case's DB, returning it, the params, the levels and the
        candidates of every scan counted, each with its count."""
        if case in STOP_DBS:
            db, support = STOP_DBS[case]
        elif isinstance(case, str):
            db = planted_db(int(case.split()[1]))
            support = round(0.15 * len(db))
        else:
            db, support = weighted_db(case), (3, 8, 12)[case % 3]
        params = MiningParams(min_support_count=support, min_confidence=0.0)
        count_spy.clear()
        return db, params, mine_frequent(db, params), list(count_spy)

    @pytest.mark.parametrize("case", CASES)
    def test_every_candidate_count_matches_support_count(self, case, count_spy):
        db, params, levels, counted = self.mined(case, count_spy)
        rank = {item: i for i, item in enumerate(db.universe)}
        expected = [(item,) for item in db.universe]
        for k, (level, scan) in enumerate(zip(levels, counted), 1):
            assert level.k == k
            assert [ci.items for ci in scan] == expected
            assert level.candidates == len(scan)
            keys = [tuple(rank[item] for item in ci.items) for ci in scan]
            assert all(a < b for a, b in zip(keys, keys[1:]))
            for ci in scan:
                assert ci.support_count == support_count(db, ci.items)
            expected = generate_candidates(level)
        assert len(counted) in (len(levels), len(levels) + 1)
        for scan in counted[len(levels):]:  # a last scan, in which nothing was frequent
            for ci in scan:
                assert ci.support_count == support_count(db, ci.items) < params.min_support_count
        assert levels.scans == len(scan_candidates(levels, counted))
        assert frequent_map(levels) == frequent_map(brute_force_frequent(db, params))

    def test_planted_dbs_reach_level_4_and_split_rows(self, count_spy):
        for seed in range(8):
            db, _, levels, counted = self.mined(f"planted {seed}", count_spy)
            assert len(levels) >= 4
            c3 = [ci.items for ci in counted[2]]
            wanted = {item for c in c3 for item in c}
            cuts = {tuple(item for item in row if item in wanted) for row in db.rows}
            assert any(len(split_row(cut, c3)) > 1 for cut in cuts)

    def test_dbs_cover_every_trimming_case(self, count_spy):
        # the rows a level counts are the rows cut to its candidates' items and,
        # from k = 3 on, split into pieces no candidate links; pieces below k
        # items drop out. The cut is skipped when it would keep every item.
        # Once no row of the last level holds more than k items, the next level
        # is not built: a scan over no rows if its join yields a candidate.
        seen = set()
        for case in self.CASES:
            db, _, levels, counted = self.mined(case, count_spy)
            multiplicities = set(db.rows.values())
            if 1 in multiplicities:
                seen.add("multiplicity 1")
            if max(multiplicities) > 1:
                seen.add("multiplicity above 1")
            if any(ci.support_count == 0 for scan in counted[:len(levels)] for ci in scan):
                seen.add("zero count")
            scans = scan_candidates(levels, counted)
            if len(scans) > len(levels):
                seen.add("last scan finds nothing")
            held = set(db.universe)
            longest = [max(map(len, db.rows), default=0)]  # of the rows each scan counts
            for k, candidates in enumerate(scans, 1):
                wanted = {item for c in candidates for item in c}
                if held <= wanted:
                    if k >= 2:
                        seen.add("cut skipped at k >= 2")
                    longest.append(longest[-1])
                    continue
                held = wanted
                # each kept piece -> the distinct cut rows, and the rows, it came from
                pieces: dict[tuple[str, ...], tuple[set, list]] = {}
                for row in db.rows:
                    cut = tuple(item for item in row if item in wanted)
                    if len(row) >= k > len(cut):
                        seen.add("row falls below k")
                    if len(cut) < k:
                        continue
                    split = split_row(cut, candidates) if k >= 3 else [cut]
                    kept = [piece for piece in split if len(piece) >= k]
                    if len(split) > 1:
                        seen.add("row split into pieces")
                        if len(kept) < len(split):
                            seen.add("piece falls below k")
                    for piece in kept:
                        cuts, rows = pieces.setdefault(piece, (set(), []))
                        cuts.add(cut)
                        rows.append(row)
                if any(piece in candidates for piece in pieces if len(piece) == k):
                    seen.add("cut row of exactly k items")
                holds_candidate = {piece for piece in pieces
                                   if any(set(c) <= set(piece) for c in candidates)}
                if any(len(pieces[piece][1]) > 1 for piece in holds_candidate):
                    seen.add("rows merge")
                if any(len(pieces[piece][0]) > 1 and k >= 3 for piece in holds_candidate):
                    seen.add("pieces of different cut rows merge")
                longest.append(max(map(len, pieces), default=0))
            k = len(levels)
            if levels and longest[k] <= k:
                seen.add("stop, join yields" if len(scans) > k else "stop, join empty")
        assert seen == {
            "multiplicity 1", "multiplicity above 1", "zero count", "last scan finds nothing",
            "cut skipped at k >= 2", "row falls below k", "cut row of exactly k items",
            "rows merge", "stop, join yields", "stop, join empty", "row split into pieces",
            "piece falls below k", "pieces of different cut rows merge",
        }


class TestBruteForce:
    def test_tiny_db(self):
        db = TransactionDB(("a", "b"), {("a", "b"): 1})
        levels = brute_force_frequent(db, MiningParams(1, 0.0))
        assert levels[0].counts() == {("a",): 1, ("b",): 1}
        assert levels[1].counts() == {("a", "b"): 1}

    def test_universe_size_guard(self):
        universe = tuple(f"X{i}" for i in range(21))
        db = TransactionDB(universe, {})
        with pytest.raises(UniverseTooLargeError):
            brute_force_frequent(db, MiningParams(1, 0.0))

    def test_matches_miner_on_worked_example(self, market9):
        a = frequent_map(mine_frequent(market9, PARAMS2))
        b = frequent_map(brute_force_frequent(market9, PARAMS2))
        assert a == b

    @pytest.mark.parametrize("seed", range(30))
    def test_matches_miner_on_random_dbs(self, seed):
        db = random_db(seed, universe_size=8, n_transactions=30)
        params = MiningParams(min_support_count=1 + seed % 3, min_confidence=0.0)
        assert frequent_map(mine_frequent(db, params)) == frequent_map(
            brute_force_frequent(db, params))


class TestAprioriProperties:
    @pytest.mark.parametrize("seed", range(10))
    def test_subsets_of_frequent_are_frequent(self, seed):
        db = random_db(seed, universe_size=7, n_transactions=25)
        levels = mine_frequent(db, MiningParams(2, 0.0))
        by_k = {lv.k: set(lv.counts()) for lv in levels}
        for lv in levels:
            for itemset in lv.counts():
                for size in range(1, len(itemset)):
                    for subset in itertools.combinations(itemset, size):
                        assert subset in by_k[size]

    @pytest.mark.parametrize("seed", range(10))
    def test_raising_threshold_never_adds_itemsets(self, seed):
        db = random_db(seed, universe_size=6, n_transactions=20)
        found = [
            set(frequent_map(mine_frequent(db, MiningParams(c, 0.0))))
            for c in (1, 2, 3)
        ]
        assert found[2] <= found[1] <= found[0]


class TestGenerateRules:
    def test_pair_rule_support_and_confidence(self, market9):
        levels = mine_frequent(market9, MiningParams(2, 0.0))
        rules = generate_rules(levels, len(market9), MiningParams(2, 0.0))
        rule = next(r for r in rules
                    if r.antecedent == ("I1",) and r.consequent == ("I2",))
        assert rule.support == 4 / 9
        assert rule.confidence == 4 / 6

    def test_zero_confidence_emits_every_split(self, market9):
        levels = mine_frequent(market9, PARAMS2)
        rules = generate_rules(levels, len(market9), MiningParams(2, 0.0))
        # six frequent pairs give 2 rules each; two triples give 6 each
        assert len(rules) == 6 * 2 + 2 * 6

    def test_strong_rules_at_070(self, market9):
        levels = mine_frequent(market9, PARAMS2)
        rules = generate_rules(levels, len(market9), PARAMS2)
        got = {(r.antecedent, r.consequent) for r in rules}
        assert got == {
            (("I5",), ("I1",)),
            (("I4",), ("I2",)),
            (("I5",), ("I2",)),
            (("I5",), ("I1", "I2")),
            (("I1", "I5"), ("I2",)),
            (("I2", "I5"), ("I1",)),
        }
        assert all(r.confidence == 1.0 and r.support == 2 / 9 for r in rules)

    def test_unsatisfiable_confidence_yields_nothing(self, market9):
        levels = mine_frequent(market9, PARAMS2)
        assert generate_rules(levels, len(market9),
                              MiningParams(2, 1.01)) == []

    def test_confidence_decided_on_the_threshold_digits(self, market9):
        def rules_at(db, threshold):
            params = MiningParams(2, threshold)
            rules = generate_rules(mine_frequent(db, params), len(db), params)
            return {(r.antecedent, r.consequent) for r in rules}

        # I1 => I5 has confidence exactly 2/6, and float("0.33333333333333334") == 1/3
        assert (("I1",), ("I5",)) not in rules_at(market9, Decimal("0.33333333333333334"))
        assert (("I1",), ("I5",)) in rules_at(market9, Decimal("0.3333333333333333"))
        assert (("I1",), ("I5",)) in rules_at(market9, 1 / 3)  # a float as its shortest text
        # a => b has confidence exactly 1/10, just below the float nearest 0.1
        db = TransactionDB(("a", "b"), {("a", "b"): 2, ("a",): 18})
        assert (("a",), ("b",)) in rules_at(db, 0.1)
        assert (("a",), ("b",)) not in rules_at(db, Decimal("0.1000000000000000001"))

    def test_tiny_threshold_keeps_every_rule(self):
        # a => b holds in 1 of a's 11 transactions: no rule of 11 transactions is weaker
        db = TransactionDB(("a", "b"), {("a", "b"): 1, ("a",): 10})
        levels = mine_frequent(db, MiningParams(1, 0.0))
        every = generate_rules(levels, len(db), MiningParams(1, 0.0))
        assert len(every) == 2
        for threshold in (0.09, 0.009, 5e-324, Decimal("1e-400"), Decimal("0E-400")):
            assert generate_rules(levels, len(db), MiningParams(1, threshold)) == every
        for threshold in (Decimal("0.095"), Decimal("0.0909091")):
            (strong,) = generate_rules(levels, len(db), MiningParams(1, threshold))
            assert (strong.antecedent, strong.consequent) == (("b",), ("a",))

    @pytest.mark.parametrize("seed", range(8))
    def test_every_rule_meets_both_thresholds(self, seed):
        db = random_db(seed, universe_size=6, n_transactions=20)
        params = MiningParams(min_support_count=2, min_confidence=0.4)
        levels = mine_frequent(db, params)
        for rule in generate_rules(levels, len(db), params):
            assert rule.confidence >= params.min_confidence
            assert rule.support * len(db) >= params.min_support_count
            assert rule.support <= rule.confidence

    def test_missing_subset_count_is_internal_error(self):
        # hand-build inconsistent levels: a frequent pair without its singles
        l2 = level_of(2, {("I1", "I2"): 4})
        with pytest.raises(MiningInvariantError):
            generate_rules([l2], 9, MiningParams(2, 0.0))

    def test_rule_type_rejects_overlap(self):
        with pytest.raises(ValueError):
            AssociationRule(("I1",), ("I1", "I2"), 0.5, 0.5)

    def test_rule_type_rejects_empty_side(self):
        with pytest.raises(ValueError):
            AssociationRule((), ("I1",), 0.5, 0.5)

    def test_rule_type_messages_and_replace(self):
        with pytest.raises(ValueError, match="^rule sides must be non-empty$"):
            AssociationRule(("I1",), (), 0.5, 0.5)
        with pytest.raises(ValueError, match="^rule sides must be disjoint$"):
            AssociationRule(("I1", "I2"), ("I2",), 0.5, 0.5)
        rule = AssociationRule(("I1",), ("I2",), 0.5, 0.5)
        with pytest.raises(ValueError, match="^rule sides must be disjoint$"):
            rule._replace(consequent=("I1",))
        with pytest.raises(ValueError, match="^rule sides must be non-empty$"):
            rule._replace(antecedent=())


class TestDigraphAdapter:
    ALPHA = AlphabetConfig(name="ab", letters=("a", "b"))

    def test_unordered_pair_view(self):
        table = count_ngraphs(tokenize("abab", self.ALPHA), 2)
        # {(a,b):2, (b,a):1} -> three transactions, each {a,b}
        db = digraphs_as_transactions(table)
        assert len(db) == 3
        assert db.rows == {("a", "b"): 3}

    def test_doubled_letter_is_singleton(self):
        table = count_ngraphs(tokenize("aaaaaa", self.ALPHA), 2)
        db = digraphs_as_transactions(table)
        assert len(db) == 5
        assert db.rows == {("a",): 5}

    def test_requires_digraph_table(self):
        table = count_ngraphs(tokenize("ab", self.ALPHA), 1)
        with pytest.raises(ValueError):
            digraphs_as_transactions(table)

    def test_universe_is_alphabet_ordered_letters_present(self):
        alpha = AlphabetConfig(name="zxa", letters=("z", "x", "a"))
        table = count_ngraphs(tokenize("xaxz", alpha), 2)
        db = digraphs_as_transactions(table)
        assert db.universe == ("z", "x", "a")
        # each pair in alphabet order too, not code-point order: x before a, z before x
        assert db.rows == {("x", "a"): 2, ("z", "x"): 1}

    @pytest.mark.parametrize("seed", range(3))
    def test_pair_support_matches_table_arithmetic(self, seed):
        letters = "abcdef"
        alpha = AlphabetConfig(name="six", letters=tuple(letters))
        text = random_text(letters, 5000, seed)
        table = count_ngraphs(tokenize(text, alpha), 2)
        db = digraphs_as_transactions(table)
        for x, y in itertools.combinations(letters, 2):
            expected = table.counts.get((x, y), 0) + table.counts.get((y, x), 0)
            assert support_count(db, (x, y)) == expected


class TestTransactionTsv:
    def test_round_trip(self, tmp_path):
        db = random_db(3, universe_size=4, n_transactions=40, max_items=2)
        assert max(db.rows.values()) > 1
        path = tmp_path / "db.tsv"
        write_transactions_tsv(db, path)
        present = tuple(sorted({item for row in db.rows for item in row}))
        assert read_transactions_tsv(path) == TransactionDB(present, dict(db.rows))

    def test_checked_in_fixture_matches(self, market9, data_dir):
        assert read_transactions_tsv(data_dir / "market9.tsv") == market9

    def test_default_universe_is_sorted_items(self, tmp_path):
        path = tmp_path / "db.tsv"
        path.write_text("tid\titems\nT1\tb a\n", encoding="utf-8")
        assert read_transactions_tsv(path).universe == ("a", "b")

    def test_malformed_row_rejected(self, tmp_path):
        path = tmp_path / "db.tsv"
        path.write_text("T1\ta\tb\n", encoding="utf-8")
        with pytest.raises(IngestionError, match="db.tsv:1"):
            read_transactions_tsv(path)
