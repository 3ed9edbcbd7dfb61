"""Hand assignment, decision audit, and key placement."""

import json
import random
import re
import string
from collections import Counter

import pytest

from keymine.cli import main
from keymine.corpus import AlphabetConfig, IngestionError, NGraphTable
from keymine.layout import (
    AuditResult,
    GeometryCapacityError,
    KeyboardGeometry,
    KeyPosition,
    Layout,
    assign_hands,
    audit_partition,
    default_geometry,
    load_geometry,
    load_layout,
    place_keys,
    save_geometry,
    save_layout,
    write_trace_tsv,
)
from keymine.mining import digraphs_as_transactions
from keymine.synth import random_text, zipf_weights

from conftest import design_tables, hand_partition
from reference import support_count

ABCDE = AlphabetConfig(name="abcde", letters=tuple("abcde"))


def pieces(*pairs):
    """Join digraph pieces with separators so only the pieces form digraphs."""
    out = []
    for piece, reps in pairs:
        out.extend([piece] * reps)
    return "0".join(out)


# Constructed corpus with hand-checkable affinities: 25 digraph occurrences,
# monograph counts a:21 b:10 c:8 d:6 e:5, and for letter e against
# left={b,c}, right={a,d}: LS=4/25, RS=1/25, LC=4/5, RC=1/5.
AFFINITY_TEXT = pieces(("ab", 8), ("ac", 6), ("ad", 6), ("eb", 2), ("ec", 2), ("ea", 1))


class TestAssignHands:
    def test_seeds_first_four_ranks(self):
        # p q r s with strictly descending counts
        alpha = AlphabetConfig(name="pqrs", letters=tuple("pqrs"))
        mono, di, _ = design_tables(alpha, "0".join(["pq"] * 4 + ["pr"] * 3 + ["ps"] * 2))
        part = assign_hands(mono, di)
        assert part.right == ["p", "s"]
        assert part.left == ["q", "r"]

    def test_one_letter_alphabet(self):
        alpha = AlphabetConfig(name="x", letters=("x",))
        mono, di, _ = design_tables(alpha, "xx")
        part = assign_hands(mono, di)
        assert part.right == ["x"] and part.left == []

    def test_two_and_three_letter_seeding(self):
        alpha = AlphabetConfig(name="abc", letters=tuple("abc"))
        mono, di, _ = design_tables(alpha, "aab")
        part = assign_hands(mono, di)
        assert part.right == ["a"] and part.left == ["b"]
        mono, di, _ = design_tables(alpha, "aaabbc")
        part = assign_hands(mono, di)
        assert part.right == ["a"] and part.left == ["b", "c"]

    def test_fifth_letter_follows_decision_rule(self):
        mono, di, _ = design_tables(ABCDE, AFFINITY_TEXT)
        part = assign_hands(mono, di)
        # e leans left on both support and confidence, so it types right
        assert part.right == ["a", "d", "e"]
        assert part.left == ["b", "c"]

    def test_hand_computed_statistics(self):
        # the seeds put b and c left and a and d right before e is scored
        mono, di, _ = design_tables(ABCDE, AFFINITY_TEXT)
        rec = assign_hands(mono, di).trace[4]
        assert rec.letter == "e"
        assert rec.left_support == 4 / 25
        assert rec.right_support == 1 / 25
        assert rec.left_confidence == 4 / 5
        assert rec.right_confidence == 1 / 5

    @pytest.mark.parametrize("seed", range(5))
    def test_statistics_stay_in_unit_range(self, seed):
        letters = string.ascii_lowercase[:8]
        alpha = AlphabetConfig(name="eight", letters=tuple(letters))
        mono, di, _ = design_tables(alpha, random_text(letters, 2000, seed))
        for rec in assign_hands(mono, di).trace:
            for value in rec[2:6]:
                assert 0.0 <= value <= 1.0

    @pytest.mark.parametrize("tie_policy", ["left-biased", "balanced"])
    def test_letters_without_digraphs(self, tie_policy):
        # every letter stands alone, so the digraph total is 0
        alpha = AlphabetConfig(name="af", letters=tuple("abcdef"))
        mono, di, _ = design_tables(alpha, "a0b0c0d0e0f0a")
        assert di.total == 0
        part = assign_hands(mono, di, tie_policy=tie_policy)
        assert [rec[2:6] for rec in part.trace[4:]] == [(0.0, 0.0, 0.0, 0.0)] * 2
        if tie_policy == "left-biased":
            assert part.left == ["b", "c", "e", "f"] and part.right == ["a", "d"]
        else:
            assert part.left == ["b", "c", "e"] and part.right == ["a", "d", "f"]
        assert audit_partition(part, mono, di).ok

    def test_trace_covers_every_letter_in_rank_order(self):
        mono, di, _ = design_tables(ABCDE, AFFINITY_TEXT)
        part = assign_hands(mono, di)
        assert [t.rank for t in part.trace] == [1, 2, 3, 4, 5]
        assert [t.letter for t in part.trace] == ["a", "b", "c", "d", "e"]
        assert part.trace[4].hand == "right"

    def test_partition_totality(self):
        letters = string.ascii_lowercase[:10]
        alpha = AlphabetConfig(name="ten", letters=tuple(letters))
        for seed in range(5):
            text = random_text(letters, 1500, seed, weights=zipf_weights(10))
            mono, di, _ = design_tables(alpha, text)
            part = assign_hands(mono, di)
            counted = {key[0] for key in mono.counts}
            assert set(part.left) | set(part.right) == counted
            assert not set(part.left) & set(part.right)

    def test_rejects_unknown_tie_policy(self):
        mono, di, _ = design_tables(ABCDE, "abab")
        with pytest.raises(ValueError):
            assign_hands(mono, di, tie_policy="coin-flip")

    def test_empty_ranking_rejected(self):
        mono, di, _ = design_tables(ABCDE, "")
        with pytest.raises(ValueError):
            assign_hands(mono, di)


# Corpus where letters e and f tie exactly between the two seeded hands:
# each co-occurs twice with b (left) and twice with a (right).
TIE_TEXT = pieces(("ab", 10), ("ac", 8), ("ad", 6), ("ea", 2), ("eb", 2),
                  ("fa", 2), ("fb", 2))


class TestTiePolicies:
    def test_default_sends_ties_left(self):
        mono, di, _ = design_tables(AlphabetConfig(name="af", letters=tuple("abcdef")), TIE_TEXT)
        part = assign_hands(mono, di)
        assert part.left == ["b", "c", "e", "f"]
        assert part.right == ["a", "d"]

    def test_balanced_alternates_ties_starting_left(self):
        mono, di, _ = design_tables(AlphabetConfig(name="af", letters=tuple("abcdef")), TIE_TEXT)
        part = assign_hands(mono, di, tie_policy="balanced")
        assert part.left == ["b", "c", "e"]
        assert part.right == ["a", "d", "f"]

    def test_balanced_partition_audits_clean(self):
        mono, di, _ = design_tables(AlphabetConfig(name="af", letters=tuple("abcdef")), TIE_TEXT)
        part = assign_hands(mono, di, tie_policy="balanced")
        assert audit_partition(part, mono, di).ok

    @pytest.mark.xfail(strict=True, reason="assign_hands compares float sums inline; an "
                       "exact integer tie is decided by rounding (0.1 + 0.2 > 0.3)")
    def test_exact_integer_tie_goes_left(self):
        # e's joint counts: 1 with b and 2 with c (left), 3 with a (right),
        # 0 with d (right); the doubled ee is counted once, so
        # |D| = count(e) = 10. The tie must go left.
        mono = NGraphTable(n=1, counts=Counter({("a",): 50, ("b",): 40, ("c",): 30,
                                                ("d",): 20, ("e",): 10}), alphabet=ABCDE)
        di = NGraphTable(n=2, counts=Counter({("b", "e"): 1, ("c", "e"): 2, ("a", "e"): 3,
                                              ("e", "e"): 4}), alphabet=ABCDE)
        assert assign_hands(mono, di).left == ["b", "c", "e"]


class TestAuditPartition:
    def fixture_partition(self):
        mono, di, _ = design_tables(ABCDE, AFFINITY_TEXT)
        return assign_hands(mono, di), mono, di

    def test_fresh_partition_passes(self):
        part, mono, di = self.fixture_partition()
        result = audit_partition(part, mono, di)
        assert result.ok and bool(result)

    def test_failed_result_is_falsy(self):
        # a record with four fields is a non-empty tuple; its truth must be `ok`
        assert bool(AuditResult(False, "x")) is False
        assert bool(AuditResult(True)) is True
        assert not AuditResult(False, "x", 5, "e")

    def test_flipped_hand_fails_at_that_letter(self):
        part, mono, di = self.fixture_partition()
        part.trace[4] = part.trace[4]._replace(hand="left")
        assert part.left == ["b", "c", "e"]  # the hand lists follow the trace
        result = audit_partition(part, mono, di)
        assert not result.ok
        assert result.letter == "e" and result.rank == 5

    def test_tampered_affinity_fails(self):
        part, mono, di = self.fixture_partition()
        rec = part.trace[4]
        part.trace[4] = rec._replace(left_support=rec.left_support + 1e-9)
        result = audit_partition(part, mono, di)
        assert not result.ok and result.letter == "e"

    def test_missing_trace_is_an_error(self):
        part, mono, di = self.fixture_partition()
        result = audit_partition(part._replace(trace=[]), mono, di)
        assert not result.ok
        assert result.message == "trace has 0 records for 5 ranked letters"

    def test_dropped_record_fails_the_count(self):
        part, mono, di = self.fixture_partition()
        result = audit_partition(part._replace(trace=part.trace[:-1]), mono, di)
        assert not result.ok
        assert result.message == "trace has 4 records for 5 ranked letters"

    @pytest.mark.parametrize("seed", range(20))
    def test_random_corpora_replay_clean(self, seed):
        letters = string.ascii_lowercase[: 6 + seed % 5]
        alpha = AlphabetConfig(name="rand", letters=tuple(letters))
        text = random_text(letters, 1200, seed, weights=zipf_weights(len(letters)),
                           space_prob=0.1, junk="123", junk_prob=0.04)
        mono, di, _ = design_tables(alpha, text)
        part = assign_hands(mono, di)
        assert audit_partition(part, mono, di).ok


class TestTraceOracle:
    @pytest.mark.parametrize("seed", range(12))
    def test_trace_matches_transaction_view_sums(self, seed):
        """Recompute every trace record's four floats in partition order from
        `support_count` over the transaction view of the same digraph table,
        a path independent of `assign_hands`'s own sums: a doubled letter counted
        twice, or one direction of a pair missed, shows as a mismatch."""
        letters = string.ascii_lowercase[: 6 + seed % 5]
        alpha = AlphabetConfig(name="rand", letters=tuple(letters))
        text = random_text(letters, 1500, 500 + seed, weights=zipf_weights(len(letters)),
                           space_prob=0.1, junk="4%", junk_prob=0.05)
        mono, di, _ = design_tables(alpha, text)
        db = digraphs_as_transactions(di)
        assert any(a == b for a, b in di.counts), "fixture needs a doubled letter"
        hands = {"left": [], "right": []}
        for rec in assign_hands(mono, di).trace:
            own = support_count(db.rows, (rec.letter,))
            sums = {}
            for hand, assigned in hands.items():
                support = confidence = 0.0
                for other in assigned:
                    joint = support_count(db.rows, (rec.letter, other))
                    support += joint / len(db)
                    if own:
                        confidence += joint / own
                sums[hand] = (support, confidence)
            assert (rec.left_support, rec.right_support,
                    rec.left_confidence, rec.right_confidence) == (
                sums["left"][0], sums["right"][0], sums["left"][1], sums["right"][1])
            hands[rec.hand].append(rec.letter)


class TestRelabelingEquivariance:
    def test_permuted_corpus_permutes_partition(self):
        letters = string.ascii_lowercase[:8]
        alpha = AlphabetConfig(name="eight", letters=tuple(letters))
        text = random_text(letters, 3000, 11, weights=zipf_weights(8))
        mono, di, _ = design_tables(alpha, text)
        counts = sorted(mono.counts.values())
        assert len(set(counts)) == len(counts), "fixture needs distinct counts"

        perm = dict(zip(letters, "hgfedcba"))
        permuted_text = text.translate(str.maketrans(perm))
        mono_p, di_p, _ = design_tables(alpha, permuted_text)

        part = assign_hands(mono, di)
        part_p = assign_hands(mono_p, di_p)
        assert [perm[l] for l in part.left] == part_p.left
        assert [perm[l] for l in part.right] == part_p.right


def tiny_geometry():
    return KeyboardGeometry(positions=[
        KeyPosition("L1", "left", 1, "home", "base", 1.0),
        KeyPosition("R1", "right", 1, "home", "base", 1.0),
        KeyPosition("R2", "right", 2, "top", "base", 2.0),
    ])


class TestPlaceKeys:
    def test_one_letter_per_hand(self):
        alpha = AlphabetConfig(name="pq", letters=("p", "q"))
        mono, di, _ = design_tables(alpha, "ppq")
        part = assign_hands(mono, di)  # right=[p], left=[q]
        layout = place_keys(part, tiny_geometry())
        assert layout.mapping == {"p": "R1", "q": "L1"}

    def test_higher_count_takes_cheaper_position(self):
        alpha = AlphabetConfig(name="ps", letters=("p", "s"))
        mono, _, _ = design_tables(alpha, "p" * 100 + "0" + "s" * 50)
        # partition lists are in descending-frequency order
        assert mono.counts[("p",)] > mono.counts[("s",)]
        part = hand_partition(right=["p", "s"])
        layout = place_keys(part, tiny_geometry())
        assert layout.mapping == {"p": "R1", "s": "R2"}

    def test_capacity_error_names_overflow(self):
        part = hand_partition(right=["p", "q", "r"])
        with pytest.raises(GeometryCapacityError) as err:
            place_keys(part, tiny_geometry())
        assert err.value.overflow == 1
        assert "r" in str(err.value)

    def test_base_layer_fills_before_shift(self):
        # 50 letters over the default geometry: each hand's 15 base
        # positions take that hand's most frequent letters
        letters = [chr(ord("a") + i) for i in range(25)] + [
            chr(0x3B1 + i) for i in range(25)]
        alpha = AlphabetConfig(name="fifty", letters=tuple(letters))
        rng = random.Random(4)
        weights = sorted((rng.uniform(1, 100) for _ in letters), reverse=True)
        text = random_text(letters, 30000, 4, weights=weights)
        mono, di, _ = design_tables(alpha, text)
        part = assign_hands(mono, di)
        geometry = default_geometry()
        layout = place_keys(part, geometry)
        by_id = {p.position_id: p for p in geometry.positions}
        for hand, assigned in (("left", part.left), ("right", part.right)):
            ranked = sorted(assigned, key=lambda l: -mono.counts[(l,)])
            layers = [by_id[layout.mapping[l]].layer for l in ranked]
            n_base = min(15, len(ranked))
            assert layers[:n_base] == ["base"] * n_base

    @pytest.mark.parametrize("seed", range(5))
    def test_placement_monotone_in_frequency(self, seed):
        letters = string.ascii_lowercase[:12]
        alpha = AlphabetConfig(name="twelve", letters=tuple(letters))
        text = random_text(letters, 2500, seed, weights=zipf_weights(12))
        mono, di, _ = design_tables(alpha, text)
        part = assign_hands(mono, di)
        geometry = default_geometry()
        layout = place_keys(part, geometry)
        by_id = {p.position_id: p for p in geometry.positions}
        for assigned in (part.left, part.right):
            for x in assigned:
                for y in assigned:
                    if mono.counts[(x,)] > mono.counts[(y,)]:
                        assert by_id[layout.mapping[x]].cost <= by_id[layout.mapping[y]].cost

    def test_mapping_injective(self):
        mono, di, _ = design_tables(ABCDE, AFFINITY_TEXT)
        part = assign_hands(mono, di)
        layout = place_keys(part, default_geometry())
        values = list(layout.mapping.values())
        assert len(values) == len(set(values))


class TestGeometry:
    def test_default_has_sixty_positions(self):
        geometry = default_geometry()
        assert len(geometry.positions) == 60
        assert sum(p.layer == "base" for p in geometry.positions) == 30

    def test_positions_for_sorted_by_cost_then_layer(self):
        geometry = default_geometry()
        for hand in ("left", "right"):
            slots = geometry.positions_for(hand)
            keys = [(p.cost, 0 if p.layer == "base" else 1) for p in slots]
            assert keys == sorted(keys)
            assert all(p.hand == hand for p in slots)

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            KeyboardGeometry(positions=[
                KeyPosition("P", "left", 1, "home", "base", 1.0),
                KeyPosition("P", "right", 1, "home", "base", 1.0),
            ])

    def test_nonpositive_cost_rejected(self):
        with pytest.raises(ValueError, match="cost"):
            KeyboardGeometry(positions=[
                KeyPosition("P", "left", 1, "home", "base", 0.0),
                KeyPosition("Q", "right", 1, "home", "base", 1.0),
            ])

    @pytest.mark.parametrize("finger", [True, 1.0], ids=["bool", "float"])
    def test_non_int_finger_rejected(self, tmp_path, finger):
        # True == 1 and 1.0 == 1, so a plain membership test would take either as finger 1
        records = [
            {"id": "P", "hand": "left", "finger": finger, "row": "home", "layer": "base", "cost": 1.0},
            {"id": "Q", "hand": "right", "finger": 1, "row": "home", "layer": "base", "cost": 1.0},
        ]
        path = tmp_path / "geometry.json"
        path.write_text(json.dumps(records), encoding="utf-8")
        with pytest.raises(IngestionError, match=f"^{re.escape(str(path))}: P: finger must be one of"):
            load_geometry(path)

    def test_hand_without_base_position_rejected(self):
        with pytest.raises(ValueError, match="base"):
            KeyboardGeometry(positions=[
                KeyPosition("P", "left", 1, "home", "base", 1.0),
                KeyPosition("Q", "right", 1, "home", "shift", 1.0),
            ])

    def test_bad_enum_field_rejected(self):
        with pytest.raises(ValueError):
            KeyboardGeometry(positions=[
                KeyPosition("P", "middle", 1, "home", "base", 1.0),
                KeyPosition("Q", "right", 1, "home", "base", 1.0),
            ])

    def test_json_round_trip(self, tmp_path):
        geometry = tiny_geometry()
        path = tmp_path / "geometry.json"
        save_geometry(geometry, path)
        assert load_geometry(path).positions == geometry.positions

    def test_malformed_geometry_reports_position_index(self, tmp_path):
        path = tmp_path / "geometry.json"
        path.write_text(json.dumps([{"id": "P", "hand": "left"}]), encoding="utf-8")
        with pytest.raises(IngestionError, match=r"positions\[0\]"):
            load_geometry(path)


class TestLayoutFiles:
    def make_layout(self):
        mono, di, _ = design_tables(ABCDE, AFFINITY_TEXT)
        part = assign_hands(mono, di)
        return place_keys(part, default_geometry(), name="fixture")

    def test_round_trip(self, tmp_path):
        layout = self.make_layout()
        save_geometry(layout.geometry, tmp_path / "geometry.json")
        save_layout(layout, tmp_path / "layout.json", geometry_ref="geometry.json")
        loaded = load_layout(tmp_path / "layout.json")
        assert loaded.name == "fixture"
        assert loaded.mapping == layout.mapping
        assert loaded.geometry.positions == layout.geometry.positions

    def test_save_is_deterministic(self, tmp_path):
        layout = self.make_layout()
        save_layout(layout, tmp_path / "one.json", geometry_ref="geometry.json")
        save_layout(layout, tmp_path / "two.json", geometry_ref="geometry.json")
        assert (tmp_path / "one.json").read_bytes() == (tmp_path / "two.json").read_bytes()

    @staticmethod
    def write_layout(tmp_path, data):
        save_geometry(default_geometry(), tmp_path / "geometry.json")
        path = tmp_path / "layout.json"
        path.write_text(json.dumps({"geometry_ref": "geometry.json", **data}), encoding="utf-8")
        return path

    def test_missing_field_names_path(self, tmp_path):
        path = self.write_layout(tmp_path, {"name": "x"})
        with pytest.raises(IngestionError, match=f"^{re.escape(str(path))}: missing field 'mapping'"):
            load_layout(path)

    def test_unknown_position_rejected(self, tmp_path):
        path = self.write_layout(tmp_path, {"name": "x", "mapping": {"a": "nope"}})
        with pytest.raises(IngestionError, match="nope"):
            load_layout(path)

    def test_non_injective_mapping_rejected(self):
        with pytest.raises(ValueError):
            Layout(name="x", geometry=tiny_geometry(),
                   mapping={"a": "L1", "b": "L1"})

    def test_trace_tsv_format(self, tmp_path):
        mono, di, _ = design_tables(ABCDE, AFFINITY_TEXT)
        part = assign_hands(mono, di)
        path = tmp_path / "trace.tsv"
        write_trace_tsv(part, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == ("rank\tletter\tleft_support\tright_support"
                            "\tleft_confidence\tright_confidence\thand")
        assert lines[5].startswith("5\te\t0.16\t0.04\t0.8\t0.2\tright")
