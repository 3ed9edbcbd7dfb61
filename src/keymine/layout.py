"""Hand assignment and key placement.

Letters are assigned to hands greedily in frequency-rank order. The two
most frequent letters anchor opposite hands (rank 1 and 4 right, 2 and 3
left); every later letter is scored against the letters each hand already
owns — cumulative pair support and cumulative confidence toward each side,
both read straight off the digraph table — and is sent to the hand OPPOSITE
its stronger association, so that the digraphs it participates in tend to
alternate hands. The decision rule is deliberately asymmetric: only a
letter whose left support AND left confidence both dominate goes right;
every other case (clear right association, mixed signals, exact ties)
goes left. `assign_hands` is the one place this rule runs. Its decision
trace is the partition: each hand's letters are read off the trace, in
rank order. The audit recomputes the assignment with the same rule and
compares the two traces record by record.

Each hand's letters are then placed on physical key positions in
frequency order, cheapest position first.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from pathlib import Path
from typing import NamedTuple, Sequence

from .corpus import IngestionError, NGraphTable, UnreadableFileError, read_json, write_json, write_lines

HANDS = ("left", "right")
ROWS = ("home", "top", "bottom")
LAYERS = ("base", "shift")
FINGERS = (1, 2, 3, 4, "thumb")

TIE_POLICIES = ("left-biased", "balanced")


class GeometryCapacityError(ValueError):
    """A hand was assigned more letters than it has key positions."""

    def __init__(self, hand: str, overflow: int, letters: Sequence[str]):
        self.hand = hand
        self.overflow = overflow
        self.letters = tuple(letters)
        super().__init__(
            f"{hand} hand has {overflow} more letter(s) than positions: "
            + " ".join(self.letters)
        )


class TraceRecord(NamedTuple):
    rank: int
    letter: str
    left_support: float
    right_support: float
    left_confidence: float
    right_confidence: float
    hand: str


class HandPartition(NamedTuple):
    """A hand assignment as its decision trace, one record per letter in
    assignment (frequency-rank) order, and the tie policy that made it."""

    trace: list[TraceRecord]
    tie_policy: str = "left-biased"

    @property
    def left(self) -> list[str]:
        return [rec.letter for rec in self.trace if rec.hand == "left"]

    @property
    def right(self) -> list[str]:
        return [rec.letter for rec in self.trace if rec.hand == "right"]


# Rank -> hand for the first four letters; the top letter and the fourth
# anchor the right hand, the second and third the left.
_SEED_HANDS = {1: "right", 2: "left", 3: "left", 4: "right"}


def assign_hands(
    monographs: NGraphTable,
    digraphs: NGraphTable,
    tie_policy: str = "left-biased",
) -> HandPartition:
    """Distribute every letter with a nonzero monograph count onto a hand.

    This is the only place the decision rule runs. Letters are taken in
    descending frequency (ties by alphabet order). Ranks 1 and 4 seed the
    right hand, ranks 2 and 3 the left; from rank 5 on, a letter goes right
    only when both its support and its confidence toward the left set
    strictly exceed those toward the right set, otherwise left. The
    `balanced` tie policy instead alternates the mixed-signal letters, those
    leaning toward neither set on both counts, between hands, starting
    left. Every decision is recorded in the trace.

    A pair's joint count adds both directions of the digraph table; its
    support is joint/|D| and its confidence joint/(digraphs holding the
    letter, a doubled letter once), each summed over a hand's letters in
    assignment order. With no digraphs every sum is 0.0.
    """
    if tie_policy not in TIE_POLICIES:
        raise ValueError(f"tie_policy must be one of {TIE_POLICIES}, got {tie_policy!r}")
    if monographs.n != 1:
        raise ValueError(f"ranking requires a monograph table, got n={monographs.n}")
    ranking = [key[0] for key, count in monographs.sorted_items() if count]
    if not ranking:
        raise ValueError("cannot assign hands: no letter has a nonzero count")
    d = digraphs.counts
    total = digraphs.total
    holding: Counter[str] = Counter()
    for (a, b), n in d.items():
        holding[a] += n
        if b != a:
            holding[b] += n
    left: list[str] = []
    right: list[str] = []
    trace: list[TraceRecord] = []
    alternate = itertools.cycle(HANDS)
    for rank, letter in enumerate(ranking, start=1):
        own = holding[letter]
        sums = []
        for assigned in (left, right):
            support = confidence = 0.0
            if total:
                for other in assigned:
                    joint = d[(letter, other)] + d[(other, letter)]
                    support += joint / total
                    if own:
                        confidence += joint / own
            sums.append((support, confidence))
        (ls, lc), (rs, rc) = sums
        if rank in _SEED_HANDS:
            hand = _SEED_HANDS[rank]
        elif ls > rs and lc > rc:
            hand = "right"
        elif tie_policy == "balanced" and not (rs > ls and rc > lc):
            hand = next(alternate)
        else:
            hand = "left"
        (left if hand == "left" else right).append(letter)
        trace.append(TraceRecord(rank, letter, ls, rs, lc, rc, hand))
    return HandPartition(trace, tie_policy)


def audit_partition(
    partition: HandPartition, monographs: NGraphTable, digraphs: NGraphTable
) -> str | None:
    """Recompute the assignment and report the first record that differs.

    Runs `assign_hands` again on the same tables and tie policy, then
    compares the partition's trace with the recomputed one record by record:
    rank and letter, the four affinities, then the hand. Passes, returning
    None, only if the traces have as many records and every record matches;
    otherwise returns one message, which names the first record that
    differs or gives the two counts. An empty trace fails the count. The
    hand lists are read off the trace, so they cannot disagree with it. The
    recomputation shares the rule and the pair sums with the assignment, so
    it catches a trace changed after the fact, not a fault in the rule
    itself.
    """
    expected = assign_hands(monographs, digraphs, partition.tie_policy)
    if len(partition.trace) != len(expected.trace):
        return f"trace has {len(partition.trace)} records for {len(expected.trace)} ranked letters"
    for rec, want in zip(partition.trace, expected.trace):
        if rec.rank != want.rank or rec.letter != want.letter:
            return (f"trace rank {rec.rank} letter {rec.letter!r} does not match "
                    f"ranking rank {want.rank} letter {want.letter!r}")
        if rec[2:6] != want[2:6]:
            return (f"rank {rec.rank} letter {rec.letter!r}: recorded affinities "
                    f"{rec[2:6]} differ from recomputed {want[2:6]}")
        if rec.hand != want.hand:
            return (f"rank {rec.rank} letter {rec.letter!r}: recorded hand {rec.hand!r} "
                    f"but the decision rule gives {want.hand!r}")
    return None


class KeyPosition(NamedTuple):
    position_id: str
    hand: str
    finger: int | str
    row: str
    layer: str
    cost: float


class KeyboardGeometry:
    """Physical key positions with per-position press costs.

    Treated as immutable after construction.
    """

    __slots__ = ("positions", "_by_id")

    def __init__(self, positions: list[KeyPosition]) -> None:
        by_id: dict[str, KeyPosition] = {}
        per_hand_base = {h: 0 for h in HANDS}
        for pos in positions:
            if pos.position_id in by_id:
                raise ValueError(f"duplicate position id {pos.position_id!r}")
            by_id[pos.position_id] = pos
            if pos.hand not in HANDS:
                raise ValueError(f"{pos.position_id}: hand must be one of {HANDS}")
            if isinstance(pos.finger, (bool, float)) or pos.finger not in FINGERS:
                raise ValueError(f"{pos.position_id}: finger must be one of {FINGERS}")
            if pos.row not in ROWS:
                raise ValueError(f"{pos.position_id}: row must be one of {ROWS}")
            if pos.layer not in LAYERS:
                raise ValueError(f"{pos.position_id}: layer must be one of {LAYERS}")
            if isinstance(pos.cost, bool) or not isinstance(pos.cost, (int, float)):
                raise ValueError(f"{pos.position_id}: cost must be a number, got {pos.cost!r}")
            if not 0 < pos.cost < math.inf:  # NaN fails; an int of any length is finite
                raise ValueError(f"{pos.position_id}: cost must be finite and above 0, got {pos.cost!r}")
            if pos.layer == "base":
                per_hand_base[pos.hand] += 1
        for hand, n in per_hand_base.items():
            if n == 0:
                raise ValueError(f"geometry has no base-layer position for the {hand} hand")
        self.positions = positions
        self._by_id = by_id

    def positions_for(self, hand: str) -> list[KeyPosition]:
        """A hand's positions, cheapest first; base layer wins cost ties."""
        return sorted(
            (p for p in self.positions if p.hand == hand),
            key=lambda p: (p.cost, LAYERS.index(p.layer)),
        )

    def by_id(self) -> dict[str, KeyPosition]:
        return self._by_id


_ROW_COST = {"home": 0.0, "top": 1.0, "bottom": 2.0}
_FINGER_COST = {1: 0.0, 2: 0.2, 3: 0.6, 4: 1.0}
# Column -> (hand, finger, lateral stretch). Columns 5 and 6 are the inner
# index-finger columns reached by stretching sideways.
_COLUMNS = {
    1: ("left", 4, 0.0),
    2: ("left", 3, 0.0),
    3: ("left", 2, 0.0),
    4: ("left", 1, 0.0),
    5: ("left", 1, 0.8),
    6: ("right", 1, 0.8),
    7: ("right", 1, 0.0),
    8: ("right", 2, 0.0),
    9: ("right", 3, 0.0),
    10: ("right", 4, 0.0),
}
_SHIFT_COST = 4.0


def default_geometry() -> KeyboardGeometry:
    """The shipped two-layer geometry: 3 rows x 10 columns per layer.

    Costs grow away from the home row and toward the weak fingers; every
    shift-layer position costs a flat 4.0 more than its base twin, so the
    base layer always fills first.
    """
    positions = []
    for layer in LAYERS:
        for row in ROWS:
            for col in range(1, 11):
                hand, finger, lateral = _COLUMNS[col]
                cost = 1.0 + _ROW_COST[row] + _FINGER_COST[finger] + lateral
                if layer == "shift":
                    cost += _SHIFT_COST
                positions.append(
                    KeyPosition(f"{layer}-{row}-{col:02d}", hand, finger, row, layer, cost)
                )
    return KeyboardGeometry(positions)


class Layout:
    """Injective letter -> position mapping over a geometry."""

    __slots__ = ("name", "geometry", "mapping")

    def __init__(self, name: str, geometry: KeyboardGeometry, mapping: dict[str, str]) -> None:
        known = geometry.by_id()
        seen: dict[str, str] = {}
        for letter, pid in mapping.items():
            if pid not in known:
                raise ValueError(f"mapping[{letter!r}]: unknown position {pid!r}")
            if pid in seen:
                raise ValueError(
                    f"mapping[{letter!r}]: position {pid!r} already taken by {seen[pid]!r}"
                )
            seen[pid] = letter
        self.name = name
        self.geometry = geometry
        self.mapping = mapping

    def hands_by_letter(self) -> dict[str, str]:
        """letter -> hand for every mapped letter; what evaluation scores need."""
        by_id = self.geometry.by_id()
        return {letter: by_id[pid].hand for letter, pid in self.mapping.items()}


def place_keys(partition: HandPartition, geometry: KeyboardGeometry, name: str = "designed") -> Layout:
    """Map each hand's letters to its positions, frequency rank to cost rank.

    Partition lists are already in descending-frequency order, so the most
    frequent letter of each hand lands on that hand's cheapest position.
    """
    mapping: dict[str, str] = {}
    for hand, letters in (("left", partition.left), ("right", partition.right)):
        slots = geometry.positions_for(hand)
        if len(letters) > len(slots):
            raise GeometryCapacityError(hand, len(letters) - len(slots), letters[len(slots) :])
        for letter, pos in zip(letters, slots):
            mapping[letter] = pos.position_id
    return Layout(name=name, geometry=geometry, mapping=mapping)


_GEOMETRY_FIELDS = ("id", "hand", "finger", "row", "layer", "cost")


def load_geometry(path: str | Path, raw: bytes | None = None) -> KeyboardGeometry:
    """Load a geometry file: a JSON array of position records. `raw`, when
    given, holds the file's bytes, already read."""
    path = Path(path)
    data = read_json(path, raw)
    if not isinstance(data, list):
        raise IngestionError(f"{path}: expected a JSON array of positions")
    positions = []
    for i, rec in enumerate(data):
        if not isinstance(rec, dict):
            raise IngestionError(f"{path}: positions[{i}]: expected an object")
        missing = [k for k in _GEOMETRY_FIELDS if k not in rec]
        if missing:
            raise IngestionError(f"{path}: positions[{i}]: missing {', '.join(missing)}")
        if not isinstance(rec["id"], str):
            raise IngestionError(f"{path}: positions[{i}]: field 'id' must be a string")
        positions.append(KeyPosition(*map(rec.__getitem__, _GEOMETRY_FIELDS)))
    try:
        return KeyboardGeometry(positions)
    except ValueError as exc:
        raise IngestionError(f"{path}: {exc}") from exc


def save_geometry(geometry: KeyboardGeometry, path: str | Path) -> None:
    write_json(path, [dict(zip(_GEOMETRY_FIELDS, p)) for p in geometry.positions])


def save_layout(layout: Layout, path: str | Path, geometry_ref: str) -> None:
    """Write a layout file; `geometry_ref` names the geometry JSON it expects
    to find next to itself (or an absolute path)."""
    write_json(path, {"name": layout.name, "geometry_ref": geometry_ref, "mapping": layout.mapping})


def load_layout(path: str | Path, geometries: dict[Path, KeyboardGeometry] | None = None) -> Layout:
    """Load a layout file, resolving its geometry_ref relative to the file.

    `geometries`, when given, maps each geometry path already loaded to its
    geometry; a path found there is not read again, and a new one is added.
    """
    path = Path(path)
    data = read_json(path)
    if not isinstance(data, dict):
        raise IngestionError(f"{path}: expected a JSON object")
    for key in ("name", "geometry_ref", "mapping"):
        if key not in data:
            raise IngestionError(f"{path}: missing field '{key}'")
    if not isinstance(data["name"], str):
        raise IngestionError(f"{path}: field 'name' must be a string")
    if not isinstance(data["mapping"], dict):
        raise IngestionError(f"{path}: field 'mapping' must be an object")
    for letter, pid in data["mapping"].items():
        if not isinstance(pid, str):
            raise IngestionError(f"{path}: mapping[{letter!r}] must be a position id string")
    if not isinstance(data["geometry_ref"], str) or not data["geometry_ref"]:
        raise IngestionError(f"{path}: field 'geometry_ref' must be a non-empty string")
    ref = path.parent / data["geometry_ref"]  # an absolute ref replaces the parent
    if geometries is None:
        geometries = {}
    if ref not in geometries:
        try:
            geometries[ref] = load_geometry(ref)
        except UnreadableFileError as exc:  # a missing file or a directory: name the layout that points there
            raise IngestionError(f"{path}: field 'geometry_ref': {exc}") from exc
    geometry = geometries[ref]
    try:
        return Layout(name=data["name"], geometry=geometry, mapping=dict(data["mapping"]))
    except ValueError as exc:
        raise IngestionError(f"{path}: {exc}") from exc


def write_trace_tsv(partition: HandPartition, path: str | Path) -> None:
    """Export the decision trace: rank, letter, LS, RS, LC, RC, hand."""
    write_lines(path, ["\t".join(TraceRecord._fields),
                       *("\t".join(map(str, rec)) for rec in partition.trace)])
