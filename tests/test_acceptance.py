"""Acceptance gate: one test per shipping criterion, each at its stated
tolerance. Every test records a PASS/FAIL line that the terminal summary
prints via conftest.pytest_terminal_summary."""

import random
import string
import time

from keymine.cli import main
from keymine.corpus import AlphabetConfig, count_ngraphs, monograph_ranking, tokenize
from keymine.evaluation import write_report_json
from keymine.layout import (
    HandPartition,
    assign_hands,
    audit_partition,
    default_geometry,
    place_keys,
)
from keymine.mining import (
    MiningParams,
    digraphs_as_transactions,
    frequent_map,
    mine_frequent,
)
from keymine.synth import random_text, zipf_weights

from conftest import ACCEPTANCE_RESULTS, corpus_tables, market9_db, score
from oracles import (
    GROUP_ONE,
    GROUP_TWO,
    brute_force_frequent,
    random_db,
    two_group_alphabet,
    two_group_text,
)


def record(name: str, ok: bool, detail: str = "") -> None:
    ACCEPTANCE_RESULTS.append((name, ok, detail))
    print(f"{'PASS' if ok else 'FAIL'}  {name}" + (f" ({detail})" if detail else ""))
    assert ok, f"acceptance criterion failed: {name} {detail}"


def test_worked_example_fidelity(count_spy):
    """Nine-transaction demo DB at min count 2: exact levels, under 1 s."""
    started = time.perf_counter()
    db = market9_db()
    levels = mine_frequent(db, MiningParams(min_support_count=2, min_confidence=0.7))

    ok = [lv.k for lv in levels] == [1, 2, 3]
    ok = ok and levels[0].counts() == {
        ("I1",): 6, ("I2",): 7, ("I3",): 6, ("I4",): 2, ("I5",): 2}
    c2 = {c.items: c.support_count for c in count_spy[1]}
    ok = ok and len(c2) == levels[1].candidates == 10
    ok = ok and c2[("I1", "I2")] == 4 and c2[("I3", "I4")] == 0
    ok = ok and levels[1].counts() == {
        ("I1", "I2"): 4, ("I1", "I3"): 4, ("I1", "I5"): 2,
        ("I2", "I3"): 4, ("I2", "I4"): 2, ("I2", "I5"): 2}
    ok = ok and [c.items for c in count_spy[2]] == [
        ("I1", "I2", "I3"), ("I1", "I2", "I5")]
    ok = ok and levels[2].counts() == {("I1", "I2", "I3"): 2, ("I1", "I2", "I5"): 2}
    ok = ok and len(levels) == 3  # the level-4 candidate set is empty

    elapsed = time.perf_counter() - started
    record("worked-example fidelity", ok and elapsed < 1.0, f"{elapsed:.3f}s")


def test_miner_matches_brute_force_oracle():
    """Exact equality with subset enumeration on 100 seeded DBs, under 10 s,
    plus one digraph-derived DB whose rows have multiplicity above 1."""
    started = time.perf_counter()
    letters = "abcdefgh"
    _, digraphs = corpus_tables(random_text(letters, 3000, 7, space_prob=0.1),
                                AlphabetConfig(name="eight", letters=tuple(letters)))
    digraph_db = digraphs_as_transactions(digraphs)
    cases = [
        (f"seed {seed}", random_db(seed, universe_size=4 + seed % 5, n_transactions=10 + seed % 21),
         MiningParams(min_support_count=1 + seed % 3, min_confidence=0.0))
        for seed in range(100)
    ]
    cases.append(("digraph DB", digraph_db, MiningParams(min_support_count=80, min_confidence=0.0)))
    ok = max(digraph_db.rows.values()) > 1
    first_bad = "" if ok else "digraph DB has no repeated row"
    for name, db, params in cases:
        if frequent_map(mine_frequent(db, params)) != frequent_map(
                brute_force_frequent(db, params)):
            ok = False
            first_bad = name
            break
    elapsed = time.perf_counter() - started
    record("miner matches brute-force oracle on 100 seeded DBs",
           ok and elapsed < 10.0, first_bad or f"{elapsed:.2f}s")


def test_frequency_rows_share_one_corpus_total():
    """Seven (count, percentage) pairs reproduced by a single letter total
    in [821913, 821916], within 1e-3 percentage points per row."""
    rows = [
        (74300, 9.039875),
        (45525, 5.538901),
        (41844, 5.091044),
        (37010, 4.502904),
        (31214, 3.797721),
        (28996, 3.527863),
        (28212, 3.432476),
    ]
    witness = None
    for total in range(821913, 821917):
        if all(abs(100.0 * count / total - pct) <= 1e-3 for count, pct in rows):
            witness = total
            break
    record("frequency rows share one corpus total",
           witness is not None, f"N={witness}")


def test_seeding_rule():
    """Ranks 1 and 4 type right, ranks 2 and 3 left, on 20 seeded corpora."""
    ok = True
    detail = ""
    for seed in range(20):
        size = 5 + seed % 8
        letters = string.ascii_lowercase[:size]
        alpha = AlphabetConfig(name="seeded", letters=tuple(letters))
        text = random_text(letters, 1500, seed, weights=zipf_weights(size),
                           space_prob=0.08, junk="05", junk_prob=0.03)
        mono, di = corpus_tables(text, alpha)
        ranking = [r.letter for r in monograph_ranking(mono)]
        part = assign_hands(mono, di)
        if not (ranking[0] in part.right and ranking[3] in part.right
                and ranking[1] in part.left and ranking[2] in part.left):
            ok = False
            detail = f"seed {seed}"
            break
    record("seeding rule places ranks 1,4 right and 2,3 left", ok, detail or "20 corpora")


def test_decision_trace_replays():
    """audit_partition passes and every recorded decision satisfies the
    assignment predicate, on 20 seeded corpora. Exact."""
    ok = True
    detail = ""
    for seed in range(20):
        size = 6 + seed % 6
        letters = string.ascii_lowercase[:size]
        alpha = AlphabetConfig(name="seeded", letters=tuple(letters))
        text = random_text(letters, 2000, 100 + seed, weights=zipf_weights(size),
                           space_prob=0.1, junk="389", junk_prob=0.05)
        mono, di = corpus_tables(text, alpha)
        part = assign_hands(mono, di)
        result = audit_partition(part, mono, di)
        if not result.ok:
            ok, detail = False, f"seed {seed}: {result.message}"
            break
        for rec in part.trace[4:]:
            toward_left = (rec.left_support > rec.right_support
                           and rec.left_confidence > rec.right_confidence)
            expected = "right" if toward_left else "left"
            if rec.hand != expected:
                ok, detail = False, f"seed {seed}: rank {rec.rank}"
                break
        if not ok:
            break
    record("decision trace replays under audit", ok, detail or "20 corpora")


def test_evaluation_identities():
    """left + right + undetermined = total non-space characters, and a
    global hand swap exchanges loads while preserving switching. Exact."""
    from keymine.layout import KeyPosition, KeyboardGeometry, Layout

    def split_layout(left, right, name):
        positions, mapping = [], {}
        for i, letter in enumerate(left):
            positions.append(KeyPosition(f"L{i}", "left", 1, "home", "base", 1.0 + i))
            mapping[letter] = f"L{i}"
        for i, letter in enumerate(right):
            positions.append(KeyPosition(f"R{i}", "right", 1, "home", "base", 1.0 + i))
            mapping[letter] = f"R{i}"
        return Layout(name=name, geometry=KeyboardGeometry(positions=positions),
                      mapping=mapping)

    def swapped(layout):
        flipped = [
            KeyPosition(p.position_id, "right" if p.hand == "left" else "left",
                        p.finger, p.row, p.layer, p.cost)
            for p in layout.geometry.positions
        ]
        return Layout(name="swap", geometry=KeyboardGeometry(positions=flipped),
                      mapping=dict(layout.mapping))

    ok = True
    detail = ""
    for seed in range(15):
        letters = string.ascii_lowercase[: 6 + seed % 5]
        alpha = AlphabetConfig(name="eval", letters=tuple(letters))
        text = random_text(letters, 1000, 200 + seed, space_prob=0.1,
                           junk=".,19", junk_prob=0.07)
        stream = tokenize(text, alpha)
        cut = 1 + seed % (len(letters) - 1)
        layout = split_layout(letters[:cut], letters[cut:], f"s{seed}")
        report = score(layout, stream)
        mirror = score(swapped(layout), stream)
        non_space = sum(1 for ch in text if not ch.isspace())
        if report.left_load + report.right_load + report.undetermined != non_space:
            ok, detail = False, f"seed {seed}: identity"
            break
        if (mirror.left_load, mirror.right_load) != (report.right_load, report.left_load):
            ok, detail = False, f"seed {seed}: swap loads"
            break
        if (mirror.hand_switching != report.hand_switching
                or mirror.undetermined != report.undetermined):
            ok, detail = False, f"seed {seed}: swap invariants"
            break
    record("evaluation identities and hand-swap symmetry", ok, detail or "15 cases")


def test_designed_layout_maximizes_alternation(tmp_path):
    """On a two-group corpus where >90% of digraphs cross the groups, the
    designed layout's switching ratio exceeds 0.85 and the comparison ranks
    it above an all-one-hand layout and 10 seeded random balanced splits."""
    alpha = two_group_alphabet()
    geometry = default_geometry()
    text = two_group_text(0)
    stream = tokenize(text, alpha)
    mono = count_ngraphs(stream, 1)
    digraphs = count_ngraphs(stream, 2)

    cross = sum(count for (x, y), count in digraphs.counts.items()
                if (x in GROUP_ONE) != (y in GROUP_ONE))
    cross_share = cross / digraphs.total

    part = assign_hands(mono, digraphs)
    designed = place_keys(part, geometry, name="designed")
    letters = sorted(part.left + part.right)
    rivals = [place_keys(HandPartition(left=list(letters)), geometry,
                         name="one-hand")]
    group_split = frozenset((frozenset(GROUP_ONE), frozenset(GROUP_TWO)))
    for seed in range(1000, 1010):
        rng = random.Random(seed)
        left = sorted(rng.sample(letters, 5))
        right = [l for l in letters if l not in left]
        assert frozenset((frozenset(left), frozenset(right))) != group_split
        rivals.append(place_keys(HandPartition(left=left, right=right),
                                 geometry, name=f"random-{seed}"))

    reports = [score(designed, stream)] + [score(r, stream) for r in rivals]
    for i, report in enumerate(reports):
        write_report_json(report, tmp_path / f"report{i:02d}.json")
    out = tmp_path / "out"
    code = main(["compare-only", "--output-dir", str(out)]
                + [str(tmp_path / f"report{i:02d}.json") for i in range(len(reports))])
    rows = (out / "comparison.tsv").read_text(encoding="utf-8").splitlines()[1:]
    top_name, top_switching = rows[0].split("\t")[0], int(rows[0].split("\t")[1])
    runner_up = int(rows[1].split("\t")[1])
    ratio = float(rows[0].split("\t")[5])

    ok = (code == 0 and cross_share > 0.90 and ratio > 0.85
          and top_name == "designed" and top_switching > runner_up)
    record("designed layout maximizes alternation",
           ok, f"cross={cross_share:.3f} ratio={ratio:.3f}")


def test_design_outputs_byte_identical(tmp_path):
    """Two runs of the design command on identical inputs write identical
    layout and trace bytes."""
    letters = "abcdefghij"
    text = random_text(letters, 4000, 42, space_prob=0.1, junk="12", junk_prob=0.04)
    alpha_path = tmp_path / "alphabet.json"
    alpha_path.write_text(
        '{"name": "ten", "letters": ["' + '", "'.join(letters) + '"]}',
        encoding="utf-8")
    corpus = tmp_path / "corpus.txt"
    corpus.write_text(text, encoding="utf-8")
    manifest = tmp_path / "manifest.txt"
    manifest.write_text("corpus.txt\n", encoding="utf-8")

    outputs = []
    for run in ("one", "two"):
        out = tmp_path / run
        code = main(["design", "--alphabet", str(alpha_path),
                     "--manifest", str(manifest), "--output-dir", str(out)])
        assert code == 0
        outputs.append(out)

    same = all(
        (outputs[0] / name).read_bytes() == (outputs[1] / name).read_bytes()
        for name in ("layout.json", "trace.tsv", "geometry.json", "run_manifest.json")
    )
    record("design outputs byte-identical on rerun", same)
