"""keymine against the reference model in tests/reference.py and the golden
files: the run behind every golden file matches it byte for byte, it and
every command on seeded corpora check clean, an output edited after the run
fails naming its file, and the model imports only the standard library."""

import ast
import hashlib
import json
import os
import shutil
import string
import subprocess
import sys
from pathlib import Path

import pytest

import reference
from conftest import DATA, ENGLISH, GOLDEN_RUNS, run_all
from keymine.cli import main
from keymine.synth import random_text, zipf_weights

GOLDEN = DATA / "golden"

# each run with a golden directory -> that directory, under data/golden/
GOLDEN_DIRS = {
    "sample-stats": "sample/stats",
    "sample-design": "sample/design",
    "sample-evaluate": "sample/evaluate",
    "sample-mine": "sample/mine",
    "market9": ".",
    "baskets400": "baskets400",
    "bangla-stats": "bangla/stats",
    "bangla-design-left-biased": "bangla/design-wide/left-biased",
    "bangla-design-balanced": "bangla/design-wide/balanced",
    "bangla-evaluate": "bangla/evaluate",
    "bangla-mine": "bangla/mine",
}


def golden_files(name: str) -> list[Path]:
    return sorted(path for path in (GOLDEN / GOLDEN_DIRS[name]).iterdir() if path.is_file())


@pytest.mark.parametrize("name", GOLDEN_RUNS)
def test_golden_run_checks_clean(golden_runs, name):
    assert reference.check(golden_runs / name) == []


@pytest.mark.parametrize("name", GOLDEN_DIRS)
def test_golden_run_matches_golden_files(golden_runs, name):
    # stdout.txt holds the run's `level k:` and `scans performed:` lines,
    # since the other lines name the output directory
    for golden in golden_files(name):
        if golden.name == "stdout.txt":
            log = (golden_runs / f"{name}.stdout").read_text(encoding="utf-8").splitlines()
            got = "".join(f"{line}\n" for line in log
                          if line.startswith(("level ", "scans performed:"))).encode()
        else:
            got = (golden_runs / name / golden.name).read_bytes()
        assert got == golden.read_bytes(), golden


def test_every_golden_file_is_compared():
    # the table's files, and the overflow error that
    # test_cli.py::TestBanglaGolden::test_design_overflows_the_default_geometry compares
    compared = {path for name in GOLDEN_DIRS for path in golden_files(name)}
    overflow = GOLDEN / "bangla" / "design" / "stderr.txt"
    assert {path for path in GOLDEN.rglob("*") if path.is_file()} == compared | {overflow}


@pytest.mark.parametrize("seed", range(3))
def test_seeded_corpus_runs_check_clean(tmp_path, seed):
    # a-z Zipf text over two files, with spaces and junk that ends runs
    letters = string.ascii_lowercase
    (tmp_path / "alphabet.json").write_text(json.dumps({"name": "az", "letters": list(letters)}))
    for i in (1, 2):
        text = random_text(letters, 6000, 10 * seed + i, weights=zipf_weights(26),
                           space_prob=0.15, junk="0123456789.,;'", junk_prob=0.03)
        (tmp_path / f"part{i}.txt").write_text(text, encoding="utf-8")
    (tmp_path / "manifest.txt").write_text("part1.txt\npart2.txt\n", encoding="utf-8")
    corpus = ["--alphabet", str(tmp_path / "alphabet.json"),
              "--manifest", str(tmp_path / "manifest.txt")]
    runs = {
        "stats": ["stats", *corpus, "--format", "json"],
        "left-biased": ["design", *corpus],
        "balanced": ["design", *corpus, "--tie-policy", "balanced"],
        "evaluate": ["evaluate", *corpus, "{tmp}/left-biased/layout.json",
                     "{tmp}/balanced/layout.json"],
        "mine": ["mine", *corpus, "--min-support", "0.002", "--min-confidence", "0.2"],
    }
    run_all(tmp_path, runs)
    for name in runs:
        assert reference.check(tmp_path / name) == [], name


def edit_line(path: Path, index: int, edit) -> None:
    lines = path.read_text(encoding="utf-8").split("\n")
    lines[index] = edit(lines[index])
    path.write_text("\n".join(lines), encoding="utf-8")


def delete_line(path: Path, index: int) -> None:
    lines = path.read_text(encoding="utf-8").split("\n")
    del lines[index]
    path.write_text("\n".join(lines), encoding="utf-8")


def add_one_to_count(line: str) -> str:
    key, count, rest = line.split("\t", 2)
    return f"{key}\t{int(count) + 1}\t{rest}"


def flip_hand(line: str) -> str:
    *fields, hand = line.split("\t")
    return "\t".join([*fields, "left" if hand == "right" else "right"])


def add_one_to_switching(path: Path) -> None:
    data = json.loads(path.read_text(encoding="utf-8"))
    data["hand_switching"] += 1
    path.write_text(json.dumps(data), encoding="utf-8")


@pytest.mark.parametrize("run, name, tamper", [
    ("sample-stats", "digraphs.tsv", lambda p: edit_line(p, 1, add_one_to_count)),
    ("sample-design", "trace.tsv", lambda p: edit_line(p, 5, flip_hand)),  # rank 5
    ("sample-evaluate", "report_02_partial.json", add_one_to_switching),
    ("market9", "frequent_itemsets.tsv", lambda p: edit_line(p, 1, add_one_to_count)),
    ("market9", "frequent_itemsets.tsv", lambda p: edit_line(p, 12, add_one_to_count)),
    ("market9", "rules.tsv", lambda p: delete_line(p, 2)),
], ids=["digraph-count", "trace-hand", "report-field", "itemset-count", "level-3-count",
        "deleted-rule"])
def test_an_edited_output_fails_naming_its_file(golden_runs, tmp_path, capsys, run, name, tamper):
    out = tmp_path / run
    shutil.copytree(golden_runs / run, out)
    assert reference.main(["check", str(out)]) == 0
    tamper(out / name)
    capsys.readouterr()
    assert reference.main(["check", str(out)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert any(line.startswith(f"{out / name}: ") for line in lines), lines
    assert lines[-1].startswith("reference: ")


def test_rules_kept_only_above_the_bar_fail_naming_the_file(tmp_path, capsys):
    # market9 holds rules at confidence exactly 0.5 (I1 I2 => I3 is 2 of 4);
    # a bar just above 0.5 keeps the rules a miner keeping only those strictly
    # above 0.5 would, and its rules.tsv must not pass for the run at 0.5
    runs = {}
    for bar in ("0.5", "0.50000000000000001"):
        runs[bar] = tmp_path / bar
        assert main(["mine", "--transactions", str(DATA / "market9.tsv"), "--min-support", "2",
                     "--min-confidence", bar, "--output-dir", str(runs[bar])]) == 0
        assert reference.check(runs[bar]) == []
    at, above = ((runs[bar] / "rules.tsv").read_text(encoding="utf-8") for bar in runs)
    assert "I1 I2\tI3\t0.222222\t0.500000" in at.split("\n")
    assert len(above.split("\n")) < len(at.split("\n"))
    (runs["0.5"] / "rules.tsv").write_text(above, encoding="utf-8")
    assert reference.main(["check", str(runs["0.5"])]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert any(line.startswith(f"{runs['0.5'] / 'rules.tsv'}: ") for line in lines), lines


def test_an_input_the_run_overwrote_is_named(tmp_path, monkeypatch, capsys):
    # the manifest lists out/monographs.tsv as a corpus file, and the run
    # writes its monograph table there: the manifest holds the digest of the
    # text read, so the check names the file as changed since the run
    monkeypatch.chdir(tmp_path)
    Path("alphabet.json").write_text(json.dumps({"name": "ab", "letters": ["a", "b"]}),
                                     encoding="utf-8")
    Path("manifest.txt").write_text("out/monographs.tsv\n", encoding="utf-8")
    Path("out").mkdir()
    text = b"abba baab ab"
    Path("out/monographs.tsv").write_bytes(text)
    assert main(["stats", "--alphabet", "alphabet.json", "--manifest", "manifest.txt",
                 "--output-dir", "out"]) == 0
    inputs = json.loads(Path("out/run_manifest.json").read_bytes())["inputs"]
    assert inputs["out/monographs.tsv"] == hashlib.sha256(text).hexdigest()
    capsys.readouterr()
    assert reference.main(["check", "out"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert any(line.startswith("out/monographs.tsv: changed since the run") for line in lines), lines


def test_a_changed_input_fails_naming_it(tmp_path, capsys):
    db = tmp_path / "db.tsv"
    db.write_text("tid\titems\nT1\ta b\nT2\ta\n", encoding="utf-8")
    out = tmp_path / "out"
    assert main(["mine", "--transactions", str(db), "--min-support", "1",
                 "--min-confidence", "0.5", "--output-dir", str(out)]) == 0
    assert reference.check(out) == []
    db.write_text("tid\titems\nT1\ta b\nT2\tb\n", encoding="utf-8")
    assert any(line.startswith(f"{db}: changed since the run") for line in reference.check(out))


def test_an_edited_geometry_fails_naming_it(tmp_path):
    # evaluate reads the geometry each layout names, so its manifest hashes
    # that file too: an edit after the run is named as a changed input
    layouts = tmp_path / "layouts"
    shutil.copytree(DATA / "sample" / "layouts", layouts)
    out = tmp_path / "out"
    assert main(["evaluate", *ENGLISH, str(layouts / "partial.json"), "--output-dir", str(out)]) == 0
    assert reference.check(out) == []
    geometry = layouts / "geometry.json"
    keys = json.loads(geometry.read_text(encoding="utf-8"))
    keys[3]["hand"] = "right"  # base-home-04, the key of "a"
    geometry.write_text(json.dumps(keys), encoding="utf-8")
    assert any(line.startswith(f"{geometry}: changed since the run") for line in reference.check(out))


def test_script_runs_standalone(golden_runs, tmp_path):
    # the command line CI runs, from a directory where keymine is not importable
    script = Path(reference.__file__)
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}

    def check(out):
        return subprocess.run([sys.executable, str(script), "check", str(out)],
                              capture_output=True, text=True, cwd=tmp_path, env=env)

    clean = check(golden_runs / "bangla-design-balanced")
    assert clean.returncode == 0, clean.stdout + clean.stderr
    assert "exact tie" in clean.stdout
    assert clean.stdout.endswith("reference: 0 disagreement(s) in "
                                 f"{golden_runs / 'bangla-design-balanced'}\n")
    out = tmp_path / "baskets400"
    shutil.copytree(golden_runs / "baskets400", out)
    edit_line(out / "frequent_itemsets.tsv", 1, add_one_to_count)
    assert check(out).returncode == 1


def test_reference_imports_only_the_standard_library():
    tree = ast.parse(Path(reference.__file__).read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0, "relative import"
            imported.add(node.module.split(".")[0])
    assert "keymine" not in imported
    assert imported <= set(sys.stdlib_module_names), imported - set(sys.stdlib_module_names)


def test_support_threshold_is_exact():
    assert reference.support_threshold("2", 9) == 2
    assert reference.support_threshold("0.07", 100) == 7  # 0.07 * 100 is above 7 in floats
    assert reference.support_threshold("0.22", 9) == 2
    assert reference.support_threshold("1.0000000000000001", 9) == 10
