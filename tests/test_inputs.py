"""Every input kind against one contract, from one table with one runner: a
command given a malformed input either exits 0 with its outputs, or exits 1
with one `error: <file>: ...` line, no traceback and no output directory.

Each row names an input kind, a mutation of that input's good file and the
outcome: "accepted" (exit 0, outputs written), "same" (the output checked is
also byte-identical to the kind's golden file, or where the kind has none,
to the output of the good inputs), "changed" (accepted, but the output
differs from the golden) or "refused", with the error line's text after
`error: `. A message ending in "..." is a prefix of the line; any other
is the whole line. The runner works in a fresh directory holding every good
input, so the files are named relative to it.
"""

import json
import shutil
from pathlib import Path

import pytest

from keymine.cli import main

from conftest import DATA

REPORT = json.dumps({"layout_name": "fine", "hand_switching": 2, "left_load": 4,
                     "right_load": 4, "undetermined": 0, "total_chars": 8}).encode()
CONFIG = json.dumps({"alphabet": "alphabet.json", "manifest": "manifest.txt",
                     "geometry": "geometry.json", "transactions": "market9.tsv",
                     "min_support": 2, "min_confidence": 0.7, "output_dir": "out"}).encode()
PARTIAL = DATA / "sample" / "layouts" / "partial.json"
GOOD = {
    "alphabet.json": (DATA / "alphabets" / "english.json").read_bytes(),
    "manifest.txt": b"corpus.txt\n",
    "corpus.txt": b"The quick brown fox jumps over the lazy dog, 12 times.\n",
    "geometry.json": (DATA / "sample" / "layouts" / "geometry.json").read_bytes(),
    "layout.json": PARTIAL.read_bytes(),
    "fine.json": REPORT,
    "report.json": REPORT,
    "market9.tsv": (DATA / "market9.tsv").read_bytes(),
    "config.json": CONFIG,
}

BLOCK = 1 << 16  # the bytes a bulk input is read in at a time
# market9, and then a comment up to the end of the first block
FILLED_MARKET9 = GOOD["market9.tsv"] + b"#".ljust(BLOCK - len(GOOD["market9.tsv"]) - 1, b"x") + b"\n"

CORPUS = ["--alphabet", "alphabet.json", "--manifest", "manifest.txt", "--output-dir", "out"]
MINE = ["--min-confidence", "0.7", "--output-dir", "out"]
# kind -> (the input a row edits, the command that reads it, the output checked, its golden)
KINDS = {
    "alphabet": ("alphabet.json", ["stats", *CORPUS], "monographs.tsv", None),
    "manifest": ("manifest.txt", ["stats", *CORPUS], "monographs.tsv", None),
    "corpus": ("corpus.txt", ["stats", *CORPUS], "monographs.tsv", None),
    # monographs.tsv holds no undetermined count
    "corpus summary": ("corpus.txt", ["stats", *CORPUS], "summary.tsv", None),
    "geometry": ("geometry.json", ["design", *CORPUS, "--geometry", "geometry.json"],
                 "layout.json", None),
    # a good layout or report comes first: none is written before all are read
    "layout": ("layout.json", ["evaluate", *CORPUS, str(PARTIAL), "layout.json"],
               "comparison.tsv", None),
    "report": ("report.json", ["compare-only", "--output-dir", "out", "fine.json", "report.json"],
               "comparison.tsv", None),
    "transactions": ("market9.tsv", ["mine", "--transactions", "market9.tsv", "--min-support", "2",
                                     *MINE], "frequent_itemsets.tsv",
                     DATA / "golden" / "frequent_itemsets.tsv"),
    # a fraction of no transactions must not round to a count of 0
    "transactions by fraction": ("market9.tsv", ["mine", "--transactions", "market9.tsv",
                                                 "--min-support", "0.5", *MINE],
                                 "frequent_itemsets.tsv", None),
    # the config's every path key is also given as a flag, which wins
    "config under flags": ("config.json", ["design", "--config", "config.json", *CORPUS,
                                           "--geometry", "geometry.json"], "layout.json", None),
    "design config": ("config.json", ["design", "--config", "config.json"], "layout.json", None),
    "mine config": ("config.json", ["mine", "--config", "config.json"], "rules.tsv", None),
    "stats config": ("config.json", ["stats", "--config", "config.json"], "monographs.tsv", None),
    "alphabet flag over config": ("config.json", ["stats", "--config", "config.json",
                                                  "--alphabet", "x", "--output-dir", "out"],
                                  "monographs.tsv", None),
    "output dir": ("dir/out", ["stats", *CORPUS[:4], "--output-dir", "dir/out"],
                   "monographs.tsv", None),
}

MARK = "<mutated>"
# JSON values of each kind, as text: a sweep sets a field to each
VALUES = {"null": "null", "7": "7", "true": "true", "NaN": "NaN", "Infinity": "Infinity",
          "list": '["a"]', "object": '{"a": 1}', "empty": '""', "1e400": "1e400"}
LONG = "1" + "0" * 4299  # 4,300 digits: the most an int may have in JSON text
TOO_LONG = LONG + "0"
TOO_LONG_ERROR = "invalid JSON: Exceeds the limit (4300..."  # worded apart after it on 3.10


def put(field, token):
    """Set the value at `field` (keys and list indexes joined by '/') to the
    JSON text `token`."""
    def mutate(path):
        data = json.loads(path.read_bytes())
        *keys, last = field.split("/")
        holder = data
        for key in keys:
            holder = holder[int(key) if isinstance(holder, list) else key]
        holder[int(last) if isinstance(holder, list) else last] = MARK
        path.write_text(json.dumps(data).replace(json.dumps(MARK), token), encoding="utf-8")
    return mutate


def raw(content):
    def mutate(path):
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(content)
    return mutate


def edit(change):
    """Rewrite the text through `change`; "\\udcff" stands for a lone byte 0xff."""
    def mutate(path):
        edited = change(path.read_text(encoding="utf-8"))
        path.write_bytes(edited.encode("utf-8", "surrogateescape"))
    return mutate


def on_line(at, change):
    return edit(lambda s: "\n".join(change(line) if i == at else line
                                    for i, line in enumerate(s.splitlines())) + "\n")


def listing(mutate, manifest):
    """`mutate`, and the manifest rewritten to the bytes `manifest`."""
    def both(path):
        mutate(path)
        Path("manifest.txt").write_bytes(manifest)
    return both


def missing(path):
    path.unlink()


def directory(path):
    path.unlink()
    path.mkdir()


def file_above(path):
    path.parent.write_bytes(b"")


def row(kind, name, mutate, outcome="refused", message=None):
    if outcome == "refused" and message is None:
        message = f"{KINDS[kind][0]}: ..."
    return pytest.param(kind, mutate, outcome, message, id=f"{kind}-{name}")


def sweep(kind, fields, accepted=(), messages=None, prefix=None):
    """Each field set to each value of VALUES: refused, with the line given
    in `messages` or else one starting `prefix(field)`, unless accepted."""
    messages = messages or {}
    return [row(kind, f"{field}={name}", put(field, token),
                "accepted" if f"{field}={name}" in accepted else "refused",
                messages.get(f"{field}={name}", prefix(field) if prefix else None))
            for field in fields for name, token in VALUES.items()]


def unreadable(kind):
    file = KINDS[kind][0]
    return [row(kind, "missing", missing, message=f"{file}: No such file or directory"),
            row(kind, "directory", directory, message=f"{file}: Is a directory"),
            row(kind, "not UTF-8", raw(b'{"a": "\xff"}'),
                message=f"{file}: not valid UTF-8 at byte offset 7")]


JSON_KINDS = ("alphabet", "geometry", "layout", "report", "stats config")
REPORT_ERROR = "report.json: not a valid evaluation report: "
COST_ERROR = "geometry.json: base-home-01: cost must be "
TRANSACTION_EDITS = {
    "no tab": (lambda line: line.replace("\t", " "), "refused"),
    "third column": (lambda line: line + "\tx", "refused"),
    "empty items": (lambda line: line.split("\t")[0] + "\t", "changed"),
    "blank line": (lambda line: line + "\n \t ", "same"),
    "comment": (lambda line: line + "\n# a comment", "same"),
    "repeated header": (lambda line: line + "\ntid\titems", "same"),
    "crlf": (lambda line: line + "\r", "same"),
    # str.splitlines would take these for line breaks
    "u+2028 between items": (lambda line: line.replace(" ", "\u2028", 1), "same"),
    "u+0085 between items": (lambda line: line.replace(" ", "\x85", 1), "same"),
    "form feed between items": (lambda line: line.replace(" ", "\x0c", 1), "same"),
    "invalid utf-8": (lambda line: line + "\udcff", "refused"),
}

ROWS = [
    *(r for kind in (*JSON_KINDS, "manifest", "corpus", "transactions") for r in unreadable(kind)),
    *(row(kind, "not JSON", raw(b'{"a": '), message=f"{KINDS[kind][0]}: invalid JSON: ...")
      for kind in JSON_KINDS),
    *(row(kind, "nested too deep", raw(b"[" * 100_000), message=f"{KINDS[kind][0]}: invalid "
          "JSON: maximum recursion depth exceeded while decoding a JSON array from a unicode string")
      for kind in JSON_KINDS),

    # an empty name is a name, and one letter is an alphabet
    *sweep("alphabet", ["name", "letters", "letters/5"], accepted={"name=empty", "letters=list"}),
    # a letter that NFC changes would never match normalized text
    row("alphabet", "letters/5=ohm sign", put("letters/5", '"\\u2126"'),
        message="alphabet.json: alphabet entry '\u2126' (U+2126) normalizes to '\u03a9' (U+03A9) "
                "under NFC; list that code point instead"),
    row("alphabet", "letters/5=rra", put("letters/5", '"\\u09dc"'),
        message="alphabet.json: alphabet entry '\u09dc' (U+09DC) normalizes to '\u09a1\u09bc' "
                "(U+09A1 U+09BC) under NFC; list its constituent code points instead"),
    row("manifest", "lists no file", raw(b"# none\n"),
        message="manifest.txt: manifest lists no corpus files"),
    row("manifest", "lists a NUL path", raw(b"corpus.txt\na\x00b\n"),
        message="a\x00b: embedded null byte"),

    *sweep("geometry", [f"0/{field}" for field in ("id", "hand", "finger", "row", "layer", "cost")],
           accepted={"0/id=empty", "0/cost=7"}, messages={
               "0/id=null": "geometry.json: positions[0]: field 'id' must be a string",
               "0/id=7": "geometry.json: positions[0]: field 'id' must be a string",
               "0/cost=null": COST_ERROR + "a number, got None",
               "0/cost=true": COST_ERROR + "a number, got True",  # a bool is an int to Python
               "0/cost=list": COST_ERROR + "a number, got ['a']",
               "0/cost=empty": COST_ERROR + "a number, got ''",
               "0/cost=Infinity": COST_ERROR + "finite and above 0, got inf",
               "0/cost=1e400": COST_ERROR + "finite and above 0, got inf"}),
    row("geometry", "0/cost=4300 digits", put("0/cost", LONG), "accepted"),
    row("geometry", "0/cost=4301 digits", put("0/cost", TOO_LONG),
        message="geometry.json: " + TOO_LONG_ERROR),

    # only an empty name is a valid layout
    *sweep("layout", ["name", "geometry_ref", "mapping", "mapping/e"], accepted={"name=empty"},
           messages={**{f"name={v}": "layout.json: field 'name' must be a string"
                        for v in ("null", "7")},
                     **{f"geometry_ref={v}": "layout.json: field 'geometry_ref' must be a "
                        "non-empty string" for v in ("null", "7")}}),
    row("layout", "no geometry_ref", raw(b'{"name": "x"}'),
        message="layout.json: missing field 'geometry_ref'"),
    row("layout", "geometry_ref names no file", put("geometry_ref", '"nosuch.json"'),
        message="layout.json: field 'geometry_ref': nosuch.json: No such file or directory"),
    row("layout", "geometry_ref names a directory", put("geometry_ref", '"."'),
        message="layout.json: field 'geometry_ref': .: Is a directory"),
    row("layout", "geometry_ref holds NUL", put("geometry_ref", '"a\\u0000b"'),
        message="layout.json: field 'geometry_ref': a\x00b: embedded null byte"),

    # 4 + 4 typed letters allow 7 switches
    *sweep("report", ["layout_name", "hand_switching", "left_load", "right_load", "undetermined",
                      "total_chars"], accepted={"layout_name=empty", "hand_switching=7"}, messages={
        "layout_name=null": REPORT_ERROR + "layout_name must be a string, got None",
        "layout_name=7": REPORT_ERROR + "layout_name must be a string, got 7",
        "undetermined=true": REPORT_ERROR + "undetermined must be an integer, got True"}),
    row("report", "hand_switching=-5", put("hand_switching", "-5"),
        message=REPORT_ERROR + "hand_switching must be non-negative, got -5"),
    # the loads still sum to 8
    row("report", "left_load=-3", edit(lambda s: s.replace('"left_load": 4, "right_load": 4',
                                                           '"left_load": -3, "right_load": 11')),
        message=REPORT_ERROR + "left_load must be non-negative, got -3"),
    row("report", "hand_switching=1.9", put("hand_switching", "1.9"),
        message=REPORT_ERROR + "hand_switching must be an integer, got 1.9"),
    row("report", "hand_switching=2.0", put("hand_switching", "2.0"),
        message=REPORT_ERROR + "hand_switching must be an integer, got 2.0"),
    row("report", "total_chars=string", put("total_chars", '"8"'),
        message=REPORT_ERROR + "total_chars must be an integer, got '8'"),
    row("report", "hand_switching=8", put("hand_switching", "8"),
        message=REPORT_ERROR + "more hand switches than adjacent typed pairs"),
    row("report", "hand_switching=4301 digits", put("hand_switching", TOO_LONG),
        message="report.json: " + TOO_LONG_ERROR),

    # a refused line is named as `market9.tsv:<line>:`
    *(row("transactions", f"line {at} {name}", on_line(at, change), outcome, "market9.tsv:...")
      for at in (6, 2, 0) for name, (change, outcome) in TRANSACTION_EDITS.items()),
    # every input drops one leading byte order mark
    *(row(kind, "bom", edit(lambda s: "\ufeff" + s), "same")
      for kind in ("alphabet", "manifest", "corpus summary", "geometry", "layout", "report",
                   "transactions", "config under flags", "design config", "mine config",
                   "stats config")),
    # bulk inputs are read in 64 KiB blocks: an offset past the first is
    # counted from the file's start, and only the file's first piece drops a mark
    row("corpus", "not UTF-8 past the first block", raw(b"a " * 40_000 + b"\xff"),
        message="corpus.txt: not valid UTF-8 at byte offset 80000"),
    row("transactions", "not UTF-8 past the first block",
        raw(b"tid\titems\n" + b"T1\ta b\n" * 12_000 + b"T2\t\xff\n"),
        message="market9.tsv: not valid UTF-8 at byte offset 84013"),
    row("corpus summary", "spaces filling the first block", raw(GOOD["corpus.txt"].ljust(BLOCK)),
        "same"),
    row("corpus summary", "u+feff opening the second block",
        raw(GOOD["corpus.txt"].ljust(BLOCK) + "\ufeff".encode()), "changed"),
    row("transactions", "comment filling the first block", raw(FILLED_MARKET9), "same"),
    row("transactions", "u+feff opening the second block",
        raw(FILLED_MARKET9 + "\ufefftid\titems\n".encode()), "changed"),
    *(row(kind, "no rows", raw(b"tid\titems\n"),
          message="market9.tsv: no transactions to mine")
      for kind in ("transactions", "transactions by fraction")),
    row("transactions", "rows without items", raw(b"tid\titems\nT1\t\nT2\t \n"),
        message="market9.tsv: no items to mine"),

    # a null keeps the default; a bool, list or object is no flag's value
    *sweep("config under flags", ["alphabet", "manifest", "geometry", "output_dir", "tie_policy",
                                  "name"],
           accepted={f"{key}={v}" for key in ("alphabet", "manifest", "geometry", "output_dir",
                                              "tie_policy", "name")
                     for v in ("null", "7", "NaN", "Infinity", "empty", "1e400")}
           - {f"tie_policy={v}" for v in ("7", "NaN", "Infinity", "empty", "1e400")},
           messages={f"name={v}": "config.json: key 'name' must be a string or a number"
                     for v in ("true", "object")},
           prefix=lambda key: f"config.json: key {key!r}..."),
    row("config under flags", "name=false", put("name", "false"),
        message="config.json: key 'name' must be a string or a number"),
    row("config under flags", "name=4301 digits", put("name", TOO_LONG),
        message="config.json: " + TOO_LONG_ERROR),
    *(row("design config", f"{key}={value!r}", put(key, json.dumps(value)),
          message=f"config.json: key {key!r}: {Path(str(value))}: {reason}")
      for key, value, reason in [("alphabet", 7, "No such file or directory"),
                                 ("alphabet", "", "Is a directory"),
                                 ("manifest", "nosuch.txt", "No such file or directory"),
                                 ("manifest", ".", "Is a directory"),
                                 ("geometry", 7, "No such file or directory"),
                                 ("geometry", ".", "Is a directory"),
                                 ("geometry", "a\x00b", "embedded null byte")]),
    row("mine config", "transactions=number", put("transactions", "7"),
        message="config.json: key 'transactions': 7: No such file or directory"),
    row("stats config", "alphabet=number", put("alphabet", "5"),
        message="config.json: key 'alphabet': 5: No such file or directory"),
    row("stats config", "output_dir a file", put("output_dir", '"corpus.txt"'),
        message="config.json: key 'output_dir': corpus.txt: File exists"),
    row("stats config", "output_dir under a file", put("output_dir", '"corpus.txt/out"'),
        message="config.json: key 'output_dir': corpus.txt/out: Not a directory"),
    row("stats config", "output_dir holds NUL", put("output_dir", '"a\\u0000b"'),
        message="config.json: key 'output_dir': a\x00b: embedded null byte"),
    # two keys name one path: the error names the key whose path failed
    row("stats config", "output_dir the alphabet file", put("output_dir", '"alphabet.json"'),
        message="config.json: key 'output_dir': alphabet.json: File exists"),
    row("stats config", "alphabet and output_dir one directory",
        edit(lambda s: json.dumps({**json.loads(s), "alphabet": ".", "output_dir": "."})),
        message="config.json: key 'alphabet': .: Is a directory"),
    # a path read for a flag or a manifest entry names no key, though a config key names it
    row("alphabet flag over config", "the config's manifest names it", raw(b'{"manifest": "x"}'),
        message="x: No such file or directory"),
    row("design config", "the manifest lists the geometry path",
        listing(put("geometry", '"y"'), b"y\n"), message="y: No such file or directory"),
    row("output dir", "a file", raw(b""), message="dir/out: File exists"),
    row("output dir", "under a file", file_above, message="dir/out: Not a directory"),
]


@pytest.mark.parametrize("kind, mutate, outcome, message", ROWS)
def test_input_contract(tmp_path, monkeypatch, capsys, kind, mutate, outcome, message):
    monkeypatch.chdir(tmp_path)
    for name, content in GOOD.items():
        Path(name).write_bytes(content)
    file, argv, output, golden = KINDS[kind]
    expected = golden.read_bytes() if golden else None
    if outcome in ("same", "changed") and golden is None:
        assert main(argv) == 0
        expected = (Path("out") / output).read_bytes()
        shutil.rmtree("out")
        capsys.readouterr()
    mutate(Path(file))
    code = main(argv)
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if outcome == "refused":
        assert code == 1 and err.count("\n") == 1, err
        if message.endswith("..."):
            assert err.startswith(f"error: {message[:-3]}"), err
        else:
            assert err == f"error: {message}\n"
        assert not Path("out").exists()
    else:
        assert code == 0 and err == "", err
        written = (Path("out") / output).read_bytes()
        if outcome != "accepted":
            assert (written == expected) == (outcome == "same")
