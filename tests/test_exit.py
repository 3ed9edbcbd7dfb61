"""How a keymine process ends: `cli.entrypoint` freezes the heap once
`main` has returned or raised, so the interpreter's last collections skip
it. These tests run real children (`python -m keymine.cli`) and hold each
exit path to what `main` does in-process, and check that no command leaves
a file for the collector to close."""

import gc
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import keymine
from keymine.cli import main

SRC = Path(keymine.__file__).resolve().parent.parent
# without PYTHONUNBUFFERED a child's stdout to a pipe is block-buffered, as a
# user's is, so what it prints last arrives only through the flush at exit
ENV = {**{k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}, "PYTHONPATH": str(SRC)}


def in_process(args, capsys):
    """`main(args)`'s exit code, stdout and stderr; a `SystemExit` that
    argparse raises gives its code, as it does to the process."""
    capsys.readouterr()
    try:
        code = main(args)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


def output_files(directory):
    if not directory.exists():
        return {}
    return {path.name: path.read_bytes() for path in sorted(directory.iterdir())}


def long_named_layout(tmp_path, data_dir):
    """The sample's partial layout under a 3,000-letter name, so that each
    line `evaluate` prints for it is longer than 3 KB."""
    layouts = data_dir / "sample" / "layouts"
    layout = json.loads((layouts / "partial.json").read_text(encoding="utf-8"))
    layout["name"] = "long" + "x" * 2996
    layout["geometry_ref"] = str(layouts / "geometry.json")
    path = tmp_path / "long.json"
    path.write_text(json.dumps(layout), encoding="utf-8")
    return path


def corpus_args(data_dir):
    return ["--alphabet", str(data_dir / "alphabets" / "english.json"),
            "--manifest", str(data_dir / "sample" / "manifest.txt")]


# name -> (arguments, exit code); OUT stands for the output directory
EXIT_CASES = {
    "design": (lambda tmp, data: ["design", *corpus_args(data), "--output-dir", "OUT"], 0),
    # 40 layouts print about 120 KB, more than a pipe holds
    "evaluate-40-layouts": (lambda tmp, data: ["evaluate", *corpus_args(data), "--output-dir", "OUT",
                                               *[str(long_named_layout(tmp, data))] * 40], 0),
    "cli-error": (lambda tmp, data: ["stats", "--output-dir", "OUT"], 1),
    "usage-error": (lambda tmp, data: ["design", "--tie-policy", "coin-flip", "--output-dir", "OUT"], 2),
    "version": (lambda tmp, data: ["--version"], 0),
}


def case_args(case, tmp_path, data_dir, out_dir):
    args = EXIT_CASES[case][0](tmp_path, data_dir)
    return [str(out_dir) if arg == "OUT" else arg for arg in args]


class TestExitPaths:
    @pytest.mark.parametrize("case", EXIT_CASES)
    def test_child_matches_main(self, case, tmp_path, data_dir, capsys):
        # dev mode shows every warning, including one raised while the
        # interpreter shuts down, and -W error makes it an error line
        code = EXIT_CASES[case][1]
        runs = {}
        for how in ("child", "main"):
            out_dir = tmp_path / how
            argv = case_args(case, tmp_path, data_dir, out_dir)
            if how == "child":
                result = subprocess.run(
                    [sys.executable, "-X", "dev", "-W", "error", "-m", "keymine.cli", *argv],
                    capture_output=True, text=True, encoding="utf-8", env=ENV)
                got = result.returncode, result.stdout, result.stderr
            else:
                got = in_process(argv, capsys)
            assert got[0] == code, (how, got[2])
            runs[how] = *(text.replace(str(out_dir), "OUT") for text in got[1:]), output_files(out_dir)
        assert runs["child"] == runs["main"]
        stdout, stderr, files = runs["child"]
        if code == 0:
            assert stderr == ""
        if case == "evaluate-40-layouts":
            assert len(stdout.encode()) > 1 << 16
            assert stdout.count("longxxx") == 40 and stdout.endswith("layout(s) -> OUT\n")
            assert len(files) == 2 * 40 + 2
        if case == "cli-error":
            assert stdout == "" and stderr.count("\n") == 1 and stderr.startswith("error: ")
        if case == "usage-error":
            assert stdout == "" and stderr.startswith("usage: keymine design ")
        if case == "version":
            assert stdout == f"keymine {keymine.__version__}\n"


class TestWhereTheHeapFreezes:
    def test_main_in_process_freezes_nothing(self, tmp_path, data_dir, capsys):
        before = gc.get_freeze_count()
        for case in ("design", "cli-error", "usage-error", "version"):
            in_process(case_args(case, tmp_path, data_dir, tmp_path / case), capsys)
        assert gc.get_freeze_count() == before

    @pytest.mark.parametrize("case", ["design", "cli-error", "usage-error", "version"])
    def test_entrypoint_exits_with_a_frozen_heap(self, case, tmp_path, data_dir):
        # atexit handlers run after the SystemExit has left entrypoint
        args = case_args(case, tmp_path, data_dir, tmp_path / "out")
        script = (
            "import atexit, gc, sys\n"
            "from keymine.cli import entrypoint\n"
            "atexit.register(lambda: print('frozen', gc.get_freeze_count()))\n"
            f"sys.argv = ['keymine', *{args!r}]\n"
            "entrypoint()\n"
        )
        result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                                env=ENV)
        assert result.returncode == EXIT_CASES[case][1], result.stderr
        word, count = result.stdout.splitlines()[-1].split()
        assert word == "frozen" and int(count) > 0


class TestNoFileLeftToTheCollector:
    def test_every_command_closes_what_it_opens(self, tmp_path, data_dir, monkeypatch):
        # a frozen heap never finalizes an object in a reference cycle, so a
        # file a command left open in one would go unflushed and unwarned at
        # exit; here the collector runs, and no file may be left to it
        unraised = []
        monkeypatch.setattr(sys, "unraisablehook", unraised.append)
        corpus = corpus_args(data_dir)
        threshold = ["--min-support", "2", "--min-confidence", "0.5"]
        commands = [
            ["stats", *corpus],
            ["mine", *corpus, *threshold],
            ["mine", "--transactions", str(data_dir / "market9.tsv"), *threshold],
            ["design", *corpus],
            ["evaluate", *corpus, str(data_dir / "sample" / "layouts" / "partial.json")],
            ["compare-only", str(tmp_path / "evaluate" / "report_01_partial.json")],
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("error", ResourceWarning)
            gc.collect()
            for i, argv in enumerate(commands):
                out = tmp_path / ("evaluate" if argv[0] == "evaluate" else f"run{i}")
                assert main([*argv, "--output-dir", str(out)]) == 0, argv
                gc.collect()
        assert (tmp_path / "run5" / "comparison.tsv").exists()
        assert unraised == []
