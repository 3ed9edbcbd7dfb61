"""Command-line front end: stats, mine, design, evaluate, compare-only.

Every command validates its inputs up front, writes its outputs plus a
machine-readable run manifest (content hashes of inputs, parameters, tool
version) into the output directory, and exits 0 only if all requested
outputs were written and all embedded audits passed.

A `--config` JSON value is parsed as its `--key=value` flag placed right
after the command name: it is checked as the flag is, and an explicit flag,
coming later, wins. Input-file errors name the file.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from pathlib import Path
from typing import Sequence

from . import __version__
from .corpus import (
    AlphabetConfig,
    LetterStream,
    count_ngraphs,
    read_json,
    read_manifest,
    tokenize_file,
    write_ngraph_tsv,
)
from .evaluation import (
    compare,
    evaluate,
    read_report_json,
    write_comparison_tsv,
    write_report_json,
    write_report_tsv,
)
from .layout import (
    TIE_POLICIES,
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
from .mining import (
    MiningParams,
    digraphs_as_transactions,
    generate_rules,
    mine_frequent,
    read_transactions_tsv,
    write_frequent_tsv,
    write_rules_tsv,
)


class CliError(Exception):
    """User-facing failure; message goes to stderr, exit code 1."""


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _write_run_manifest(out_dir: Path, command: str, parameters: dict, inputs: Sequence[Path]) -> None:
    manifest = {
        "tool": "keymine",
        "version": __version__,
        "command": command,
        "parameters": parameters,
        "inputs": {str(p): _sha256(p) for p in inputs},
    }
    (out_dir / "run_manifest.json").write_text(
        json.dumps(manifest, ensure_ascii=False, indent=2, sort_keys=True, allow_nan=False) + "\n",
        encoding="utf-8",
    )


def _out_dir(args) -> Path:
    out = Path(args.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _require(args, *names: str) -> None:
    for name in names:
        if getattr(args, name) is None:
            raise CliError(f"--{name.replace('_', '-')} is required (flag or config file)")


def _load_corpus(args) -> tuple[list[Path], dict, LetterStream]:
    """A corpus command's input paths (the alphabet, the manifest, then the
    manifest's files), its alphabet and manifest parameters, and one stream
    holding the letter runs of all the files; a run never spans two files,
    so no n-gram crosses a file."""
    _require(args, "alphabet", "manifest")
    alphabet = AlphabetConfig.from_json(args.alphabet)
    files = read_manifest(args.manifest)
    if not files:
        raise CliError(f"{args.manifest}: manifest lists no corpus files")
    stream = LetterStream([], 0, alphabet)
    for path in files:
        source = tokenize_file(path, alphabet)
        stream.runs += source.runs
        stream.undetermined_count += source.undetermined_count
    inputs = [Path(args.alphabet), Path(args.manifest), *files]
    return inputs, {"alphabet": str(args.alphabet), "manifest": str(args.manifest)}, stream


def _parse_support_threshold(text: str) -> tuple[str, int | tuple[int, int]]:
    """An integer is an absolute count (>= 1); a fraction in (0, 1] comes
    back as the exact ratio (numerator, denominator) of its decimal text,
    so that once the database size is known the count is its exact ceiling:
    0.07 of 100 rows is 7, where the float product 0.07 * 100 is just above
    7. Validated before any input is read."""
    text = text.strip()
    try:
        count = int(text)
    except ValueError:
        pass
    else:
        if count < 1:
            raise CliError(f"--min-support count must be >= 1, got {count}")
        return "count", count
    try:
        value = float(text)
    except ValueError:
        raise CliError(f"--min-support must be a count or a fraction, got {text!r}") from None
    if not 0 < value <= 1:
        raise CliError(f"--min-support fraction must be in (0, 1], got {value}")
    from decimal import Decimal  # only `mine` takes a fraction; kept off the other commands' imports

    return "fraction", Decimal(text).as_integer_ratio()


def _number_text(text: str) -> str:
    """A flag's text, once it reads as a float: `--min-confidence` is decided
    on the exact ratio of the decimal it is written as, not on its float."""
    try:
        float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    return text


def cmd_stats(args) -> int:
    inputs, parameters, stream = _load_corpus(args)
    tables = {n: count_ngraphs(stream, n) for n in (1, 2, 3)}
    total_letters = tables[1].total
    if total_letters == 0:
        raise CliError("corpus contains no alphabet letters")
    out = _out_dir(args)
    names = {1: "monographs.tsv", 2: "digraphs.tsv", 3: "trigraphs.tsv"}
    for n, fname in names.items():
        write_ngraph_tsv(tables[n], out / fname)
    summary = {
        "total_letters": total_letters,
        "distinct_letters": len(tables[1].counts),
        "undetermined": stream.undetermined_count,
        "sources": len(inputs) - 2,  # the corpus files, after alphabet and manifest
    }
    if args.format == "json":
        (out / "summary.json").write_text(
            json.dumps(summary, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
    else:
        lines = [f"{k}\t{v}" for k, v in summary.items()]
        (out / "summary.tsv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    _write_run_manifest(out, "stats", {**parameters, "format": args.format}, inputs)
    print(f"stats: {total_letters} letters, {summary['distinct_letters']} distinct, "
          f"{summary['undetermined']} undetermined -> {out}")
    return 0


def cmd_mine(args) -> int:
    _require(args, "min_support", "min_confidence")
    support_kind, support_value = _parse_support_threshold(args.min_support)
    min_confidence = float(args.min_confidence)
    if not min_confidence >= 0:
        raise CliError(f"--min-confidence must be >= 0, got {min_confidence}")
    if args.transactions:
        db = read_transactions_tsv(args.transactions)
        if not db.rows:
            raise CliError(f"{args.transactions}: no transactions to mine")
        if not db.universe:
            raise CliError(f"{args.transactions}: no items to mine")
        inputs = [Path(args.transactions)]
        source = {"transactions": str(args.transactions)}
    else:
        inputs, source, stream = _load_corpus(args)
        digraphs = count_ngraphs(stream, 2)
        if digraphs.total == 0:
            raise CliError("corpus contains no digraphs to mine")
        db = digraphs_as_transactions(digraphs)
    if support_kind == "count":
        count = support_value
    else:
        numerator, denominator = support_value
        count = -(-numerator * len(db) // denominator)
    from decimal import Decimal  # kept off the other commands' imports

    params = MiningParams(min_support_count=count, min_confidence=Decimal(args.min_confidence))
    if min_confidence > 1:
        print(f"warning: minimum confidence {min_confidence} exceeds 1; no rule can satisfy it")
    levels = mine_frequent(db, params)
    for level in levels:
        print(
            f"level {level.k}: {level.candidates} candidates, "
            f"{len(level.itemsets)} frequent (1 scan)"
        )
    print(f"scans performed: {levels.scans}" + ("" if levels else " (no frequent itemsets)"))
    rules = generate_rules(levels, len(db), params)
    out = _out_dir(args)
    write_frequent_tsv(levels, len(db), out / "frequent_itemsets.tsv")
    write_rules_tsv(rules, out / "rules.tsv")
    _write_run_manifest(
        out,
        "mine",
        {
            **source,
            "min_support": str(args.min_support),
            "min_support_count": params.min_support_count,
            # JSON has no infinity: a non-finite threshold is kept as its flag's text
            "min_confidence": min_confidence if math.isfinite(min_confidence) else args.min_confidence,
        },
        inputs,
    )
    print(f"mine: {sum(len(l.itemsets) for l in levels)} frequent itemsets, "
          f"{len(rules)} rules -> {out}")
    return 0


def cmd_design(args) -> int:
    inputs, parameters, stream = _load_corpus(args)
    monographs = count_ngraphs(stream, 1)
    if monographs.total == 0:
        raise CliError("corpus contains no alphabet letters")
    digraphs = count_ngraphs(stream, 2)
    geometry = load_geometry(args.geometry) if args.geometry else default_geometry()
    partition = assign_hands(monographs, digraphs, tie_policy=args.tie_policy)
    layout = place_keys(partition, geometry, name=args.name)
    audit = audit_partition(partition, monographs, digraphs)
    out = _out_dir(args)
    if args.geometry:
        (out / "geometry.json").write_bytes(Path(args.geometry).read_bytes())
    else:
        save_geometry(geometry, out / "geometry.json")
    save_layout(layout, out / "layout.json", geometry_ref="geometry.json")
    write_trace_tsv(partition, out / "trace.tsv")
    if args.geometry:
        inputs.append(Path(args.geometry))
    _write_run_manifest(
        out,
        "design",
        {
            **parameters,
            "geometry": str(args.geometry) if args.geometry else "<default>",
            "tie_policy": args.tie_policy,
            "name": args.name,
        },
        inputs,
    )
    print(f"design: {len(partition.left)} letters left, {len(partition.right)} right -> {out}")
    print(f"audit: {'pass' if audit.ok else 'FAIL: ' + audit.message}")
    if not audit.ok:
        return 1
    return 0


def cmd_evaluate(args) -> int:
    inputs, parameters, stream = _load_corpus(args)
    layouts = [load_layout(path) for path in args.layouts]
    monographs = count_ngraphs(stream, 1)
    digraphs = count_ngraphs(stream, 2)
    total_chars = monographs.total + stream.undetermined_count
    out = _out_dir(args)
    reports = []
    for i, (layout_path, layout) in enumerate(zip(args.layouts, layouts), start=1):
        report = evaluate(monographs, digraphs, total_chars, layout)
        reports.append(report)
        stem = Path(layout_path).stem
        write_report_json(report, out / f"report_{i:02d}_{stem}.json")
        write_report_tsv(report, out / f"report_{i:02d}_{stem}.tsv")
        print(
            f"{report.layout_name}: switching {report.hand_switching}, "
            f"left {report.left_load}, right {report.right_load}, "
            f"undetermined {report.undetermined}"
        )
    write_comparison_tsv(compare(reports), out / "comparison.tsv")
    _write_run_manifest(
        out,
        "evaluate",
        {**parameters, "layouts": [str(p) for p in args.layouts]},
        [*inputs, *(Path(p) for p in args.layouts)],
    )
    print(f"evaluate: comparison of {len(reports)} layout(s) -> {out}")
    return 0


def cmd_compare_only(args) -> int:
    reports = [read_report_json(p) for p in args.reports]
    rows = compare(reports)
    out = _out_dir(args)
    write_comparison_tsv(rows, out / "comparison.tsv")
    _write_run_manifest(
        out,
        "compare-only",
        {"reports": [str(p) for p in args.reports]},
        [Path(p) for p in args.reports],
    )
    print(f"compare-only: {len(reports)} report(s) -> {out}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON file supplying defaults for any flag")
    common.add_argument("--output-dir", default=".", help="directory for outputs (default: .)")

    corpus = argparse.ArgumentParser(add_help=False)
    corpus.add_argument("--alphabet", help="alphabet JSON file")
    corpus.add_argument("--manifest", help="corpus manifest (one file path per line)")

    parser = argparse.ArgumentParser(
        prog="keymine",
        description="Corpus-driven keyboard layout design and evaluation",
    )
    parser.add_argument("--version", action="version", version=f"keymine {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_stats = sub.add_parser("stats", parents=[common, corpus], help="write n-gram frequency tables")
    p_stats.add_argument("--format", choices=("tsv", "json"), default="tsv", help="summary format (default: tsv)")

    p_mine = sub.add_parser(
        "mine", parents=[common, corpus], help="mine frequent itemsets and strong rules"
    )
    p_mine.add_argument("--transactions", help="mine a transaction TSV instead of a corpus")
    p_mine.add_argument("--min-support", help="absolute count or fraction in (0, 1]")
    p_mine.add_argument("--min-confidence", type=_number_text, help="minimum rule confidence")

    p_design = sub.add_parser(
        "design", parents=[common, corpus], help="design a layout from a corpus"
    )
    p_design.add_argument("--geometry", help="geometry JSON (default: built-in 30+30 keys)")
    p_design.add_argument(
        "--tie-policy",
        choices=TIE_POLICIES,
        default="left-biased",
        help="where mixed-signal letters go (default: left-biased)",
    )
    p_design.add_argument("--name", default="designed", help="layout name (default: designed)")

    p_eval = sub.add_parser(
        "evaluate", parents=[common, corpus], help="score layout files against a corpus"
    )
    p_eval.add_argument("layouts", nargs="+", help="layout JSON files")

    p_cmp = sub.add_parser(
        "compare-only", parents=[common], help="rank previously written report JSONs"
    )
    p_cmp.add_argument("reports", nargs="+", help="report JSON files")

    return parser


_CONFIG_KEYS = (
    "alphabet",
    "manifest",
    "geometry",
    "min_support",
    "min_confidence",
    "tie_policy",
    "output_dir",
    "format",
    "name",
    "transactions",
)

def _config_flags(args: argparse.Namespace) -> list[str]:
    """The config file's values for the keys this command takes, as
    `--key=value` flags; a null value is left out."""
    path = Path(args.config)
    data = read_json(path)
    if not isinstance(data, dict):
        raise CliError(f"{path}: config must be a JSON object")
    unknown = set(data) - set(_CONFIG_KEYS)
    if unknown:
        raise CliError(f"{path}: unknown config keys: {', '.join(sorted(unknown))}")
    return [
        f"--{key.replace('_', '-')}={value}"
        for key, value in data.items()
        if key in vars(args) and value is not None
    ]


_COMMANDS = {
    "stats": cmd_stats,
    "mine": cmd_mine,
    "design": cmd_design,
    "evaluate": cmd_evaluate,
    "compare-only": cmd_compare_only,
}


def main(argv: Sequence[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config:
            at = argv.index(args.command) + 1
            args = parser.parse_args([*argv[:at], *_config_flags(args), *argv[at:]])
        return _COMMANDS[args.command](args)
    except (CliError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
