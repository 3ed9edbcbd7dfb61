"""Command-line front end: stats, mine, design, evaluate, compare-only.

Every command validates its inputs up front: a corpus command reads its
alphabet and manifest and finds every listed file, and `design` loads its
geometry and `evaluate` its layouts, before any corpus file is counted.
Each writes its outputs plus a machine-readable run manifest (parameters,
tool version, and the sha256 of every input, as `corpus`'s readers
recorded it while the command read the file) into the output directory,
and exits 0 only if all requested outputs were written and all embedded
audits passed. `main` empties that record once the `--config` file is
read, so the config is not listed. `mine` decides both thresholds on the
digits of their flag texts (`mining.decimal_parts`), so no command imports
`decimal`, and on a corpus it keeps only the transaction rows through
Apriori: the counts and the digraph table are freed once the rows are built.

A `--config` JSON value, a string or a number, is parsed as its
`--key=value` flag placed right after the command name: it is checked as
the flag is, and an explicit flag, coming later, wins. An input file or an
output directory that fails names its path. If a key named that path (an
input key or `output_dir`, never a manifest's entry) and the config set the
key, no flag overriding it, the error also names the config and the key.

`entrypoint` (the `keymine` script and `python -m keymine.cli`) freezes the
heap with `gc.freeze()` once `main` has returned or raised, so the
collections at interpreter exit skip the imported modules, classes and
functions instead of walking and freeing them. No output waits on that
teardown: every command closes the files it opens before it returns, and
`atexit` handlers and the flush of stdout and stderr still run. `main`
freezes nothing, so in-process callers keep their collector.
"""

from __future__ import annotations

import argparse
import gc
import math
import sys
from pathlib import Path
from typing import Sequence

from . import __version__
from .corpus import (
    AlphabetConfig,
    CorpusCounts,
    UnreadableFileError,
    derive_lower,
    digests,
    read_bytes,
    read_json,
    read_manifest,
    write_json,
    write_lines,
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
    decimal_parts,
    digraphs_as_transactions,
    exact_ratio,
    generate_rules,
    mine_frequent,
    read_transactions_tsv,
    write_frequent_tsv,
    write_rules_tsv,
)


class CliError(Exception):
    """User-facing failure; message goes to stderr, exit code 1."""


def _write_run_manifest(out_dir: Path, command: str, parameters: dict) -> None:
    manifest = {
        "tool": "keymine",
        "version": __version__,
        "command": command,
        "parameters": parameters,
        "inputs": digests,  # every file the command read, with the sha256 of the bytes read
    }
    write_json(out_dir / "run_manifest.json", manifest, sort_keys=True)


def _out_dir(args) -> Path:
    out = Path(args.output_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except (OSError, ValueError) as exc:  # a file there or above it, or a NUL byte in the path
        raise UnreadableFileError(out, exc, "output_dir") from exc
    return out


def _read(args, key: str, load):
    """`load` of the path that `key` holds; a file it cannot read names `key`."""
    try:
        return load(getattr(args, key))
    except UnreadableFileError as exc:
        exc.key = key
        raise


def _require(args, *names: str) -> None:
    for name in names:
        if getattr(args, name) is None:
            raise CliError(f"--{name.replace('_', '-')} is required (flag or config file)")


def _corpus_inputs(args) -> tuple[AlphabetConfig, list[Path], dict]:
    """A corpus command's alphabet, the files its manifest lists, and the two
    as parameters, read and checked before any other input is read or any
    file counted: a listed file that is missing fails here (a `stat`, which
    reads nothing), one that cannot be read fails once it is counted."""
    _require(args, "alphabet", "manifest")
    alphabet = _read(args, "alphabet", AlphabetConfig.from_json)
    files = _read(args, "manifest", read_manifest)
    if not files:
        raise CliError(f"{args.manifest}: manifest lists no corpus files")
    for path in files:
        try:
            path.stat()
        except (OSError, ValueError) as exc:  # ValueError: a NUL byte in the path
            raise UnreadableFileError(path, exc) from exc
    return alphabet, files, {"alphabet": str(args.alphabet), "manifest": str(args.manifest)}


def _count(alphabet: AlphabetConfig, files: list[Path], n: int) -> CorpusCounts:
    """The counts of all the files at order `n`, read file by file in
    pieces; a run never spans two files, so no n-gram crosses a file."""
    counts = CorpusCounts(alphabet, n)
    for path in files:
        counts.add_file(path)
    return counts


def _parse_support_threshold(text: str) -> tuple[str, int | str]:
    """An integer is an absolute count (>= 1); a fraction comes back as its
    text, which must lie in (0, 1] as the decimal it is written as, decided
    on its digits (`decimal_parts`), so that once the database size is known
    the count is the exact ceiling (`exact_ratio`): 0.07 of 100 rows is 7,
    where the float product 0.07 * 100 is just above 7, and
    1.0000000000000001, whose float is 1.0, is refused. Validated before any
    input is read."""
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
    # nan and inf first, and every text whose float overflows: above 1 all the same
    if math.isfinite(value):
        sign, digits, exponent = decimal_parts(text)
        # below 1 when the leading digit's place is under 10**0, else exactly 1
        if sign > 0 and digits and (len(digits) + exponent <= 0 or (digits, exponent) == ("1", 0)):
            return "fraction", text
    raise CliError(f"--min-support fraction must be in (0, 1], got {text}")


def _number_text(text: str) -> str:
    """A flag's text, once it reads as a float: `--min-confidence` is decided
    on the exact ratio of the decimal it is written as, not on its float."""
    try:
        float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    return text


def cmd_stats(args) -> int:
    alphabet, files, parameters = _corpus_inputs(args)
    counts = _count(alphabet, files, 3)
    tables = {3: counts.table()}
    tables[2] = derive_lower(tables[3], counts.ends)
    tables[1] = derive_lower(tables[2], counts.ends)
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
        "undetermined": counts.undetermined_count,
        "sources": len(files),
    }
    if args.format == "json":
        write_json(out / "summary.json", summary, sort_keys=True)
    else:
        write_lines(out / "summary.tsv", [f"{k}\t{v}" for k, v in summary.items()])
    _write_run_manifest(out, "stats", {**parameters, "format": args.format})
    print(f"stats: {total_letters} letters, {summary['distinct_letters']} distinct, "
          f"{summary['undetermined']} undetermined -> {out}")
    return 0


def cmd_mine(args) -> int:
    _require(args, "min_support", "min_confidence")
    support_kind, support_value = _parse_support_threshold(args.min_support)
    min_confidence = float(args.min_confidence)
    # a text below 0 can have the float -0.0 (-1e-999): its sign is read off its digits
    if not min_confidence >= 0 or decimal_parts(args.min_confidence)[0] < 0:
        raise CliError(f"--min-confidence must be >= 0, got {args.min_confidence.strip()}")
    if args.transactions:
        db = _read(args, "transactions", read_transactions_tsv)
        if not db.rows:
            raise CliError(f"{args.transactions}: no transactions to mine")
        if not db.universe:
            raise CliError(f"{args.transactions}: no items to mine")
        source = {"transactions": str(args.transactions)}
    else:
        alphabet, files, source = _corpus_inputs(args)
        digraphs = _count(alphabet, files, 2).table()  # no name keeps the packed counts alive
        if digraphs.total == 0:
            raise CliError("corpus contains no digraphs to mine")
        db = digraphs_as_transactions(digraphs)
        del digraphs  # Apriori reads only the rows: free the table before mining
    size = len(db)  # sums every row's multiplicity, so taken once
    if support_kind == "count":
        count = support_value
    else:  # the ceiling of the exact fraction of |D|, and at least one transaction
        num, den = exact_ratio(support_value, size)
        count = max(1, -(-num * size // den))
    params = MiningParams(min_support_count=count, min_confidence=args.min_confidence)
    if min_confidence > 1:
        print(f"warning: minimum confidence {min_confidence} exceeds 1; no rule can satisfy it")
    levels = mine_frequent(db, params)
    del db  # the rows are mined: free them before the rules are built
    for level in levels:
        print(
            f"level {level.k}: {level.candidates} candidates, "
            f"{len(level.itemsets)} frequent (1 scan)"
        )
    print(f"scans performed: {levels.scans}" + ("" if levels else " (no frequent itemsets)"))
    rules = generate_rules(levels, size, params)
    out = _out_dir(args)
    write_frequent_tsv(levels, size, out / "frequent_itemsets.tsv")
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
            "min_confidence_text": args.min_confidence,
        },
    )
    print(f"mine: {sum(len(l.itemsets) for l in levels)} frequent itemsets, "
          f"{len(rules)} rules -> {out}")
    return 0


def cmd_design(args) -> int:
    alphabet, files, parameters = _corpus_inputs(args)
    if args.geometry:
        # read once: the input may be a pipe, and the copy must be the bytes loaded
        raw = _read(args, "geometry", read_bytes)
        geometry = load_geometry(args.geometry, raw)
    else:
        geometry = default_geometry()
    counts = _count(alphabet, files, 2)
    digraphs = counts.table()
    monographs = derive_lower(digraphs, counts.ends)
    if monographs.total == 0:
        raise CliError("corpus contains no alphabet letters")
    partition = assign_hands(monographs, digraphs, tie_policy=args.tie_policy)
    layout = place_keys(partition, geometry, name=args.name)
    audit = audit_partition(partition, monographs, digraphs)
    out = _out_dir(args)
    if args.geometry:
        (out / "geometry.json").write_bytes(raw)
    else:
        save_geometry(geometry, out / "geometry.json")
    save_layout(layout, out / "layout.json", geometry_ref="geometry.json")
    write_trace_tsv(partition, out / "trace.tsv")
    _write_run_manifest(
        out,
        "design",
        {
            **parameters,
            "geometry": str(args.geometry) if args.geometry else "<default>",
            "tie_policy": args.tie_policy,
            "name": args.name,
        },
    )
    print(f"design: {len(partition.left)} letters left, {len(partition.right)} right -> {out}")
    print("audit: pass" if audit is None else f"audit: FAIL: {audit}")
    return 0 if audit is None else 1


def cmd_evaluate(args) -> int:
    alphabet, files, parameters = _corpus_inputs(args)
    geometries: dict = {}  # one load per geometry file, shared by the layouts naming it
    layouts = [load_layout(path, geometries) for path in args.layouts]
    counts = _count(alphabet, files, 2)
    digraphs = counts.table()
    monographs = derive_lower(digraphs, counts.ends)
    total_chars = monographs.total + counts.undetermined_count
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
    _write_run_manifest(out, "evaluate", {**parameters, "layouts": [str(p) for p in args.layouts]})
    print(f"evaluate: comparison of {len(reports)} layout(s) -> {out}")
    return 0


def cmd_compare_only(args) -> int:
    reports = [read_report_json(p) for p in args.reports]
    rows = compare(reports)
    out = _out_dir(args)
    write_comparison_tsv(rows, out / "comparison.tsv")
    _write_run_manifest(out, "compare-only", {"reports": [str(p) for p in args.reports]})
    print(f"compare-only: {len(reports)} report(s) -> {out}")
    return 0


def _build_parser(exit_on_error: bool = True) -> argparse.ArgumentParser:
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

    for p in (parser, *sub.choices.values()):
        p.exit_on_error = exit_on_error
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
    `--key=value` flags; a null value is left out, and a value that is
    neither a string nor a number (a bool is not one) is refused."""
    path = Path(args.config)
    data = read_json(path)
    if not isinstance(data, dict):
        raise CliError(f"{path}: config must be a JSON object")
    unknown = set(data) - set(_CONFIG_KEYS)
    if unknown:
        raise CliError(f"{path}: unknown config keys: {', '.join(sorted(unknown))}")
    flags = []
    for key, value in data.items():
        if key not in vars(args) or value is None:
            continue
        if isinstance(value, bool) or not isinstance(value, (str, int, float)):
            raise CliError(f"{path}: key {key!r} must be a string or a number")
        flags.append(f"--{key.replace('_', '-')}={value}")
    return flags


def _with_config(argv: list[str], args: argparse.Namespace) -> argparse.Namespace:
    """Parse again with the config file's flags right after the command name.
    The command line parsed once already, so a value refused now is the
    config's: the error names the config and the key, not a flag."""
    at = argv.index(args.command) + 1
    parser = _build_parser(exit_on_error=False)
    try:
        return parser.parse_args([*argv[:at], *_config_flags(args), *argv[at:]])
    except argparse.ArgumentError as exc:
        key = (exc.argument_name or "").lstrip("-").replace("-", "_")
        raise CliError(f"{args.config}: key {key!r}: {exc.message}") from None


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
    args = given = parser.parse_args(argv)
    try:
        if args.config:
            args = _with_config(argv, given)
        digests.clear()  # from here on the readers record only the command's own inputs
        return _COMMANDS[args.command](args)
    except (CliError, OSError, ValueError) as exc:
        key = getattr(exc, "key", None)
        # a key's value differs from the command line's only where the config set it
        blame = f"{args.config}: key {key!r}: " if key and getattr(args, key) != getattr(given, key) else ""
        print(f"error: {blame}{exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    try:
        sys.exit(main())
    finally:
        gc.freeze()  # the exit's collections skip the whole heap, so none walks or frees it


if __name__ == "__main__":
    entrypoint()
