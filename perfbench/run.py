#!/usr/bin/env python3
"""keymine benchmark: one seeded workload per invocation.

    python3 perfbench/run.py --workload design-en --seed 1 --seconds 20 --trace 0

Generates the workload's inputs from the seed, refuses to run if they do
not match the digests pinned in pins.json, then runs the real `keymine`
command in a fresh child process, one child at a time (a closed loop with
a single client), for `--seconds` seconds. Every run's outputs are checked
(checks.py); a run fails on a non-zero exit or on any failed check.

--trace 0 reports the end-to-end metrics, each a median of what was
measured: wall_s, cpu_s, peak_rss_mb, input_mb_per_s, and setup_s from
`keymine --version` launches interleaved with the timed runs. The wall
times (wall_s, input_mb_per_s, setup_s) are medians over the children the
host left on the CPU (stats.least_off_cpu): on this shared virtual
machine the host withholds the CPU in bursts, and a run caught in one
measures the host. The medians over all runs go to stderr.
A reference child that runs none of keymine's code (it counts pairs in a
list of tuples, as keymine's hot loops do) is also interleaved, and
wall_per_ref is wall_s over the reference's median wall time: this host's
speed also drifts for minutes at a time, and the ratio moves with
keymine's own speed only.
--trace 1 instead calls `keymine.cli.main` in-process: untraced runs
alternate with runs that have spans around every call into a module
(spans.py), and one more traced run under tracemalloc gives per-layer
memory peaks. It reports per-layer metrics.

Human-readable lines go to stderr; the last line on stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}. MB means 2**20 bytes.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import checks
import spans
import stats
import workloads
from workloads import BenchError

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
PINS = HERE / "pins.json"

MIN_SAMPLES = 5
# Traced runs, each after an untraced one; per-layer metrics are their medians.
TRACE_REPEATS = 3
CHILD_TIMEOUT_S = 120
# Stop starting timed runs this long after launch, whatever --seconds says,
# so the whole invocation ends well inside 180 s.
HARD_STOP_S = 150
MB = 1 << 20
# A child that runs none of keymine's code, so no change to keymine moves
# its time; only the host's speed does.
COMPUTE_REFERENCE = [
    "-c",
    "t = [(chr(97 + i * 7919 % 26), i & 7) for i in range(100000)]\n"
    "c = {}\n"
    "for a, b in zip(t, t[1:]):\n"
    "    k = (a[0], b[0])\n"
    "    c[k] = c.get(k, 0) + 1\n",
]

def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


class Launcher:
    """Client of launcher.py, which spawns and measures each child."""

    def __init__(self):
        self.env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
        self.env["PYTHONPATH"] = str(SRC)
        self.proc = subprocess.Popen(
            [sys.executable, "-S", str(HERE / "launcher.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def run(self, keymine_argv: list[str], log_dir: Path) -> dict:
        """Run `python -m keymine.cli ARGV`; return the launcher's reply plus
        the child's stdout."""
        return self.run_python(["-m", "keymine.cli", *keymine_argv], log_dir)

    def run_python(self, python_args: list[str], log_dir: Path) -> dict:
        request = {
            "argv": [sys.executable, *python_args],
            "env": self.env,
            "stdout": str(log_dir / "child.out"),
            "stderr": str(log_dir / "child.err"),
            "timeout": CHILD_TIMEOUT_S,
        }
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise BenchError("launcher exited")
        reply = json.loads(line)
        reply["stdout"] = (log_dir / "child.out").read_text(encoding="utf-8", errors="replace")
        if reply["exit_code"] != 0:
            err = (log_dir / "child.err").read_text(encoding="utf-8", errors="replace")
            log(f"child {' '.join(python_args[:3])} exited {reply['exit_code']}: {err.strip()[-500:]}")
        return reply

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait(timeout=30)
        self.proc.stdout.close()


def load_pins() -> dict:
    try:
        return json.loads(PINS.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise BenchError(f"{PINS}: cannot read pins: {exc}") from exc


def prepare(workload: str, variant: int, base: Path, launcher: Launcher) -> workloads.Prepared:
    def design_layout(alphabet: Path, manifest: Path, out_dir: Path) -> None:
        reply = launcher.run(
            ["design", "--alphabet", str(alphabet), "--manifest", str(manifest), "--output-dir", str(out_dir)],
            base.parent,
        )
        if reply["exit_code"] != 0 or "audit: pass" not in reply["stdout"].splitlines():
            raise BenchError("keymine design failed while building the evaluate-en layouts")

    return workloads.prepare(workload, variant, base, design_layout)


def fresh(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    return path


class Outcome:
    """Attempted and failed runs across one invocation."""

    def __init__(self, checker: checks.Checker):
        self.checker = checker
        self.attempted = 0
        self.failed = 0

    def record(self, out_dir: Path, stdout: str, exit_code: int, label: str) -> bool:
        self.attempted += 1
        failures = self.checker.check(out_dir, stdout, exit_code)
        if failures:
            self.failed += 1
            for f in failures[:10]:
                log(f"FAILED {label}: {f}")
        return not failures


def report(name: str, unit: str, summary: dict) -> None:
    extra = "".join(f" {k}={v:.6g}" for k, v in summary.items() if k not in ("n", "median"))
    log(f"  {name:<16} {summary['median']:.6g} {unit} (median of n={summary['n']};{extra})")


def run_reference(launcher: Launcher, work: Path) -> dict:
    reply = launcher.run_python(COMPUTE_REFERENCE, work)
    if reply["exit_code"] != 0:
        raise BenchError("the reference child failed")
    return reply


def timed(prepared, checker, launcher, seconds, work, started) -> tuple[Outcome, dict]:
    outcome = Outcome(checker)
    out_dir = work / "out"
    argv = [*prepared.argv, "--output-dir", str(out_dir)]
    # The first `--version` launch writes the bytecode caches; the inputs
    # were just written, so the page cache is warm from the start.
    runs, samples, setup, reference = [], [], [], []
    measure_start = time.perf_counter()
    while len(runs) < MIN_SAMPLES or time.perf_counter() - measure_start < seconds:
        if time.perf_counter() - started > HARD_STOP_S:
            log(f"hard stop after {len(runs)} timed runs")
            break
        reference.append(run_reference(launcher, work))
        reply = launcher.run(["--version"], work)
        if reply["exit_code"] != 0 or not reply["stdout"].startswith("keymine "):
            raise BenchError("`keymine --version` failed")
        setup.append(reply)
        fresh(out_dir)
        reply = launcher.run(argv, work)
        runs.append(reply)
        if outcome.record(out_dir, reply["stdout"], reply["exit_code"], f"run {outcome.attempted}"):
            samples.append(reply)
    if not samples:
        log("no timed run passed its checks; the metrics come from the failed runs")
        samples = runs

    def walls(replies: list[dict]) -> list[float]:
        return [r["wall_s"] for r in replies]

    chosen = walls(stats.least_off_cpu(samples))
    summaries = {
        ("wall_s", "s"): stats.summarize(chosen),
        ("cpu_s", "s"): stats.summarize([s["cpu_s"] for s in samples]),
        ("peak_rss_mb", "MB"): stats.summarize([s["maxrss_kb"] / 1024 for s in samples]),
        ("input_mb_per_s", "MB/s"): stats.summarize([prepared.input_bytes() / MB / w for w in chosen]),
        ("setup_s", "s"): stats.summarize(walls(stats.least_off_cpu(setup))),
        ("reference_s", "s"): stats.summarize(walls(stats.least_off_cpu(reference))),
        ("wall_s_all", "s"): stats.summarize(walls(samples)),
        ("setup_s_all", "s"): stats.summarize(walls(setup)),
    }
    log(f"{prepared.workload}: {len(samples)} timed runs, error_rate "
        f"{outcome.failed}/{outcome.attempted} = {outcome.failed / outcome.attempted:.3f}")
    for (name, unit), summary in summaries.items():
        report(name, unit, summary)
    medians = {name: (s["median"], unit) for (name, unit), s in summaries.items()}
    reference_s, _ = medians.pop("reference_s")
    del medians["wall_s_all"], medians["setup_s_all"]
    medians["wall_per_ref"] = (medians["wall_s"][0] / reference_s, "ratio")
    return outcome, {name: {"value": v, "unit": unit} for name, (v, unit) in medians.items()}


def _in_process(main, argv: list[str], tracer: spans.Tracer | None) -> tuple[float, int, str]:
    gc.collect()
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        t0 = time.perf_counter()
        code = tracer.call(spans.ROOT, "cli", main, argv) if tracer else main(argv)
        elapsed = time.perf_counter() - t0
    return elapsed, code, buffer.getvalue()


def layer_metrics(tracer: spans.Tracer) -> dict:
    """The per-layer times and counts of one traced run.

    Counts are read from the values the program's functions return. They
    go through getattr with a default, so a representation that a later
    change removes reads as 0 instead of failing the run."""
    span_list = tracer.spans
    layers = spans.layer_times(span_list)
    main_s = span_list[0].end - span_list[0].start
    t = tracer.total
    m: dict[str, tuple[float, str]] = {}

    def layer(name: str) -> dict:
        return layers.get(name, {"span": 0.0, "self": 0.0})

    def per_s(count: float, seconds: float) -> float:
        return count / seconds if seconds > 0 else 0.0

    streams = [result for _, result in tracer.named_calls("tokenize_file")]
    tokens = sum(len(getattr(s, "tokens", ())) for s in streams)
    letters = sum(getattr(s, "letter_count", 0) for s in streams)
    digraph_tables = [r for _, r in tracer.named_calls("merge_tables") if getattr(r, "n", None) == 2]
    m["corpus.span_s"] = (layer("corpus")["span"], "s")
    m["corpus.self_s"] = (layer("corpus")["self"], "s")
    m["corpus.tokenize_s"] = (t("tokenize_file"), "s")
    m["corpus.tokens_per_s"] = (per_s(tokens, t("tokenize_file")), "1/s")
    m["corpus.count_s"] = (t("count_ngraphs"), "s")
    m["corpus.count_calls"] = (tracer.count("count_ngraphs"), "count")
    m["corpus.merge_s"] = (t("merge_tables"), "s")
    m["corpus.tokens"] = (tokens, "count")
    m["corpus.letters"] = (letters, "count")
    m["corpus.undetermined"] = (tokens - letters, "count")
    m["corpus.distinct_digraphs"] = (
        len(getattr(digraph_tables[0], "counts", ())) if digraph_tables else 0, "count")

    dbs = [r for name in ("digraphs_as_transactions", "read_transactions_tsv")
           for _, r in tracer.named_calls(name)]
    rows = [getattr(t, "items", t) for t in getattr(dbs[0], "transactions", ())] if dbs else []
    distinct = len(set(rows))
    candidates = sum(len(r) for _, r in tracer.named_calls("count_supports"))
    frequent = sum(
        len(getattr(level, "itemsets", ())) for _, r in tracer.named_calls("mine_frequent") for level in r)
    m["mining.span_s"] = (layer("mining")["span"], "s")
    m["mining.self_s"] = (layer("mining")["self"], "s")
    m["mining.txview_s"] = (t("digraphs_as_transactions"), "s")
    m["mining.transactions"] = (len(dbs[0]) if dbs else 0, "count")
    m["mining.distinct_rows"] = (distinct, "count")
    m["mining.distinct_row_ratio"] = (distinct / len(rows) if rows else 0.0, "ratio")
    m["mining.apriori_s"] = (t("mine_frequent"), "s")
    m["mining.count_s"] = (t("count_supports"), "s")
    m["mining.candidate_gen_s"] = (t("generate_candidates"), "s")
    m["mining.scans"] = (tracer.count("count_supports"), "count")
    m["mining.candidates"] = (candidates, "count")
    m["mining.frequent"] = (frequent, "count")
    m["mining.frequent_per_candidate"] = (frequent / candidates if candidates else 0.0, "ratio")
    m["mining.read_tsv_s"] = (t("read_transactions_tsv"), "s")
    m["mining.rules_s"] = (t("generate_rules"), "s")
    m["mining.rules"] = (sum(len(r) for _, r in tracer.named_calls("generate_rules")), "count")

    m["layout.span_s"] = (layer("layout")["span"], "s")
    m["layout.self_s"] = (layer("layout")["self"], "s")
    m["layout.assign_s"] = (t("assign_hands"), "s")
    m["layout.audit_s"] = (t("audit_partition"), "s")
    m["layout.place_s"] = (t("place_keys"), "s")

    scanned = sum(
        len(getattr(s, "tokens", ())) for args, _ in tracer.named_calls("evaluate_streams") for s in args[0])
    m["evaluation.span_s"] = (layer("evaluation")["span"], "s")
    m["evaluation.self_s"] = (layer("evaluation")["self"], "s")
    m["evaluation.evaluate_s"] = (t("evaluate_streams"), "s")
    m["evaluation.layouts"] = (tracer.count("evaluate_streams"), "count")
    m["evaluation.tokens_scanned"] = (scanned, "count")
    m["evaluation.tokens_per_s"] = (per_s(scanned, t("evaluate_streams")), "1/s")
    m["evaluation.compare_s"] = (t("compare"), "s")

    m["cli.main_s"] = (main_s, "s")
    m["cli.self_s"] = (spans.self_times(span_list)[0], "s")
    m["cli.write_s"] = (layer("write")["self"], "s")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in m.items()}


def traced(prepared, checker, launcher, work, spans_path) -> tuple[Outcome, dict]:
    outcome = Outcome(checker)
    out_dir = work / "out"
    argv = [*prepared.argv, "--output-dir", str(out_dir)]
    reply = launcher.run(argv, work)  # writes bytecode caches, checked like any run
    outcome.record(out_dir, reply["stdout"], reply["exit_code"], "child run")

    import keymine.cli as cli
    import keymine.mining as mining

    if not Path(cli.__file__).resolve().is_relative_to(SRC.resolve()):
        raise BenchError(f"imported {cli.__file__}, not the checkout's keymine")
    untraced, per_run, span_runs = [], [], []
    for i in range(TRACE_REPEATS):
        fresh(out_dir)
        elapsed, code, stdout = _in_process(cli.main, argv, None)
        outcome.record(out_dir, stdout, code, f"in-process untraced {i}")
        untraced.append(elapsed)
        tracer = spans.Tracer()
        fresh(out_dir)
        with spans.installed(tracer, cli, mining):
            _, code, stdout = _in_process(cli.main, argv, tracer)
        outcome.record(out_dir, stdout, code, f"traced {i}")
        per_run.append(layer_metrics(tracer))
        span_runs.append(tracer.spans)
        # The calls hold every intermediate result; keeping them would
        # enlarge the heap of the runs that follow.
        tracer.calls.clear()

    memory = spans.Tracer(memory=True)
    fresh(out_dir)
    tracemalloc.start()
    try:
        with spans.installed(memory, cli, mining):
            _, code, stdout = _in_process(cli.main, argv, memory)
    finally:
        tracemalloc.stop()
    outcome.record(out_dir, stdout, code, "tracemalloc")

    metrics = {
        name: {"value": statistics.median(r[name]["value"] for r in per_run), "unit": unit["unit"]}
        for name, unit in per_run[0].items()
    }
    for layer in ("corpus", "mining", "layout", "evaluation"):
        metrics[f"{layer}.peak_mb"] = {"value": memory.peaks.get(layer, 0) / MB, "unit": "MB"}
    metrics["trace.overhead_ratio"] = {
        "value": metrics["cli.main_s"]["value"] / statistics.median(untraced), "unit": "ratio"}
    scans_line = [line for line in stdout.splitlines() if line.startswith("scans performed")]
    if scans_line:
        log(f"CLI prints '{scans_line[0]}'; the count_supports wrapper counted "
            f"{metrics['mining.scans']['value']} scans")

    spans_path.parent.mkdir(parents=True, exist_ok=True)
    spans_path.write_text(json.dumps([
        [{"name": s.name, "layer": s.layer, "start": s.start, "end": s.end, "parent": s.parent}
         for s in run_spans]
        for run_spans in span_runs
    ]) + "\n", encoding="utf-8")
    log(f"{prepared.workload}: {len(span_runs)} traced runs (medians reported) -> {spans_path}")
    return outcome, metrics


def input_metrics(prepared, checker) -> dict:
    if prepared.workload == "mine-baskets":
        text = prepared.inputs[0].read_text(encoding="utf-8")
        code_points, transactions = len(text), len(text.splitlines()) - 1
    else:
        code_points = sum(len(p.read_text(encoding="utf-8")) for p in prepared.corpus)
        transactions = checker.counts().digraphs
    return {
        "input.bytes": {"value": prepared.input_bytes(), "unit": "bytes"},
        "input.code_points": {"value": code_points, "unit": "count"},
        "input.transactions": {"value": transactions, "unit": "count"},
    }


def main(argv: list[str] | None = None) -> int:
    started = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "keymine" / "cli.py").is_file():
        log(f"error: no keymine sources under {SRC}; run from a full checkout")
        return 2
    sys.path.insert(0, str(SRC))
    variant = args.seed % workloads.VARIANTS
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    launcher = Launcher()
    try:
        pins = load_pins()
        prepared = prepare(args.workload, variant, fresh(work) / "inputs", launcher)
        pin = pins.get("workloads", {}).get(args.workload, {}).get(str(variant))
        if pin is None:
            raise BenchError(f"no pins for {args.workload} variant {variant}")
        if prepared.input_digest() != pin["inputs"]:
            raise BenchError(
                f"generated inputs of {args.workload} variant {variant} differ from the pinned "
                "digest: the generator, keymine.synth or, for evaluate-en, the designed "
                "layout changed. Refusing to run."
            )
        checker = checks.Checker(prepared, pin["outputs"])
        inputs = input_metrics(prepared, checker)
        log(f"{args.workload} seed {args.seed} (variant {variant}): " + ", ".join(
            f"{k} {v['value']}" for k, v in inputs.items()))
        if args.trace:
            spans_path = WORK / "spans" / f"{args.workload}-seed{args.seed}.json"
            outcome, metrics = traced(prepared, checker, launcher, work, spans_path)
            metrics.update(inputs)
        else:
            outcome, metrics = timed(prepared, checker, launcher, args.seconds, work, started)
    except BenchError as exc:
        log(f"error: {exc}")
        return 3
    finally:
        launcher.close()
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
