#!/usr/bin/env python3
"""Regenerate pins.json: for every workload variant, the digest of its
generated inputs and of its decision outputs, taken from one run of the
current keymine that passes the independent checks.

    python3 perfbench/pin.py [--workload NAME ...]

Run it only when a workload is meant to change; the benchmark refuses to
run on inputs or outputs that differ from these pins.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys

import checks
import run
import workloads


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=workloads.WORKLOADS)
    args = parser.parse_args()
    sys.path.insert(0, str(run.SRC))
    pins = json.loads(run.PINS.read_text(encoding="utf-8")) if run.PINS.is_file() else {}
    pins["variants"] = workloads.VARIANTS
    table = pins.setdefault("workloads", {})
    launcher = run.Launcher()
    try:
        for name in args.workload or workloads.WORKLOADS:
            for variant in range(workloads.VARIANTS):
                work = run.fresh(run.WORK / f"pin-{name}-{variant}")
                prepared = run.prepare(name, variant, work / "inputs", launcher)
                out_dir = work / "out"
                reply = launcher.run([*prepared.argv, "--output-dir", str(out_dir)], work)
                checker = checks.Checker(prepared, None)
                failures = checker.check(out_dir, reply["stdout"], reply["exit_code"])
                if failures:
                    print(f"{name} variant {variant}: {failures}", file=sys.stderr)
                    return 1
                table.setdefault(name, {})[str(variant)] = {
                    "inputs": prepared.input_digest(),
                    "outputs": checks.output_digests(prepared, out_dir),
                }
                print(f"{name} variant {variant}: {reply['wall_s']:.3f} s, "
                      f"{reply['maxrss_kb'] / 1024:.1f} MB, {prepared.input_bytes()} input bytes",
                      file=sys.stderr, flush=True)
                shutil.rmtree(work)
    finally:
        launcher.close()
    run.PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
