"""In-memory spans around the calls `keymine.cli` makes into each module.

The wrappers live here, in the benchmark, and are installed on the names
`keymine.cli` imports (plus `count_supports` and `generate_candidates`
inside `keymine.mining`, so scans and candidates are counted where they
happen). Nothing in the program changes. A span records its name, layer,
start, end and parent; a layer's self time is its spans' durations minus
the part of each that child spans cover.
"""

from __future__ import annotations

import functools
import time
import tracemalloc
from dataclasses import dataclass
from types import ModuleType
from typing import Callable

# Name imported by keymine.cli -> layer. `write_*` and `save_*` names are
# found at install time and go to the "write" layer (reported as cli.write_s).
CLI_LAYERS = {
    "tokenize_file": "corpus",
    "count_ngraphs": "corpus",
    "merge_tables": "corpus",
    "digraphs_as_transactions": "mining",
    "mine_frequent": "mining",
    "generate_rules": "mining",
    "read_transactions_tsv": "mining",
    "assign_hands": "layout",
    "audit_partition": "layout",
    "place_keys": "layout",
    "evaluate_streams": "evaluation",
    "compare": "evaluation",
}
MINING_LAYERS = {"count_supports": "mining", "generate_candidates": "mining"}
ROOT = "main"


@dataclass
class Span:
    name: str
    layer: str
    start: float
    end: float
    parent: int | None


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the union of its children's intervals,
    clipped to the span itself."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    result = []
    for i, s in enumerate(spans):
        covered = 0.0
        cursor = s.start
        for start, end in sorted(children.get(i, ())):
            start, end = max(start, cursor), min(end, s.end)
            if end > start:
                covered += end - start
                cursor = end
        result.append((s.end - s.start) - covered)
    return result


def layer_times(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per layer: `span` is the time inside its outermost spans (nested spans
    of the same layer are not counted twice), `self` the summed self time."""
    selfs = self_times(spans)
    out: dict[str, dict[str, float]] = {}
    for i, s in enumerate(spans):
        entry = out.setdefault(s.layer, {"span": 0.0, "self": 0.0})
        entry["self"] += selfs[i]
        if s.parent is None or spans[s.parent].layer != s.layer:
            entry["span"] += s.end - s.start
    return out


class Tracer:
    """Records spans; with `memory`, also each layer's tracemalloc peak above
    the traced memory at the start of its span."""

    def __init__(self, memory: bool = False, clock: Callable[[], float] = time.perf_counter):
        self.memory = memory
        self.clock = clock
        self.spans: list[Span] = []
        self.calls: list[tuple[int, tuple, object]] = []  # (span, args, result)
        self.peaks: dict[str, int] = {}
        self._stack: list[int] = []
        self._mem: list[list[int]] = []  # [base, highest] per open span

    def _mem_enter(self) -> None:
        current, peak = tracemalloc.get_traced_memory()
        if self._mem:
            self._mem[-1][1] = max(self._mem[-1][1], peak)
        tracemalloc.reset_peak()
        self._mem.append([current, current])

    def _mem_exit(self, layer: str) -> None:
        _, peak = tracemalloc.get_traced_memory()
        base, highest = self._mem.pop()
        highest = max(highest, peak)
        self.peaks[layer] = max(self.peaks.get(layer, 0), highest - base)
        if self._mem:
            self._mem[-1][1] = max(self._mem[-1][1], highest)
        tracemalloc.reset_peak()

    def call(self, name: str, layer: str, fn: Callable, /, *args, **kwargs):
        """Run fn inside a span. Arguments and result are kept so counts can
        be taken after the run, outside every span."""
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        if self.memory:
            self._mem_enter()
        span = Span(name, layer, self.clock(), 0.0, parent)
        self.spans.append(span)
        self._stack.append(index)
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = self.clock()
            self._stack.pop()
            if self.memory:
                self._mem_exit(layer)
        if not self.memory:
            self.calls.append((index, args, result))
        return result

    def wrap(self, name: str, layer: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, layer, fn, *args, **kwargs)

        return wrapper

    def named_calls(self, name: str) -> list[tuple[tuple, object]]:
        return [(args, result) for i, args, result in self.calls if self.spans[i].name == name]

    def total(self, name: str) -> float:
        return sum(s.end - s.start for s in self.spans if s.name == name)

    def count(self, name: str) -> int:
        return sum(1 for s in self.spans if s.name == name)


class installed:
    """Context manager: wrap the traced names for the duration of a block."""

    def __init__(self, tracer: Tracer, cli: ModuleType, mining: ModuleType):
        self.targets = []
        writers = {
            n: "write" for n, v in vars(cli).items()
            if n.startswith(("write_", "save_")) and callable(v)
        }
        for module, layers in ((cli, {**CLI_LAYERS, **writers}), (mining, MINING_LAYERS)):
            for name, layer in layers.items():
                if hasattr(module, name):
                    self.targets.append((module, name, layer, getattr(module, name)))
        self.tracer = tracer

    def __enter__(self) -> Tracer:
        for module, name, layer, fn in self.targets:
            setattr(module, name, self.tracer.wrap(name, layer, fn))
        return self.tracer

    def __exit__(self, *exc) -> None:
        for module, name, _, fn in self.targets:
            setattr(module, name, fn)
