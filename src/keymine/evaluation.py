"""Scoring layouts against corpora: hand switching, hand loads, comparison.

Layouts are scored from the corpus's monograph and digraph tables. A hand's
load is the count of the letters it holds; hand switching is the count of
digraphs whose letters sit on different hands. A character the layout does
not map (undetermined, or a letter missing from the layout) is in neither
load, and no digraph pairs it, so no switch is counted "across" it.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import NamedTuple, Sequence

from .corpus import IngestionError, NGraphTable, read_json
from .layout import Layout


class IncomparableReportsError(ValueError):
    """Reports over different character totals cannot share one table."""


class EvalReport(NamedTuple):
    layout_name: str
    hand_switching: int
    left_load: int
    right_load: int
    undetermined: int
    total_chars: int

    def validate(self) -> None:
        if not isinstance(self.layout_name, str):
            raise ValueError(f"layout_name must be a string, got {self.layout_name!r}")
        for name, count in zip(self._fields[1:], self[1:]):
            if isinstance(count, bool) or not isinstance(count, int):
                raise ValueError(f"{name} must be an integer, got {count!r}")
            if count < 0:
                raise ValueError(f"{name} must be non-negative, got {count}")
        if self.left_load + self.right_load + self.undetermined != self.total_chars:
            raise ValueError("loads plus undetermined must equal total characters")
        if self.hand_switching > max(0, self.left_load + self.right_load - 1):
            raise ValueError("more hand switches than adjacent typed pairs")


def evaluate(
    monographs: NGraphTable, digraphs: NGraphTable, total_chars: int, layout: Layout
) -> EvalReport:
    """Loads and hand switches of a layout over a corpus of `total_chars`
    non-whitespace characters with these letter tables."""
    hands = layout.hands_by_letter()
    loads = {"left": 0, "right": 0}
    for (letter,), count in monographs.counts.items():
        if letter in hands:
            loads[hands[letter]] += count
    switching = 0
    for (a, b), count in digraphs.counts.items():
        if a in hands and b in hands and hands[a] != hands[b]:
            switching += count
    return EvalReport(
        layout_name=layout.name,
        hand_switching=switching,
        left_load=loads["left"],
        right_load=loads["right"],
        undetermined=total_chars - loads["left"] - loads["right"],
        total_chars=total_chars,
    )


class ComparisonRow(NamedTuple):
    layout_name: str
    hand_switching: int
    left_load: int
    right_load: int
    undetermined: int
    switching_ratio: float
    load_imbalance: float


def compare(reports: Sequence[EvalReport]) -> list[ComparisonRow]:
    """Rank reports by hand switching, best first; stable on ties.

    All reports must cover the same character total. Each output row adds
    two derived columns: switching ratio (switches per typed character)
    and load imbalance (|left - right| / typed characters).
    """
    if not reports:
        raise IncomparableReportsError("nothing to compare")
    totals = {r.total_chars for r in reports}
    if len(totals) > 1:
        raise IncomparableReportsError(
            f"reports cover different character totals: {sorted(totals)}"
        )
    rows = []
    for r in sorted(reports, key=lambda r: -r.hand_switching):
        typed = r.left_load + r.right_load
        rows.append(
            ComparisonRow(
                r.layout_name,
                r.hand_switching,
                r.left_load,
                r.right_load,
                r.undetermined,
                r.hand_switching / typed if typed else 0.0,
                abs(r.left_load - r.right_load) / typed if typed else 0.0,
            )
        )
    return rows


def write_report_json(report: EvalReport, path: str | Path) -> None:
    Path(path).write_text(
        json.dumps(report._asdict(), ensure_ascii=False, indent=2) + "\n", encoding="utf-8"
    )


_REPORT_COLUMNS = ("layout_name", "hand_switching", "left_load", "right_load", "undetermined", "total_chars")


def read_report_json(path: str | Path) -> EvalReport:
    """Load a report written by `write_report_json`; a name that is not a
    string, a count that is not a non-negative integer, loads that do not add
    up to the total, or more hand switches than typed pairs allow are
    rejected naming the file."""
    path = Path(path)
    data = read_json(path)
    try:
        report = EvalReport(*(data[column] for column in _REPORT_COLUMNS))
        report.validate()
    except (KeyError, TypeError, ValueError) as exc:
        raise IngestionError(f"{path}: not a valid evaluation report: {exc}") from exc
    return report


def write_report_tsv(report: EvalReport, path: str | Path) -> None:
    lines = ["\t".join(_REPORT_COLUMNS), "\t".join(map(str, report))]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_comparison_tsv(rows: Sequence[ComparisonRow], path: str | Path) -> None:
    lines = [
        "layout_name\thand_switching\tleft_load\tright_load\tundetermined"
        "\tswitching_ratio\tload_imbalance"
    ]
    for row in rows:
        lines.append(
            f"{row.layout_name}\t{row.hand_switching}\t{row.left_load}\t{row.right_load}"
            f"\t{row.undetermined}\t{row.switching_ratio:.6f}\t{row.load_imbalance:.6f}"
        )
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
