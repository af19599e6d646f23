"""Precision/recall/F-measure scoring and run comparison.

Evaluation is set-based on (source_id, target_id) pairs; confidence values
play no part. Reports keep full float precision in machine-readable form and
print 3 decimals.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, NamedTuple

from .errors import InvalidParameter, MalformedRecord, MismatchedInputs
from .fileio import read_records, write_json, write_records

if TYPE_CHECKING:
    from .matcher import MatchRunReport


def load_reference(path: str) -> frozenset[tuple[str, str]]:
    """The ground-truth pairs of a TSV of source_id<TAB>target_id rows;
    duplicates collapse."""
    pairs: set[tuple[str, str]] = set()
    for line_no, fields in read_records(path):
        if len(fields) != 2 or not fields[0] or not fields[1]:
            raise MalformedRecord(path, line_no, "expected source_id<TAB>target_id")
        pairs.add((fields[0], fields[1]))
    return frozenset(pairs)


def write_reference(reference: frozenset[tuple[str, str]], path: str) -> None:
    write_records(path, sorted(reference))


def split_reference(
    reference: frozenset[tuple[str, str]], fraction: float = 0.7, seed: int = 0
) -> tuple[frozenset[tuple[str, str]], frozenset[tuple[str, str]]]:
    """Deterministically split the reference into (train, test).

    No training ever happens here; the split only restricts which pairs an
    evaluation counts, mirroring semi-supervised evaluation protocols.
    fraction, the train share, must be in [0, 1].
    """
    if not 0.0 <= fraction <= 1.0:
        raise InvalidParameter(f"split fraction must be in [0, 1], got {fraction}")
    ordered = sorted(reference)
    rng = random.Random(seed)
    rng.shuffle(ordered)
    cut = int(round(fraction * len(ordered)))
    return frozenset(ordered[:cut]), frozenset(ordered[cut:])


class EvalReport(NamedTuple):
    precision: float
    recall: float
    f_measure: float
    aligned_count: int
    reference_count: int
    overlap_count: int
    metadata: dict = {}

    def summary(self) -> str:
        return (
            f"P={self.precision:.3f} R={self.recall:.3f} F={self.f_measure:.3f} "
            f"(|A|={self.aligned_count}, |R|={self.reference_count}, "
            f"|A∩R|={self.overlap_count})"
        )


def evaluate(
    alignment, reference: frozenset[tuple[str, str]], metadata: dict | None = None
) -> EvalReport:
    """Score an alignment against a reference.

    alignment may be an Alignment object or any iterable of (source, target)
    pairs; duplicates are collapsed before counting, so row order and
    repeated correspondences cannot change the result. P = |A∩R|/|A| (0 when
    A is empty), R = |A∩R|/|R| (0 when R is empty), F = 2PR/(P+R) when
    P+R > 0, else 0.
    """
    pairs = getattr(alignment, "pairs", None)
    if pairs is None:
        pairs = frozenset((str(s), str(t)) for s, t in alignment)
    overlap = len(pairs & reference)
    precision = overlap / len(pairs) if pairs else 0.0
    recall = overlap / len(reference) if reference else 0.0
    f_measure = (
        2.0 * precision * recall / (precision + recall)
        if precision + recall > 0.0
        else 0.0
    )
    return EvalReport(
        precision=precision,
        recall=recall,
        f_measure=f_measure,
        aligned_count=len(pairs),
        reference_count=len(reference),
        overlap_count=overlap,
        metadata=dict(metadata or {}),
    )


def write_eval_report(report: EvalReport, path: str) -> None:
    write_json(path, report._asdict())


class RunComparison(NamedTuple):
    """Side-by-side quality and cost of two runs over one reference."""

    rows: tuple[tuple[str, str, str, str], ...]  # metric, a, b, ratio
    label_a: str
    label_b: str

    def table(self) -> list[tuple[str, str, str, str]]:
        """The header row, then the metric rows: compare.tsv's records."""
        return [("metric", self.label_a, self.label_b, "ratio"), *self.rows]

    def render_text(self) -> str:
        table = self.table()
        widths = [max(len(row[i]) for row in table) for i in range(4)]
        return "".join(
            "  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip()
            + "\n" for row in table
        )


def compare_runs(
    report_a: MatchRunReport,
    eval_a: EvalReport,
    report_b: MatchRunReport,
    eval_b: EvalReport,
) -> RunComparison:
    """Build the comparison table; both runs must be complete and share
    inputs and settings."""
    for report in (report_a, report_b):
        if report.partial:
            raise MismatchedInputs(
                f"the {report.pipeline} run is partial ({report.abort_reason}); "
                "compare needs complete runs"
            )
    align_a, align_b = report_a.alignment, report_b.alignment
    settings_a = (
        align_a.source_onto, align_a.target_onto, align_a.k, align_a.tau,
        align_a.fingerprint,
    )
    settings_b = (
        align_b.source_onto, align_b.target_onto, align_b.k, align_b.tau,
        align_b.fingerprint,
    )
    if settings_a != settings_b:
        raise MismatchedInputs(
            f"runs were built under different settings: {settings_a} vs {settings_b}"
        )
    if eval_a.reference_count != eval_b.reference_count:
        raise MismatchedInputs(
            f"runs were evaluated against different references "
            f"({eval_a.reference_count} vs {eval_b.reference_count} pairs)"
        )

    def row(metric: str, a: float, b: float, spell=str) -> tuple[str, str, str, str]:
        ratio = "1.000" if a == b else "-" if b == 0 else f"{a / b:.3f}"
        return metric, spell(a), spell(b), ratio

    three = "{:.3f}".format
    wall_a = report_a.wall_times.get("match", 0.0)
    wall_b = report_b.wall_times.get("match", 0.0)
    rows = (
        row("precision", eval_a.precision, eval_b.precision, three),
        row("recall", eval_a.recall, eval_b.recall, three),
        row("f_measure", eval_a.f_measure, eval_b.f_measure, three),
        row("llm_queries", report_a.llm_query_count, report_b.llm_query_count),
        row("hcb_count", report_a.hcb_count, report_b.hcb_count),
        row("alignment_size", len(align_a), len(align_b)),
        row("match_wall_time", wall_a, wall_b, three),
    )
    return RunComparison(rows=rows, label_a=report_a.pipeline, label_b=report_b.pipeline)
