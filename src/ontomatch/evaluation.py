"""Precision/recall/F-measure scoring and run comparison.

Evaluation is set-based on (source_id, target_id) pairs; confidence values
play no part. Reports keep full float precision in machine-readable form and
print 3 decimals.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, NamedTuple

from .errors import InvalidParameter, MalformedRecord, MismatchedInputs
from .fileio import atomic_write_text, read_records, write_json

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
    lines = [f"{s}\t{t}" for s, t in sorted(reference)]
    atomic_write_text(path, "\n".join(lines) + ("\n" if lines else ""))


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


def _ratio(a: float, b: float) -> float | None:
    if a == b:
        return 1.0
    if b == 0:
        return None
    return a / b


class RunComparison(NamedTuple):
    """Side-by-side quality and cost of two runs over one reference."""

    rows: tuple[tuple[str, str, str, str], ...]  # metric, a, b, ratio
    label_a: str
    label_b: str

    def render_text(self) -> str:
        header = ("metric", self.label_a, self.label_b, "ratio")
        table = [header] + list(self.rows)
        widths = [max(len(row[i]) for row in table) for i in range(4)]
        lines = [
            "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip()
            for row in table
        ]
        return "\n".join(lines) + "\n"

    def render_tsv(self) -> str:
        lines = [f"metric\t{self.label_a}\t{self.label_b}\tratio"]
        lines.extend("\t".join(row) for row in self.rows)
        return "\n".join(lines) + "\n"


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

    def fmt_ratio(a: float, b: float) -> str:
        value = _ratio(a, b)
        return f"{value:.3f}" if value is not None else "-"

    wall_a = report_a.wall_times.get("match", 0.0)
    wall_b = report_b.wall_times.get("match", 0.0)
    rows = (
        ("precision", f"{eval_a.precision:.3f}", f"{eval_b.precision:.3f}",
         fmt_ratio(eval_a.precision, eval_b.precision)),
        ("recall", f"{eval_a.recall:.3f}", f"{eval_b.recall:.3f}",
         fmt_ratio(eval_a.recall, eval_b.recall)),
        ("f_measure", f"{eval_a.f_measure:.3f}", f"{eval_b.f_measure:.3f}",
         fmt_ratio(eval_a.f_measure, eval_b.f_measure)),
        ("llm_queries", str(report_a.llm_query_count), str(report_b.llm_query_count),
         fmt_ratio(report_a.llm_query_count, report_b.llm_query_count)),
        ("hcb_count", str(report_a.hcb_count), str(report_b.hcb_count),
         fmt_ratio(report_a.hcb_count, report_b.hcb_count)),
        ("alignment_size", str(len(align_a)), str(len(align_b)),
         fmt_ratio(len(align_a), len(align_b))),
        ("match_wall_time", f"{wall_a:.3f}", f"{wall_b:.3f}",
         fmt_ratio(wall_a, wall_b)),
    )
    return RunComparison(rows=rows, label_a=report_a.pipeline, label_b=report_b.pipeline)
