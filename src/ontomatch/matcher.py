"""Bidirectional/HCB identification and the two matching pipelines.

The prioritized depth-first pipeline walks each source entity's candidate
list in rank order: candidates that are not bidirectional are skipped without
an LLM call, a high-confidence bidirectional (HCB) pair is accepted outright,
and anything else goes to the LLM, accepting on the first Yes. The baseline
pipeline prompts on every candidate and keeps the highest-scored Yes. Both
walk a plan that identify builds for every source before the first query.

Source entities are independent; each one's own search is strictly
sequential because later LLM calls depend on earlier verdicts. With
max_workers = w, the calling thread and w - 1 helper threads each walk one
source at a time, so at most w LLM requests are in flight. The CLI takes w
from match.workers, which is 4 by default for a chat endpoint, whose
queries wait on the network, and 1 for the in-process clients. Once a walk
fails, no thread starts another source. Traces are merged in iteration
order (ascending source id by default) regardless of completion order.
"""

from __future__ import annotations

import copy
import json
import logging
import threading
import time
from collections import Counter
from functools import partial
from typing import NamedTuple, Sequence

from .candidates import DIRECTION_S2T, DIRECTION_T2S, CandidateDB
from .config import PIPELINE_BASELINE, PIPELINE_MILA
from .errors import (
    EndpointUnavailable,
    InvalidParameter,
    MalformedRecord,
    StaleKB,
    UnknownEntity,
    refuse_assignment,
)
from .fileio import (
    format_header, format_score, parse_score, read_header, read_records, read_text,
    write_json, write_records,
)
from .llm import LlmClient, PromptTemplate, render_prompt
from .ontology import Ontology

logger = logging.getLogger(__name__)

RELATION_EQUIVALENCE = "equivalence"

PROVENANCE_HCB = "HCB"
PROVENANCE_LLM = "LLM-confirmed"
PROVENANCE_BASELINE = "baseline-LLM"

OUTCOME_NOT_BIDIRECTIONAL = "not-bidirectional"
OUTCOME_HCB_ACCEPT = "HCB-accept"
OUTCOME_LLM_YES = "LLM-yes"
OUTCOME_LLM_NO = "LLM-no"


class Correspondence(NamedTuple):
    """One accepted equivalence with its score and how it was decided."""

    source_id: str
    target_id: str
    relation: str
    confidence: float
    provenance: str


class Alignment:
    """Correspondences and the parameters they were made under; immutable."""

    __slots__ = (
        "source_onto", "target_onto", "k", "tau", "fingerprint", "correspondences"
    )
    __setattr__ = refuse_assignment

    def __init__(
        self, source_onto: str, target_onto: str, k: int, tau: float,
        fingerprint: str, correspondences: tuple[Correspondence, ...],
    ):
        seen: set[str] = set()
        for corr in correspondences:
            if corr.source_id in seen:
                raise InvalidParameter(
                    f"more than one correspondence for source {corr.source_id!r}"
                )
            seen.add(corr.source_id)
        values = (source_onto, target_onto, k, tau, fingerprint, correspondences)
        for slot, value in zip(self.__slots__, values):
            object.__setattr__(self, slot, value)

    def __eq__(self, other) -> bool:
        return type(other) is Alignment and all(
            getattr(self, slot) == getattr(other, slot) for slot in self.__slots__
        )

    def __len__(self) -> int:
        return len(self.correspondences)

    @property
    def pairs(self) -> frozenset[tuple[str, str]]:
        return frozenset(
            (corr.source_id, corr.target_id) for corr in self.correspondences
        )


class TraceEvent(NamedTuple):
    source_id: str
    rank: int
    candidate_id: str
    outcome: str


class MatchRunReport(NamedTuple):
    """Everything one pipeline run produced, with query accounting.

    llm_query_count counts the LLM visits in the trace. llm_queries_issued is
    every query the client completed, filled in by the caller that owns the
    client; it is larger when an aborted run drops walks that had paid
    queries.
    """

    pipeline: str
    alignment: Alignment
    trace: list[TraceEvent]
    llm_query_count: int
    hcb_count: int
    llm_queries_issued: int | None = None
    wall_times: dict[str, float] = {}
    partial: bool = False
    abort_reason: str | None = None
    multi_matched_targets: list[str] = []

    def to_json_dict(self) -> dict:
        """REPORT_KEYS' keys from their fields, plus what the alignment and
        the trace give."""
        fields = self._asdict()
        data = {key: fields[name] for key, (name, *_) in REPORT_KEYS.items()}
        data["wall_times_s"] = {k: round(v, 3) for k, v in self.wall_times.items()}
        alignment = self.alignment
        data.update(
            source_onto=alignment.source_onto,
            target_onto=alignment.target_onto,
            k=alignment.k,
            tau=alignment.tau,
            provider_fingerprint=alignment.fingerprint,
            alignment_size=len(alignment),
            correspondences_by_provenance=Counter(
                corr.provenance for corr in alignment.correspondences
            ),
            trace_length=len(self.trace),
        )
        return data


def _check_db_pair(s2t: CandidateDB, t2s: CandidateDB) -> None:
    if s2t.direction != DIRECTION_S2T or t2s.direction != DIRECTION_T2S:
        raise InvalidParameter(
            f"expected directions ({DIRECTION_S2T}, {DIRECTION_T2S}), "
            f"got ({s2t.direction}, {t2s.direction})"
        )
    if s2t.k != t2s.k or s2t.tau != t2s.tau:
        raise InvalidParameter(
            f"candidate DBs disagree on (k, tau): "
            f"({s2t.k}, {s2t.tau}) vs ({t2s.k}, {t2s.tau})"
        )
    if s2t.fingerprint != t2s.fingerprint:
        raise StaleKB(
            f"candidate DBs were built with different providers: "
            f"{s2t.fingerprint!r} vs {t2s.fingerprint!r}"
        )
    if (s2t.query_name, s2t.corpus_name) != (t2s.corpus_name, t2s.query_name):
        raise InvalidParameter(
            f"candidate DBs do not describe the same ontology pair: "
            f"{s2t.query_name}->{s2t.corpus_name} vs "
            f"{t2s.query_name}->{t2s.corpus_name}"
        )


def identify(
    sources: Sequence[str] | None,
    s2t: CandidateDB,
    t2s: CandidateDB | None,
    target_onto: Ontology,
    hcb_enabled: bool = True,
) -> list[tuple[str, tuple[tuple[str, float, str | None], ...]]]:
    """Each source's (candidate_id, score, outcome) rows in rank order, in
    source order (ascending id when sources is None), before any query.

    With t2s (MILA), a candidate whose list lacks the source is
    not-bidirectional; with hcb_enabled, a pair is HCB-accept when its score
    tops both lists and the two directional scores are equal. DBs built by
    build_candidate_dbs always agree, since a pair has one score; the test
    stays for DBs from older builds or edited by hand, and keeps the rule
    symmetric under swapping s2t and t2s. Other rows, and every row without
    t2s (the baseline), get None: ask the LLM. An unknown or repeated
    source, or a candidate that target_onto lacks, raises.
    """
    plan: dict[str, tuple] = {}
    for source_id in sorted(s2t.lists) if sources is None else sources:
        if source_id in plan:
            raise InvalidParameter(f"source {source_id!r} is listed twice")
        own = s2t.candidates_of(source_id).candidates
        rows = []
        for candidate_id, score in own:
            if candidate_id not in target_onto:
                raise UnknownEntity(
                    f"candidate {candidate_id!r} of {source_id!r} is not in "
                    f"{target_onto.name!r}; the DB was built from other inputs"
                )
            outcome = None
            if t2s is not None:
                back = t2s.candidates_of(candidate_id)
                backward = back.score_of(source_id)
                if backward is None:
                    outcome = OUTCOME_NOT_BIDIRECTIONAL
                elif hcb_enabled and (
                    score == backward == own[0][1] == back.candidates[0][1]
                ):
                    outcome = OUTCOME_HCB_ACCEPT
            rows.append((candidate_id, score, outcome))
        plan[source_id] = tuple(rows)
    return list(plan.items())


def _finish_report(
    pipeline: str,
    s2t: CandidateDB,
    per_source: list[tuple[list[TraceEvent], Correspondence | None]],
    elapsed: float,
    partial: bool,
    abort_reason: str | None,
) -> MatchRunReport:
    trace = [event for events, _ in per_source for event in events]
    correspondences = [corr for _, corr in per_source if corr is not None]
    target_counts = Counter(corr.target_id for corr in correspondences)
    alignment = Alignment(
        source_onto=s2t.query_name,
        target_onto=s2t.corpus_name,
        k=s2t.k,
        tau=s2t.tau,
        fingerprint=s2t.fingerprint,
        correspondences=tuple(correspondences),
    )
    llm_events = sum(e.outcome in (OUTCOME_LLM_YES, OUTCOME_LLM_NO) for e in trace)
    hcb_events = sum(1 for e in trace if e.outcome == OUTCOME_HCB_ACCEPT)
    return MatchRunReport(
        pipeline=pipeline,
        alignment=alignment,
        trace=trace,
        llm_query_count=llm_events,
        hcb_count=hcb_events,
        wall_times={"match": elapsed},
        partial=partial,
        abort_reason=abort_reason,
        multi_matched_targets=sorted(
            target for target, count in target_counts.items() if count > 1
        ),
    )


def _run_per_source(
    pipeline: str,
    plan: list,
    s2t: CandidateDB,
    worker,
    max_workers: int,
) -> MatchRunReport:
    """Walk the plan's sources on the calling thread plus max_workers - 1 helpers.

    A source without candidates adds nothing to the report, so it is not
    walked. Each thread takes the next source index under a lock. Once a walk
    raises, or the calling thread itself does (say on Ctrl-C), no thread
    takes another source; the walks already running end first. The report
    keeps the walks before the first failed source: EndpointUnavailable
    marks it partial, any other exception is re-raised.
    """
    start = time.perf_counter()
    plan = [entry for entry in plan if entry[1]]
    results: list = [None] * len(plan)
    failures: dict[int, Exception] = {}
    lock = threading.Lock()
    next_index = 0
    stopped = False

    def take_sources() -> None:
        nonlocal next_index
        while True:
            with lock:
                if stopped or failures or next_index == len(plan):
                    return
                index = next_index
                next_index += 1
            try:
                results[index] = worker(*plan[index])
            except Exception as exc:
                with lock:
                    failures[index] = exc
                return

    helpers: list[threading.Thread] = []
    try:
        for _ in range(min(max_workers, len(plan)) - 1):
            helper = threading.Thread(target=take_sources)
            helper.start()
            helpers.append(helper)
        take_sources()
    finally:
        with lock:
            stopped = True
        for helper in helpers:
            helper.join()
    elapsed = time.perf_counter() - start
    if not failures:
        return _finish_report(pipeline, s2t, results, elapsed, False, None)
    first = min(failures)
    exc = failures[first]
    if not isinstance(exc, EndpointUnavailable):
        raise exc
    logger.error("aborting %s run at %s: %s", pipeline, plan[first][0], exc)
    return _finish_report(pipeline, s2t, results[:first], elapsed, True, str(exc))


def _walk(
    source_id: str,
    rows: tuple[tuple[str, float, str | None], ...],
    *,
    accept: dict[str, str],
    stop_at_accept: bool,
    llm: LlmClient,
    template: PromptTemplate,
    source_onto: Ontology,
    target_onto: Ontology,
) -> tuple[list[TraceEvent], Correspondence | None]:
    """Visit one source's planned rows in rank order; both pipelines use it.

    A row whose outcome identify settled is recorded as is; a row with
    outcome None prompts the LLM with the two preferred labels. accept maps
    each accepting outcome to a provenance: the first accepted candidate is
    the correspondence, and the walk ends there when stop_at_accept is set.
    """
    events: list[TraceEvent] = []
    accepted: Correspondence | None = None
    source_label = source_onto.entity(source_id).preferred_label
    for rank, (candidate_id, score, outcome) in enumerate(rows, start=1):
        if outcome is None:
            prompt = render_prompt(
                template,
                source_onto.name,
                target_onto.name,
                source_label,
                target_onto.entity(candidate_id).preferred_label,
            )
            verdict = llm.classify(prompt, pair=(source_id, candidate_id))
            outcome = OUTCOME_LLM_YES if verdict.is_yes else OUTCOME_LLM_NO
        events.append(TraceEvent(source_id, rank, candidate_id, outcome))
        if outcome in accept and accepted is None:
            accepted = Correspondence(
                source_id=source_id,
                target_id=candidate_id,
                relation=RELATION_EQUIVALENCE,
                confidence=score,
                provenance=accept[outcome],
            )
            if stop_at_accept:
                break
    return events, accepted


def match_mila(
    sources: Sequence[str] | None,
    s2t: CandidateDB,
    t2s: CandidateDB,
    llm: LlmClient,
    template: PromptTemplate,
    *,
    source_onto: Ontology,
    target_onto: Ontology,
    hcb_enabled: bool = True,
    max_workers: int = 1,
) -> MatchRunReport:
    """Retrieve-identify-prompt over each source's candidate list.

    Per candidate, in rank order: skip if not bidirectional (no LLM call),
    accept outright if HCB (no LLM call), otherwise prompt the LLM with the
    two preferred labels and accept on Yes; stop at the first acceptance.
    hcb_enabled=False disables the HCB shortcut (every bidirectional
    candidate is prompted), used by the search-equivalence checks.

    If the LLM endpoint dies mid-run the report comes back with
    partial=True and the completed prefix of sources; nothing is raised.
    """
    _check_db_pair(s2t, t2s)
    plan = identify(sources, s2t, t2s, target_onto, hcb_enabled)
    walk = partial(
        _walk,
        accept={OUTCOME_HCB_ACCEPT: PROVENANCE_HCB, OUTCOME_LLM_YES: PROVENANCE_LLM},
        stop_at_accept=True, llm=llm, template=template,
        source_onto=source_onto, target_onto=target_onto,
    )
    return _run_per_source(PIPELINE_MILA, plan, s2t, walk, max_workers)


def match_baseline(
    sources: Sequence[str] | None,
    s2t: CandidateDB,
    llm: LlmClient,
    template: PromptTemplate,
    *,
    source_onto: Ontology,
    target_onto: Ontology,
    max_workers: int = 1,
) -> MatchRunReport:
    """Retrieve-then-prompt: query the LLM on every candidate of every source.

    The highest-scored Yes becomes the correspondence (the list is already in
    rank order, so the first Yes wins). Total LLM calls equal the summed
    candidate-list lengths.
    """
    plan = identify(sources, s2t, None, target_onto)
    walk = partial(
        _walk, accept={OUTCOME_LLM_YES: PROVENANCE_BASELINE},
        stop_at_accept=False, llm=llm, template=template,
        source_onto=source_onto, target_onto=target_onto,
    )
    return _run_per_source(PIPELINE_BASELINE, plan, s2t, walk, max_workers)


# In Alignment's argument order.
_ALIGNMENT_HEADER = (
    ("source", str), ("target", str), ("k", int), ("tau", float), ("provider", str),
)


def write_alignment(alignment: Alignment, path: str) -> None:
    """Persist an alignment's header, then its correspondences by source id."""
    values = (alignment.source_onto, alignment.target_onto, alignment.k,
              alignment.tau, alignment.fingerprint)
    records = [
        (c.source_id, c.target_id, c.relation, format_score(c.confidence), c.provenance)
        for c in sorted(alignment.correspondences, key=lambda c: c.source_id)
    ]
    write_records(path, records, format_header(_ALIGNMENT_HEADER, values))


def read_alignment(path: str) -> Alignment:
    """Parse an alignment file; re-serializing the result is byte-identical."""
    header = read_header(path, _ALIGNMENT_HEADER)
    correspondences: list[Correspondence] = []
    line_of: dict[str, int] = {}  # source id -> its line
    for line_no, fields in read_records(path, 5):
        source_id, target_id, relation, confidence_text, provenance = fields
        if (first := line_of.setdefault(source_id, line_no)) != line_no:
            raise MalformedRecord(
                path, line_no, f"source {source_id!r} repeats line {first}"
            )
        confidence = parse_score(path, line_no, confidence_text, "confidence")
        correspondences.append(
            Correspondence(source_id, target_id, relation, confidence, provenance)
        )
    return Alignment(*header, tuple(correspondences))


def write_trace(trace: Sequence[TraceEvent], path: str) -> None:
    """One line per candidate visit, in trace order."""
    write_records(
        path, [(e.source_id, str(e.rank), e.candidate_id, e.outcome) for e in trace]
    )


def write_report(report: MatchRunReport, path: str) -> None:
    write_json(path, report.to_json_dict())


# Each report.json key that is a MatchRunReport field, written by
# to_json_dict and taken back by read_report: the field, a test of its value
# and its default. A key with no default is required; a report without the
# key gets a copy of the default. The tests use type(), not isinstance(): a
# JSON true must not pass as a count.
REPORT_KEYS = {
    "pipeline": ("pipeline", lambda v: type(v) is str),
    "llm_query_count": ("llm_query_count", lambda v: type(v) is int),
    "hcb_count": ("hcb_count", lambda v: type(v) is int),
    "llm_queries_issued": (
        "llm_queries_issued", lambda v: type(v) in (int, type(None)), None
    ),
    "wall_times_s": ("wall_times", lambda v: type(v) is dict and all(
        type(t) in (int, float) for t in v.values()
    ), {}),
    "partial": ("partial", lambda v: type(v) is bool, False),
    "abort_reason": ("abort_reason", lambda v: type(v) in (str, type(None)), None),
    "multi_matched_targets": ("multi_matched_targets", lambda v: type(v) is list, []),
}


def read_report(path: str, alignment: Alignment) -> MatchRunReport:
    """The report a report.json gives for alignment, with an empty trace.

    MalformedRecord if the file is not UTF-8 JSON or not an object, if a
    required key is missing or if a value fails its test; every missing key
    is reported before any wrong type.
    """
    try:
        data = json.loads(read_text(path))
    except json.JSONDecodeError as exc:
        raise MalformedRecord(path, exc.lineno, f"bad JSON: {exc.msg}") from None
    if not isinstance(data, dict):
        raise MalformedRecord(path, 1, "not a JSON object")
    for key, (_, _, *default) in REPORT_KEYS.items():
        if not default and key not in data:
            raise MalformedRecord(path, 1, f"missing key {key!r}")
    values = {}
    for key, (name, test, *default) in REPORT_KEYS.items():
        value = data[key] if key in data else copy.copy(*default)
        if not test(value):
            raise MalformedRecord(path, 1, f"key {key!r} has a value of the wrong type")
        values[name] = value
    return MatchRunReport(alignment=alignment, trace=[], **values)
