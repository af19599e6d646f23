"""The identify rule, both pipelines, and run artifacts."""

import json
import os
import signal
import sys
import tempfile
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ontomatch.errors import (
    EndpointUnavailable,
    InvalidParameter,
    MalformedRecord,
    StaleKB,
    UnknownEntity,
)
from ontomatch.evaluation import evaluate
from ontomatch.llm import (
    HttpChatClient,
    LlmClient,
    OracleClient,
    PromptTemplate,
)
from ontomatch.matcher import (
    OUTCOME_HCB_ACCEPT,
    OUTCOME_LLM_NO,
    OUTCOME_LLM_YES,
    OUTCOME_NOT_BIDIRECTIONAL,
    PROVENANCE_BASELINE,
    PROVENANCE_HCB,
    PROVENANCE_LLM,
    REPORT_KEYS,
    Alignment,
    Correspondence,
    MatchRunReport,
    TraceEvent,
    identify,
    match_baseline,
    match_mila,
    read_alignment,
    read_report,
    write_alignment,
    write_report,
    write_trace,
)
from ontomatch.synth import generate_corpus

from conftest import load_corpus_pipeline, make_db, make_ontology
from oracles import oracle_walk
from stubs import RecordingServer, ScriptedClient

TEMPLATE = PromptTemplate.default()


def fixture_oracle(disease_pipeline, **kwargs):
    from ontomatch.evaluation import load_reference

    return OracleClient(
        load_reference(disease_pipeline["reference_path"]), **kwargs
    )


def run_mila(pipeline, llm, **kwargs):
    return match_mila(
        None,
        pipeline["s2t"],
        pipeline["t2s"],
        llm,
        TEMPLATE,
        source_onto=pipeline["source"],
        target_onto=pipeline["target"],
        **kwargs,
    )


def run_baseline(pipeline, llm, sources=None, **kwargs):
    return match_baseline(
        sources,
        pipeline["s2t"],
        llm,
        TEMPLATE,
        source_onto=pipeline["source"],
        target_onto=pipeline["target"],
        **kwargs,
    )


def outcomes(plan):
    """{(source, candidate): outcome} of an identify plan."""
    return {
        (source_id, candidate_id): outcome
        for source_id, rows in plan
        for candidate_id, _, outcome in rows
    }


def test_disease_corpus_bidirectional_and_hcb_predicates(disease_pipeline):
    s2t, t2s = disease_pipeline["s2t"], disease_pipeline["t2s"]
    outcome = outcomes(identify(None, s2t, t2s, disease_pipeline["target"]))
    # (C3745, 4880) scores 0.95621 and is mutual, but C61325 tops the
    # reverse list, so it is bidirectional without being high-confidence.
    assert outcome["ncit:C3745", "DOID:4880"] is None
    assert outcome["ncit:C61325", "DOID:4880"] == OUTCOME_HCB_ACCEPT
    assert outcome["ncit:C99383", "DOID:438"] == OUTCOME_HCB_ACCEPT
    assert outcome["ncit:C3745", "DOID:4233"] is None
    # not bidirectional: C99383 does not even retrieve DOID:4233
    assert ("ncit:C99383", "DOID:4233") not in outcome


def test_mila_on_disease_corpus_with_scripted_verdicts(disease_pipeline):
    llm = ScriptedClient(["No", "Yes"])
    report = run_mila(disease_pipeline, llm)
    assert report.llm_query_count == 2
    assert report.hcb_count == 2
    assert not report.partial
    by_source = {c.source_id: c for c in report.alignment.correspondences}
    assert by_source["ncit:C3745"].target_id == "DOID:4233"
    assert by_source["ncit:C3745"].provenance == PROVENANCE_LLM
    assert by_source["ncit:C3745"].confidence == 0.80521
    assert by_source["ncit:C61325"].target_id == "DOID:4880"
    assert by_source["ncit:C61325"].provenance == PROVENANCE_HCB
    assert by_source["ncit:C99383"].target_id == "DOID:438"
    assert by_source["ncit:C99383"].confidence == 0.93
    assert report.trace == [
        TraceEvent("ncit:C3745", 1, "DOID:4880", OUTCOME_LLM_NO),
        TraceEvent("ncit:C3745", 2, "DOID:4233", OUTCOME_LLM_YES),
        TraceEvent("ncit:C61325", 1, "DOID:4880", OUTCOME_HCB_ACCEPT),
        TraceEvent("ncit:C99383", 1, "DOID:438", OUTCOME_HCB_ACCEPT),
    ]
    assert llm.query_count == 2
    # The two scripted verdicts were consumed exactly; a third call would
    # have raised, so the HCB accepts demonstrably made no LLM calls.
    with pytest.raises(InvalidParameter):
        llm.classify("one more")


def test_mila_oracle_matches_scripted_run(disease_pipeline):
    scripted_report = run_mila(disease_pipeline, ScriptedClient(["No", "Yes"]))
    oracle_report = run_mila(disease_pipeline, fixture_oracle(disease_pipeline))
    assert scripted_report.alignment.pairs == oracle_report.alignment.pairs
    assert scripted_report.trace == oracle_report.trace
    assert oracle_report.llm_query_count == 2


def test_mila_is_deterministic_across_runs(disease_pipeline, tmp_path):
    outputs = []
    for run in range(2):
        report = run_mila(disease_pipeline, fixture_oracle(disease_pipeline))
        alignment_path = tmp_path / f"a{run}.tsv"
        trace_path = tmp_path / f"t{run}.tsv"
        write_alignment(report.alignment, alignment_path)
        write_trace(report.trace, trace_path)
        outputs.append(alignment_path.read_bytes() + trace_path.read_bytes())
    assert outputs[0] == outputs[1]


def test_mila_with_hcb_disabled_prompts_bidirectional_pairs(disease_pipeline):
    llm = fixture_oracle(disease_pipeline)
    report = run_mila(disease_pipeline, llm, hcb_enabled=False)
    assert report.hcb_count == 0
    # C3745 needs two queries, C61325 and C99383 one each (rank-1 accepts).
    assert report.llm_query_count == 4
    assert {c.provenance for c in report.alignment.correspondences} == {
        PROVENANCE_LLM
    }
    assert report.alignment.pairs == {
        ("ncit:C3745", "DOID:4233"),
        ("ncit:C61325", "DOID:4880"),
        ("ncit:C99383", "DOID:438"),
    }


def test_baseline_prompts_every_candidate(disease_pipeline):
    llm = fixture_oracle(disease_pipeline)
    report = run_baseline(disease_pipeline, llm)
    expected_calls = sum(
        len(lst) for lst in disease_pipeline["s2t"].lists.values()
    )
    assert expected_calls == 11
    assert report.llm_query_count == 11
    assert llm.query_count == 11
    assert report.hcb_count == 0
    assert {c.provenance for c in report.alignment.correspondences} == {
        PROVENANCE_BASELINE
    }
    assert report.alignment.pairs == {
        ("ncit:C3745", "DOID:4233"),
        ("ncit:C61325", "DOID:4880"),
        ("ncit:C99383", "DOID:438"),
    }


def test_baseline_single_source_uses_four_calls(disease_pipeline):
    llm = ScriptedClient(["No", "Yes", "No", "No"])
    report = run_baseline(disease_pipeline, llm, sources=["ncit:C3745"])
    assert report.llm_query_count == 4
    assert report.alignment.pairs == {("ncit:C3745", "DOID:4233")}
    with pytest.raises(InvalidParameter):
        llm.classify("exhausted")


def test_baseline_keeps_highest_scored_yes():
    source = make_ontology("S", {"E": ["e label"]})
    target = make_ontology(
        "T", {"T:1": ["t1"], "T:2": ["t2"], "T:3": ["t3"]}
    )
    s2t = make_db("s2t", "S", "T", {"E": [("T:1", 0.9), ("T:2", 0.8), ("T:3", 0.7)]})
    report = match_baseline(
        None, s2t, ScriptedClient(["No", "Yes", "Yes"]), TEMPLATE,
        source_onto=source, target_onto=target,
    )
    corr = report.alignment.correspondences[0]
    assert (corr.target_id, corr.confidence) == ("T:2", 0.8)
    assert report.llm_query_count == 3
    yes_events = [e for e in report.trace if e.outcome == OUTCOME_LLM_YES]
    assert [e.candidate_id for e in yes_events] == ["T:2", "T:3"]


def test_mila_skips_non_bidirectional_without_llm():
    source = make_ontology("S", {"E": ["e label"], "E2": ["rival"]})
    target = make_ontology("T", {"T:1": ["t1"], "T:2": ["t2"]})
    s2t = make_db(
        "s2t", "S", "T",
        {"E": [("T:1", 0.9), ("T:2", 0.8)], "E2": [("T:1", 0.95)]},
    )
    t2s = make_db(
        "t2s", "T", "S",
        {"T:1": [("E2", 0.95)], "T:2": [("E", 0.8)]},
    )
    llm = ScriptedClient(["Yes"])
    report = match_mila(
        ["E"], s2t, t2s, llm, TEMPLATE, source_onto=source, target_onto=target
    )
    assert report.trace == [
        TraceEvent("E", 1, "T:1", OUTCOME_NOT_BIDIRECTIONAL),
        TraceEvent("E", 2, "T:2", OUTCOME_LLM_YES),
    ]
    assert report.llm_query_count == 1
    assert report.alignment.pairs == {("E", "T:2")}


def test_identify_raises_before_the_first_query():
    source = make_ontology("S", {"E": ["e label"], "E2": ["other"]})
    target = make_ontology("T", {"T:1": ["t1"]})
    s2t = make_db(
        "s2t", "S", "T", {"E": [("T:1", 0.9)], "E2": [("T:99", 0.8)]}
    )
    t2s = make_db("t2s", "T", "S", {"T:1": [("E", 0.9)]})
    runs = (
        lambda sources, llm: match_mila(
            sources, s2t, t2s, llm, TEMPLATE,
            source_onto=source, target_onto=target, hcb_enabled=False,
        ),
        lambda sources, llm: match_baseline(
            sources, s2t, llm, TEMPLATE, source_onto=source, target_onto=target,
        ),
    )
    for run in runs:
        for sources, error in (
            (None, UnknownEntity),  # E's walk would ask first; T:99 is unknown
            (["E", "missing"], UnknownEntity),
            (["E", "E"], InvalidParameter),
        ):
            llm = ScriptedClient(["No"] * 4)
            with pytest.raises(error):
                run(sources, llm)
            assert llm.query_count == 0


def test_mila_empty_candidate_list_produces_nothing():
    source = make_ontology("S", {"E": ["e label"]})
    target = make_ontology("T", {"T:1": ["t1"]})
    s2t = make_db("s2t", "S", "T", {"E": []})
    t2s = make_db("t2s", "T", "S", {"T:1": []})
    report = match_mila(
        None, s2t, t2s, ScriptedClient([]), TEMPLATE,
        source_onto=source, target_onto=target,
    )
    assert len(report.alignment) == 0
    assert report.trace == []
    assert report.llm_query_count == 0


def test_mila_treats_unparseable_as_no():
    source = make_ontology("S", {"E": ["e label"]})
    target = make_ontology("T", {"T:1": ["t1"], "T:2": ["t2"]})
    s2t = make_db("s2t", "S", "T", {"E": [("T:1", 0.9), ("T:2", 0.8)]})
    t2s = make_db(
        "t2s", "T", "S",
        {"T:1": [("X", 0.95), ("E", 0.9)], "T:2": [("X", 0.9), ("E", 0.8)]},
    )
    llm = ScriptedClient(["these might be related", "Yes"])
    report = match_mila(
        ["E"], s2t, t2s, llm, TEMPLATE, source_onto=source, target_onto=target
    )
    assert report.llm_query_count == 2
    assert report.alignment.pairs == {("E", "T:2")}
    assert report.trace[0].outcome == OUTCOME_LLM_NO


def test_multi_matched_targets_are_flagged():
    source = make_ontology("S", {"E1": ["one"], "E2": ["two"]})
    target = make_ontology("T", {"T:1": ["t1"]})
    s2t = make_db(
        "s2t", "S", "T", {"E1": [("T:1", 0.9)], "E2": [("T:1", 0.85)]}
    )
    t2s = make_db("t2s", "T", "S", {"T:1": [("E1", 0.9), ("E2", 0.85)]})
    llm = OracleClient([("E1", "T:1"), ("E2", "T:1")])
    report = match_mila(
        None, s2t, t2s, llm, TEMPLATE, source_onto=source, target_onto=target
    )
    assert report.alignment.pairs == {("E1", "T:1"), ("E2", "T:1")}
    assert report.multi_matched_targets == ["T:1"]


def test_db_pair_validation():
    s2t = make_db("s2t", "S", "T", {})
    t2s = make_db("t2s", "T", "S", {})
    source = make_ontology("S", {"E": ["e"]})
    target = make_ontology("T", {"T:1": ["t"]})

    def run(a, b):
        match_mila(None, a, b, ScriptedClient([]), TEMPLATE,
                   source_onto=source, target_onto=target)

    with pytest.raises(InvalidParameter):
        run(t2s, s2t)
    with pytest.raises(InvalidParameter):
        run(s2t, make_db("t2s", "T", "S", {}, k=3))
    with pytest.raises(InvalidParameter):
        run(s2t, make_db("t2s", "T", "S", {}, tau=0.9))
    with pytest.raises(StaleKB):
        run(s2t, make_db("t2s", "T", "S", {}, fingerprint="other/fp"))
    with pytest.raises(InvalidParameter):
        run(s2t, make_db("t2s", "U", "S", {}))
    with pytest.raises(UnknownEntity):
        match_mila(["missing"], s2t, t2s, ScriptedClient([]), TEMPLATE,
                   source_onto=source, target_onto=target)


def test_alignment_rejects_duplicate_source():
    corr = Correspondence("E", "T:1", "equivalence", 0.9, PROVENANCE_HCB)
    dup = Correspondence("E", "T:2", "equivalence", 0.8, PROVENANCE_HCB)
    with pytest.raises(InvalidParameter):
        Alignment("S", "T", 5, 0.75, "fp", (corr, dup))


def test_alignment_round_trip_is_byte_identical(disease_pipeline, tmp_path):
    report = run_mila(disease_pipeline, fixture_oracle(disease_pipeline))
    path = tmp_path / "alignment.tsv"
    write_alignment(report.alignment, path)
    first = path.read_bytes()
    loaded = read_alignment(path)
    assert loaded.pairs == report.alignment.pairs
    assert loaded.k == 5 and loaded.tau == 0.75
    assert loaded.fingerprint == report.alignment.fingerprint
    write_alignment(loaded, path)
    assert path.read_bytes() == first


def test_empty_alignment_round_trip(tmp_path):
    alignment = Alignment("S", "T", 5, 0.75, "fp", ())
    path = tmp_path / "empty.tsv"
    write_alignment(alignment, path)
    loaded = read_alignment(path)
    assert len(loaded) == 0
    assert loaded.source_onto == "S"


ALIGNMENT_HEADER = "# source S\n# target T\n# k 5\n# tau 0.75\n# provider fp\n"


@pytest.mark.parametrize(
    "content, line_no",
    [pytest.param(content, line_no, id=content) for content, line_no in [
        ("no header line\n", 1),
        ("# S T 5\n", 1),
        ("# S T five 0.75 fp\n", 1),
        ("# S T 5 0.75 fp\nE\tT:1\tequivalence\n", 1),
        ("# S T 5 0.75 fp\nE\tT:1\tequivalence\tbad\tHCB\n", 1),
        (ALIGNMENT_HEADER + "E\tT:1\tequivalence\n", 6),
        (ALIGNMENT_HEADER + "E\tT:1\tequivalence\tbad\tHCB\n", 6),
    ] + [
        # a confidence is a cosine: a finite number in [-1, 1]
        (ALIGNMENT_HEADER + "E\tT:1\tequivalence\t0.90000\tHCB\n"
         f"F\tT:2\tequivalence\t{confidence}\tLLM-confirmed\n", 7)
        for confidence in ("nan", "-nan", "inf", "-inf", "1.5", "-1.00001", "7.5")
    ]],
)
def test_read_alignment_malformed(tmp_path, content, line_no):
    path = tmp_path / "bad.tsv"
    path.write_text(content, encoding="utf-8")
    with pytest.raises(MalformedRecord) as caught:
        read_alignment(path)
    assert caught.value.line_no == line_no


def test_trace_round_trip(disease_pipeline, tmp_path):
    report = run_mila(disease_pipeline, fixture_oracle(disease_pipeline))
    assert report.trace
    path = tmp_path / "trace.tsv"
    write_trace(report.trace, path)
    rows = [line.split("\t") for line in path.read_text(encoding="utf-8").splitlines()]
    assert [
        TraceEvent(source_id, int(rank), candidate_id, outcome)
        for source_id, rank, candidate_id, outcome in rows
    ] == report.trace
    write_trace([], tmp_path / "empty.tsv")
    assert (tmp_path / "empty.tsv").read_bytes() == b""


def test_trace_accounting_invariants(disease_pipeline):
    report = run_mila(disease_pipeline, fixture_oracle(disease_pipeline))
    llm_events = [
        e for e in report.trace
        if e.outcome in (OUTCOME_LLM_YES, OUTCOME_LLM_NO)
    ]
    hcb_events = [e for e in report.trace if e.outcome == OUTCOME_HCB_ACCEPT]
    assert len(llm_events) == report.llm_query_count
    assert len(hcb_events) == report.hcb_count
    allowed = {
        OUTCOME_NOT_BIDIRECTIONAL, OUTCOME_HCB_ACCEPT,
        OUTCOME_LLM_YES, OUTCOME_LLM_NO,
    }
    assert {e.outcome for e in report.trace} <= allowed


def test_report_json_round_trip(disease_pipeline, tmp_path):
    report = run_mila(disease_pipeline, fixture_oracle(disease_pipeline))
    path = tmp_path / "report.json"
    write_report(report, path)
    data = json.loads(path.read_text(encoding="utf-8"))
    assert data["pipeline"] == "mila"
    assert data["alignment_size"] == 3
    assert data["llm_query_count"] == 2
    assert data["hcb_count"] == 2
    assert data["correspondences_by_provenance"] == {
        PROVENANCE_HCB: 2, PROVENANCE_LLM: 1,
    }
    assert data["partial"] is False
    assert data["multi_matched_targets"] == []
    assert "wall_times" not in data
    assert data["wall_times_s"]["match"] >= 0.0


REPORT_ALIGNMENT = Alignment("S", "T", 5, 0.75, "test/fp", ())


@settings(deadline=None, max_examples=100)
@given(
    pipeline=st.text(),
    counts=st.tuples(*[st.integers(min_value=0, max_value=2**63)] * 3),
    partial=st.booleans(),
    abort_reason=st.none() | st.text(),
    multi_matched_targets=st.lists(st.text(), max_size=4),
    wall_times=st.dictionaries(
        st.text(), st.floats(min_value=0.0, max_value=1e6), max_size=3
    ),
)
def test_report_json_reads_back_what_was_written(
    pipeline, counts, partial, abort_reason, multi_matched_targets, wall_times
):
    report = MatchRunReport(
        pipeline=pipeline, alignment=REPORT_ALIGNMENT, trace=[],
        llm_query_count=counts[0], hcb_count=counts[1],
        llm_queries_issued=counts[2], wall_times=wall_times, partial=partial,
        abort_reason=abort_reason, multi_matched_targets=multi_matched_targets,
    )
    written = report.to_json_dict()
    # the writer and the reader share every key the reader declares
    for key, (_, test, *_) in REPORT_KEYS.items():
        assert key in written and test(written[key]), key
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "report.json")
        write_report(report, path)
        back = read_report(path, REPORT_ALIGNMENT)
    assert back.alignment is REPORT_ALIGNMENT and back.trace == []
    assert (back.pipeline, back.llm_query_count, back.hcb_count) == (
        pipeline, counts[0], counts[1]
    )
    assert back.wall_times == {k: round(v, 3) for k, v in wall_times.items()}
    assert (back.partial, back.abort_reason, back.multi_matched_targets) == (
        partial, abort_reason, multi_matched_targets
    )


def test_reports_without_the_optional_keys_share_no_default(tmp_path):
    path = tmp_path / "report.json"
    path.write_text(
        '{"pipeline": "mila", "llm_query_count": 1, "hcb_count": 0}',
        encoding="utf-8",
    )
    first, second = (read_report(path, REPORT_ALIGNMENT) for _ in range(2))
    assert (first.wall_times, first.partial, first.abort_reason) == ({}, False, None)
    first.wall_times["match"] = 1.0
    first.multi_matched_targets.append("T:1")
    assert second.wall_times == {} and second.multi_matched_targets == []


class FailAfter(LlmClient):
    """Yes for every pair until the trigger source, then endpoint death."""

    def __init__(self, fail_source: str):
        super().__init__()
        self._fail_source = fail_source

    def _respond(self, prompt, pair):
        if pair and pair[0] == self._fail_source:
            raise EndpointUnavailable("endpoint went away")
        return "Yes", 1


@pytest.mark.parametrize("max_workers", [1, 2])
def test_endpoint_death_yields_partial_report(max_workers):
    source = make_ontology("S", {"E1": ["a"], "E2": ["b"], "E3": ["c"]})
    target = make_ontology("T", {"T:1": ["x"], "T:2": ["y"], "T:3": ["z"]})
    s2t = make_db(
        "s2t", "S", "T",
        {"E1": [("T:1", 0.9)], "E2": [("T:2", 0.9)], "E3": [("T:3", 0.9)]},
    )
    t2s = make_db(
        "t2s", "T", "S",
        {
            "T:1": [("X", 0.95), ("E1", 0.9)],
            "T:2": [("X", 0.95), ("E2", 0.9)],
            "T:3": [("X", 0.95), ("E3", 0.9)],
        },
    )
    report = match_mila(
        ["E1", "E2", "E3"], s2t, t2s, FailAfter("E2"), TEMPLATE,
        source_onto=source, target_onto=target, max_workers=max_workers,
    )
    assert report.partial is True
    assert "endpoint went away" in report.abort_reason
    assert ("E1", "T:1") in report.alignment.pairs
    assert all(c.source_id != "E2" for c in report.alignment.correspondences)


def sparse_sources():
    """Ten sources S0..S9 of which S0, S3, S4, S7 and S9 have no candidates;
    the others have Tia (0.9) and Tib (0.8), both bidirectional, and S1's
    Tia is HCB."""
    ids = [f"S{i}" for i in range(10)]
    listed = [i for i in range(10) if i not in (0, 3, 4, 7, 9)]
    source = make_ontology("S", {sid: [f"source {sid}"] for sid in ids})
    target_ids = [f"T{i}{end}" for i in listed for end in "ab"]
    target = make_ontology("T", {tid: [f"target {tid}"] for tid in target_ids})
    s2t = make_db("s2t", "S", "T", {
        sid: ([(f"T{i}a", 0.9), (f"T{i}b", 0.8)] if i in listed else [])
        for i, sid in enumerate(ids)
    })
    t2s_lists = {}
    for i in listed:
        t2s_lists[f"T{i}a"] = ([] if i == 1 else [("X", 0.95)]) + [(f"S{i}", 0.9)]
        t2s_lists[f"T{i}b"] = [(f"S{i}", 0.8)]
    t2s = make_db("t2s", "T", "S", t2s_lists)
    with_rows = [ids[i] for i in listed]
    return source, target, s2t, t2s, with_rows


class FailAtQuery(LlmClient):
    """Yes for candidates T*b, No for the rest; the nth query (from 1)
    raises EndpointUnavailable."""

    def __init__(self, n=0):
        super().__init__()
        self._n = n
        self._asked = 0

    def _respond(self, prompt, pair):
        self._asked += 1
        if self._asked == self._n:
            raise EndpointUnavailable("endpoint went away")
        return ("Yes" if pair[1].endswith("b") else "No"), 1


def sparse_runs(source, target, s2t, t2s):
    def mila(sources, llm, workers=1):
        return match_mila(
            sources, s2t, t2s, llm, TEMPLATE, source_onto=source,
            target_onto=target, max_workers=workers,
        )

    def baseline(sources, llm, workers=1):
        return match_baseline(
            sources, s2t, llm, TEMPLATE, source_onto=source,
            target_onto=target, max_workers=workers,
        )

    return mila, baseline


def report_fields(report):
    return (
        report.trace, report.alignment, report.llm_query_count,
        report.hcb_count, report.multi_matched_targets, report.partial,
    )


@pytest.mark.parametrize("workers", [1, 3])
def test_sources_without_candidates_change_nothing(workers):
    source, target, s2t, t2s, with_rows = sparse_sources()
    for run in sparse_runs(source, target, s2t, t2s):
        every = run(None, FailAtQuery(), workers)
        listed = run(with_rows, FailAtQuery(), workers)
        assert report_fields(every) == report_fields(listed)
        assert {e.source_id for e in every.trace} == set(with_rows)
        assert every.llm_query_count > 0


def test_sources_without_candidates_are_still_validated():
    source, target, s2t, t2s, _ = sparse_sources()
    for run in sparse_runs(source, target, s2t, t2s):
        for sources, error in (
            (["S1", "S0", "S0"], InvalidParameter),
            (["S9", "S9"], InvalidParameter),
            (["S1", "S4", "missing"], UnknownEntity),
        ):
            llm = FailAtQuery()
            with pytest.raises(error):
                run(sources, llm)
            assert llm.query_count == 0


def test_a_partial_run_keeps_the_walks_of_the_sources_before_the_failure():
    # The reference is the run's own full report cut before the source
    # that asks the nth query: the walks of every source before it.
    source, target, s2t, t2s, _ = sparse_sources()
    for run in sparse_runs(source, target, s2t, t2s):
        full = run(None, FailAtQuery())
        asks = [e for e in full.trace if e.outcome in (OUTCOME_LLM_YES, OUTCOME_LLM_NO)]
        for n, failing in enumerate(asks, start=1):
            report = run(None, FailAtQuery(n))
            assert report.partial is True
            kept = [e for e in full.trace if e.source_id < failing.source_id]
            assert report.trace == kept
            assert report.alignment.correspondences == tuple(
                c for c in full.alignment.correspondences
                if c.source_id < failing.source_id
            )


def one_candidate_sources(n):
    """n sources S00.., each with the single candidate T<source id>."""
    ids = [f"S{i:02d}" for i in range(n)]
    source = make_ontology("S", {sid: [f"source {sid}"] for sid in ids})
    target = make_ontology("T", {f"T{sid}": [f"target {sid}"] for sid in ids})
    s2t = make_db("s2t", "S", "T", {sid: [(f"T{sid}", 0.9)] for sid in ids})
    return ids, source, target, s2t


class SourceIndexClient(LlmClient):
    """Runs on_source(source index), then answers No; records which source
    indices and threads reached it."""

    def __init__(self, ids, on_source):
        super().__init__()
        self._ids = ids
        self._on_source = on_source
        self._lock = threading.Lock()
        self.started: set[int] = set()
        self.threads: set[threading.Thread] = set()

    def _respond(self, prompt, pair):
        index = self._ids.index(pair[0])
        with self._lock:
            self.started.add(index)
            self.threads.add(threading.current_thread())
        self._on_source(index)
        return "No", 1


@pytest.mark.parametrize("error", [EndpointUnavailable, InvalidParameter])
@pytest.mark.parametrize("workers", [1, 4])
def test_no_source_starts_after_a_walk_raised(workers, error):
    ids, source, target, s2t = one_candidate_sources(20)
    raised = threading.Event()

    def on_source(index):
        # source 0 answers after 0.3 s and source 1 raises at once; every
        # other source waits for that raise and then answers after 10 ms
        if index == 0:
            time.sleep(0.3)
        elif index == 1:
            raised.set()
            raise error("source 1 failed")
        else:
            assert raised.wait(timeout=10)
            time.sleep(0.01)

    llm = SourceIndexClient(ids, on_source)

    def run():
        return match_baseline(
            None, s2t, llm, TEMPLATE, source_onto=source, target_onto=target,
            max_workers=workers,
        )

    if error is EndpointUnavailable:
        report = run()
        assert report.partial is True
        assert "source 1 failed" in report.abort_reason
        assert report.trace == [TraceEvent(ids[0], 1, f"T{ids[0]}", OUTCOME_LLM_NO)]
    else:
        with pytest.raises(InvalidParameter, match="source 1 failed"):
            run()
    # sources 0 and 1 always start; the only others are those already
    # running next to them
    assert llm.started <= set(range(max(workers, 2)))


@pytest.mark.skipif(os.name != "posix", reason="sends SIGINT to its own process")
def test_ctrl_c_stops_taking_sources_and_waits_for_running_walks():
    workers = 4
    ids, source, target, s2t = one_candidate_sources(40)

    def on_source(index):
        if index == 10:
            os.kill(os.getpid(), signal.SIGINT)
        time.sleep(0.02)

    llm = SourceIndexClient(ids, on_source)
    previous = signal.signal(signal.SIGINT, signal.default_int_handler)
    try:
        with pytest.raises(KeyboardInterrupt):
            match_baseline(
                None, s2t, llm, TEMPLATE, source_onto=source,
                target_onto=target, max_workers=workers,
            )
    finally:
        signal.signal(signal.SIGINT, previous)
    assert not any(
        thread.is_alive()
        for thread in llm.threads
        if thread is not threading.current_thread()
    )
    assert 10 in llm.started
    assert len(llm.started) <= 10 + workers


def test_match_workers_bound_chat_requests_in_flight():
    ids, source, target, s2t = one_candidate_sources(8)

    def behavior(payload, index):
        # Yes for every other source, whatever order the requests come in
        prompt = payload["messages"][0]["content"]
        reply = "Yes" if any(f"target {sid}" in prompt for sid in ids[::2]) else "No"
        return 200, {"choices": [{"message": {"content": reply}}]}

    traces = {}
    with RecordingServer(behavior, delay_s=0.05) as server:
        for workers in (1, 2):
            client = HttpChatClient(server.url, model="m", backoff_seconds=0.01)
            traces[workers] = match_baseline(
                None, s2t, client, TEMPLATE, source_onto=source,
                target_onto=target, max_workers=workers,
            ).trace
        assert server.max_in_flight <= 2
        assert len(server.payloads) == 2 * len(ids)
    assert traces[2] == traces[1]
    assert [e.outcome for e in traces[1]] == [OUTCOME_LLM_YES, OUTCOME_LLM_NO] * 4


def test_parallel_run_matches_sequential(tmp_path):
    corpus = generate_corpus(
        tmp_path / "corpus", n_entities=12, hcb_fraction=0.5, seed=3
    )
    pipeline = load_corpus_pipeline(corpus)
    outputs = []
    # a short switch interval interleaves the threads taking source indices;
    # a source taken twice would show in the client's own query count
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for workers in (1, 4, 16):
            llm = OracleClient(pipeline["reference"])
            report = run_mila(pipeline, llm, max_workers=workers)
            alignment_path = tmp_path / f"a{workers}.tsv"
            trace_path = tmp_path / f"t{workers}.tsv"
            write_alignment(report.alignment, alignment_path)
            write_trace(report.trace, trace_path)
            outputs.append(
                (
                    alignment_path.read_bytes(),
                    trace_path.read_bytes(),
                    report.llm_query_count,
                    llm.query_count,
                    report.hcb_count,
                )
            )
    finally:
        sys.setswitchinterval(interval)
    assert outputs[0] == outputs[1] == outputs[2]


def test_mila_never_queries_more_than_baseline(tmp_path):
    for seed, fraction in ((0, 1.0), (1, 0.5), (2, 0.25)):
        corpus = generate_corpus(
            tmp_path / f"c{seed}", n_entities=10,
            hcb_fraction=fraction, seed=seed,
        )
        pipeline = load_corpus_pipeline(corpus)
        mila = run_mila(pipeline, OracleClient(pipeline["reference"]))
        base = run_baseline(pipeline, OracleClient(pipeline["reference"]))
        assert mila.llm_query_count <= base.llm_query_count
        assert mila.alignment.pairs == base.alignment.pairs
        assert evaluate(mila.alignment, pipeline["reference"]).f_measure == 1.0


WALK_SOURCES = ["S0", "S1", "S2", "S3"]
WALK_TARGETS = ["T0", "T1", "T2", "T3"]


@st.composite
def ranked_lists(draw, owners, others):
    """Random rank-ordered candidate lists; few distinct scores, many ties."""
    lists = {}
    for owner in owners:
        ids = draw(st.permutations(others))[: draw(st.integers(0, len(others)))]
        scores = draw(
            st.lists(st.sampled_from([0.95, 0.9, 0.8]),
                     min_size=len(ids), max_size=len(ids))
        )
        lists[owner] = list(zip(ids, sorted(scores, reverse=True)))
    return lists


@settings(deadline=None, max_examples=150)
@given(
    s2t_lists=ranked_lists(WALK_SOURCES, WALK_TARGETS),
    t2s_lists=ranked_lists(WALK_TARGETS, WALK_SOURCES),
    reference=st.sets(
        st.tuples(st.sampled_from(WALK_SOURCES), st.sampled_from(WALK_TARGETS))
    ),
    flip=st.sampled_from([0.0, 0.3]),
    seed=st.integers(0, 7),
)
def test_walks_equal_the_linear_scan(s2t_lists, t2s_lists, reference, flip, seed):
    source = make_ontology("S", {sid: [f"label {sid}"] for sid in WALK_SOURCES})
    target = make_ontology("T", {tid: [f"label {tid}"] for tid in WALK_TARGETS})
    s2t = make_db("s2t", "S", "T", s2t_lists)
    t2s = make_db("t2s", "T", "S", t2s_lists)
    judge = OracleClient(reference, flip_probability=flip, seed=seed)

    def answer(source_id, target_id):
        return judge.classify("", pair=(source_id, target_id)).is_yes

    runs = [
        ("mila", True, lambda llm: match_mila(
            None, s2t, t2s, llm, TEMPLATE, source_onto=source, target_onto=target)),
        ("mila", False, lambda llm: match_mila(
            None, s2t, t2s, llm, TEMPLATE, source_onto=source, target_onto=target,
            hcb_enabled=False)),
        ("baseline", True, lambda llm: match_baseline(
            None, s2t, llm, TEMPLATE, source_onto=source, target_onto=target)),
    ]
    for pipeline, hcb_enabled, run in runs:
        llm = OracleClient(reference, flip_probability=flip, seed=seed)
        report = run(llm)
        trace, accepted, queries = oracle_walk(
            pipeline, s2t_lists, t2s_lists, answer, WALK_SOURCES, hcb_enabled
        )
        assert [
            (e.source_id, e.rank, e.candidate_id, e.outcome) for e in report.trace
        ] == trace
        assert report.alignment.pairs == {(s, t) for s, (t, _) in accepted.items()}
        assert {
            c.source_id: (c.target_id, c.provenance)
            for c in report.alignment.correspondences
        } == accepted
        assert report.llm_query_count == llm.query_count == queries


@settings(deadline=None, max_examples=150)
@given(
    s2t_lists=ranked_lists(WALK_SOURCES, WALK_TARGETS),
    t2s_lists=ranked_lists(WALK_TARGETS, WALK_SOURCES),
)
def test_identify_is_symmetric_under_a_swap(s2t_lists, t2s_lists):
    source = make_ontology("S", {sid: [f"label {sid}"] for sid in WALK_SOURCES})
    target = make_ontology("T", {tid: [f"label {tid}"] for tid in WALK_TARGETS})
    s2t = make_db("s2t", "S", "T", s2t_lists)
    t2s = make_db("t2s", "T", "S", t2s_lists)
    forward = outcomes(identify(None, s2t, t2s, target))
    backward = outcomes(identify(None, t2s, s2t, source))
    for (source_id, target_id), outcome in forward.items():
        if (target_id, source_id) in backward:
            assert backward[target_id, source_id] == outcome
        else:
            assert outcome == OUTCOME_NOT_BIDIRECTIONAL
    off = outcomes(identify(None, s2t, t2s, target, hcb_enabled=False))
    assert OUTCOME_HCB_ACCEPT not in off.values()
    assert off == {
        pair: None if outcome == OUTCOME_HCB_ACCEPT else outcome
        for pair, outcome in forward.items()
    }
    assert set(outcomes(identify(None, s2t, None, target)).values()) <= {None}
