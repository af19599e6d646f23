"""Precision/recall/F-measure scoring, reference handling, run comparison."""

import json
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ontomatch.errors import InvalidParameter, MalformedRecord, MismatchedInputs
from ontomatch.evaluation import (
    EvalReport,
    compare_runs,
    evaluate,
    load_reference,
    split_reference,
    write_eval_report,
    write_reference,
)
from ontomatch.fileio import write_records
from ontomatch.matcher import match_mila
from ontomatch.llm import PromptTemplate

from conftest import make_db, make_ontology
from oracles import oracle_metrics
from stubs import ScriptedClient


def test_perfect_alignment_scores_one():
    pairs = {("s1", "t1"), ("s2", "t2")}
    report = evaluate(pairs, frozenset(pairs))
    assert (report.precision, report.recall, report.f_measure) == (1.0, 1.0, 1.0)
    assert report.overlap_count == 2


def test_hand_worked_metrics():
    aligned = {("s1", "t1"), ("s2", "t2"), ("s3", "t3"), ("s4", "tX")}
    reference = frozenset(
        {("s1", "t1"), ("s2", "t2"), ("s3", "t3"), ("s5", "t5"), ("s6", "t6")}
    )
    report = evaluate(aligned, reference)
    assert report.precision == 0.75
    assert report.recall == 0.6
    assert abs(report.f_measure - 2.0 / 3.0) < 1e-12
    assert f"{report.f_measure:.5f}" == "0.66667"
    assert report.summary() == "P=0.750 R=0.600 F=0.667 (|A|=4, |R|=5, |A∩R|=3)"


def test_empty_alignment_and_empty_reference():
    report = evaluate(set(), frozenset({("s", "t")}))
    assert (report.precision, report.recall, report.f_measure) == (0.0, 0.0, 0.0)
    report = evaluate({("s", "t")}, frozenset())
    assert report.recall == 0.0
    assert report.f_measure == 0.0


def test_duplicates_and_order_do_not_matter():
    reference = frozenset({("s1", "t1"), ("s2", "t2")})
    as_list = [("s2", "t2"), ("s1", "t1"), ("s1", "t1")]
    as_set = {("s1", "t1"), ("s2", "t2")}
    assert evaluate(as_list, reference) == evaluate(as_set, reference)


def test_evaluate_accepts_alignment_objects():
    source = make_ontology("S", {"E": ["a"]})
    target = make_ontology("T", {"T:1": ["b"]})
    s2t = make_db("s2t", "S", "T", {"E": [("T:1", 0.9)]})
    t2s = make_db("t2s", "T", "S", {"T:1": [("E", 0.9)]})
    report = match_mila(
        None, s2t, t2s, ScriptedClient([]), PromptTemplate.default(),
        source_onto=source, target_onto=target,
    )
    scored = evaluate(report.alignment, frozenset({("E", "T:1")}))
    assert scored.f_measure == 1.0


def test_metadata_is_carried():
    report = evaluate(set(), frozenset(), metadata={"run": "x"})
    assert report.metadata == {"run": "x"}
    assert report._asdict()["metadata"] == {"run": "x"}


def test_reference_round_trip(tmp_path):
    reference = frozenset({("s2", "t2"), ("s1", "t1")})
    path = tmp_path / "reference.tsv"
    write_reference(reference, path)
    assert path.read_text() == "s1\tt1\ns2\tt2\n"
    loaded = load_reference(path)
    assert loaded == reference


def test_reference_duplicates_collapse(tmp_path):
    path = tmp_path / "reference.tsv"
    path.write_text("# comment\ns1\tt1\ns1\tt1\n\n", encoding="utf-8")
    assert len(load_reference(path)) == 1


@pytest.mark.parametrize("content", ["s1\n", "s1\tt1\textra\n", "\tt1\n", "s1\t\n"])
def test_reference_malformed(tmp_path, content):
    path = tmp_path / "bad.tsv"
    path.write_text(content, encoding="utf-8")
    with pytest.raises(MalformedRecord):
        load_reference(path)


def test_split_reference_partitions_deterministically():
    pairs = {(f"s{i}", f"t{i}") for i in range(20)}
    reference = frozenset(pairs)
    train, test = split_reference(reference, fraction=0.7, seed=5)
    train2, test2 = split_reference(reference, fraction=0.7, seed=5)
    assert train == train2 and test == test2
    assert train | test == pairs
    assert not train & test
    assert len(train) == 14 and len(test) == 6
    other_train, _ = split_reference(reference, fraction=0.7, seed=6)
    assert other_train != train


@pytest.mark.parametrize("fraction", [1.5, -0.5, float("nan"), float("inf")])
def test_split_fraction_outside_the_unit_interval_is_rejected(fraction):
    reference = frozenset({(f"s{i}", f"t{i}") for i in range(4)})
    with pytest.raises(InvalidParameter, match=r"fraction must be in \[0, 1\]"):
        split_reference(reference, fraction=fraction)
    train, test = split_reference(reference, fraction=1.0)
    assert (len(train), len(test)) == (4, 0)
    train, test = split_reference(reference, fraction=0.0)
    assert (len(train), len(test)) == (0, 4)


def test_eval_report_file(tmp_path):
    report = evaluate({("s", "t")}, frozenset({("s", "t")}))
    path = tmp_path / "eval.json"
    write_eval_report(report, path)
    data = json.loads(path.read_text())
    assert data["precision"] == 1.0
    assert data["aligned_count"] == 1


def make_report(pipeline, pairs, llm_queries, hcb, wall=2.0, **kwargs):
    from ontomatch.matcher import Alignment, Correspondence, MatchRunReport

    correspondences = tuple(
        Correspondence(s, t, "equivalence", 0.9, "HCB") for s, t in sorted(pairs)
    )
    alignment = Alignment(
        source_onto=kwargs.get("source_onto", "S"),
        target_onto=kwargs.get("target_onto", "T"),
        k=kwargs.get("k", 5),
        tau=kwargs.get("tau", 0.75),
        fingerprint=kwargs.get("fingerprint", "fp"),
        correspondences=correspondences,
    )
    return MatchRunReport(
        pipeline=pipeline,
        alignment=alignment,
        trace=[],
        llm_query_count=llm_queries,
        hcb_count=hcb,
        wall_times={"match": wall},
    )


def test_compare_runs_table_layout(tmp_path):
    reference = frozenset({("s1", "t1"), ("s2", "t2")})
    report_a = make_report("mila", {("s1", "t1"), ("s2", "t2")}, 4, 1, wall=0.1064)
    report_b = make_report("baseline", {("s1", "t1")}, 10, 0, wall=2.128)
    comparison = compare_runs(
        report_a, evaluate(report_a.alignment, reference),
        report_b, evaluate(report_b.alignment, reference),
    )
    text = comparison.render_text()
    lines = text.splitlines()
    assert lines[0].split() == ["metric", "mila", "baseline", "ratio"]
    table = {row[0]: row for row in comparison.rows}
    assert table["precision"] == ("precision", "1.000", "1.000", "1.000")
    assert table["recall"] == ("recall", "1.000", "0.500", "2.000")
    assert table["llm_queries"] == ("llm_queries", "4", "10", "0.400")
    assert table["hcb_count"] == ("hcb_count", "1", "0", "-")
    assert table["alignment_size"] == ("alignment_size", "2", "1", "2.000")
    assert table["match_wall_time"] == ("match_wall_time", "0.106", "2.128", "0.050")
    # compare.tsv holds the table's rows, header row first
    write_records(tmp_path / "compare.tsv", comparison.table())
    tsv = (tmp_path / "compare.tsv").read_text(encoding="utf-8")
    assert tsv.splitlines()[0] == "metric\tmila\tbaseline\tratio"
    assert len(tsv.splitlines()) == 1 + len(comparison.rows)


def test_compare_runs_equal_runs_give_unit_ratios():
    reference = frozenset({("s1", "t1")})
    report_a = make_report("mila", {("s1", "t1")}, 3, 2, wall=1.5)
    report_b = make_report("baseline", {("s1", "t1")}, 3, 2, wall=1.5)
    comparison = compare_runs(
        report_a, evaluate(report_a.alignment, reference),
        report_b, evaluate(report_b.alignment, reference),
    )
    assert all(row[3] == "1.000" for row in comparison.rows)


def test_compare_runs_rejects_mismatched_settings():
    reference = frozenset({("s1", "t1")})
    report_a = make_report("mila", {("s1", "t1")}, 1, 0)
    eval_a = evaluate(report_a.alignment, reference)
    for report_b in (
        make_report("baseline", {("s1", "t1")}, 1, 0, k=3),
        make_report("baseline", {("s1", "t1")}, 1, 0, tau=0.9),
        make_report("baseline", {("s1", "t1")}, 1, 0, fingerprint="fp2"),
        make_report("baseline", {("s1", "t1")}, 1, 0, source_onto="S2"),
    ):
        with pytest.raises(MismatchedInputs):
            compare_runs(
                report_a, eval_a, report_b, evaluate(report_b.alignment, reference)
            )
    report_b = make_report("baseline", {("s1", "t1")}, 1, 0)
    other_ref = frozenset({("s1", "t1"), ("s9", "t9")})
    with pytest.raises(MismatchedInputs):
        compare_runs(
            report_a, eval_a, report_b, evaluate(report_b.alignment, other_ref)
        )
    cut = report_b._replace(partial=True, abort_reason="chat endpoint gone")
    eval_b = evaluate(cut.alignment, reference)
    for runs in ((report_a, eval_a, cut, eval_b), (cut, eval_b, report_a, eval_a)):
        with pytest.raises(MismatchedInputs, match=r"the baseline run is partial "
                           r"\(chat endpoint gone\)"):
            compare_runs(*runs)


def test_metrics_match_oracle_on_random_pairs():
    rng = random.Random(0)
    universe = [(f"s{i}", f"t{j}") for i in range(12) for j in range(12)]
    for _ in range(1000):
        aligned = set(rng.sample(universe, rng.randint(0, 20)))
        reference = set(rng.sample(universe, rng.randint(0, 20)))
        report = evaluate(aligned, frozenset(reference))
        precision, recall, f_measure = oracle_metrics(aligned, reference)
        assert report.precision == precision
        assert report.recall == recall
        assert report.f_measure == f_measure
        assert 0.0 <= report.precision <= 1.0
        assert 0.0 <= report.recall <= 1.0
        assert 0.0 <= report.f_measure <= 1.0
        # The harmonic-mean bounds hold exactly in real arithmetic; float
        # evaluation of 2PR/(P+R) can overshoot by an ulp, hence the slack.
        if report.precision > 0.0 and report.recall > 0.0:
            assert min(report.precision, report.recall) <= report.f_measure + 1e-12
            assert report.f_measure <= max(report.precision, report.recall) + 1e-12
            assert report.f_measure <= (report.precision + report.recall) / 2.0 + 1e-12
        else:
            assert report.f_measure == 0.0


@given(
    st.sets(st.tuples(st.integers(0, 8), st.integers(0, 8)), max_size=20),
    st.sets(st.tuples(st.integers(0, 8), st.integers(0, 8)), max_size=20),
)
def test_f_measure_harmonic_mean_bounds(aligned_ints, reference_ints):
    aligned = {(f"s{a}", f"t{b}") for a, b in aligned_ints}
    reference = {(f"s{a}", f"t{b}") for a, b in reference_ints}
    report = evaluate(aligned, frozenset(reference))
    assert report.f_measure == pytest.approx(
        oracle_metrics(aligned, reference)[2], abs=0.0
    )
    if report.f_measure > 0.0:
        assert min(report.precision, report.recall) <= report.f_measure + 1e-12
        assert report.f_measure <= max(report.precision, report.recall) + 1e-12
    assert (report.f_measure == 0.0) == (report.overlap_count == 0)


def test_adding_a_correct_pair_never_lowers_recall():
    rng = random.Random(3)
    universe = [(f"s{i}", f"t{j}") for i in range(10) for j in range(10)]
    for _ in range(200):
        reference = set(rng.sample(universe, 15))
        aligned = set(rng.sample(universe, 10))
        missing_correct = list(reference - aligned)
        if not missing_correct:
            continue
        before = evaluate(aligned, frozenset(reference))
        aligned.add(rng.choice(missing_correct))
        after = evaluate(aligned, frozenset(reference))
        assert after.recall >= before.recall
        wrong = ("sX", "tX")
        worse = evaluate(aligned | {wrong}, frozenset(reference))
        assert worse.precision <= after.precision
