"""Acceptance gate: the nine headline properties, one verdict line each.

Each criterion prints `criterion N: PASS/FAIL` with capture suspended so
the verdicts are visible in any pytest run, then asserts normally.
"""

import json
import os
import random
import subprocess
import sys
import time
from types import SimpleNamespace

import pytest

import ontomatch

from ontomatch.config import RunConfig, snapshot
from ontomatch.embedding import SCORE_DECIMALS, DeterministicProvider, round_scores
from ontomatch.evaluation import evaluate, load_reference
from ontomatch.llm import OracleClient, PromptTemplate
from ontomatch.matcher import (
    PROVENANCE_HCB,
    match_baseline,
    match_mila,
    write_alignment,
)
from ontomatch.ontology import load_ontology
from ontomatch.retrieval import (
    build_candidate_dbs,
    build_kb,
    save_candidate_db,
)
from ontomatch.synth import generate_corpus, generate_flat_corpus

from conftest import load_corpus_pipeline, make_ontology
from oracles import oracle_cosine, oracle_first_positive, oracle_metrics, oracle_round
from stubs import ScriptedClient

TEMPLATE = PromptTemplate.default()


@pytest.fixture
def verdict(capsys):
    def _verdict(number, description, body):
        try:
            detail = body()
        except BaseException as exc:
            with capsys.disabled():
                print(f"criterion {number}: FAIL - {description}: {exc}", flush=True)
            raise
        suffix = f" [{detail}]" if detail else ""
        with capsys.disabled():
            print(f"criterion {number}: PASS - {description}{suffix}", flush=True)

    return _verdict


def test_criterion_1_worked_example_fixtures(disease_pipeline, verdict):
    def body():
        start = time.perf_counter()
        s2t, t2s = disease_pipeline["s2t"], disease_pipeline["t2s"]
        kwargs = dict(
            source_onto=disease_pipeline["source"],
            target_onto=disease_pipeline["target"],
        )
        scores = s2t.candidates_of("ncit:C3745")
        assert scores.score_of("DOID:4880") == 0.95621
        assert scores.score_of("DOID:4233") == 0.80521

        hcb_run = match_mila(
            ["ncit:C61325"], s2t, t2s, ScriptedClient([]), TEMPLATE, **kwargs
        )
        assert hcb_run.llm_query_count == 0
        assert hcb_run.hcb_count == 1
        assert hcb_run.alignment.pairs == {("ncit:C61325", "DOID:4880")}
        assert hcb_run.alignment.correspondences[0].provenance == PROVENANCE_HCB

        scripted = ScriptedClient(["No", "Yes"])
        escalated = match_mila(
            ["ncit:C3745"], s2t, t2s, scripted, TEMPLATE, **kwargs
        )
        assert escalated.llm_query_count == 2
        assert escalated.alignment.pairs == {("ncit:C3745", "DOID:4233")}
        assert [e.outcome for e in escalated.trace] == ["LLM-no", "LLM-yes"]

        elapsed = time.perf_counter() - start
        assert elapsed < 1.0
        return f"{elapsed * 1000:.0f} ms"

    verdict(1, "fixture scores 0.80521/0.95621, HCB accept, 2nd-call accept", body)


def _grouped_entities(prefix, labels):
    """Assign labels to entities; every fifth entity carries two labels."""
    entities = {}
    position = 0
    index = 0
    while position < len(labels):
        take = 2 if index % 5 == 4 and position + 1 < len(labels) else 1
        chosen = labels[position:position + take]
        if take == 2 and chosen[0] == chosen[1]:
            chosen = chosen[:1]
        entities[f"{prefix}{index:04d}"] = chosen
        position += take
        index += 1
    return entities


def _cached_tops(query_labels, corpus_vectors, vectors):
    """Per query label, the five best corpus labels with score >= 0.

    For any k <= 5 and tau >= 0, filtering this prefix by tau and cutting
    at k equals the full all-pairs scan, because the sort key is
    (-score, label) and the tau filter keeps a prefix of that order.
    """
    tops = {}
    for query in query_labels:
        scored = []
        for label, vec in corpus_vectors.items():
            score = oracle_round(oracle_cosine(vectors[query], vec))
            if score >= 0.0:
                scored.append((label, score))
        scored.sort(key=lambda item: (-item[1], item[0]))
        tops[query] = scored[:5]
    return tops


def _oracle_direction_rows(query_entities, owners_by_label, tops, vectors, k, tau):
    labels_of = {}
    for label, label_owners in owners_by_label.items():
        for owner in label_owners:
            labels_of.setdefault(owner, []).append(label)
    lines = []
    for entity_id in sorted(query_entities):
        hit_labels = set()
        for label in query_entities[entity_id]:
            hits = [h for h in tops[label] if h[1] >= tau][:k]
            hit_labels.update(h[0] for h in hits)
        owners = set()
        for hit in hit_labels:
            owners.update(owners_by_label[hit])
        ranked = []
        for owner in owners:
            # the best over every label the candidate owns, hit or not
            best = max(
                oracle_round(oracle_cosine(vectors[label], vectors[other]))
                for label in query_entities[entity_id]
                for other in labels_of[owner]
            )
            ranked.append((owner, best))
        ranked.sort(key=lambda item: (-item[1], item[0]))
        for candidate_id, score in ranked:
            lines.append(f"{entity_id}\t{candidate_id}\t{score:.5f}")
    return "".join(line + "\n" for line in lines)


def _db_data_rows(db, tmp_path, name):
    path = tmp_path / name
    save_candidate_db(db, path)
    with open(path, "r", encoding="utf-8") as handle:
        return "".join(
            line for line in handle if not line.startswith("#")
        )


def test_criterion_2_retrieval_matches_brute_force(tmp_path, verdict):
    sizes = [
        (20, 25), (30, 40), (40, 30), (50, 60), (60, 50), (70, 80),
        (80, 100), (100, 90), (110, 120), (120, 110), (130, 140),
        (150, 140), (160, 170), (180, 190), (200, 210), (90, 75),
        (45, 55), (65, 35), (600, 580), (1000, 950),
    ]
    combos = [(k, tau) for k in (1, 3, 5) for tau in (0.0, 0.75, 0.9)]

    def body():
        start = time.perf_counter()
        for index, (n_source, n_target) in enumerate(sizes):
            source_labels = [f"s {index} {j}" for j in range(n_source)]
            target_labels = [f"t {index} {j}" for j in range(n_target)]
            for j in range(0, n_target, 7):
                target_labels[j] = source_labels[j % n_source]
            for j in range(1, n_target, 11):
                target_labels[j] = target_labels[j - 1]
            source_entities = _grouped_entities(f"S{index}:", source_labels)
            target_entities = _grouped_entities(f"T{index}:", target_labels)
            source_onto = make_ontology("SRC", source_entities)
            target_onto = make_ontology("TGT", target_entities)

            provider = DeterministicProvider(dim=16, seed=900 + index)
            all_labels = sorted(set(source_labels) | set(target_labels))
            matrix = provider.encode(all_labels)
            vectors = {
                label: [float(x) for x in row]
                for label, row in zip(all_labels, matrix)
            }
            source_kb = build_kb(source_onto, provider)
            target_kb = build_kb(target_onto, provider)

            owners = {"s2t": {}, "t2s": {}}
            for entity_id, labels in target_entities.items():
                for label in labels:
                    owners["s2t"].setdefault(label, set()).add(entity_id)
            for entity_id, labels in source_entities.items():
                for label in labels:
                    owners["t2s"].setdefault(label, set()).add(entity_id)
            tops = {
                "s2t": _cached_tops(
                    set(source_labels),
                    {l: vectors[l] for l in owners["s2t"]},
                    vectors,
                ),
                "t2s": _cached_tops(
                    set(target_labels),
                    {l: vectors[l] for l in owners["t2s"]},
                    vectors,
                ),
            }

            for k, tau in combos:
                s2t, t2s = build_candidate_dbs(
                    source_onto, target_onto, source_kb, target_kb, k=k, tau=tau
                )
                assert _db_data_rows(s2t, tmp_path, "s2t.tsv") == (
                    _oracle_direction_rows(
                        source_entities, owners["s2t"], tops["s2t"], vectors, k, tau
                    )
                )
                assert _db_data_rows(t2s, tmp_path, "t2s.tsv") == (
                    _oracle_direction_rows(
                        target_entities, owners["t2s"], tops["t2s"], vectors, k, tau
                    )
                )
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0
        return f"20 corpora x 9 (k, tau) combos in {elapsed:.1f} s"

    verdict(2, "retrieval byte-identical to the all-pairs oracle", body)


def test_criterion_3_escalation_equals_linear_scan(tmp_path, verdict):
    grid = [
        (5, 1.0, 0.0, 0.0), (8, 0.5, 0.0, 0.0), (10, 0.2, 0.0, 0.0),
        (12, 0.75, 0.3, 0.0), (15, 0.4, 0.0, 0.1), (16, 0.5, 0.0, 0.0),
        (20, 0.1, 0.0, 0.0), (24, 0.8, 0.5, 0.0), (25, 0.6, 0.0, 0.2),
        (30, 0.5, 0.2, 0.1), (36, 0.9, 0.0, 0.0), (40, 0.3, 0.0, 0.0),
        (48, 0.5, 0.4, 0.0), (50, 0.7, 0.0, 0.1), (60, 0.25, 0.0, 0.0),
        (70, 0.5, 0.0, 0.0), (80, 0.8, 0.3, 0.05), (90, 0.4, 0.0, 0.0),
        (100, 0.5, 0.0, 0.1), (100, 0.9, 0.2, 0.0),
    ]

    def body():
        start = time.perf_counter()
        for index, (n, hcb_fraction, synonym_rate, noise_level) in enumerate(grid):
            corpus = generate_corpus(
                tmp_path / f"c{index}",
                n_entities=n,
                synonym_rate=synonym_rate,
                noise_level=noise_level,
                hcb_fraction=hcb_fraction,
                seed=index,
            )
            pipeline = load_corpus_pipeline(corpus)
            reference = pipeline["reference"]
            report = match_mila(
                None, pipeline["s2t"], pipeline["t2s"], OracleClient(reference),
                TEMPLATE, source_onto=pipeline["source"],
                target_onto=pipeline["target"], hcb_enabled=False,
            )
            assert report.hcb_count == 0
            s2t_lists = {
                sid: list(cl.candidates) for sid, cl in pipeline["s2t"].lists.items()
            }
            t2s_lists = {
                tid: list(cl.candidates) for tid, cl in pipeline["t2s"].lists.items()
            }
            expected = {}
            for source_id in s2t_lists:
                accepted = oracle_first_positive(
                    s2t_lists, t2s_lists, reference, source_id
                )
                if accepted is not None:
                    expected[source_id] = accepted
            assert dict(report.alignment.pairs) == expected
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0
        return f"20 corpora in {elapsed:.1f} s"

    verdict(3, "first-positive descent equals the linear-scan oracle", body)


@pytest.fixture(scope="module")
def budget_corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("budget")
    corpus = generate_corpus(root, n_entities=500, hcb_fraction=0.8, seed=0)
    return corpus, load_corpus_pipeline(corpus)


def test_criterion_4_query_budget(budget_corpus, verdict):
    def body():
        start = time.perf_counter()
        corpus, pipeline = budget_corpus
        reference = pipeline["reference"]
        kwargs = dict(
            source_onto=pipeline["source"], target_onto=pipeline["target"]
        )
        mila = match_mila(
            None, pipeline["s2t"], pipeline["t2s"], OracleClient(reference),
            TEMPLATE, **kwargs,
        )
        base = match_baseline(
            None, pipeline["s2t"], OracleClient(reference), TEMPLATE, **kwargs
        )
        budget = (1.0 - 0.8) * 500 * 5
        assert mila.llm_query_count <= budget
        assert base.llm_query_count == pipeline["s2t"].total_candidates == 2500
        ratio = mila.llm_query_count / base.llm_query_count
        assert ratio <= 0.25
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0
        return (
            f"{mila.llm_query_count} vs {base.llm_query_count} queries, "
            f"ratio {ratio:.3f}, {elapsed:.1f} s"
        )

    verdict(4, "n=500 h=0.8: escalation stays within the query budget", body)


def test_criterion_5_perfect_components_give_perfect_scores(budget_corpus, verdict):
    def body():
        corpus, pipeline = budget_corpus
        reference = pipeline["reference"]
        report = match_mila(
            None, pipeline["s2t"], pipeline["t2s"], OracleClient(reference),
            TEMPLATE, source_onto=pipeline["source"],
            target_onto=pipeline["target"],
        )
        scored = evaluate(report.alignment, reference)
        assert scored.precision == 1.0
        assert scored.recall == 1.0
        assert scored.f_measure == 1.0
        return "P=R=F=1.0 exactly"

    verdict(5, "perfect oracle and clean corpus reach P=R=F=1.0", body)


def test_criterion_6_noisy_oracle_is_reproducible(tmp_path, verdict):
    def body():
        corpus = generate_corpus(
            tmp_path / "c", n_entities=60, hcb_fraction=0.5, seed=11
        )
        pipeline = load_corpus_pipeline(corpus)
        reference = pipeline["reference"]

        def run(flip):
            client = OracleClient(
                reference, flip_probability=flip, seed=7
            )
            return match_mila(
                None, pipeline["s2t"], pipeline["t2s"], client, TEMPLATE,
                source_onto=pipeline["source"], target_onto=pipeline["target"],
            )

        first, second = run(0.1), run(0.1)
        path_a, path_b = tmp_path / "a.tsv", tmp_path / "b.tsv"
        write_alignment(first.alignment, path_a)
        write_alignment(second.alignment, path_b)
        assert path_a.read_bytes() == path_b.read_bytes()

        f_measure = evaluate(first.alignment, reference).f_measure
        assert 0.0 <= f_measure <= 1.0

        hcb_sets = []
        counts = []
        for flip in (0.0, 0.1, 0.5):
            report = run(flip)
            counts.append(report.hcb_count)
            hcb_sets.append({
                (c.source_id, c.target_id)
                for c in report.alignment.correspondences
                if c.provenance == PROVENANCE_HCB
            })
        assert counts[0] == counts[1] == counts[2] == first.hcb_count
        assert hcb_sets[0] == hcb_sets[1] == hcb_sets[2]
        return f"F={f_measure:.3f} under flips, {counts[0]} HCB accepts invariant"

    verdict(6, "flip-0.1 oracle run byte-reproducible, HCB immune to flips", body)


def test_criterion_7_metric_correctness(verdict):
    def body():
        aligned = {("s1", "t1"), ("s2", "t2"), ("s3", "t3"), ("s4", "t4")}
        reference = {
            ("s1", "t1"), ("s2", "t2"), ("s3", "t3"), ("s4", "tX"), ("s5", "t5")
        }
        report = evaluate(
            SimpleNamespace(pairs=aligned), frozenset(reference)
        )
        assert report.precision == 0.75
        assert report.recall == 0.6
        assert round_scores([report.f_measure])[0] == 0.66667

        rng = random.Random(0)
        universe = [(f"s{i}", f"t{j}") for i in range(15) for j in range(15)]
        for _ in range(1000):
            a = set(rng.sample(universe, rng.randint(0, 12)))
            r = set(rng.sample(universe, rng.randint(0, 12)))
            scored = evaluate(SimpleNamespace(pairs=a), frozenset(r))
            precision, recall, f_measure = oracle_metrics(a, r)
            assert scored.precision == precision
            assert scored.recall == recall
            assert scored.f_measure == f_measure
            assert 0.0 <= scored.f_measure <= 1.0
            # real-arithmetic mean bounds, with one-ulp slack for floats
            if precision > 0.0 and recall > 0.0:
                assert min(precision, recall) <= f_measure
                assert f_measure <= max(precision, recall) + 1e-12
            else:
                assert f_measure == 0.0
        return "hand triple plus 1000 randomized (A, R) pairs"

    verdict(7, "P=0.75 R=0.6 F=0.66667 and harmonic-mean bounds", body)


def test_criterion_8_default_settings(verdict):
    def body():
        config = RunConfig()
        assert config.k == 5
        assert config.tau == 0.75
        assert config.llm_temperature == 0.7
        lines = snapshot(config).splitlines()
        assert "k = 5" in lines
        assert "tau = 0.75" in lines
        assert "llm.temperature = 0.7" in lines
        assert SCORE_DECIMALS == 5
        assert round_scores([0.123456789])[0] == 0.12346
        assert round_scores([0.000005])[0] == 1e-05
        return "k=5, tau=0.75, temperature=0.7, 5-decimal half-up rounding"

    verdict(8, "default configuration matches the reported settings", body)


def hundred_k_build(flat) -> float:
    """Criterion 9's workload with its correctness checks; wall seconds.

    Loads and embeds 50,000 labels a side and builds both candidate DBs.
    """
    start = time.perf_counter()
    source = load_ontology(flat["source_path"], name="SRC")
    target = load_ontology(flat["target_path"], name="TGT")
    provider = DeterministicProvider(dim=64, seed=0)
    source_kb = build_kb(source, provider)
    target_kb = build_kb(target, provider)
    s2t, t2s = build_candidate_dbs(
        source, target, source_kb, target_kb, k=5, tau=0.75
    )
    elapsed = time.perf_counter() - start

    assert len(s2t.lists) == 50000
    reference = load_reference(flat["reference_path"])
    assert len(reference) == 500
    for source_id, target_id in reference:
        assert s2t.lists[source_id].score_of(target_id) == 1.0
    return elapsed


CRITERION_9_TIMEOUT_S = 1800.0


def peak_rss_kib() -> int:
    """This process's peak RSS in KiB, its VmHWM; Linux only.

    VmHWM starts afresh at exec, whereas the ru_maxrss os.wait4 reports for
    a child starts from its parent's peak, so it could hide the workload's.
    """
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise AssertionError("no VmHWM line in /proc/self/status")


# Runs hundred_k_build in a fresh interpreter and prints its wall time and
# how far the workload raised the interpreter's own peak RSS.
_CRITERION_9_CHILD = (
    "import json, sys\n"
    "from test_acceptance import hundred_k_build, peak_rss_kib\n"
    "before = peak_rss_kib()\n"
    "keys = ('source_path', 'target_path', 'reference_path')\n"
    "elapsed = hundred_k_build(dict(zip(keys, sys.argv[1:])))\n"
    "print(json.dumps({'elapsed': elapsed, 'growth_kib': peak_rss_kib() - before}))\n"
)


def hundred_k_build_in_subprocess(flat) -> tuple[float, int]:
    """(wall seconds, peak RSS growth in bytes) of hundred_k_build run in a
    child process, as the child measures its own peak."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (
            os.path.dirname(os.path.abspath(__file__)),
            os.path.dirname(os.path.dirname(os.path.abspath(ontomatch.__file__))),
            env.get("PYTHONPATH"),
        ) if p
    )
    paths = [
        str(flat[key]) for key in ("source_path", "target_path", "reference_path")
    ]
    proc = subprocess.run(
        [sys.executable, "-c", _CRITERION_9_CHILD, *paths],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=env,
        timeout=CRITERION_9_TIMEOUT_S,
    )
    assert proc.returncode == 0, proc.stdout
    result = json.loads(proc.stdout.splitlines()[-1])
    return result["elapsed"], result["growth_kib"] * 1024


@pytest.mark.skipif(
    sys.platform != "linux",
    reason="peak RSS comes from /proc/self/status, which is Linux only",
)
def test_criterion_9_hundred_thousand_label_smoke(tmp_path, verdict):
    def body():
        flat = generate_flat_corpus(
            tmp_path / "flat", 50000, overlap_fraction=0.01, seed=0
        )
        elapsed, peak_growth = hundred_k_build_in_subprocess(flat)

        assert elapsed < CRITERION_9_TIMEOUT_S
        assert peak_growth < 2 * 1024 ** 3
        return (
            f"100k labels in {elapsed:.0f} s, "
            f"peak RSS growth {peak_growth / 2**20:.0f} MiB"
        )

    verdict(9, "100,000-label build finishes in time with bounded memory", body)
