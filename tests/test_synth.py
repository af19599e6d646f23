"""Synthetic corpus generation: designed geometry, planned counts, noise."""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from ontomatch.embedding import DeterministicProvider, load_vector_file
from ontomatch.errors import InvalidParameter
from ontomatch.evaluation import evaluate, load_reference
from ontomatch.llm import PromptTemplate, make_oracle
from ontomatch.matcher import is_hcb, match_baseline, match_mila
from ontomatch.ontology import load_ontology
from ontomatch.retrieval import build_candidate_dbs, build_kb
from ontomatch.synth import generate_corpus, generate_flat_corpus

from conftest import load_corpus_pipeline

TEMPLATE = PromptTemplate.default()


def file_digest(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def test_generation_is_deterministic(tmp_path):
    kwargs = dict(n_entities=15, synonym_rate=0.4, noise_level=0.2,
                  hcb_fraction=0.6, seed=11)
    first = generate_corpus(tmp_path / "a", **kwargs)
    second = generate_corpus(tmp_path / "b", **kwargs)
    for attr in ("source_path", "target_path", "reference_path", "vectors_path"):
        assert file_digest(getattr(first, attr)) == file_digest(getattr(second, attr))
    assert first.sabotaged_sources == second.sabotaged_sources
    assert first.planned == second.planned


def test_manifest_counts_and_planned_values(tmp_path):
    corpus = generate_corpus(tmp_path / "c", n_entities=20, hcb_fraction=0.8, seed=7)
    assert corpus.n_pairs == 20
    assert corpus.hcb_pairs == 16
    assert corpus.parasite_pairs == 4
    assert corpus.dim == 2 + 16 + 4
    assert corpus.planned["hcb_accepts"] == 16
    assert corpus.planned["mila_llm_calls"] == 8
    assert corpus.planned["baseline_llm_calls"] == 100
    assert corpus.planned["sum_source_candidates"] == 100
    manifest = json.loads(Path(corpus.manifest_path).read_text())
    assert manifest["n_pairs"] == 20
    assert manifest["planned"]["mila_llm_calls"] == 8
    assert manifest["files"]["vectors"] == "vectors.tsv"


def test_rank_pruned_parasites_cost_one_call(tmp_path):
    # 2 anchors, 18 parasites: 9 per anchor, 4 visible + 5 pruned each.
    corpus = generate_corpus(tmp_path / "c", n_entities=20, hcb_fraction=0.1, seed=3)
    assert corpus.hcb_pairs == 2
    assert corpus.parasite_pairs == 18
    assert corpus.planned["mila_llm_calls"] == 2 * (2 * 4 + 5)
    pipeline = load_corpus_pipeline(corpus)
    report = match_mila(
        None, pipeline["s2t"], pipeline["t2s"], make_oracle(pipeline["reference"]),
        TEMPLATE, source_onto=pipeline["source"], target_onto=pipeline["target"],
    )
    assert report.llm_query_count == corpus.planned["mila_llm_calls"]
    assert report.hcb_count == 2
    assert evaluate(report.alignment, pipeline["reference"]).f_measure == 1.0


@pytest.mark.parametrize(
    "n, hcb_fraction, synonym_rate, noise_level, seed",
    [
        (10, 1.0, 0.0, 0.0, 0),
        (12, 0.5, 0.0, 0.0, 1),
        (20, 0.8, 0.0, 0.0, 7),
        (9, 0.3, 0.0, 0.0, 2),
        (10, 0.6, 0.5, 0.0, 4),
        (10, 0.8, 0.0, 0.2, 5),
        (14, 0.75, 0.3, 0.15, 6),
    ],
)
def test_generated_corpora_run_as_planned(
    tmp_path, n, hcb_fraction, synonym_rate, noise_level, seed
):
    corpus = generate_corpus(
        tmp_path / "c",
        n_entities=n,
        synonym_rate=synonym_rate,
        noise_level=noise_level,
        hcb_fraction=hcb_fraction,
        seed=seed,
    )
    pipeline = load_corpus_pipeline(corpus)
    mila = match_mila(
        None, pipeline["s2t"], pipeline["t2s"], make_oracle(pipeline["reference"]),
        TEMPLATE, source_onto=pipeline["source"], target_onto=pipeline["target"],
    )
    base = match_baseline(
        None, pipeline["s2t"], make_oracle(pipeline["reference"]),
        TEMPLATE, source_onto=pipeline["source"], target_onto=pipeline["target"],
    )
    live = n - len(corpus.sabotaged_sources)
    assert mila.hcb_count == corpus.planned["hcb_accepts"]
    if corpus.planned["mila_llm_calls"] is not None:
        assert mila.llm_query_count == corpus.planned["mila_llm_calls"]
        assert base.llm_query_count == corpus.planned["baseline_llm_calls"]
        assert (
            pipeline["s2t"].total_candidates
            == corpus.planned["sum_source_candidates"]
        )
    assert base.llm_query_count == pipeline["s2t"].total_candidates
    assert len(mila.alignment) == live
    assert len(base.alignment) == live
    scored = evaluate(mila.alignment, pipeline["reference"])
    assert scored.precision == 1.0
    assert scored.recall == live / n
    for sabotaged in corpus.sabotaged_sources:
        assert all(s != sabotaged for s, _ in mila.alignment.pairs)
    assert mila.alignment.pairs == base.alignment.pairs
    assert mila.llm_query_count <= base.llm_query_count


def test_zero_hcb_fraction_yields_empty_candidates(tmp_path):
    corpus = generate_corpus(tmp_path / "c", n_entities=6, hcb_fraction=0.0, seed=0)
    assert corpus.hcb_pairs == 0
    assert corpus.planned == {
        "hcb_accepts": 0,
        "mila_llm_calls": 0,
        "baseline_llm_calls": 0,
        "sum_source_candidates": 0,
    }
    pipeline = load_corpus_pipeline(corpus)
    assert pipeline["s2t"].total_candidates == 0
    assert pipeline["t2s"].total_candidates == 0
    report = match_mila(
        None, pipeline["s2t"], pipeline["t2s"], make_oracle(pipeline["reference"]),
        TEMPLATE, source_onto=pipeline["source"], target_onto=pipeline["target"],
    )
    assert report.llm_query_count == 0
    assert report.hcb_count == 0
    assert len(report.alignment) == 0


def test_tiny_fraction_rounds_down_to_degenerate(tmp_path):
    corpus = generate_corpus(tmp_path / "c", n_entities=10, hcb_fraction=0.04, seed=0)
    assert corpus.hcb_pairs == 0
    assert corpus.hcb_fraction == 0.04
    assert corpus.dim == 11


def test_synonyms_share_the_entity_vector(tmp_path):
    corpus = generate_corpus(
        tmp_path / "c", n_entities=8, synonym_rate=1.0, hcb_fraction=0.5, seed=2
    )
    vectors = load_vector_file(corpus.vectors_path)
    source = load_ontology(corpus.source_path, name="S")
    for entity in source:
        assert len(entity.labels) == 2
        preferred, synonym = entity.labels
        assert synonym == f"{preferred} variant"
        np.testing.assert_array_equal(vectors[preferred], vectors[synonym])


def test_generator_parameter_validation(tmp_path):
    with pytest.raises(InvalidParameter):
        generate_corpus(tmp_path / "a", n_entities=0)
    with pytest.raises(InvalidParameter):
        generate_corpus(tmp_path / "b", n_entities=5, hcb_fraction=1.5)
    with pytest.raises(InvalidParameter):
        generate_corpus(tmp_path / "c", n_entities=5, noise_level=-0.1)
    with pytest.raises(InvalidParameter):
        generate_corpus(tmp_path / "d", n_entities=5, synonym_rate=2.0)
    # 8 of 10 pairs are parasites on 2 anchors; both anchors are exempt,
    # so at most 8 sources can be sabotaged and 90% asks for 9.
    with pytest.raises(InvalidParameter):
        generate_corpus(
            tmp_path / "e", n_entities=10, hcb_fraction=0.2, noise_level=0.9
        )


def test_flat_corpus_plants_exact_copies(tmp_path):
    flat = generate_flat_corpus(tmp_path / "f", 200, overlap_fraction=0.05, seed=1)
    assert flat["planted_pairs"] == 10
    source = load_ontology(flat["source_path"], name="S")
    target = load_ontology(flat["target_path"], name="T")
    assert len(source) == 200 and len(target) == 200
    source_labels = {e.preferred_label for e in source}
    target_labels = {e.preferred_label for e in target}
    assert len(source_labels & target_labels) == 10
    reference = load_reference(flat["reference_path"])
    assert len(reference) == 10
    again = generate_flat_corpus(tmp_path / "g", 200, overlap_fraction=0.05, seed=1)
    assert file_digest(flat["source_path"]) == file_digest(again["source_path"])


def test_flat_corpus_planted_pairs_are_hcb(tmp_path):
    flat = generate_flat_corpus(tmp_path / "f", 100, overlap_fraction=0.05, seed=0)
    source = load_ontology(flat["source_path"], name="S")
    target = load_ontology(flat["target_path"], name="T")
    provider = DeterministicProvider(dim=32, seed=0)
    s2t, t2s = build_candidate_dbs(
        source, target, build_kb(source, provider), build_kb(target, provider),
        k=5, tau=0.75,
    )
    reference = load_reference(flat["reference_path"])
    for source_id, target_id in reference.pairs:
        assert s2t.lists[source_id].score_of(target_id) == 1.0
        assert is_hcb(s2t, t2s, source_id, target_id)
    report = match_mila(
        None, s2t, t2s, make_oracle(reference), TEMPLATE,
        source_onto=source, target_onto=target,
    )
    scored = evaluate(report.alignment, reference)
    assert scored.precision == 1.0
    assert scored.recall == 1.0
    assert report.hcb_count == len(reference)


def test_flat_corpus_parameter_validation(tmp_path):
    with pytest.raises(InvalidParameter):
        generate_flat_corpus(tmp_path / "a", 0)
    with pytest.raises(InvalidParameter):
        generate_flat_corpus(tmp_path / "b", 10, overlap_fraction=1.5)
