"""Shared fixtures: a hand-built disease-ontology corpus and tiny helpers.

The corpus reproduces two worked matching scenarios end to end:

* ncit:C99383 (autoimmune nervous system disorder) retrieves four DOID
  candidates led by DOID:438 and is a high-confidence bidirectional match.
* ncit:C3745 (clear cell sarcoma of soft tissue) retrieves
  [DOID:4880, DOID:4233, DOID:4467, DOID:1115]; the 4880 pairing scores
  0.95621 yet is outranked on the reverse side by ncit:C61325, so the
  matcher must escalate to the classifier and accept DOID:4233 (0.80521)
  on the second query.

Vectors live on per-cluster axes plus one shared pad axis, so every
similarity is an exact designed product.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from ontomatch.embedding import PrecomputedFileProvider, write_vector_file
from ontomatch.ontology import Entity, Ontology, load_ontology
from ontomatch.retrieval import CandidateDB, CandidateList, build_candidate_dbs, build_kb

AXIS_A, AXIS_B, AXIS_C, AXIS_W = 0, 1, 2, 3
DIM = 4

NCIT_DUMP = """\
# source ontology dump
ncit:C3745\tclear cell sarcoma of soft tissue\tclear cell sarcoma - not kidney
ncit:C61325\tchildhood clear cell sarcoma of the kidney
ncit:C99383\tautoimmune nervous system disorder
"""

DOID_DUMP = """\
# target ontology dump
DOID:438\tautoimmune disease of the nervous system
DOID:0060004\tautoimmune disease of central nervous system
DOID:417\tautoimmune disease
DOID:11465\tautonomic nervous system disease
DOID:4880\tkidney clear cell sarcoma\tchildhood kidney clear cell sarcoma|CCSK|clear cell sarcoma of the kidney (disorder)
DOID:4233\tclear cell sarcoma\tadult soft part clear cell sarcoma|clear cell chondrosarcoma
DOID:4467\trenal clear cell carcinoma
DOID:1115\tsarcoma
"""

REFERENCE_ROWS = """\
ncit:C3745\tDOID:4233
ncit:C61325\tDOID:4880
ncit:C99383\tDOID:438
"""


def _on_axis(axis: int, alpha: float) -> list[float]:
    """Unit vector with cosine alpha against the pure axis direction."""
    vec = [0.0] * DIM
    vec[axis] = alpha
    vec[AXIS_W] = math.sqrt(1.0 - alpha * alpha)
    return vec


def _pure(axis: int) -> list[float]:
    vec = [0.0] * DIM
    vec[axis] = 1.0
    return vec


def disease_vector_table() -> dict[str, list[float]]:
    childhood = _on_axis(AXIS_B, 0.95621)
    return {
        # NCIT labels.
        "clear cell sarcoma of soft tissue": _pure(AXIS_A),
        "clear cell sarcoma - not kidney": _pure(AXIS_B),
        "childhood clear cell sarcoma of the kidney": list(childhood),
        "autoimmune nervous system disorder": _pure(AXIS_C),
        # DOID clear cell sarcoma cluster.
        "kidney clear cell sarcoma": _on_axis(AXIS_B, 0.94),
        "childhood kidney clear cell sarcoma": childhood,
        "CCSK": [0.0, 0.3, 0.0, math.sqrt(0.91)],
        "clear cell sarcoma of the kidney (disorder)": [0.0, 0.2, 0.0, math.sqrt(0.96)],
        "clear cell sarcoma": _on_axis(AXIS_A, 0.80521),
        "adult soft part clear cell sarcoma": _on_axis(AXIS_A, 0.79),
        "clear cell chondrosarcoma": _on_axis(AXIS_A, 0.78),
        "renal clear cell carcinoma": _on_axis(AXIS_B, 0.77),
        "sarcoma": _on_axis(AXIS_B, 0.76),
        # DOID autoimmune cluster.
        "autoimmune disease of the nervous system": _on_axis(AXIS_C, 0.93),
        "autoimmune disease of central nervous system": _on_axis(AXIS_C, 0.88),
        "autoimmune disease": _on_axis(AXIS_C, 0.80),
        "autonomic nervous system disease": _on_axis(AXIS_C, 0.78),
    }


@pytest.fixture(scope="session")
def disease_corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("disease-corpus")
    source_path = root / "ncit.tsv"
    target_path = root / "doid.tsv"
    vectors_path = root / "vectors.tsv"
    reference_path = root / "reference.tsv"
    source_path.write_text(NCIT_DUMP, encoding="utf-8")
    target_path.write_text(DOID_DUMP, encoding="utf-8")
    reference_path.write_text(REFERENCE_ROWS, encoding="utf-8")
    write_vector_file(
        vectors_path,
        {label: np.asarray(vec, dtype=np.float64) for label, vec in disease_vector_table().items()},
    )
    return {
        "root": root,
        "source_path": source_path,
        "target_path": target_path,
        "vectors_path": vectors_path,
        "reference_path": reference_path,
    }


@pytest.fixture(scope="session")
def disease_pipeline(disease_corpus):
    """Ontologies, provider, KBs, and candidate databases at k=5, tau=0.75."""
    source = load_ontology(disease_corpus["source_path"], name="NCIT")
    target = load_ontology(disease_corpus["target_path"], name="DOID")
    provider = PrecomputedFileProvider(disease_corpus["vectors_path"])
    source_kb = build_kb(source, provider)
    target_kb = build_kb(target, provider)
    s2t, t2s = build_candidate_dbs(source, target, source_kb, target_kb, k=5, tau=0.75)
    return {
        "source": source,
        "target": target,
        "provider": provider,
        "source_kb": source_kb,
        "target_kb": target_kb,
        "s2t": s2t,
        "t2s": t2s,
        "reference_path": disease_corpus["reference_path"],
    }


def make_ontology(name: str, labels_by_id: dict[str, list[str]]) -> Ontology:
    """Build an ontology from {entity_id: [preferred, synonym, ...]}."""
    entities = tuple(
        Entity(id=entity_id, preferred_label=labels[0], synonyms=tuple(labels[1:]))
        for entity_id, labels in labels_by_id.items()
    )
    return Ontology(name=name, entities=entities)


def load_corpus_pipeline(corpus, k: int = 5, tau: float = 0.75) -> dict:
    """Load a generated corpus into ontologies, KBs, and candidate DBs."""
    from ontomatch.evaluation import load_reference

    source = load_ontology(corpus.source_path, name="SOURCE")
    target = load_ontology(corpus.target_path, name="TARGET")
    provider = PrecomputedFileProvider(corpus.vectors_path)
    source_kb = build_kb(source, provider)
    target_kb = build_kb(target, provider)
    s2t, t2s = build_candidate_dbs(source, target, source_kb, target_kb, k=k, tau=tau)
    return {
        "source": source,
        "target": target,
        "provider": provider,
        "source_kb": source_kb,
        "target_kb": target_kb,
        "s2t": s2t,
        "t2s": t2s,
        "reference": load_reference(corpus.reference_path),
    }


def make_db(
    direction: str,
    query_name: str,
    corpus_name: str,
    lists: dict[str, list[tuple[str, float]]],
    k: int = 5,
    tau: float = 0.75,
    fingerprint: str = "test/fp",
) -> CandidateDB:
    """Assemble a candidate database directly from ranked lists."""
    built = {
        owner: CandidateList(tuple(pairs))
        for owner, pairs in lists.items()
    }
    return CandidateDB(
        direction=direction,
        query_name=query_name,
        corpus_name=corpus_name,
        k=k,
        tau=tau,
        fingerprint=fingerprint,
        lists=built,
    )
