"""Independent brute-force reference implementations.

Everything here is written directly from the documented contracts using
plain Python (math.fsum, Decimal, linear scans) so it shares no code with
the package under test. The engine's vectorized results are cross-checked
against these oracles for byte-identical agreement. The one numpy oracle,
oracle_direction_lists, is the all-float64 retrieval kernel that the
float32 prefilter of build_candidate_dbs must reproduce.
"""

from __future__ import annotations

import math
from decimal import ROUND_HALF_UP, Decimal

import numpy as np

_QUANTUM = Decimal("0.00001")


def oracle_round(value: float) -> float:
    """Round half up to 5 decimal places via the decimal module."""
    return float(Decimal(repr(float(value))).quantize(_QUANTUM, rounding=ROUND_HALF_UP))


def oracle_cosine(u, v) -> float:
    """Cosine similarity with compensated summation, no numpy."""
    dot = math.fsum(a * b for a, b in zip(u, v))
    nu = math.sqrt(math.fsum(a * a for a in u))
    nv = math.sqrt(math.fsum(a * a for a in v))
    return dot / (nu * nv)


def oracle_top_k_labels(corpus_vectors, query_vector, k, tau):
    """All-pairs scan: rounded scores >= tau, sorted by (-score, label), cut at k.

    corpus_vectors: mapping of label -> vector.
    Returns a list of (label, rounded_score).
    """
    qualifying = []
    for label, vec in corpus_vectors.items():
        score = oracle_round(oracle_cosine(query_vector, vec))
        if score >= tau:
            qualifying.append((label, score))
    qualifying.sort(key=lambda item: (-item[1], item[0]))
    return qualifying[:k]


def oracle_entity_candidates(
    entity_labels,
    owners_by_label,
    source_vectors,
    corpus_vectors,
    k,
    tau,
):
    """Candidate entities for one source entity, by exhaustive enumeration.

    entity_labels: the source entity's label strings.
    owners_by_label: corpus label -> set of owning entity ids.
    source_vectors: source label -> vector.
    corpus_vectors: corpus label -> vector.
    Returns a list of (entity_id, rounded_score) sorted by (-score, id).
    """
    hit_labels: set[str] = set()
    for label in entity_labels:
        for hit, _score in oracle_top_k_labels(
            corpus_vectors, source_vectors[label], k, tau
        ):
            hit_labels.add(hit)
    per_entity: dict[str, float] = {}
    for hit in hit_labels:
        for owner in owners_by_label[hit]:
            per_entity.setdefault(owner, 0.0)
    for owner in per_entity:
        best = None
        for src_label in entity_labels:
            for hit in hit_labels:
                if owner not in owners_by_label[hit]:
                    continue
                score = oracle_round(
                    oracle_cosine(source_vectors[src_label], corpus_vectors[hit])
                )
                if best is None or score > best:
                    best = score
        per_entity[owner] = best
    return sorted(per_entity.items(), key=lambda item: (-item[1], item[0]))


def oracle_candidate_rows(
    query_entities,
    corpus_entities,
    vectors,
    k,
    tau,
):
    """Serialize a whole direction the way the candidate database does.

    query_entities / corpus_entities: mapping of entity id -> list of labels.
    vectors: label -> vector for every label on both sides.
    Returns the data rows (no headers) as a single string.
    """
    owners_by_label: dict[str, set[str]] = {}
    for entity_id, labels in corpus_entities.items():
        for label in labels:
            owners_by_label.setdefault(label, set()).add(entity_id)
    corpus_vectors = {label: vectors[label] for label in owners_by_label}
    lines = []
    for entity_id in sorted(query_entities):
        candidates = oracle_entity_candidates(
            query_entities[entity_id],
            owners_by_label,
            vectors,
            corpus_vectors,
            k,
            tau,
        )
        for candidate_id, score in candidates:
            lines.append(f"{entity_id}\t{candidate_id}\t{score:.5f}")
    return "".join(line + "\n" for line in lines)


# The float64 kernel's prefilter: rounding to 5 decimals moves a value by at
# most 5e-6, so these margins never drop a pair the exact rule keeps.
_TAU_MARGIN = 1.5e-5
_RANK_MARGIN = 2.0e-5


def oracle_top_rows_batch(query_unit, corpus_kb, k, tau):
    """Per query unit row: [(corpus row, rounded score), ...] in final rank
    order, from the full float64 score matrix, one row at a time."""
    sims = query_unit @ corpus_kb.unit_matrix.T
    results = []
    for row in sims:
        keep = np.flatnonzero(row >= tau - _TAU_MARGIN)
        if keep.size > k:
            vals = row[keep]
            kth = np.partition(vals, -k)[-k]
            keep = keep[vals >= kth - _RANK_MARGIN]
        hits = []
        for idx in keep:
            score = oracle_round(float(row[idx]))
            if score >= tau:
                hits.append((int(idx), score))
        hits.sort(key=lambda pair: (-pair[1], corpus_kb.labels[pair[0]]))
        results.append(hits[:k])
    return results


def oracle_direction_lists(query_onto, query_kb, corpus_kb, k, tau):
    """One direction of build_candidate_dbs, as the float64 kernel computed
    it: entity id -> ((candidate id, rounded score), ...).

    A query entity's candidates are the owners of its labels' hits, each
    scored by the max float64 cosine over (entity labels) x (the hit labels
    it owns), rounded once and ordered by (score desc, id asc).
    """
    hits_by_row = oracle_top_rows_batch(query_kb.unit_matrix, corpus_kb, k, tau)
    lists = {}
    for entity in query_onto:
        rows = [query_kb.label_to_row[label] for label in entity.labels]
        union = sorted({hit for r in rows for hit, _ in hits_by_row[r]})
        if not union:
            lists[entity.id] = ()
            continue
        cross = query_kb.unit_matrix[rows] @ corpus_kb.unit_matrix[union].T
        best = {}
        for j, hit in enumerate(union):
            raw = float(cross[:, j].max())
            for owner in corpus_kb.owners[hit]:
                best[owner] = max(best.get(owner, raw), raw)
        lists[entity.id] = tuple(sorted(
            ((owner, oracle_round(raw)) for owner, raw in best.items()),
            key=lambda pair: (-pair[1], pair[0]),
        ))
    return lists


def oracle_first_positive(s2t_lists, t2s_lists, reference_pairs, source_id):
    """Linear scan for the first bidirectional reference-positive candidate.

    s2t_lists / t2s_lists: entity id -> list of (candidate id, score) in
    rank order. Returns the accepted target id or None.
    """
    for candidate_id, _score in s2t_lists.get(source_id, []):
        back = {cid for cid, _s in t2s_lists.get(candidate_id, [])}
        if source_id not in back:
            continue
        if (source_id, candidate_id) in reference_pairs:
            return candidate_id
    return None


def oracle_walk(pipeline, s2t_lists, t2s_lists, answer, sources, hcb_enabled=True):
    """Replay one matching pipeline by a linear scan over plain ranked lists.

    s2t_lists / t2s_lists: entity id -> list of (candidate id, score) in rank
    order. answer(source_id, target_id) -> bool is the LLM's verdict.
    pipeline "mila" skips candidates whose list does not hold the source,
    accepts a pair whose one score tops both lists outright (unless
    hcb_enabled is False), otherwise asks and stops at the first Yes;
    "baseline" asks on every candidate and keeps the first Yes.
    Returns (trace, accepted, queries): trace is a list of
    (source, rank, candidate, outcome), accepted maps source id ->
    (target id, provenance), queries counts the answers asked for.
    """
    trace = []
    accepted = {}
    queries = 0
    for source_id in sources:
        own = s2t_lists.get(source_id, [])
        for rank, (candidate_id, score) in enumerate(own, start=1):
            if pipeline == "mila":
                back = t2s_lists.get(candidate_id, [])
                back_scores = [s for cid, s in back if cid == source_id]
                if not back_scores:
                    trace.append((source_id, rank, candidate_id, "not-bidirectional"))
                    continue
                if hcb_enabled and score == back_scores[0] == own[0][1] == back[0][1]:
                    trace.append((source_id, rank, candidate_id, "HCB-accept"))
                    accepted[source_id] = (candidate_id, "HCB")
                    break
            queries += 1
            yes = answer(source_id, candidate_id)
            outcome = "LLM-yes" if yes else "LLM-no"
            trace.append((source_id, rank, candidate_id, outcome))
            if yes and source_id not in accepted:
                accepted[source_id] = (
                    candidate_id,
                    "LLM-confirmed" if pipeline == "mila" else "baseline-LLM",
                )
                if pipeline == "mila":
                    break
    return trace, accepted, queries


def oracle_metrics(alignment_pairs, reference_pairs):
    """Precision, recall, f-measure from first principles."""
    aligned = set(alignment_pairs)
    reference = set(reference_pairs)
    overlap = len(aligned & reference)
    precision = overlap / len(aligned) if aligned else 0.0
    recall = overlap / len(reference) if reference else 0.0
    if precision + recall == 0.0:
        f_measure = 0.0
    else:
        f_measure = 2.0 * precision * recall / (precision + recall)
    return precision, recall, f_measure
