"""Independent brute-force reference implementations.

Everything here is written directly from the documented contracts using
plain Python (math.fsum, Decimal, linear scans) so it shares no code with
the package under test. The engine's vectorized results are cross-checked
against these oracles for byte-identical agreement. Two oracles use numpy:
oracle_direction_lists, the all-float64 retrieval kernel that the float32
prefilter of build_candidate_dbs must reproduce (its entity scores are
row-wise dots of unit rows, one label pair at a time), and
oracle_row_survivors,
the prefilter's row cut as it was before it counted each row's scores at
or above the floor.

oracle_load_vector_file is the vector-file parser as it was before files
were parsed in blocks, kept as the reference for rows, digest and error
text: it parses one row at a time and shares the package's record reader
and error type, which define the line grammar and message format. Its
digest is the sha256 of the file's bytes, read apart from the parse.

oracle_read_records and oracle_load_ontology are the record grammar and the
label-dump parser as they were before load_ontology parsed each line in its
own loop: a line end is stripped twice, as LF then CR, a line is blank when
its strip() is empty, and each entity is parsed apart, then checked against
a set of the ids seen. They share only the error and entity types and
normalize_label, the one label rule.
"""

from __future__ import annotations

import hashlib
import math
from decimal import ROUND_HALF_UP, Decimal

import numpy as np

from ontomatch.errors import DuplicateEntityId, EmptyOntology, MalformedRecord
from ontomatch.fileio import read_records
from ontomatch.ontology import Entity, Ontology, normalize_label

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


def oracle_hash_vector(label: str, dim: int, seed: int) -> np.ndarray:
    """The deterministic embedder's row for one label: one default_rng each.

    sha256(f"{seed}:{label}")'s first 8 bytes, big-endian, seed
    np.random.default_rng; its standard_normal(dim) draw is divided by its
    np.linalg.norm.
    """
    digest = hashlib.sha256(f"{seed}:{label}".encode("utf-8")).digest()
    rng = np.random.default_rng(int.from_bytes(digest[:8], "big"))
    vector = rng.standard_normal(dim)
    norm = np.linalg.norm(vector)
    if norm == 0.0:  # astronomically unlikely; keep the invariant anyway
        vector[0] = 1.0
        norm = 1.0
    return vector / norm


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
    The candidates are the owners of the entity's labels' hits; each scores
    the best rounded cosine over every (entity label, candidate label) pair.
    Returns a list of (entity_id, rounded_score) sorted by (-score, id).
    """
    owners: set[str] = set()
    for label in entity_labels:
        for hit, _score in oracle_top_k_labels(
            corpus_vectors, source_vectors[label], k, tau
        ):
            owners.update(owners_by_label[hit])
    per_entity = {}
    for owner in owners:
        per_entity[owner] = max(
            oracle_round(oracle_cosine(source_vectors[src_label], corpus_vectors[label]))
            for src_label in entity_labels
            for label, label_owners in owners_by_label.items()
            if owner in label_owners
        )
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


def oracle_unit_matrix(kb):
    """A KB's rows divided by their 2-norms, the whole matrix at once."""
    return kb.matrix / np.linalg.norm(kb.matrix, axis=1)[:, None]


def oracle_top_rows_batch(query_unit, corpus_kb, k, tau):
    """Per query unit row: [(corpus row, rounded score), ...] in final rank
    order, from the full float64 score matrix, one row at a time."""
    sims = query_unit @ oracle_unit_matrix(corpus_kb).T
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


def oracle_direction_lists(query_onto, query_kb, corpus_onto, corpus_kb, k, tau):
    """One direction of build_candidate_dbs, one query entity at a time:
    entity id -> ((candidate id, rounded score), ...).

    A query entity's candidates are the corpus entities that name a hit of
    one of its labels in the corpus ontology. Each is scored by the max
    float64 cosine over every (entity label, candidate label) pair, a
    row-wise dot of the two unit rows, rounded once; the list is ordered by
    (score desc, id asc).
    """
    query_unit = oracle_unit_matrix(query_kb)
    corpus_unit = oracle_unit_matrix(corpus_kb)
    hits_by_row = oracle_top_rows_batch(query_unit, corpus_kb, k, tau)
    rows_of = {
        entity.id: [corpus_kb.labels.index(label) for label in entity.labels]
        for entity in corpus_onto
    }
    lists = {}
    for entity in query_onto:
        rows = [query_kb.labels.index(label) for label in entity.labels]
        hit_rows = {hit for r in rows for hit, _ in hits_by_row[r]}
        owners = {
            owner for owner, owner_rows in rows_of.items()
            if hit_rows.intersection(owner_rows)
        }
        scored = []
        for owner in owners:
            left, right = zip(*((r, c) for r in rows for c in rows_of[owner]))
            dots = np.einsum(
                "ij,ij->i", query_unit[list(left)], corpus_unit[list(right)]
            )
            scored.append((owner, oracle_round(float(dots.max()))))
        lists[entity.id] = tuple(sorted(scored, key=lambda pair: (-pair[1], pair[0])))
    return lists


def oracle_row_survivors(sims, k, floor, rank_margin):
    """(row, col) of the float32 scores at or above the floor and within
    rank_margin of their row's k-th largest score, with a partition of
    every live row wider than k. Rows whose maximum is below the floor
    cost no sort."""
    live = np.flatnonzero(sims.max(axis=1, initial=-np.inf) >= floor)
    block = sims if live.size == len(sims) else sims[live]
    cut = np.full(live.size, floor, dtype=np.float32)
    if live.size and block.shape[1] > k:
        kth = np.partition(block, -k, axis=1)[:, -k]
        cut = np.maximum(cut, kth - rank_margin)
    rows, cols = np.nonzero(block >= cut[:, None])
    return live[rows], cols


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


def oracle_vector_fingerprint(path) -> str:
    """A vector file's provider fingerprint, `file/d<dim>/<8 hex>`.

    The dim is the component count of the first line that is neither blank
    nor a comment; the hex is the start of the sha256 of the file's bytes,
    so any change to the bytes, a reordering or a respelling included,
    changes it.
    """
    with open(path, encoding="utf-8") as handle:
        for raw in handle:
            line = raw.rstrip("\n").rstrip("\r")
            if line.strip() and not line.lstrip().startswith("#"):
                dim = len(line.split("\t")[1].split(","))
                break
    with open(path, "rb") as handle:
        digest = hashlib.sha256(handle.read()).hexdigest()
    return f"file/d{dim}/{digest[:8]}"


def oracle_load_vector_file(path: str) -> tuple[dict[str, np.ndarray], str]:
    """Parse a precomputed-vector file: label<TAB>comma-separated floats.

    Comment (#) and blank lines are skipped. All rows must share one
    dimensionality and be finite. Returns the rows and the sha256 hex
    digest of the file's bytes. Each distinct token of a row is parsed once.
    """
    vectors: dict[str, np.ndarray] = {}
    dim: int | None = None
    for line_no, (label, payload) in read_records(path, 2):
        if not label:
            raise MalformedRecord(path, line_no, "empty label")
        if label in vectors:
            raise MalformedRecord(path, line_no, f"duplicate label {label!r}")
        tokens = payload.split(",")
        distinct = dict.fromkeys(tokens)
        try:
            values = list(map(float, distinct))
        except ValueError as exc:
            raise MalformedRecord(path, line_no, f"bad float: {exc}") from None
        if len(values) == len(tokens):  # no repeats, as in a dense row
            row = np.array(values, dtype=np.float64)
        else:
            parsed = dict(zip(distinct, values))
            row = np.fromiter(map(parsed.__getitem__, tokens), np.float64, len(tokens))
        if not np.isfinite(row).all():
            raise MalformedRecord(path, line_no, "non-finite vector component")
        if dim is None:
            dim = row.size
        elif row.size != dim:
            raise MalformedRecord(
                path, line_no, f"dimension {row.size} != first row's {dim}"
            )
        vectors[label] = row
    if not vectors:
        raise MalformedRecord(path, 0, "no vector rows")
    with open(path, "rb") as handle:
        return vectors, hashlib.sha256(handle.read()).hexdigest()


def oracle_read_records(path, n_fields=None):
    """Yield (line_no, fields) for each record of a tab-separated text file:
    blank and '#' lines skipped, LF then CR stripped, split on tab."""
    with open(path, encoding="utf-8") as handle:
        for line_no, raw in enumerate(handle, start=1):
            line = raw.rstrip("\n").rstrip("\r")
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            fields = line.split("\t")
            if n_fields is not None and len(fields) != n_fields:
                raise MalformedRecord(
                    path, line_no,
                    f"expected {n_fields} tab-separated fields, got {len(fields)}",
                )
            yield line_no, fields


def _oracle_parse_line(path, line_no, fields):
    if len(fields) == 2:
        fields.append("")
    if len(fields) != 3:
        raise MalformedRecord(
            path, line_no, f"expected 2 or 3 tab-separated fields, got {len(fields)}"
        )
    entity_id = fields[0].strip()
    preferred = normalize_label(fields[1])
    if not entity_id:
        raise MalformedRecord(path, line_no, "empty entity id")
    if not preferred:
        raise MalformedRecord(path, line_no, "empty preferred label")
    synonyms = []
    for raw in fields[2].split("|"):
        synonym = normalize_label(raw)
        if synonym and synonym != preferred and synonym not in synonyms:
            synonyms.append(synonym)
    return Entity(id=entity_id, preferred_label=preferred, synonyms=tuple(synonyms))


def oracle_load_ontology(path, name):
    """Parse a label dump: id<TAB>preferred[<TAB>syn1|syn2|...] per record.

    MalformedRecord at the offending line, DuplicateEntityId on a repeated
    id, EmptyOntology when no entity line remains.
    """
    entities = []
    seen = set()
    for line_no, fields in oracle_read_records(path):
        entity = _oracle_parse_line(path, line_no, fields)
        if entity.id in seen:
            raise DuplicateEntityId(
                f"{path}:{line_no}: entity id {entity.id!r} already defined"
            )
        seen.add(entity.id)
        entities.append(entity)
    if not entities:
        raise EmptyOntology(f"{path} contains no entities")
    return Ontology(name=name, entities=tuple(entities))
