"""Vector KBs, thresholded top-k label retrieval, and candidate databases.

Retrieval is per label: each query label pulls the top-k corpus labels whose
rounded cosine clears the threshold tau (non-strict, so a score exactly at
tau is kept). A query entity's candidate entities are the owners of the union
of its labels' hits; the entity-level score is the max label-pair cosine over
(entity labels) x (hit labels owned by the candidate), rounded once.

Ties are deterministic: label hits order by (score desc, label asc), entity
candidates by (score desc, entity id asc), and the cut at k is applied after
that ordering.

The vectorized path only prefilters raw cosines with a safety margin wider
than the largest shift 5-decimal rounding can introduce; every surviving
score is then re-rounded with the scalar rule, so the batch path is exactly
the rounded semantics.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from .embedding import EmbeddingProvider, round_score
from .errors import (
    DimensionMismatch,
    InvalidParameter,
    MalformedRecord,
    StaleKB,
    UnknownEntity,
    ZeroVector,
)
from .fileio import atomic_write_bytes, atomic_write_text, read_header, read_records
from .ontology import Entity, Ontology

logger = logging.getLogger(__name__)

DIRECTION_S2T = "s2t"
DIRECTION_T2S = "t2s"

# Rounding to 5 decimals moves a value by at most 5e-6 (plus float slop), so
# a 1.5e-5 margin on the tau cut and 2e-5 on the rank cut can never exclude
# a pair that exact rounding would keep.
_TAU_MARGIN = 1.5e-5
_RANK_MARGIN = 2.0e-5

_DEF_CHUNK = 128


@dataclass(frozen=True)
class LabelHit:
    """One retrieved corpus label: its owners and the rounded score."""

    label: str
    entities: frozenset[str]
    score: float


@dataclass(frozen=True)
class CandidateList:
    """Ranked candidate entities for one query entity.

    candidates is ((entity_id, rounded_score), ...) in rank order.
    """

    owner: str
    direction: str
    candidates: tuple[tuple[str, float], ...]

    def __len__(self) -> int:
        return len(self.candidates)

    def ids(self) -> tuple[str, ...]:
        return tuple(entity_id for entity_id, _ in self.candidates)

    def score_of(self, entity_id: str) -> float | None:
        for candidate_id, score in self.candidates:
            if candidate_id == entity_id:
                return score
        return None

    @property
    def top_score(self) -> float | None:
        return self.candidates[0][1] if self.candidates else None


class VectorKB:
    """All label vectors of one ontology plus the owning-entity sets.

    Rows are unique labels. The provider fingerprint is stored so later
    stages can detect artifacts built under a different provider.
    """

    def __init__(
        self,
        ontology_name: str,
        labels: Sequence[str],
        owners: Sequence[frozenset[str]],
        matrix: np.ndarray,
        fingerprint: str,
    ):
        if len(labels) != len(owners) or len(labels) != matrix.shape[0]:
            raise DimensionMismatch("labels, owners, and matrix rows must align")
        if len(set(labels)) != len(labels):
            raise InvalidParameter("KB labels must be unique")
        self.ontology_name = ontology_name
        self.labels = list(labels)
        self.owners = [frozenset(o) for o in owners]
        self.matrix = np.asarray(matrix, dtype=np.float64)
        self.fingerprint = fingerprint
        self.dim = int(self.matrix.shape[1]) if self.matrix.size else 0
        self.label_to_row = {label: i for i, label in enumerate(self.labels)}
        norms = np.linalg.norm(self.matrix, axis=1)
        zero_rows = np.flatnonzero(norms == 0.0)
        if zero_rows.size:
            raise ZeroVector(
                f"label {self.labels[int(zero_rows[0])]!r} has a zero vector"
            )
        self._unit = self.matrix / norms[:, None]

    def __len__(self) -> int:
        return len(self.labels)

    @property
    def unit_matrix(self) -> np.ndarray:
        return self._unit

    def unit_rows(self, rows: Sequence[int]) -> np.ndarray:
        return self._unit[list(rows)]


def build_kb(
    ontology: Ontology, provider: EmbeddingProvider
) -> VectorKB:
    """Embed every distinct label of an ontology into a VectorKB."""
    owner_sets: dict[str, set[str]] = {}
    for entity in ontology:
        for label in entity.labels:
            owner_sets.setdefault(label, set()).add(entity.id)
    labels = sorted(owner_sets)
    matrix = provider.encode(labels)
    logger.info(
        "built KB for %s: %d labels, dim %d", ontology.name, len(labels), provider.dim
    )
    return VectorKB(
        ontology_name=ontology.name,
        labels=labels,
        owners=[frozenset(owner_sets[label]) for label in labels],
        matrix=matrix,
        fingerprint=provider.fingerprint,
    )


_KB_HEADER_KEYS = ("vector-kb", "dim", "provider", "rows")


def save_kb(kb: VectorKB, path: str) -> None:
    """Persist a KB as one binary file.

    Layout: four header lines (``# vector-kb <name>``, ``# dim <d>``,
    ``# provider <fingerprint>``, ``# rows <n>``), then n index lines
    ``label<TAB>owner,owner`` in sorted label order, then the n*d matrix
    as little-endian float64, row-major, in the same row order. Equal KBs
    give identical bytes.
    """
    order = sorted(range(len(kb.labels)), key=kb.labels.__getitem__)
    values = (kb.ontology_name, kb.dim, kb.fingerprint, len(order))
    lines = [f"# {key} {value}\n" for key, value in zip(_KB_HEADER_KEYS, values)]
    for i in order:
        label = kb.labels[i]
        if "\t" in label or "\n" in label:
            raise InvalidParameter(f"label {label!r} cannot contain tab or newline")
        owners = sorted(kb.owners[i])
        for owner in owners:
            if any(ch in owner for ch in ",\t\n"):
                raise InvalidParameter(
                    f"entity id {owner!r} cannot contain comma, tab or newline"
                )
        lines.append(f"{label}\t{','.join(owners)}\n")
    matrix = kb.matrix if order == list(range(len(order))) else kb.matrix[order]
    block = np.ascontiguousarray(matrix, dtype="<f8")
    atomic_write_bytes(path, "".join(lines).encode("utf-8"), block.data)


def _kb_count(path: str, line_no: int, key: str, value: str) -> int:
    try:
        count = int(value)
    except ValueError:
        count = 0
    if count < 1:
        raise MalformedRecord(path, line_no, f"bad {key} header {value!r}")
    return count


def load_kb(path: str, expected_fingerprint: str | None = None) -> VectorKB:
    """Load a KB written by save_kb; StaleKB if the fingerprint is not the
    expected one.

    Exactly four header lines and the number of index lines the rows header
    gives are parsed, so a label may start with '#'. The matrix is a
    read-only view of the file's bytes.
    """
    with open(path, "rb") as handle:
        data = handle.read()
    headers: dict[str, str] = {}
    pos = 0
    for line_no, key in enumerate(_KB_HEADER_KEYS, start=1):
        end = data.find(b"\n", pos)
        prefix = f"# {key} ".encode()
        if end < 0 or not data.startswith(prefix, pos):
            raise MalformedRecord(path, line_no, f"missing header '# {key} ...'")
        try:
            headers[key] = data[pos + len(prefix):end].decode("utf-8")
        except UnicodeDecodeError as exc:
            raise MalformedRecord(path, line_no, f"bad header: {exc}") from None
        pos = end + 1
    dim = _kb_count(path, 2, "dim", headers["dim"])
    rows = _kb_count(path, 4, "rows", headers["rows"])
    fingerprint = headers["provider"]
    if expected_fingerprint is not None and fingerprint != expected_fingerprint:
        raise StaleKB(
            f"{path} was built with provider {fingerprint!r}, "
            f"expected {expected_fingerprint!r}; rebuild the KB"
        )
    index_start = pos
    for row in range(rows):
        end = data.find(b"\n", pos)
        if end < 0:
            raise MalformedRecord(
                path, 5 + row, f"index ends after {row} of {rows} lines"
            )
        pos = end + 1
    expected_bytes = rows * dim * 8
    if len(data) - pos != expected_bytes:
        raise MalformedRecord(
            path, 5 + rows,
            f"matrix block has {len(data) - pos} bytes, expected {expected_bytes}",
        )
    try:
        index_lines = data[index_start:pos - 1].decode("utf-8").split("\n")
    except UnicodeDecodeError as exc:
        raise MalformedRecord(path, 5, f"bad index text: {exc}") from None
    labels: list[str] = []
    owners: list[frozenset[str]] = []
    for line_no, line in enumerate(index_lines, start=5):
        fields = line.split("\t")
        if len(fields) != 2:
            raise MalformedRecord(
                path, line_no, f"expected 2 tab-separated fields, got {len(fields)}"
            )
        label, owner_field = fields
        if not owner_field:
            raise MalformedRecord(path, line_no, "empty owner list")
        labels.append(label)
        owners.append(frozenset(owner_field.split(",")))
    matrix = np.frombuffer(data, dtype="<f8", count=rows * dim, offset=pos)
    matrix = matrix.reshape(rows, dim)
    finite = np.isfinite(matrix).all(axis=1)
    if not finite.all():
        row = int(np.flatnonzero(~finite)[0])
        raise MalformedRecord(
            path, 5 + row, f"label {labels[row]!r} has a non-finite vector value"
        )
    return VectorKB(
        ontology_name=headers["vector-kb"],
        labels=labels,
        owners=owners,
        matrix=matrix,
        fingerprint=fingerprint,
    )


def _validate_k_tau(k: int, tau: float) -> None:
    if k < 1:
        raise InvalidParameter(f"k must be >= 1, got {k}")
    if not 0.0 <= tau <= 1.0:
        raise InvalidParameter(f"tau must be in [0, 1], got {tau}")


def _top_rows_batch(
    query_unit: np.ndarray, kb: VectorKB, k: int, tau: float
) -> list[list[tuple[int, float]]]:
    """Per query row: [(kb_row, rounded_score), ...] in final rank order."""
    sims = query_unit @ kb.unit_matrix.T
    results: list[list[tuple[int, float]]] = []
    for row in sims:
        keep = np.flatnonzero(row >= tau - _TAU_MARGIN)
        if keep.size > k:
            vals = row[keep]
            kth = np.partition(vals, -k)[-k]
            keep = keep[vals >= kth - _RANK_MARGIN]
        hits: list[tuple[int, float]] = []
        for idx in keep:
            score = round_score(float(row[idx]))
            if score >= tau:
                hits.append((int(idx), score))
        hits.sort(key=lambda pair: (-pair[1], kb.labels[pair[0]]))
        results.append(hits[:k])
    return results


def top_k_labels(
    kb: VectorKB, query_vector: np.ndarray, k: int, tau: float
) -> list[LabelHit]:
    """Top-k corpus labels for one query vector, thresholded at tau."""
    _validate_k_tau(k, tau)
    vector = np.asarray(query_vector, dtype=np.float64)
    if vector.shape != (kb.dim,):
        raise DimensionMismatch(
            f"query vector has shape {vector.shape}, KB dim is {kb.dim}"
        )
    norm = float(np.linalg.norm(vector))
    if norm == 0.0:
        raise ZeroVector("cannot retrieve with a zero query vector")
    rows = _top_rows_batch(vector[None, :] / norm, kb, k, tau)[0]
    return [
        LabelHit(label=kb.labels[i], entities=kb.owners[i], score=score)
        for i, score in rows
    ]


def _entity_candidates(
    entity_id: str,
    query_unit_rows: np.ndarray,
    label_hits: list[list[tuple[int, float]]],
    corpus_kb: VectorKB,
    direction: str,
) -> CandidateList:
    """Assemble one entity's ranked candidates from its labels' hits."""
    union_rows = sorted({row for hits in label_hits for row, _ in hits})
    if not union_rows:
        return CandidateList(owner=entity_id, direction=direction, candidates=())
    cross = query_unit_rows @ corpus_kb.unit_rows(union_rows).T
    col_max = cross.max(axis=0)
    best_raw: dict[str, float] = {}
    for j, row in enumerate(union_rows):
        raw = float(col_max[j])
        for owner in corpus_kb.owners[row]:
            if owner not in best_raw or raw > best_raw[owner]:
                best_raw[owner] = raw
    ranked = sorted(
        ((owner, round_score(raw)) for owner, raw in best_raw.items()),
        key=lambda pair: (-pair[1], pair[0]),
    )
    return CandidateList(
        owner=entity_id, direction=direction, candidates=tuple(ranked)
    )


def candidate_entities(
    entity: Entity,
    provider: EmbeddingProvider,
    corpus_kb: VectorKB,
    k: int,
    tau: float,
    direction: str = DIRECTION_S2T,
) -> CandidateList:
    """Candidates for one entity, encoding its labels on the fly.

    The provider must be the one the KB was built with, otherwise the scores
    would mix embedding spaces; that mismatch raises StaleKB.
    """
    _validate_k_tau(k, tau)
    if provider.fingerprint != corpus_kb.fingerprint:
        raise StaleKB(
            f"provider {provider.fingerprint!r} does not match KB "
            f"{corpus_kb.fingerprint!r}"
        )
    vectors = provider.encode(list(entity.labels))
    norms = np.linalg.norm(vectors, axis=1)
    if (norms == 0.0).any():
        raise ZeroVector(f"entity {entity.id!r} has a zero label vector")
    unit = vectors / norms[:, None]
    hits = _top_rows_batch(unit, corpus_kb, k, tau)
    return _entity_candidates(entity.id, unit, hits, corpus_kb, direction)


@dataclass
class CandidateDB:
    """Every query entity's ranked candidate list for one direction."""

    direction: str
    query_name: str
    corpus_name: str
    k: int
    tau: float
    fingerprint: str
    lists: dict[str, CandidateList] = field(default_factory=dict)

    def candidates_of(self, entity_id: str) -> CandidateList:
        try:
            return self.lists[entity_id]
        except KeyError:
            raise UnknownEntity(
                f"{self.query_name!r} has no entity {entity_id!r} in this "
                "candidate DB"
            ) from None

    @property
    def total_candidates(self) -> int:
        return sum(len(lst) for lst in self.lists.values())


def _direction_candidates(
    query_onto: Ontology,
    query_kb: VectorKB,
    corpus_kb: VectorKB,
    k: int,
    tau: float,
    direction: str,
    chunk: int,
) -> dict[str, CandidateList]:
    n_labels = len(query_kb)
    hits_by_row: list[list[tuple[int, float]]] = []
    for start in range(0, n_labels, chunk):
        block = query_kb.unit_matrix[start:start + chunk]
        hits_by_row.extend(_top_rows_batch(block, corpus_kb, k, tau))
    lists: dict[str, CandidateList] = {}
    for entity in query_onto:
        rows = [query_kb.label_to_row[label] for label in entity.labels]
        lists[entity.id] = _entity_candidates(
            entity.id,
            query_kb.unit_rows(rows),
            [hits_by_row[r] for r in rows],
            corpus_kb,
            direction,
        )
    return lists


def build_candidate_dbs(
    source: Ontology,
    target: Ontology,
    source_kb: VectorKB,
    target_kb: VectorKB,
    k: int,
    tau: float,
    chunk: int = _DEF_CHUNK,
) -> tuple[CandidateDB, CandidateDB]:
    """Build both directional candidate DBs from prebuilt KBs."""
    _validate_k_tau(k, tau)
    if source_kb.fingerprint != target_kb.fingerprint:
        raise StaleKB(
            f"KBs were built with different providers: "
            f"{source_kb.fingerprint!r} vs {target_kb.fingerprint!r}"
        )
    if source_kb.dim != target_kb.dim:
        raise DimensionMismatch(
            f"KB dims differ: {source_kb.dim} vs {target_kb.dim}"
        )
    s2t = CandidateDB(
        direction=DIRECTION_S2T,
        query_name=source.name,
        corpus_name=target.name,
        k=k,
        tau=tau,
        fingerprint=source_kb.fingerprint,
        lists=_direction_candidates(
            source, source_kb, target_kb, k, tau, DIRECTION_S2T, chunk
        ),
    )
    t2s = CandidateDB(
        direction=DIRECTION_T2S,
        query_name=target.name,
        corpus_name=source.name,
        k=k,
        tau=tau,
        fingerprint=target_kb.fingerprint,
        lists=_direction_candidates(
            target, target_kb, source_kb, k, tau, DIRECTION_T2S, chunk
        ),
    )
    return s2t, t2s


def save_candidate_db(db: CandidateDB, path: str) -> None:
    """Persist a candidate DB sorted by (owner id, rank)."""
    lines = [
        f"# candidate-db {db.direction}",
        f"# query {db.query_name}",
        f"# corpus {db.corpus_name}",
        f"# k {db.k}",
        f"# tau {db.tau!r}",
        f"# provider {db.fingerprint}",
    ]
    for owner in sorted(db.lists):
        for candidate_id, score in db.lists[owner].candidates:
            lines.append(f"{owner}\t{candidate_id}\t{score:.5f}")
    atomic_write_text(path, "\n".join(lines) + "\n")


def load_candidate_db(path: str, query_ontology: Ontology) -> CandidateDB:
    """Load a candidate DB, restoring empty lists for unlisted entities.

    The query ontology supplies the entity-id universe; owners in the file
    that it does not contain mean the DB belongs to different inputs.
    """
    headers: dict[str, str] = {}
    for body in read_header(path):
        key, _, value = body.strip().partition(" ")
        if key:
            headers[key] = value.strip()
    for key in ("candidate-db", "query", "corpus", "k", "tau", "provider"):
        if key not in headers:
            raise MalformedRecord(path, 0, f"missing header '# {key} ...'")
    direction = headers["candidate-db"]
    if direction not in (DIRECTION_S2T, DIRECTION_T2S):
        raise MalformedRecord(path, 0, f"unknown direction {direction!r}")
    try:
        k = int(headers["k"])
        tau = float(headers["tau"])
    except ValueError as exc:
        raise MalformedRecord(path, 0, f"bad k/tau header: {exc}") from None
    per_owner: dict[str, list[tuple[str, float]]] = {}
    for line_no, (owner, candidate_id, score_field) in read_records(path, 3):
        try:
            score = float(score_field)
        except ValueError:
            raise MalformedRecord(
                path, line_no, f"bad score {score_field!r}"
            ) from None
        bucket = per_owner.setdefault(owner, [])
        if bucket and bucket[-1][1] < score:
            raise MalformedRecord(
                path, line_no, f"scores for owner {owner!r} are not non-increasing"
            )
        bucket.append((candidate_id, score))
    unknown = set(per_owner) - set(query_ontology.ids)
    if unknown:
        sample = sorted(unknown)[0]
        raise StaleKB(
            f"{path} lists owner {sample!r} which {query_ontology.name!r} does "
            "not contain; the DB was built from different inputs"
        )
    lists = {
        entity_id: CandidateList(
            owner=entity_id,
            direction=direction,
            candidates=tuple(per_owner.get(entity_id, ())),
        )
        for entity_id in query_ontology.ids
    }
    return CandidateDB(
        direction=direction,
        query_name=headers["query"],
        corpus_name=headers["corpus"],
        k=k,
        tau=tau,
        fingerprint=headers["provider"],
        lists=lists,
    )
