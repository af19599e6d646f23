"""Candidate databases: each query entity's ranked candidates in one
direction, and their text format.

retrieval builds them; matcher walks them. This module needs no numpy, so
the verbs that only read candidate DBs (match) start without it.
"""

from __future__ import annotations

from .errors import MalformedRecord, StaleKB, UnknownEntity, refuse_assignment
from .fileio import (
    atomic_write_text, format_header, parse_score, read_header, read_records,
)
from .ontology import Ontology

DIRECTION_S2T = "s2t"
DIRECTION_T2S = "t2s"


class CandidateList:
    """Ranked candidate entities for one query entity; immutable.

    candidates is ((entity_id, rounded_score), ...) in rank order.
    """

    __slots__ = ("candidates",)
    __setattr__ = refuse_assignment

    def __init__(self, candidates: tuple[tuple[str, float], ...]):
        object.__setattr__(self, "candidates", candidates)

    def __len__(self) -> int:
        return len(self.candidates)

    def ids(self) -> tuple[str, ...]:
        return tuple(entity_id for entity_id, _ in self.candidates)

    def score_of(self, entity_id: str) -> float | None:
        for candidate_id, score in self.candidates:
            if candidate_id == entity_id:
                return score
        return None


class CandidateDB:
    """Every query entity's ranked candidate list for one direction."""

    def __init__(
        self, direction: str, query_name: str, corpus_name: str, k: int,
        tau: float, fingerprint: str, lists: dict[str, CandidateList] | None = None,
    ):
        self.direction, self.query_name = direction, query_name
        self.corpus_name, self.k, self.tau = corpus_name, k, tau
        self.fingerprint = fingerprint
        self.lists = {} if lists is None else lists

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


def _direction(text: str) -> str:
    if text not in (DIRECTION_S2T, DIRECTION_T2S):
        raise ValueError(text)
    return text


# In CandidateDB's argument order.
_DB_HEADER = (
    ("candidate-db", _direction), ("query", str), ("corpus", str),
    ("k", int), ("tau", float), ("provider", str),
)


def save_candidate_db(db: CandidateDB, path: str) -> None:
    """Persist a candidate DB sorted by (owner id, rank)."""
    values = (db.direction, db.query_name, db.corpus_name, db.k, db.tau, db.fingerprint)
    lines = [format_header(_DB_HEADER, values)]
    for owner in sorted(db.lists):
        for candidate_id, score in db.lists[owner].candidates:
            lines.append(f"{owner}\t{candidate_id}\t{score:.5f}\n")
    atomic_write_text(path, "".join(lines))


def load_candidate_db(path: str, query_ontology: Ontology) -> CandidateDB:
    """Load a candidate DB; unlisted entities share one empty list.

    The query ontology supplies the entity-id universe; owners in the file
    that it does not contain mean the DB belongs to different inputs. An
    owner may list a candidate once.
    """
    header = read_header(path, _DB_HEADER)
    per_owner: dict[str, list[tuple[str, float]]] = {}
    pairs: set[tuple[str, str]] = set()
    for line_no, (owner, candidate_id, score_field) in read_records(path, 3):
        score = parse_score(path, line_no, score_field, "score")
        bucket = per_owner.setdefault(owner, [])
        if bucket and bucket[-1][1] < score:
            raise MalformedRecord(
                path, line_no, f"scores for owner {owner!r} are not non-increasing"
            )
        if (owner, candidate_id) in pairs:
            raise MalformedRecord(path, line_no, f"repeated candidate {candidate_id!r}")
        pairs.add((owner, candidate_id))
        bucket.append((candidate_id, score))
    unknown = [owner for owner in per_owner if owner not in query_ontology]
    if unknown:
        raise StaleKB(
            f"{path} lists owner {min(unknown)!r} which {query_ontology.name!r} "
            "does not contain; the DB was built from different inputs"
        )
    lists = dict.fromkeys(query_ontology.ids, CandidateList(()))
    for owner, bucket in per_owner.items():
        lists[owner] = CandidateList(tuple(bucket))
    return CandidateDB(*header, lists=lists)
