"""Vector KBs, thresholded top-k label retrieval, and the candidate
databases it builds (their type and file format live in candidates.py).

Retrieval is per label: each query label pulls the top-k corpus labels whose
rounded cosine clears the threshold tau (non-strict, so a score exactly at
tau is kept). A query entity's candidate entities are the owners of the union
of its labels' hits; the entity-level score is the max label-pair cosine over
(entity labels) x (hit labels owned by the candidate), rounded once.

Ties are deterministic: label hits order by (score desc, label asc), entity
candidates by (score desc, entity id asc), and the cut at k is applied after
that ordering.

Scores are found in two steps. A float32 prefilter computes cosines of the
unit rows cast to float32 and keeps every pair that could pass the exact
rule: at or above tau - _TAU_MARGIN - e, and within _RANK_MARGIN + 2e of
its row's k-th largest float32 score. The base margins cover the largest
shift 5-decimal rounding can introduce; e = f32_dot_error(dim) + a little
for cutting in float32 covers the float32 error, about (dim + 2) * 2**-24.
The exact rule then runs on the survivors only, as array work: row-wise
float64 dot products of the unit rows, round_scores, the tau cut, one
lexsort by (query row, score desc, label asc) and the cut at k by position
in each row's run, so the result is exactly the rounded semantics.

build_candidate_dbs runs the prefilter for both directions in one pass over
row blocks of the score matrix, with the larger KB's labels as rows and
the smaller KB held whole in float32 as columns. The row direction cuts
each row within its block, and partitions only the rows that hold more than
k scores at or above the floor; the column direction keeps, after every
block, only the scores within the rank margin of each column's running
k-th. Each column then holds at most k scores plus those tied with its k-th
within the margin, at any tau, including tau = 0. Entities are assembled
only for the owners of a hit label, from index arrays: their label rows,
the union of those labels' hits, a segment max of the float64 label-pair
cosines per (entity, candidate), rounded once and ordered by (score desc,
id asc). A raw score within _f64_dot_gap of 0 or of a tie is taken instead
from the entity's BLAS product, which sums in the order the float64 kernel
has always used.

Each distinct label pair's float64 dot is computed once per call, with the
row side's label as the left operand, into a _PairDots table that lives
only for that call. The row cut's survivors seed it; the column cut's
survivors and entity assembly in both directions look their pairs up in it
and compute only the ones it lacks. A row-wise dot does not depend on which
KB is the left operand or on where the pair sits in its batch (a test
holds this bit for bit), so the table changes no score.
"""

from __future__ import annotations

import logging
import math
from typing import Callable, Sequence

import numpy as np

# The DB save/load functions stay importable from here for perfbench/traced.py.
from .candidates import (
    DIRECTION_S2T, DIRECTION_T2S, CandidateDB, CandidateList,
    load_candidate_db, save_candidate_db,
)
from .embedding import EmbeddingProvider, round_scores
from .errors import (
    DimensionMismatch,
    InvalidParameter,
    MalformedRecord,
    StaleKB,
    ZeroVector,
)
from .fileio import atomic_write_bytes, format_header, open_input, parse_header
from .ontology import Ontology

logger = logging.getLogger(__name__)

# Rounding to 5 decimals moves a value by at most 5e-6 (plus float slop), so
# a 1.5e-5 margin on the tau cut and 2e-5 on the rank cut can never exclude
# a pair that exact rounding would keep.
_TAU_MARGIN = 1.5e-5
_RANK_MARGIN = 2.0e-5

# float32 unit roundoff and smallest normal: the terms of f32_dot_error.
_F32_EPS = 2.0 ** -24
_F32_TINY = 2.0 ** -126
# How far above 1 the norm of a float64 unit row can be (about dim * 2**-53).
_F64_NORM_SLACK = 2.0 ** -30
# A cut value held in float32 (|value| < 2) is off by at most 2**-24 from
# rounding, plus the rounding of the margin subtracted from it.
_F32_CUT_SLACK = 2.0 ** -22

_DEF_CHUNK = 128
# Float64 elements of a matrix handled at once: when its norms are taken,
# when its unit rows are cast to float32, and per side when survivors are
# rescored. No temporary the size of a whole KB matrix is built.
_BLOCK_ELEMENTS = 1 << 16


def _row_blocks(n_rows: int, dim: int) -> list[slice]:
    """Consecutive row slices of an n_rows x dim matrix, each of at most
    _BLOCK_ELEMENTS elements or one row."""
    step = max(1, _BLOCK_ELEMENTS // max(dim, 1))
    return [slice(start, start + step) for start in range(0, n_rows, step)]


def _row_norms(matrix: np.ndarray) -> np.ndarray:
    """np.linalg.norm(matrix, axis=1), a block of rows at a time: each row's
    sum is the same, and no full-size x*x temporary is built."""
    norms = np.empty(len(matrix))
    for rows in _row_blocks(*matrix.shape):
        norms[rows] = np.linalg.norm(matrix[rows], axis=1)
    return norms


class VectorKB:
    """All label vectors of one ontology plus the owning-entity sets.

    Rows are unique labels. The provider fingerprint is stored so later
    stages can detect artifacts built under a different provider. The KB
    holds its raw rows and their norms; retrieval divides only the rows it
    touches, through unit_rows, so no unit matrix is ever held whole.
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
        self.label_to_row = {label: i for i, label in enumerate(labels)}
        if len(self.label_to_row) != len(labels):
            raise InvalidParameter("KB labels must be unique")
        self.ontology_name = ontology_name
        self.labels = list(labels)
        self.owners = list(owners)
        self.matrix = np.asarray(matrix, dtype=np.float64)
        self.fingerprint = fingerprint
        self.dim = int(self.matrix.shape[1]) if self.matrix.size else 0
        self.norms = _row_norms(self.matrix)
        zero_rows = np.flatnonzero(self.norms == 0.0)
        if zero_rows.size:
            raise ZeroVector(
                f"label {self.labels[int(zero_rows[0])]!r} has a zero vector"
            )

    def __len__(self) -> int:
        return len(self.labels)

    def unit_rows(self, rows) -> np.ndarray:
        """The unit rows at rows (a slice or an index array), each bit-equal
        to that row of matrix / norms[:, None]."""
        return self.matrix[rows] / self.norms[rows, None]


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


def _positive(text: str) -> int:
    count = int(text)
    if count < 1:
        raise ValueError(text)
    return count


_KB_HEADER = (
    ("vector-kb", str), ("dim", _positive), ("provider", str), ("rows", _positive),
)


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
    lines = [format_header(_KB_HEADER, values)]
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


def load_kb(path: str, expected_fingerprint: str | None = None) -> VectorKB:
    """Load a KB written by save_kb; StaleKB if the fingerprint is not the
    expected one.

    Exactly four header lines and the number of index lines the rows header
    gives are parsed, so a label may start with '#'. The matrix is a
    read-only view of the file's bytes.
    """
    with open_input(path, "rb") as handle:
        data = handle.read()
    (name, dim, fingerprint, rows), pos = parse_header(path, data, _KB_HEADER)
    if expected_fingerprint is not None and fingerprint != expected_fingerprint:
        raise StaleKB(
            f"{path} was built with provider {fingerprint!r}, "
            f"expected {expected_fingerprint!r}; rebuild the KB"
        )
    # the matrix fills the file's last rows * dim * 8 bytes, so the index is
    # whole when its rows lines end exactly where the matrix starts
    end = len(data) - rows * dim * 8
    if not (pos < end and data[end - 1] == 10 and data.count(b"\n", pos, end) == rows):
        lines = data[pos:].split(b"\n", rows)
        if len(lines) <= rows:
            got = len(lines) - 1
            raise MalformedRecord(path, 5 + got, f"index ends after {got} of {rows} lines")
        raise MalformedRecord(
            path, 5 + rows,
            f"matrix block has {len(lines[-1])} bytes, expected {rows * dim * 8}",
        )
    try:
        index_lines = data[pos:end - 1].decode("utf-8").split("\n")
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
    matrix = np.frombuffer(data, dtype="<f8", count=rows * dim, offset=end)
    matrix = matrix.reshape(rows, dim)
    finite = np.isfinite(matrix).all(axis=1)
    if not finite.all():
        row = int(np.flatnonzero(~finite)[0])
        raise MalformedRecord(
            path, 5 + row, f"label {labels[row]!r} has a non-finite vector value"
        )
    return VectorKB(
        ontology_name=name,
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


def f32_dot_error(dim: int) -> float:
    """Largest |float32 dot - exact dot| for two float64 unit vectors of
    length dim, cast to float32 and multiplied in any summation order.

    About (dim + 2) * 2**-24. Casting moves a component x by at most
    eps*|x| + tiny, where tiny also covers a component that becomes
    subnormal or is flushed to zero, so a cast vector is within
    a = eps*n + tiny*sqrt(dim) of its source in 2-norm (n bounds the norm of
    a float64 unit vector) and the cast costs at most 2*n*a + a**2 of the
    dot product. Summing dim products in float32 adds at most
    gamma * (n + a)**2 with gamma = dim*eps / (1 - dim*eps) (Higham,
    Accuracy and Stability of Numerical Algorithms, Thm 3.1), plus tiny for
    each product or partial sum that underflows.
    """
    n = 1.0 + _F64_NORM_SLACK
    a = _F32_EPS * n + _F32_TINY * math.sqrt(dim)
    gamma = dim * _F32_EPS / (1.0 - dim * _F32_EPS)
    return 2.0 * n * a + a * a + gamma * (n + a) ** 2 + 2 * dim * _F32_TINY


def _f64_dot_gap(dim: int) -> float:
    """Largest difference between two float64 dot products of the same two
    float64 unit vectors of length dim, each summed in any order.

    Each is within gamma * n**2 of the exact dot, with n and gamma as in
    f32_dot_error but for eps = 2**-53, plus 2**-1074 for each product or
    partial sum that underflows.
    """
    gamma = dim * 2.0 ** -53 / (1.0 - dim * 2.0 ** -53)
    return 2.0 * (gamma * (1.0 + _F64_NORM_SLACK) ** 2 + 2 * dim * 2.0 ** -1074)


def _cuts(dim: int, tau: float) -> tuple[float, float]:
    """The float32 prefilter's tau floor and rank margin for this dim.

    Both exact margins widen by the float32 error once per float32 score
    they compare, plus the rounding of the cut value itself to float32.
    """
    err = f32_dot_error(dim) + _F32_CUT_SLACK
    return tau - _TAU_MARGIN - err, _RANK_MARGIN + 2.0 * err


def _row_survivors(
    sims: np.ndarray, k: int, floor: float, rank_margin: float
) -> tuple[np.ndarray, np.ndarray]:
    """(row, col) of the float32 scores that may make their row's exact
    top k: at or above the floor and within rank_margin of the row's k-th
    largest score. Rows whose maximum is below the floor cost no count, and
    a row with at most k scores at or above the floor keeps exactly those,
    so only rows with more are partitioned."""
    live = np.flatnonzero(sims.max(axis=1, initial=-np.inf) >= floor)
    block = sims if live.size == len(sims) else sims[live]
    keep = block >= floor
    busy = np.flatnonzero(np.count_nonzero(keep, axis=1) > k)
    if busy.size:
        rows = block if busy.size == len(block) else block[busy]
        kth = np.partition(rows, -k, axis=1)[:, -k]
        keep[busy] = rows >= np.maximum(kth - rank_margin, floor)[:, None]
    # Flat indices: several times faster than np.nonzero on a wide block.
    rows, cols = np.divmod(np.flatnonzero(keep), keep.shape[1])
    return live[rows], cols


class _ColumnCut:
    """The column-wise counterpart of _row_survivors, fed one row block of
    the float32 score matrix at a time.

    After each block a column keeps only its scores at or above the floor
    and within rank_margin of the k-th largest score seen in its live
    blocks (those whose maximum reached the column's cut). That k-th value
    only grows and never exceeds the column's true k-th, so a dropped score
    would fail the final cut as well, and a column never holds more than k
    scores plus those tied with its k-th within the margin, at any tau.
    """

    def __init__(self, n_cols: int, k: int, floor: float, rank_margin: float):
        self.k = k
        self.floor = floor
        self.rank_margin = rank_margin
        # Per column, the k largest scores seen; column 0 is the k-th.
        self.top = np.full((n_cols, k), -np.inf, dtype=np.float32)
        self.cols = np.empty(0, dtype=np.intp)
        self.rows = np.empty(0, dtype=np.intp)
        self.vals = np.empty(0, dtype=np.float32)

    def _cut(self) -> np.ndarray:
        return np.maximum(self.floor, self.top[:, 0] - self.rank_margin)

    def add(self, first_row: int, sims: np.ndarray) -> None:
        live = np.flatnonzero(sims.max(axis=0, initial=-np.inf) >= self._cut())
        if not live.size:
            return
        block = sims if live.size == sims.shape[1] else sims[:, live]
        pool = np.concatenate([self.top[live], block.T], axis=1)
        pool.partition(-self.k, axis=1)
        self.top[live] = pool[:, -self.k:]
        cut = self._cut()
        keep = self.vals >= cut[self.cols]
        rows, cols = np.divmod(np.flatnonzero(block >= cut[live]), len(live))
        self.cols = np.concatenate([self.cols[keep], live[cols]])
        self.rows = np.concatenate([self.rows[keep], rows + first_row])
        self.vals = np.concatenate([self.vals[keep], block[rows, cols]])


def _row_dots(
    left: VectorKB, left_rows: np.ndarray, right: VectorKB, right_rows: np.ndarray
) -> np.ndarray:
    """The float64 dot of the unit rows left_rows[i] of left and
    right_rows[i] of right for each i, gathering at most _BLOCK_ELEMENTS
    elements a side at once."""
    dots = np.empty(left_rows.size)
    for span in _row_blocks(dots.size, left.dim):
        dots[span] = np.einsum(
            "ij,ij->i", left.unit_rows(left_rows[span]),
            right.unit_rows(right_rows[span]),
        )
    return dots


def _runs(keys: np.ndarray) -> np.ndarray:
    """Where each run of equal values starts in a grouped array of indices."""
    return np.flatnonzero(np.diff(keys, prepend=-1))


class _PairDots:
    """The float64 unit-row dot of each (row_kb row, col_kb row) label pair
    that one build_candidate_dbs call asks for, each computed once.

    Keys are row * len(col_kb) + col, held sorted beside their dots. The
    table starts as the row pass's survivors, which come in ascending key
    order; lookup computes and inserts the pairs it does not hold yet.
    """

    def __init__(
        self, row_kb: VectorKB, rows: np.ndarray, col_kb: VectorKB, cols: np.ndarray
    ):
        self.row_kb, self.col_kb = row_kb, col_kb
        self.dots = _row_dots(row_kb, rows, col_kb, cols)
        # A last key above every pair's, so a search never runs off the end.
        self.keys = np.append(rows * len(col_kb) + cols, np.iinfo(np.intp).max)

    def lookup(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """The dots of the pairs (rows[i], cols[i])."""
        keys = rows * len(self.col_kb) + cols
        at = np.searchsorted(self.keys, keys)
        new = np.sort(keys[self.keys[at] != keys])
        if new.size:
            new = new[_runs(new)]
            where = np.searchsorted(self.keys, new)
            new_rows, new_cols = np.divmod(new, len(self.col_kb))
            dots = _row_dots(self.row_kb, new_rows, self.col_kb, new_cols)
            self.keys = np.insert(self.keys, where, new)
            self.dots = np.insert(self.dots, where, dots)
            at = np.searchsorted(self.keys, keys)
        return self.dots[at]


def _csr(groups: list[list[int]]) -> tuple[np.ndarray, np.ndarray]:
    """(size of each group, the groups' items end to end) as index arrays."""
    return (
        np.array([len(group) for group in groups], dtype=np.intp),
        np.array([item for group in groups for item in group], dtype=np.intp),
    )


def _gather(sizes: np.ndarray, which: np.ndarray) -> np.ndarray:
    """The positions of the items of groups `which`, end to end, in a layout
    where group i holds sizes[i] consecutive items."""
    per = sizes[which]
    shift = np.cumsum(sizes)[which] - np.cumsum(per)
    return np.arange(per.sum()) + np.repeat(shift, per)


def _exact_hits(
    corpus_kb: VectorKB,
    query_rows: np.ndarray,
    corpus_rows: np.ndarray,
    dots: np.ndarray,
    k: int,
    tau: float,
) -> tuple[np.ndarray, np.ndarray]:
    """The exact rule on the survivor pairs: the (query rows, corpus rows)
    of the hits, grouped by ascending query row, in rank order in a row.

    dots[i] is the float64 cosine of survivor i, from the call's _PairDots.
    Each goes through round_scores; a query row keeps the scores at or
    above tau, ordered by (score desc, label asc) in one lexsort and cut at
    k by position in the row's run.
    """
    scores = round_scores(dots)
    hit = scores >= tau
    query_rows, corpus_rows, scores = query_rows[hit], corpus_rows[hit], scores[hit]
    by_label = sorted(set(corpus_rows.tolist()), key=corpus_kb.labels.__getitem__)
    label_rank = np.zeros(len(corpus_kb), dtype=np.intp)
    label_rank[by_label] = np.arange(len(by_label))
    order = np.lexsort((label_rank[corpus_rows], -scores, query_rows))
    query_rows, corpus_rows = query_rows[order], corpus_rows[order]
    # A hit's position in its row: its index less its row's first index.
    kept = np.arange(query_rows.size) - np.searchsorted(query_rows, query_rows) < k
    return query_rows[kept], corpus_rows[kept]


def _direction_lists(
    query_onto: Ontology,
    query_kb: VectorKB,
    corpus_kb: VectorKB,
    hit_rows: np.ndarray,
    hit_cols: np.ndarray,
    dots: Callable[[np.ndarray, np.ndarray], np.ndarray],
) -> dict[str, CandidateList]:
    """Every query entity's candidate list from the hits of _exact_hits;
    an entity that owns no hit label gets an empty list.

    The owners of hit labels are assembled together: each one's label rows
    and the union of their hits as index arrays, the max float64 dot of a
    union row over the entity's labels, then the max per (entity, owner of
    a union row), rounded once and ordered by (score desc, id asc). The
    dots of (query rows, corpus rows) come from dots, a lookup in the
    call's _PairDots, which computes only the pairs it does not hold.
    """
    lists = dict.fromkeys(query_onto.ids, CandidateList(()))
    if not hit_rows.size:
        return lists
    owner_sets = map(query_kb.owners.__getitem__, set(hit_rows.tolist()))
    entities = sorted(set().union(*owner_sets))
    n_labels, label_rows = _csr([
        [query_kb.label_to_row[label] for label in query_onto.entity(e).labels]
        for e in entities
    ])
    n_hits = np.bincount(hit_rows, minlength=len(query_kb))
    pairs = np.sort(
        np.repeat(np.arange(len(entities)), n_labels).repeat(n_hits[label_rows])
        * len(corpus_kb) + hit_cols[_gather(n_hits, label_rows)]
    )
    pair_entity, pair_col = np.divmod(pairs[_runs(pairs)], len(corpus_kb))
    per = n_labels[pair_entity]
    pair_dots = dots(label_rows[_gather(n_labels, pair_entity)], pair_col.repeat(per))
    best = np.maximum.reduceat(pair_dots, np.cumsum(per) - per)
    cols = sorted(set(pair_col.tolist()))
    ids = sorted(set().union(*(corpus_kb.owners[col] for col in cols)))
    index = {entity_id: i for i, entity_id in enumerate(ids)}
    n_owners, owner_index = _csr(
        [[index[owner] for owner in corpus_kb.owners[col]] for col in cols]
    )
    col_of = np.searchsorted(cols, pair_col)
    per = n_owners[col_of]
    keys = pair_entity.repeat(per) * len(ids) + owner_index[_gather(n_owners, col_of)]
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    starts = _runs(keys)
    raw = np.maximum.reduceat(best.repeat(per)[order], starts)
    entity, owner = np.divmod(keys[starts], len(ids))
    # The kernel has always scored an entity with one BLAS product of its
    # labels x its union rows, which sums in another order. Where that can
    # change the rounded score (a cosine within the gap of 0 or of a tie),
    # the raw score is taken from that product.
    gap = _f64_dot_gap(query_kb.dim)
    low, high = round_scores(raw - gap), round_scores(raw + gap)
    unsure = np.flatnonzero(low.view(np.int64) != high.view(np.int64))
    for e in set(entity[unsure].tolist()):
        union = pair_col[slice(*np.searchsorted(pair_entity, [e, e + 1]))].tolist()
        rows = label_rows[_gather(n_labels, np.array([e]))]
        cross = query_kb.unit_rows(rows) @ corpus_kb.unit_rows(union).T
        col_max = list(zip(union, cross.max(axis=0).tolist()))
        for i in unsure[entity[unsure] == e].tolist():
            owner_id = ids[owner[i]]
            raw[i] = max(v for col, v in col_max if owner_id in corpus_kb.owners[col])
    scores = round_scores(raw)
    order = np.lexsort((owner, -scores, entity))
    entity = entity[order]
    ranked = list(zip(
        map(ids.__getitem__, owner[order].tolist()), scores[order].tolist()
    ))
    bounds = _runs(entity).tolist() + [len(ranked)]
    for e, lo, hi in zip(entity[bounds[:-1]].tolist(), bounds, bounds[1:]):
        lists[entities[e]] = CandidateList(tuple(ranked[lo:hi]))
    return lists


def _blocked_pass(
    row_kb: VectorKB, col_kb: VectorKB, k: int, tau: float, chunk: int
) -> tuple[tuple[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]:
    """The float32 prefilter of both directions in one pass over row blocks
    of the score matrix row_kb x col_kb.

    Returns the (query rows, corpus rows) survivors of the row_kb -> col_kb
    direction, cut per row within each block, and those of col_kb -> row_kb,
    cut per column by a _ColumnCut.
    """
    floor, rank_margin = _cuts(row_kb.dim, tau)
    col32 = np.empty(col_kb.matrix.shape, dtype=np.float32)
    for rows in _row_blocks(*col32.shape):
        col32[rows] = col_kb.unit_rows(rows)
    columns = _ColumnCut(len(col_kb), k, floor, rank_margin)
    rows_out = [np.empty(0, dtype=np.intp)]
    cols_out = [np.empty(0, dtype=np.intp)]
    for start in range(0, len(row_kb), chunk):
        block = row_kb.unit_rows(slice(start, start + chunk)).astype(np.float32)
        sims = block @ col32.T
        rows, cols = _row_survivors(sims, k, floor, rank_margin)
        rows_out.append(rows + start)
        cols_out.append(cols)
        columns.add(start, sims)
    return (
        (np.concatenate(rows_out), np.concatenate(cols_out)),
        (columns.cols, columns.rows),
    )


def build_candidate_dbs(
    source: Ontology,
    target: Ontology,
    source_kb: VectorKB,
    target_kb: VectorKB,
    k: int,
    tau: float,
    chunk: int = _DEF_CHUNK,
) -> tuple[CandidateDB, CandidateDB]:
    """Build both directional candidate DBs from prebuilt KBs.

    One pass over row blocks of the float32 score matrix of the two KBs
    feeds both directions: one cuts each row inside its block, the other
    keeps a running cut per column. The survivors then go through the exact
    rule. StaleKB if a dump label has no KB row or a KB owner left its dump.
    """
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
    for onto, kb in ((source, source_kb), (target, target_kb)):
        ids = set(onto.ids)
        stale = {label for e in onto for label in e.labels} - kb.label_to_row.keys()
        stale.update(label for label, owners in zip(kb.labels, kb.owners)
                     if not owners <= ids)
        if stale:
            raise StaleKB(
                f"{onto.name!r} label {min(stale)!r} does not match its KB; run build-kb"
            )
    # The pass holds its column side whole in float32, so the larger KB is
    # the one it walks in row blocks.
    swap = len(source_kb) < len(target_kb)
    row_kb, col_kb = (target_kb, source_kb) if swap else (source_kb, target_kb)
    (rows, cols), (col_rows, row_rows) = _blocked_pass(row_kb, col_kb, k, tau, chunk)
    # Each direction's hits and its lookup of (query rows, corpus rows).
    table = _PairDots(row_kb, rows, col_kb, cols)
    by_row = (_exact_hits(col_kb, rows, cols, table.dots, k, tau), table.lookup)
    by_col = (
        _exact_hits(
            row_kb, col_rows, row_rows, table.lookup(row_rows, col_rows), k, tau
        ),
        lambda query_rows, corpus_rows: table.lookup(corpus_rows, query_rows),
    )
    (s2t_hits, s2t_dots), (t2s_hits, t2s_dots) = (
        (by_col, by_row) if swap else (by_row, by_col)
    )
    s2t = CandidateDB(
        direction=DIRECTION_S2T,
        query_name=source.name,
        corpus_name=target.name,
        k=k,
        tau=tau,
        fingerprint=source_kb.fingerprint,
        lists=_direction_lists(source, source_kb, target_kb, *s2t_hits, s2t_dots),
    )
    t2s = CandidateDB(
        direction=DIRECTION_T2S,
        query_name=target.name,
        corpus_name=source.name,
        k=k,
        tau=tau,
        fingerprint=target_kb.fingerprint,
        lists=_direction_lists(target, target_kb, source_kb, *t2s_hits, t2s_dots),
    )
    return s2t, t2s
