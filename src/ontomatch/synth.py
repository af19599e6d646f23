"""Synthetic matching corpora with exact control over retrieval decisions.

Each matched pair lives in its own vector subspace so every cosine the
pipeline can observe is a designed constant. A group is built around a unit
core axis z_g: the anchor source puts weight GAMMA_ANCHOR on z_g, the anchor
target ALPHA_ANCHOR, so their cosine is exactly their product and the pair is
mutual rank-1 (HCB). Filler targets ("pads") sit lower on the same axis to
give every source a full candidate list.

Non-HCB pairs ("parasites") ride an anchor group: the parasite source splits
its weight between the group core (where it sees the anchor's target as a
decoy top candidate the oracle will reject) and a private axis shared only
with its true target, which therefore ranks second and stays invisible to
every other source. That keeps the true pair bidirectional at rank 2
regardless of how many parasites share one anchor, and caps the prompted
search at two LLM calls per parasite.

Axes are orthogonal standard-basis dimensions, so the numbers below are
exact up to one float multiplication. All cross-side cosines are either a
designed product or at most MU (0.3), far below the 0.75 threshold.
"""

from __future__ import annotations

import logging
import math
import os
import random
from typing import NamedTuple

import numpy as np

from .errors import InvalidParameter
from .fileio import write_json, write_records
from .embedding import write_vector_file
from .evaluation import write_reference

logger = logging.getLogger(__name__)

GAMMA_ANCHOR = 0.99
ALPHA_ANCHOR = 0.99
ANCHOR_PAD_ALPHAS = (0.87, 0.86, 0.85, 0.84)
MU = 0.3
PARASITE_GAMMAS = (0.80, 0.79, 0.81, 0.78, 0.82)
PARASITE_TRUE_SCORES = tuple(0.765 + 0.0005 * j for j in range(8))
PARASITE_PAD_SCORES = (0.756, 0.754, 0.752)
SABOTAGE_CORE = 0.5

# A parasite is visible in its anchor target's list only while it is among
# the top-k source labels there; with the default k=5 one anchor carries at
# most 4 visible parasites, the rest are rank-pruned (still matched, one
# fewer LLM call).
VISIBLE_PARASITES_PER_ANCHOR = 4

DEGENERATE_CROSS_SCORE = 0.5


class SynthCorpus(NamedTuple):
    """Paths and construction stats for one generated corpus."""

    out_dir: str
    source_path: str
    target_path: str
    reference_path: str
    vectors_path: str
    manifest_path: str
    n_pairs: int
    hcb_pairs: int
    parasite_pairs: int
    dim: int
    seed: int
    synonym_rate: float
    noise_level: float
    hcb_fraction: float
    sabotaged_sources: list[str] = []
    planned: dict = {}

    def to_json_dict(self) -> dict:
        """The manifest: every field but the paths, and the data files' names."""
        data = self._asdict()
        del data["out_dir"], data["manifest_path"]
        data["files"] = {
            key: os.path.basename(data.pop(f"{key}_path"))
            for key in ("source", "target", "reference", "vectors")
        }
        return data


_DUMP_HEAD = "# entity_id\tpreferred_label\tsynonyms (| separated)\n"


def _half_up(value: float) -> int:
    return int(math.floor(value + 0.5))


def generate_corpus(
    out_dir: str,
    n_entities: int,
    synonym_rate: float = 0.0,
    noise_level: float = 0.0,
    hcb_fraction: float = 1.0,
    seed: int = 0,
) -> SynthCorpus:
    """Generate a source/target dump pair, reference, and vector table.

    A fraction hcb_fraction of the n_entities matched pairs is constructed
    to be mutual rank-1 (HCB); the rest are bidirectional at rank 2 behind a
    decoy. noise_level sabotages that fraction of source entities (their
    similarities all drop below threshold, so they become unmatchable);
    anchors that carry parasites are exempt, since removing the decoy's
    rival would silently promote the decoy pair to HCB. Deterministic under
    seed. Guarantees hold at the default k=5, tau=0.75.
    """
    if n_entities < 1:
        raise InvalidParameter(f"n_entities must be >= 1, got {n_entities}")
    for name, value in (
        ("synonym_rate", synonym_rate),
        ("noise_level", noise_level),
        ("hcb_fraction", hcb_fraction),
    ):
        if not 0.0 <= value <= 1.0:
            raise InvalidParameter(f"{name} must be in [0, 1], got {value}")

    os.makedirs(out_dir, exist_ok=True)
    rng = random.Random(seed)
    n = n_entities
    n_hcb = _half_up(hcb_fraction * n)
    n_parasites = n - n_hcb

    if n_hcb == 0 and n_parasites > 0:
        # Nothing can anchor a rank-2 pair; emit the degenerate corpus the
        # hcb_fraction=0 contract actually asserts: every cross similarity
        # below threshold, so candidate lists are empty and hcb_count is 0.
        return _generate_degenerate(
            out_dir, n, synonym_rate, hcb_fraction, seed, rng
        )

    groups = n_hcb
    # parasite p goes to group p % groups, slot p // groups within the group
    parasites_of_group: list[list[int]] = [[] for _ in range(groups)]
    for p in range(n_parasites):
        parasites_of_group[p % groups].append(p)

    dim = 2 + groups + n_parasites
    axis_u = 0
    axis_w = 1

    def group_axis(g: int) -> int:
        return 2 + g

    def parasite_axis(p: int) -> int:
        return 2 + groups + p

    source_rows: list[tuple[str, str, str]] = []
    target_rows: list[tuple[str, str, str]] = []
    reference: list[tuple[str, str]] = []
    vectors: dict[str, np.ndarray] = {}

    def put(axis_values: dict[int, float]) -> np.ndarray:
        vector = np.zeros(dim)
        for axis, value in axis_values.items():
            vector[axis] = value
        return vector

    def maybe_synonym(label: str) -> str:
        return f"{label} variant" if rng.random() < synonym_rate else ""

    # pair index -> ids; anchors take indices [0, n_hcb), parasites the rest
    def source_id(i: int) -> str:
        return f"S{i:05d}"

    def target_id(i: int) -> str:
        return f"T{i:05d}"

    source_vec: dict[str, np.ndarray] = {}

    for g in range(groups):
        i = g
        sid, tid = source_id(i), target_id(i)
        s_label = f"source concept {i:05d}"
        t_label = f"target concept {i:05d}"
        source_vec[sid] = put({
            group_axis(g): GAMMA_ANCHOR,
            axis_u: math.sqrt(1.0 - GAMMA_ANCHOR**2),
        })
        vectors[t_label] = put({
            group_axis(g): ALPHA_ANCHOR,
            axis_w: math.sqrt(1.0 - ALPHA_ANCHOR**2),
        })
        source_rows.append((sid, s_label, maybe_synonym(s_label)))
        target_rows.append((tid, t_label, maybe_synonym(t_label)))
        reference.append((sid, tid))
        for m, alpha in enumerate(ANCHOR_PAD_ALPHAS):
            pad_id = f"TF{g:05d}x{m}"
            pad_label = f"target filler {g:05d} {m}"
            vectors[pad_label] = put({
                group_axis(g): alpha,
                axis_w: math.sqrt(1.0 - alpha**2),
            })
            target_rows.append((pad_id, pad_label, maybe_synonym(pad_label)))

    for p in range(n_parasites):
        i = n_hcb + p
        g = p % groups
        slot = p // groups
        sid, tid = source_id(i), target_id(i)
        s_label = f"source concept {i:05d}"
        t_label = f"target concept {i:05d}"
        gamma = PARASITE_GAMMAS[slot % len(PARASITE_GAMMAS)]
        rho = math.sqrt(1.0 - gamma**2)
        true_score = PARASITE_TRUE_SCORES[slot % len(PARASITE_TRUE_SCORES)]
        nu = (true_score - gamma * MU) / rho
        source_vec[sid] = put({group_axis(g): gamma, parasite_axis(p): rho})
        vectors[t_label] = put({
            group_axis(g): MU,
            parasite_axis(p): nu,
            axis_w: math.sqrt(1.0 - MU**2 - nu**2),
        })
        source_rows.append((sid, s_label, maybe_synonym(s_label)))
        target_rows.append((tid, t_label, maybe_synonym(t_label)))
        reference.append((sid, tid))
        for m, pad_score in enumerate(PARASITE_PAD_SCORES):
            pad_id = f"TQ{p:05d}x{m}"
            pad_label = f"target filler q {p:05d} {m}"
            nu_pad = (pad_score - gamma * MU) / rho
            vectors[pad_label] = put({
                group_axis(g): MU,
                parasite_axis(p): nu_pad,
                axis_w: math.sqrt(1.0 - MU**2 - nu_pad**2),
            })
            target_rows.append((pad_id, pad_label, maybe_synonym(pad_label)))

    # noise: sabotage sources so all their cosines fall below threshold;
    # anchors with parasites are exempt (see docstring)
    n_sabotage = _half_up(noise_level * n)
    parasited_anchors = {
        source_id(g) for g in range(groups) if parasites_of_group[g]
    }
    eligible = sorted(
        sid for sid, _, _ in source_rows if sid not in parasited_anchors
    )
    if n_sabotage > len(eligible):
        raise InvalidParameter(
            f"noise_level {noise_level} asks for {n_sabotage} sabotaged sources "
            f"but only {len(eligible)} are eligible (anchors carrying parasites "
            "cannot be sabotaged); lower noise_level or raise hcb_fraction"
        )
    sabotaged = sorted(rng.sample(eligible, n_sabotage))
    sabotaged_set = set(sabotaged)
    for sid in sabotaged:
        i = int(sid[1:])
        g = i if i < n_hcb else (i - n_hcb) % groups
        source_vec[sid] = put({
            group_axis(g): SABOTAGE_CORE,
            axis_u: math.sqrt(1.0 - SABOTAGE_CORE**2),
        })

    for sid, s_label, synonym in source_rows:
        vectors[s_label] = source_vec[sid]
        if synonym:
            vectors[synonym] = source_vec[sid]
    for tid, t_label, synonym in target_rows:
        if synonym:
            vectors[synonym] = vectors[t_label]

    planned = _plan_counts(
        n, n_hcb, parasites_of_group, sabotaged_set, synonym_rate, source_id
    )

    return _write_corpus(
        out_dir, source_rows, target_rows, reference, vectors,
        n_pairs=n, hcb_pairs=n_hcb, parasite_pairs=n_parasites, dim=dim, seed=seed,
        synonym_rate=synonym_rate, noise_level=noise_level, hcb_fraction=hcb_fraction,
        sabotaged_sources=sabotaged, planned=planned,
    )


def _plan_counts(
    n: int,
    n_hcb: int,
    parasites_of_group: list[list[int]],
    sabotaged: set[str],
    synonym_rate: float,
    source_id,
) -> dict:
    """Exact expected run counts where the construction pins them down.

    Synonyms shift label-level top-k membership, so call counts are only
    planned for synonym_rate 0. hcb_accepts is robust to synonyms (a synonym
    duplicates a vector; it never displaces an entity-level maximum).
    """
    parasited = [g for g, plist in enumerate(parasites_of_group) if plist]
    pure_anchor_ids = {
        source_id(g) for g in range(n_hcb) if g not in set(parasited)
    }
    hcb_accepts = n_hcb - len(pure_anchor_ids & sabotaged)
    planned: dict = {"hcb_accepts": hcb_accepts}
    if synonym_rate == 0.0:
        live_sources = n - len(sabotaged)
        planned["baseline_llm_calls"] = 5 * live_sources
        planned["sum_source_candidates"] = 5 * live_sources
        mila_calls = 0
        for g, plist in enumerate(parasites_of_group):
            live = [
                (p_index, slot)
                for slot, p_index in enumerate(plist)
                if source_id(n_hcb + p_index) not in sabotaged
            ]
            # anchor target's top-k keeps the highest-gamma parasites; ties
            # break by label text, i.e. by pair index, matching retrieval
            live.sort(
                key=lambda item: (
                    -PARASITE_GAMMAS[item[1] % len(PARASITE_GAMMAS)],
                    f"source concept {n_hcb + item[0]:05d}",
                )
            )
            visible = live[:VISIBLE_PARASITES_PER_ANCHOR]
            mila_calls += 2 * len(visible) + (len(live) - len(visible))
        planned["mila_llm_calls"] = mila_calls
    else:
        planned["baseline_llm_calls"] = None
        planned["sum_source_candidates"] = None
        planned["mila_llm_calls"] = None
    return planned


def _generate_degenerate(
    out_dir: str,
    n: int,
    synonym_rate: float,
    hcb_fraction: float,
    seed: int,
    rng: random.Random,
) -> SynthCorpus:
    """All cross similarities sit at 0.5, far below threshold 0.75."""
    dim = n + 1
    axis_w = 0
    source_rows: list[tuple[str, str, str]] = []
    target_rows: list[tuple[str, str, str]] = []
    reference: list[tuple[str, str]] = []
    vectors: dict[str, np.ndarray] = {}
    for i in range(n):
        sid, tid = f"S{i:05d}", f"T{i:05d}"
        s_label = f"source concept {i:05d}"
        t_label = f"target concept {i:05d}"
        s_vec = np.zeros(dim)
        s_vec[1 + i] = 1.0
        t_vec = np.zeros(dim)
        t_vec[1 + i] = DEGENERATE_CROSS_SCORE
        t_vec[axis_w] = math.sqrt(1.0 - DEGENERATE_CROSS_SCORE**2)
        vectors[s_label] = s_vec
        vectors[t_label] = t_vec
        s_syn = f"{s_label} variant" if rng.random() < synonym_rate else ""
        t_syn = f"{t_label} variant" if rng.random() < synonym_rate else ""
        if s_syn:
            vectors[s_syn] = s_vec
        if t_syn:
            vectors[t_syn] = t_vec
        source_rows.append((sid, s_label, s_syn))
        target_rows.append((tid, t_label, t_syn))
        reference.append((sid, tid))
    return _write_corpus(
        out_dir, source_rows, target_rows, reference, vectors,
        n_pairs=n, hcb_pairs=0, parasite_pairs=0, dim=dim, seed=seed,
        synonym_rate=synonym_rate, noise_level=0.0, hcb_fraction=hcb_fraction,
        sabotaged_sources=[], planned={
            "hcb_accepts": 0, "mila_llm_calls": 0,
            "baseline_llm_calls": 0, "sum_source_candidates": 0,
        },
    )


def _write_corpus(
    out_dir: str,
    source_rows: list[tuple[str, str, str]],
    target_rows: list[tuple[str, str, str]],
    reference: list[tuple[str, str]],
    vectors: dict[str, np.ndarray],
    **stats,
) -> SynthCorpus:
    """Write a corpus's files under their fixed names in out_dir; its record."""
    corpus = SynthCorpus(out_dir, *(
        os.path.join(out_dir, name) for name in
        ("source.tsv", "target.tsv", "reference.tsv", "vectors.tsv", "manifest.json")
    ), **stats)
    write_records(corpus.source_path, source_rows, _DUMP_HEAD)
    write_records(corpus.target_path, target_rows, _DUMP_HEAD)
    write_reference(frozenset(reference), corpus.reference_path)
    write_vector_file(corpus.vectors_path, vectors)
    write_json(corpus.manifest_path, corpus.to_json_dict())
    logger.info(
        "generated corpus: %d pairs (%d HCB, %d rank-2), dim %d, %s",
        corpus.n_pairs, corpus.hcb_pairs, corpus.parasite_pairs, corpus.dim,
        corpus.out_dir,
    )
    return corpus


def generate_flat_corpus(
    out_dir: str,
    n_labels_per_side: int,
    overlap_fraction: float = 0.01,
    seed: int = 0,
) -> dict:
    """Plain large dumps for scale runs: one label per entity, no vector file.

    A fraction of target labels are exact copies of source labels, so any
    deterministic text embedder maps them to identical vectors and retrieval
    has real mutual hits; all other labels are unrelated random words.
    Returns the paths plus the planted-pair count.
    """
    if n_labels_per_side < 1:
        raise InvalidParameter(
            f"n_labels_per_side must be >= 1, got {n_labels_per_side}"
        )
    if not 0.0 <= overlap_fraction <= 1.0:
        raise InvalidParameter(
            f"overlap_fraction must be in [0, 1], got {overlap_fraction}"
        )
    os.makedirs(out_dir, exist_ok=True)
    rng = random.Random(seed)
    alphabet = "abcdefghijklmnopqrstuvwxyz"

    def word(tag: str, i: int) -> str:
        stem = "".join(rng.choice(alphabet) for _ in range(8))
        return f"{tag} {stem} {i:06d}"

    n = n_labels_per_side
    n_overlap = int(round(overlap_fraction * n))
    source_labels = [word("flat src", i) for i in range(n)]
    target_labels = [word("flat tgt", i) for i in range(n)]
    overlap_sources = rng.sample(range(n), n_overlap)
    overlap_targets = rng.sample(range(n), n_overlap)
    reference = []
    for src_row, tgt_row in zip(overlap_sources, overlap_targets):
        target_labels[tgt_row] = source_labels[src_row]
        reference.append((f"FS{src_row:06d}", f"FT{tgt_row:06d}"))
    source_path = os.path.join(out_dir, "flat_source.tsv")
    target_path = os.path.join(out_dir, "flat_target.tsv")
    reference_path = os.path.join(out_dir, "flat_reference.tsv")
    for path, tag, labels in ((source_path, "FS", source_labels),
                              (target_path, "FT", target_labels)):
        records = [(f"{tag}{i:06d}", label, "") for i, label in enumerate(labels)]
        write_records(path, records, _DUMP_HEAD)
    write_reference(frozenset(reference), reference_path)
    return {
        "source_path": source_path,
        "target_path": target_path,
        "reference_path": reference_path,
        "planted_pairs": len(reference),
    }
