"""Benchmark workloads: inputs made by the repo's own corpus generators.

Each workload writes its corpus from the bench seed into a scratch
directory and returns the config the verbs run with. The program under
test only ever sees the generated files. Every workload runs at k=5,
tau=0.75 (the config defaults).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable

from ontomatch.synth import generate_corpus, generate_flat_corpus

# Sizes are chosen so that one verb flow fits several times into a run.
FLAT_LABELS_PER_SIDE = 6000
FLAT_DIM = 64
WIDE_N = 400
LLM_N = 60


@dataclass(frozen=True)
class Inputs:
    """Generated files of one workload plus what the gate expects of them."""

    source_dump: str
    target_dump: str
    reference: str
    config_lines: tuple[str, ...]
    # manifest "planned" counts; None where the generator cannot pin them
    planned_mila: int | None
    planned_baseline: int | None
    uses_stub: bool


def _dump_config(source: str, target: str) -> list[str]:
    return [
        f"source.dump = {source}",
        "source.name = SRC",
        f"target.dump = {target}",
        "target.name = TGT",
    ]


def _flat_dense(corpus_dir: str, seed: int) -> Inputs:
    paths = generate_flat_corpus(
        corpus_dir, FLAT_LABELS_PER_SIDE, overlap_fraction=0.01, seed=seed
    )
    lines = _dump_config(paths["source_path"], paths["target_path"]) + [
        "embedding.kind = deterministic",
        f"embedding.dim = {FLAT_DIM}",
        "llm.kind = oracle",
        f"llm.reference = {paths['reference_path']}",
        f"seed = {seed}",
    ]
    return Inputs(
        source_dump=paths["source_path"],
        target_dump=paths["target_path"],
        reference=paths["reference_path"],
        config_lines=tuple(lines),
        planned_mila=None,
        planned_baseline=None,
        uses_stub=False,
    )


def _synthetic(corpus_dir: str, seed: int, n: int, synonym_rate: float,
               uses_stub: bool) -> Inputs:
    corpus = generate_corpus(
        corpus_dir, n, synonym_rate=synonym_rate, hcb_fraction=0.8, seed=seed
    )
    with open(corpus.manifest_path, "r", encoding="utf-8") as handle:
        planned = json.load(handle)["planned"]
    # With the stub, llm.url is appended once the endpoint is listening.
    llm_lines = (
        ["llm.kind = http-chat", "llm.model = stub"] if uses_stub
        else ["llm.kind = oracle", f"llm.reference = {corpus.reference_path}"]
    )
    lines = _dump_config(corpus.source_path, corpus.target_path) + [
        "embedding.kind = file",
        f"embedding.file = {corpus.vectors_path}",
        *llm_lines,
        f"seed = {seed}",
    ]
    return Inputs(
        source_dump=corpus.source_path,
        target_dump=corpus.target_path,
        reference=corpus.reference_path,
        config_lines=tuple(lines),
        planned_mila=planned["mila_llm_calls"],
        planned_baseline=planned["baseline_llm_calls"],
        uses_stub=uses_stub,
    )


def _synth_wide(corpus_dir: str, seed: int) -> Inputs:
    return _synthetic(corpus_dir, seed, WIDE_N, 0.3, uses_stub=False)


def _synth_llm(corpus_dir: str, seed: int) -> Inputs:
    return _synthetic(corpus_dir, seed, LLM_N, 0.0, uses_stub=True)


# name -> (corpus directory, seed) -> generated inputs; the reason for each
# workload is its "why" in BENCHMARK.json
WORKLOADS: dict[str, Callable[[str, int], Inputs]] = {
    "flat_dense": _flat_dense,
    "synth_wide": _synth_wide,
    "synth_llm": _synth_llm,
}
