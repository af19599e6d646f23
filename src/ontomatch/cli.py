"""Command-line entry point for the matching pipeline.

Verbs: build-kb, predict, match, eval, compare, gen-synthetic, run-all.
Global flags (--config, --out, --seed, --k, --tau) may appear after any
verb; flag values override the config file.

A verb exits 0 on success; a failure prints `error: ...` and exits with
the exit_code of its error class (see errors.py).
"""

from __future__ import annotations

import argparse
import gc
import logging
import os
import shutil
import sys
import time
from contextlib import closing, suppress
from typing import TYPE_CHECKING

from . import config as config_mod
from .errors import (
    EXIT_ENDPOINT,
    EXIT_OK,
    ConfigError,
    OntomatchError,
    PersistFailure,
    StaleKB,
)
from .fileio import atomic_write_text
from .ontology import load_ontology

# Each verb imports what only it runs: retrieval and synth load numpy, and
# candidates, matcher, llm and evaluation are not needed to embed or retrieve.
if TYPE_CHECKING:
    from .matcher import Alignment, MatchRunReport

SPLIT_FULL, SPLIT_TRAIN, SPLIT_TEST = "full", "train", "test"


def _kb_paths(cfg) -> tuple[str, str]:
    kb_dir = os.path.join(cfg.out, "kb")
    return os.path.join(kb_dir, "source.kb"), os.path.join(kb_dir, "target.kb")


def _db_paths(cfg) -> tuple[str, str]:
    cand_dir = os.path.join(cfg.out, "candidates")
    return os.path.join(cand_dir, "s2t.tsv"), os.path.join(cand_dir, "t2s.tsv")


def _load_cfg(args) -> config_mod.RunConfig:
    values = config_mod.load_config_file(args.config) if args.config else {}
    return config_mod.build_config(
        values,
        out=getattr(args, "out", None),
        seed=getattr(args, "seed", None),
        k=getattr(args, "k", None),
        tau=getattr(args, "tau", None),
    )


def _load_ontologies(cfg):
    if not cfg.source_dump or not cfg.target_dump:
        raise ConfigError(
            "source.dump and target.dump must be set (config file or flags)"
        )
    source = load_ontology(cfg.source_dump, cfg.source_name)
    target = load_ontology(cfg.target_dump, cfg.target_name)
    return source, target


def _embed(cfg, source, target, provider):
    """Embed both ontologies; save the KBs under kb/ and return them."""
    from .retrieval import build_kb, save_kb

    start = time.perf_counter()
    source_kb = build_kb(source, provider)
    target_kb = build_kb(target, provider)
    source_path, target_path = _kb_paths(cfg)
    save_kb(source_kb, source_path)
    save_kb(target_kb, target_path)
    print(
        f"built KBs: {len(source_kb)} + {len(target_kb)} labels "
        f"(dim {provider.dim}) in {time.perf_counter() - start:.3f} s"
    )
    return source_kb, target_kb


def cmd_build_kb(args) -> int:
    cfg = _load_cfg(args)
    source, target = _load_ontologies(cfg)
    _embed(cfg, source, target, config_mod.build_provider(cfg))
    return EXIT_OK


def _require(paths, what: str, verb: str) -> None:
    """ConfigError naming the verb that writes a missing artifact."""
    for path in paths:
        if not os.path.exists(path):
            raise ConfigError(
                f"{what} {path} does not exist; run `ontomatch {verb}` first"
            )


def _retrieve(cfg, source, target, source_kb, target_kb):
    """Build both candidate DBs; save them under candidates/ and return them."""
    from .retrieval import build_candidate_dbs, save_candidate_db

    start = time.perf_counter()
    s2t, t2s = build_candidate_dbs(
        source, target, source_kb, target_kb, cfg.k, cfg.tau
    )
    s2t_path, t2s_path = _db_paths(cfg)
    save_candidate_db(s2t, s2t_path)
    save_candidate_db(t2s, t2s_path)
    print(
        f"candidate DBs: {s2t.total_candidates} s2t + {t2s.total_candidates} t2s "
        f"pairs (k={cfg.k}, tau={cfg.tau}) "
        f"in {time.perf_counter() - start:.3f} s"
    )
    return s2t, t2s


def cmd_predict(args) -> int:
    from .retrieval import load_kb

    cfg = _load_cfg(args)
    source, target = _load_ontologies(cfg)
    provider = config_mod.build_provider(cfg)
    source_path, target_path = _kb_paths(cfg)
    _require((source_path, target_path), "KB", "build-kb")
    source_kb = load_kb(source_path, expected_fingerprint=provider.fingerprint)
    target_kb = load_kb(target_path, expected_fingerprint=provider.fingerprint)
    _retrieve(cfg, source, target, source_kb, target_kb)
    return EXIT_OK


def _run_id(args, pipeline: str) -> str:
    """--run-id, one path component not starting with '.' (as stage names
    do), or timestamp-pipeline-pid."""
    run_id = args.run_id or f"{time.strftime('%Y%m%dT%H%M%S')}-{pipeline}-{os.getpid()}"
    if run_id.startswith(".") or any(s and s in run_id for s in (os.sep, os.altsep)):
        raise ConfigError(
            f"--run-id {run_id!r} must be one path component not starting with '.'"
        )
    return run_id


def _load_dbs(cfg, source, target):
    from .candidates import load_candidate_db

    s2t_path, t2s_path = _db_paths(cfg)
    _require((s2t_path, t2s_path), "candidate DB", "predict")
    s2t = load_candidate_db(s2t_path, source)
    t2s = load_candidate_db(t2s_path, target)
    for db in (s2t, t2s):
        if db.k != cfg.k or db.tau != cfg.tau:
            raise StaleKB(
                f"candidate DB was built with (k={db.k}, tau={db.tau}) but the "
                f"run asks for (k={cfg.k}, tau={cfg.tau}); re-run predict"
            )
    return s2t, t2s


def _swap_in(stage: str, run_dir: str) -> None:
    """Replace run_dir, if any, with the finished run in stage; if stage
    cannot take its place, the earlier run is put back."""
    aside = f"{stage}-old"
    try:
        with suppress(FileNotFoundError):
            os.rename(run_dir, aside)
        try:
            os.rename(stage, run_dir)
        except OSError:
            with suppress(FileNotFoundError):
                os.rename(aside, run_dir)
            raise
    except OSError as exc:
        raise PersistFailure(f"could not move {stage} to {run_dir}: {exc}") from exc
    shutil.rmtree(aside, ignore_errors=True)


def _match(
    cfg, pipeline: str, run_id: str, source, target, s2t, t2s, template,
    llm_reference=None,
) -> tuple[MatchRunReport, str]:
    """Run one pipeline, write its run directory and print its summary.

    The run is written under a stage, runs/.<run_id>-<8 hex>, made by the
    first query or file, and swapped in whole for runs/<run_id> after its
    last file. A run that fails or is killed before then leaves the earlier
    run as it was; its stage, if made, keeps the log of the queries it paid
    for. llm_reference is the parsed llm.reference when the caller has it.
    """
    from .matcher import (
        match_baseline, match_mila, write_alignment, write_report, write_trace,
    )

    runs_dir = os.path.join(cfg.out, "runs")
    run_dir = os.path.join(runs_dir, run_id)
    stage = os.path.join(runs_dir, f".{run_id}-{os.urandom(4).hex()}")
    llm = config_mod.build_llm_client(
        cfg, log_path=os.path.join(stage, "llm_log.jsonl"), reference=llm_reference
    )
    options = dict(
        source_onto=source, target_onto=target, max_workers=cfg.match_workers
    )
    with closing(llm):
        if pipeline == config_mod.PIPELINE_MILA:
            report = match_mila(None, s2t, t2s, llm, template, **options)
        else:
            report = match_baseline(None, s2t, llm, template, **options)
    report = report._replace(llm_queries_issued=llm.query_count)
    write_alignment(report.alignment, os.path.join(stage, "alignment.tsv"))
    write_trace(report.trace, os.path.join(stage, "trace.tsv"))
    write_report(report, os.path.join(stage, "report.json"))
    atomic_write_text(os.path.join(stage, "config.txt"), config_mod.snapshot(cfg))
    _swap_in(stage, run_dir)
    print(
        f"{pipeline}: {len(report.alignment)} correspondences, "
        f"{report.llm_query_count} LLM queries, {report.hcb_count} HCB accepts, "
        f"{report.wall_times.get('match', 0.0):.3f} s -> {run_dir}"
    )
    if report.multi_matched_targets:
        print(
            f"note: {len(report.multi_matched_targets)} target(s) matched by "
            "several sources (see report.json)"
        )
    if report.partial:
        print(
            f"error: run aborted early, partial results kept: "
            f"{report.abort_reason}",
            file=sys.stderr,
        )
    return report, run_dir


def cmd_match(args) -> int:
    cfg = _load_cfg(args)
    run_id = _run_id(args, args.pipeline)
    source, target = _load_ontologies(cfg)
    s2t, t2s = _load_dbs(cfg, source, target)
    template = config_mod.load_template(cfg)
    report, _ = _match(
        cfg, args.pipeline, run_id, source, target, s2t, t2s, template
    )
    return EXIT_ENDPOINT if report.partial else EXIT_OK


def _pick_split(reference, split: str, fraction: float, seed: int):
    from .evaluation import split_reference

    if split == SPLIT_FULL:
        return reference
    train, test = split_reference(reference, fraction=fraction, seed=seed)
    return train if split == SPLIT_TRAIN else test


def _eval(alignment: Alignment, alignment_path: str, reference,
          reference_path: str, split: str):
    """Score an alignment, write eval.json beside its file, return the report."""
    from .evaluation import evaluate, write_eval_report

    metadata = {
        "alignment_path": alignment_path,
        "reference_path": reference_path,
        "split": split,
    }
    report = evaluate(alignment, reference, metadata=metadata)
    out_dir = os.path.dirname(alignment_path) or "."
    write_eval_report(report, os.path.join(out_dir, "eval.json"))
    return report


def cmd_eval(args) -> int:
    from .evaluation import load_reference
    from .matcher import read_alignment

    cfg = _load_cfg(args)
    reference = _pick_split(
        load_reference(args.reference), args.split, args.split_fraction, cfg.seed
    )
    report = _eval(
        read_alignment(args.alignment), args.alignment, reference,
        args.reference, args.split,
    )
    print(report.summary())
    return EXIT_OK


def _report_from_run_dir(run_dir: str) -> MatchRunReport:
    from .matcher import read_alignment, read_report

    alignment_path = os.path.join(run_dir, "alignment.tsv")
    report_path = os.path.join(run_dir, "report.json")
    for path in (alignment_path, report_path):
        if not os.path.exists(path):
            raise ConfigError(f"{run_dir} is not a run directory ({path} missing)")
    return read_report(report_path, read_alignment(alignment_path))


def _compare(cfg, reference, report_a, report_b) -> None:
    """Compare two match runs; write and print the table."""
    from .evaluation import compare_runs, evaluate

    eval_a = evaluate(report_a.alignment, reference)
    eval_b = evaluate(report_b.alignment, reference)
    comparison = compare_runs(report_a, eval_a, report_b, eval_b)
    text = comparison.render_text()
    atomic_write_text(os.path.join(cfg.out, "compare.txt"), text)
    atomic_write_text(os.path.join(cfg.out, "compare.tsv"), comparison.render_tsv())
    print(text, end="")


def cmd_compare(args) -> int:
    from .evaluation import load_reference

    cfg = _load_cfg(args)
    reference = load_reference(args.reference)
    _compare(cfg, reference, *map(_report_from_run_dir, args.run_dirs))
    return EXIT_OK


def cmd_gen_synthetic(args) -> int:
    from .synth import generate_corpus

    cfg = _load_cfg(args)
    corpus_dir = os.path.join(cfg.out, "synthetic")
    corpus = generate_corpus(
        corpus_dir,
        n_entities=args.n,
        synonym_rate=args.synonym_rate,
        noise_level=args.noise_level,
        hcb_fraction=args.hcb_fraction,
        seed=cfg.seed,
    )
    config_lines = [
        f"source.dump = {os.path.abspath(corpus.source_path)}",
        "source.name = SRC",
        f"target.dump = {os.path.abspath(corpus.target_path)}",
        "target.name = TGT",
        "embedding.kind = file",
        f"embedding.file = {os.path.abspath(corpus.vectors_path)}",
        "llm.kind = oracle",
        f"llm.reference = {os.path.abspath(corpus.reference_path)}",
        f"eval.reference = {os.path.abspath(corpus.reference_path)}",
        f"out = {os.path.abspath(cfg.out)}",
        f"k = {cfg.k}",
        f"tau = {cfg.tau!r}",
        f"seed = {cfg.seed}",
    ]
    config_path = os.path.join(corpus_dir, "corpus.config")
    atomic_write_text(config_path, "\n".join(config_lines) + "\n")
    print(
        f"synthetic corpus: {corpus.n_pairs} pairs ({corpus.hcb_pairs} HCB, "
        f"{corpus.parasite_pairs} rank-2), dim {corpus.dim} -> {corpus_dir}"
    )
    print(f"ready-to-run config: {config_path}")
    return EXIT_OK


def cmd_run_all(args) -> int:
    from .evaluation import load_reference

    cfg = _load_cfg(args)
    base_run_id = _run_id(args, "all")
    source, target = _load_ontologies(cfg)
    provider = config_mod.build_provider(cfg)
    template = config_mod.load_template(cfg)
    llm_reference = None
    if cfg.llm_kind == "oracle" and cfg.llm_reference:
        llm_reference = load_reference(cfg.llm_reference)
    # a client that cannot be built fails the run before anything is written
    config_mod.build_llm_client(cfg, reference=llm_reference).close()
    source_kb, target_kb = _embed(cfg, source, target, provider)
    s2t, t2s = _retrieve(cfg, source, target, source_kb, target_kb)
    both = args.pipeline == "both"
    pipelines = list(config_mod.PIPELINES) if both else [args.pipeline]
    runs = []
    for pipeline in pipelines:
        run_id = f"{base_run_id}-{pipeline}" if both else base_run_id
        report, run_dir = _match(
            cfg, pipeline, run_id, source, target, s2t, t2s, template,
            llm_reference,
        )
        if report.partial:
            return EXIT_ENDPOINT
        runs.append((report, run_dir))
    if cfg.eval_reference:
        if llm_reference is not None and cfg.eval_reference == cfg.llm_reference:
            reference = llm_reference
        else:
            reference = load_reference(cfg.eval_reference)
        for report, run_dir in runs:
            scores = _eval(
                report.alignment, os.path.join(run_dir, "alignment.tsv"),
                reference, cfg.eval_reference, SPLIT_FULL,
            )
            print(f"{os.path.basename(run_dir)}: {scores.summary()}")
        if both:
            _compare(cfg, reference, *(report for report, _ in runs))
    else:
        print("no eval.reference configured; skipping evaluation")
    return EXIT_OK


def make_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="path to a key=value config file")
    common.add_argument("--out", help="output directory (default: out)")
    common.add_argument("--seed", type=int, help="global random seed")
    common.add_argument("--k", type=int, help="top-k candidates per label")
    common.add_argument("--tau", type=float, help="similarity threshold")
    common.add_argument(
        "--verbose", action="store_true", help="log progress at INFO level"
    )

    parser = argparse.ArgumentParser(
        prog="ontomatch",
        description="Batch ontology matching: embedding retrieval, "
        "mutual-rank shortcuts, budgeted LLM confirmation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "build-kb", parents=[common], help="embed both ontologies into vector KBs"
    )
    p.set_defaults(func=cmd_build_kb)

    p = sub.add_parser(
        "predict", parents=[common],
        help="build both directional candidate DBs from the KBs",
    )
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser(
        "match", parents=[common], help="run a matching pipeline over the DBs"
    )
    p.add_argument(
        "--pipeline", choices=config_mod.PIPELINES, default=config_mod.PIPELINE_MILA
    )
    p.add_argument(
        "--run-id", help="run directory name (default: timestamp-pipeline-pid)"
    )
    p.set_defaults(func=cmd_match)

    p = sub.add_parser(
        "eval", parents=[common], help="score an alignment against a reference"
    )
    p.add_argument("--alignment", required=True, help="alignment file to score")
    p.add_argument("--reference", required=True, help="reference alignment TSV")
    p.add_argument(
        "--split", choices=[SPLIT_FULL, SPLIT_TRAIN, SPLIT_TEST],
        default=SPLIT_FULL, help="restrict the reference to a split",
    )
    p.add_argument("--split-fraction", type=float, default=0.7)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser(
        "compare", parents=[common], help="compare two finished run directories"
    )
    p.add_argument("run_dirs", nargs=2, metavar="RUN_DIR")
    p.add_argument("--reference", required=True)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser(
        "gen-synthetic", parents=[common],
        help="generate a synthetic corpus with a known reference",
    )
    p.add_argument("--n", type=int, required=True, help="number of matched pairs")
    p.add_argument("--synonym-rate", type=float, default=0.0)
    p.add_argument("--noise-level", type=float, default=0.0)
    p.add_argument("--hcb-fraction", type=float, default=1.0)
    p.set_defaults(func=cmd_gen_synthetic)

    p = sub.add_parser(
        "run-all", parents=[common],
        help="build-kb, predict, match, and eval in one go",
    )
    p.add_argument(
        "--pipeline", choices=config_mod.PIPELINES + ("both",),
        default=config_mod.PIPELINE_MILA,
    )
    p.add_argument("--run-id")
    p.set_defaults(func=cmd_run_all)

    return parser


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.func(args)
    except OntomatchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


def console_main() -> None:
    """The process entry point: ``python -m ontomatch.cli`` and the
    ``ontomatch`` script.

    A verb makes no cyclic garbage, so its process runs without the cyclic
    collector and freezes the heap after main(): the collections made at
    exit skip it, while atexit handlers and flushes still run. A caller of
    main() in its own process keeps its collector.
    """
    gc.disable()
    code = main()
    gc.freeze()
    raise SystemExit(code)


if __name__ == "__main__":
    console_main()
