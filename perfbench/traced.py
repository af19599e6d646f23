"""Traced run: the verb flow as direct calls, one span around each call.

The flow calls each module's public functions in the order the verbs
would: load_ontology x2, build_provider, build_kb x2, save_kb x2,
load_kb x2, build_candidate_dbs, save_candidate_db x2,
load_candidate_db x2, then per pipeline build_llm_client, match_mila or
match_baseline, the three artifact writers and evaluate. Spans are
(name, start, end, parent) records kept in memory and written as JSON
lines when the run ends; per-layer metrics are sums over one flow's spans.
The LLM client handed to the matcher is wrapped so that every classify
call becomes a child span of the matcher span.
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import threading
import time
from contextlib import contextmanager

from common import (
    PIPELINES,
    Gate,
    check_across_runs,
    check_outputs,
    fits_another,
    metric_units,
    report,
)

from ontomatch import config as config_mod
from ontomatch.errors import OntomatchError
from ontomatch.evaluation import evaluate, load_reference, write_eval_report
from ontomatch.matcher import (
    match_baseline,
    match_mila,
    write_alignment,
    write_report,
    write_trace,
)
from ontomatch.ontology import load_ontology
from ontomatch.retrieval import (
    build_candidate_dbs,
    build_kb,
    load_candidate_db,
    load_kb,
    save_candidate_db,
    save_kb,
)

class Tracer:
    """In-memory span store; span() nests on the calling thread only."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def record(self, name: str, start: float, end: float,
               parent: int | None) -> int:
        # list.append is atomic, so LLM worker threads may record too
        self.spans.append(
            {"name": name, "start": start, "end": end, "parent": parent}
        )
        return len(self.spans) - 1

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        index = self.record(name, time.perf_counter(), 0.0, parent)
        self._stack.append(index)
        try:
            yield index
        finally:
            self._stack.pop()
            self.spans[index]["end"] = time.perf_counter()

    def total(self, name: str, first: int) -> float:
        """Summed duration of the spans called name from index first on."""
        return sum(s["end"] - s["start"] for s in self.spans[first:]
                   if s["name"] == name)


class TimedClient:
    """LLM client wrapper: a span per classify call, plus overlap counting."""

    def __init__(self, inner, tracer: Tracer, parent: int):
        self._inner = inner
        self._tracer = tracer
        self._parent = parent
        self._lock = threading.Lock()
        self._in_flight = 0
        self.max_in_flight = 0
        self.latencies: list[float] = []
        self.yes = 0
        self.attempts = 0

    def classify(self, prompt, pair=None):
        with self._lock:
            self._in_flight += 1
            self.max_in_flight = max(self.max_in_flight, self._in_flight)
        start = time.perf_counter()
        try:
            verdict = self._inner.classify(prompt, pair=pair)
        finally:
            end = time.perf_counter()
            with self._lock:
                self._in_flight -= 1
        self._tracer.record("llm.classify", start, end, self._parent)
        with self._lock:
            self.latencies.append(end - start)
            self.yes += verdict.is_yes
            self.attempts += verdict.attempts
        return verdict


def _dir_bytes(path: str) -> int:
    return sum(
        os.path.getsize(os.path.join(dirpath, name))
        for dirpath, _, names in os.walk(path) for name in names
    )


def traced_flow(cfg, inputs, out_dir: str, tr: Tracer, stub,
                gate: Gate, digests: list[str]) -> dict[str, float]:
    """One traced flow; returns its per-layer metrics."""
    shutil.rmtree(out_dir, ignore_errors=True)
    kb_dir = os.path.join(out_dir, "kb")
    cand_dir = os.path.join(out_dir, "candidates")
    first = len(tr.spans)
    requests_before = stub.stats()["requests"] if stub else 0
    clients: list[TimedClient] = []
    reports = {}
    with tr.span("flow") as flow_span:
        with tr.span("ontology.load_ontology"):
            source = load_ontology(cfg.source_dump, cfg.source_name)
        with tr.span("ontology.load_ontology"):
            target = load_ontology(cfg.target_dump, cfg.target_name)
        with tr.span("embedding.build_provider"):
            provider = config_mod.build_provider(cfg)
        kbs = {}
        for side, onto in (("source", source), ("target", target)):
            with tr.span("embedding.build_kb"):
                kbs[side] = build_kb(onto, provider)
        for side in kbs:
            with tr.span("retrieval.save_kb"):
                save_kb(kbs[side], os.path.join(kb_dir, f"{side}.kb"))
        for side in kbs:
            with tr.span("retrieval.load_kb"):
                kbs[side] = load_kb(os.path.join(kb_dir, f"{side}.kb"),
                                    expected_fingerprint=provider.fingerprint)
        with tr.span("retrieval.build_candidate_dbs"):
            s2t, t2s = build_candidate_dbs(
                source, target, kbs["source"], kbs["target"], cfg.k, cfg.tau
            )
        for name, db in (("s2t", s2t), ("t2s", t2s)):
            with tr.span("retrieval.save_candidate_db"):
                save_candidate_db(db, os.path.join(cand_dir, f"{name}.tsv"))
        with tr.span("retrieval.load_candidate_db"):
            s2t = load_candidate_db(os.path.join(cand_dir, "s2t.tsv"), source)
        with tr.span("retrieval.load_candidate_db"):
            t2s = load_candidate_db(os.path.join(cand_dir, "t2s.tsv"), target)
        template = config_mod.load_template(cfg)
        with tr.span("evaluation.load_reference"):
            reference = load_reference(inputs.reference)
        for p in PIPELINES:
            run_dir = os.path.join(out_dir, "runs", p)
            os.makedirs(run_dir, exist_ok=True)
            with tr.span("llm.build_client"):
                inner = config_mod.build_llm_client(
                    cfg, log_path=os.path.join(run_dir, "llm_log.jsonl")
                )
            with tr.span(f"matcher.match_{p}") as match_span:
                llm = TimedClient(inner, tr, match_span)
                clients.append(llm)
                if p == "mila":
                    result = match_mila(
                        None, s2t, t2s, llm, template, source_onto=source,
                        target_onto=target, max_workers=cfg.match_workers,
                    )
                else:
                    result = match_baseline(
                        None, s2t, llm, template, source_onto=source,
                        target_onto=target, max_workers=cfg.match_workers,
                    )
            reports[p] = result
            with tr.span("matcher.write_alignment"):
                write_alignment(result.alignment,
                                os.path.join(run_dir, "alignment.tsv"))
            with tr.span("matcher.write_trace"):
                write_trace(result.trace, os.path.join(run_dir, "trace.tsv"))
            with tr.span("matcher.write_report"):
                write_report(result, os.path.join(run_dir, "report.json"))
            with tr.span("evaluation.evaluate"):
                scores = evaluate(result.alignment, reference)
            write_eval_report(scores, os.path.join(run_dir, "eval.json"))
    stub_requests = stub.stats()["requests"] - requests_before if stub else None
    check_outputs(out_dir, inputs, gate, stub_requests, digests)

    def total(name: str) -> float:
        return tr.total(name, first)

    latencies = [x for c in clients for x in c.latencies]
    queries = len(latencies)
    busy = sum(latencies)
    matcher_s = total("matcher.match_mila") + total("matcher.match_baseline")
    encode_s = total("embedding.build_kb")
    candidates_s = total("retrieval.build_candidate_dbs")
    n_s, n_t, dim = len(kbs["source"]), len(kbs["target"]), kbs["source"].dim
    gflop = 2 * (2.0 * n_s * n_t * dim) / 1e9  # s2t and t2s products
    s2t_pairs = [(s, t) for s, lst in s2t.lists.items() for t in lst.ids()]
    backed = sum(1 for s, t in s2t_pairs
                 if t2s.candidates_of(t).score_of(s) is not None)
    if stub:
        requests = stub_requests
        max_in_flight = stub.stats()["max_in_flight"]
    else:
        requests = sum(c.attempts for c in clients)
        max_in_flight = max(c.max_in_flight for c in clients)
    p99 = (statistics.quantiles(latencies, n=100, method="inclusive")[98]
           if queries > 1 else max(latencies, default=0.0))
    return {
        "ontology.parse_s": total("ontology.load_ontology"),
        "ontology.labels": sum(len(e.labels) for o in (source, target) for e in o),
        "embedding.provider_init_s": total("embedding.build_provider"),
        "embedding.encode_s": encode_s,
        "embedding.labels_per_s": (n_s + n_t) / encode_s,
        "retrieval.kb_write_s": total("retrieval.save_kb"),
        "retrieval.kb_read_s": total("retrieval.load_kb"),
        "retrieval.kb_bytes": _dir_bytes(kb_dir),
        "retrieval.candidates_s": candidates_s,
        "retrieval.gemm_gflop": gflop,
        "retrieval.gemm_gflop_per_s": gflop / candidates_s,
        "retrieval.candidate_pairs": s2t.total_candidates + t2s.total_candidates,
        "retrieval.bidirectional_share": backed / max(len(s2t_pairs), 1),
        "retrieval.db_write_s": total("retrieval.save_candidate_db"),
        "retrieval.db_read_s": total("retrieval.load_candidate_db"),
        "retrieval.db_bytes": _dir_bytes(cand_dir),
        "matcher.mila_s": total("matcher.match_mila"),
        "matcher.baseline_s": total("matcher.match_baseline"),
        "matcher.hcb_share": reports["mila"].hcb_count / len(source),
        "matcher.artifact_write_s": sum(
            total(f"matcher.write_{kind}")
            for kind in ("alignment", "trace", "report")
        ),
        "llm.queries": queries,
        "llm.busy_s": busy,
        "llm.wait_share": busy / matcher_s,
        "llm.latency_p50_ms": statistics.median(latencies or [0.0]) * 1000.0,
        "llm.latency_p99_ms": p99 * 1000.0,
        "llm.latency_samples": queries,
        "llm.yes_share": sum(c.yes for c in clients) / max(queries, 1),
        "llm.requests_per_query": requests / max(queries, 1),
        "llm.max_in_flight": max_in_flight,
        "evaluation.evaluate_s": total("evaluation.evaluate"),
        "trace.total_s": tr.total("flow", flow_span),
    }


def traced(args, inputs, config_path: str, work: str, stub,
           spans_path: str) -> tuple[dict, Gate]:
    gate = Gate()
    cfg = config_mod.build_config(config_mod.load_config_file(config_path))
    tracer = Tracer()
    samples: dict[str, list[float]] = {"trace.total_s": []}
    digests: list[str] = []
    out_dir = os.path.join(work, "out")
    start = time.perf_counter()
    while fits_another(start, samples["trace.total_s"], args.seconds):
        try:
            sample = traced_flow(cfg, inputs, out_dir, tracer, stub, gate,
                                 digests)
        except OntomatchError as exc:
            gate.check(False, f"traced flow raised {exc!r}")
            break
        for name, value in sample.items():
            samples.setdefault(name, []).append(value)
    with open(spans_path, "w", encoding="utf-8") as handle:
        for index, span in enumerate(tracer.spans):
            handle.write(json.dumps({"id": index, **span}) + "\n")
    if not digests:
        return {}, gate
    metrics = report(samples, metric_units("per_layer"))
    check_across_runs(digests[0], args.workload, args.seed, gate)
    print(f"artifact sha256 {digests[0]}")
    print(f"spans: {len(tracer.spans)} written to {spans_path}")
    return metrics, gate
