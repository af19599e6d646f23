"""Pieces shared by the untraced and the traced benchmark runs.

Both runs leave the same artifact layout under one ``out`` directory
(``kb/``, ``candidates/``, ``runs/<pipeline>/``), so one correctness gate
reads them both. Metric names and units come from ``BENCHMARK.json``.
"""

from __future__ import annotations

import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
import urllib.request

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "perfbench")
STUB = os.path.join(BENCH, "stub_chat.py")
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")
PIPELINES = ("mila", "baseline")


def metric_units(kind: str) -> dict[str, str]:
    """name -> unit of the "end_to_end" or "per_layer" metrics, in order."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as handle:
        return {m["name"]: m["unit"] for m in json.load(handle)[kind]}


class Gate:
    """Counts operations and the failed ones, with a reason per failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def ops(self, count: int, failed: int = 0, reason: str = "") -> None:
        self.attempted += count
        if failed:
            self.failed += failed
            self.reasons.append(f"{failed} x {reason}")

    def check(self, ok: bool, reason: str) -> None:
        self.ops(1, 0 if ok else 1, reason)


def fits_another(start: float, cycles: list[float], seconds: float) -> bool:
    """Run the first cycle always, then each one that ends in time even if
    it is as slow as the slowest cycle so far."""
    if not cycles:
        return True
    return time.perf_counter() - start + max(cycles) <= seconds


def report(samples: dict[str, list[float]], units: dict[str, str]) -> dict:
    """Print mean, median, quartiles and sample count; return JSON metrics.

    The JSON value is the mean. The VM this was tuned on runs each vCPU at
    one of two speeds about 1.5x apart, so a short verb's samples fall into
    two clusters; the median jumps from one cluster to the other as their
    shares change between runs, while the mean moves in proportion.
    """
    print(f"{'metric':32} {'mean':>12} {'median':>12} {'q1':>12} "
          f"{'q3':>12} {'n':>3}  unit")
    metrics = {}
    for name, unit in units.items():
        values = samples[name]
        mean = statistics.fmean(values)
        q1, median, q3 = (statistics.quantiles(values, n=4)
                          if len(values) > 1 else values * 3)
        print(f"{name:32} {mean:12.6g} {median:12.6g} {q1:12.6g} {q3:12.6g} "
              f"{len(values):3d}  {unit}")
        metrics[name] = {"value": mean, "unit": unit}
    return metrics


class Stub:
    """The chat stub endpoint, running in its own process."""

    def __init__(self, inputs, log_path: str):
        self._log = open(log_path, "ab")
        self.proc = subprocess.Popen(
            [sys.executable, STUB, "--source", inputs.source_dump,
             "--target", inputs.target_dump, "--reference", inputs.reference],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=self._log,
            cwd=ROOT,
        )
        line = self.proc.stdout.readline().decode().split()
        if len(line) != 2 or line[0] != "PORT":
            self.close()
            raise RuntimeError("chat stub did not start")
        self.url = f"http://127.0.0.1:{line[1]}"

    def stats(self) -> dict:
        with urllib.request.urlopen(self.url + "/stats", timeout=10) as resp:
            return json.load(resp)

    def close(self) -> None:
        self.proc.terminate()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdin.close()
        self.proc.stdout.close()
        self._log.close()


def artifact_digest(out_dir: str) -> str:
    """sha256 over the KB, candidate-DB and alignment files of one flow."""
    paths = []
    for sub in ("kb", "candidates"):
        for dirpath, _, names in os.walk(os.path.join(out_dir, sub)):
            paths += [os.path.join(dirpath, n) for n in names if "timings" not in n]
    paths += [os.path.join(out_dir, "runs", p, "alignment.tsv") for p in PIPELINES]
    hasher = hashlib.sha256()
    for path in sorted(paths):
        hasher.update(os.path.relpath(path, out_dir).encode() + b"\0")
        with open(path, "rb") as handle:
            hasher.update(handle.read())
    return hasher.hexdigest()


def code_digest() -> str:
    """sha256 over the program's sources and the bench's own files."""
    hasher = hashlib.sha256()
    for top in (os.path.join(ROOT, "src"), BENCH):
        for dirpath, dirnames, names in os.walk(top):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(names):
                path = os.path.join(dirpath, name)
                hasher.update(os.path.relpath(path, ROOT).encode() + b"\0")
                with open(path, "rb") as handle:
                    hasher.update(handle.read())
    return hasher.hexdigest()


def check_across_runs(digest: str, workload: str, seed: int, gate: Gate) -> None:
    """Gate the artifact digest against earlier runs of the same code.

    The first run of a workload and seed stores its digest under
    .perfbench_work/digests/, keyed by code_digest(); every later run of
    that key, traced or not, must produce the same bytes.
    """
    store = os.path.join(WORK_ROOT, "digests")
    path = os.path.join(store, f"{workload}-s{seed}-{code_digest()[:16]}")
    if os.path.exists(path):
        with open(path, "r", encoding="utf-8") as handle:
            stored = handle.read().strip()
        gate.check(stored == digest,
                   f"artifact sha256 {digest} differs from {stored} of an "
                   "earlier run of this code and seed")
        return
    os.makedirs(store, exist_ok=True)
    with open(path + ".tmp", "w", encoding="utf-8") as handle:
        handle.write(digest + "\n")
    os.replace(path + ".tmp", path)


def _read_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def check_outputs(out_dir: str, inputs, gate: Gate, stub_requests: int | None,
                  digests: list[str]) -> dict[str, float]:
    """Gate one finished flow; return its query counts and F-measures.

    Checks: no partial report, F = 1.0 for both pipelines, equal mila and
    baseline pairs, llm_log lines = llm_query_count, the manifest's planned
    query counts where it has them, every stub request answered, and
    artifact bytes equal to the first flow's. Each LLM query is one
    operation; an Unparseable verdict fails it.
    """
    # imported here: this module loads before src/ is known to exist
    from ontomatch.matcher import read_alignment

    found: dict[str, float] = {}
    pairs = {}
    for p in PIPELINES:
        run_dir = os.path.join(out_dir, "runs", p)
        report_json = _read_json(os.path.join(run_dir, "report.json"))
        f_measure = _read_json(os.path.join(run_dir, "eval.json"))["f_measure"]
        log_path = os.path.join(run_dir, "llm_log.jsonl")
        log_lines = []
        if os.path.exists(log_path):
            with open(log_path, "r", encoding="utf-8") as handle:
                log_lines = [json.loads(line) for line in handle if line.strip()]
        queries = report_json["llm_query_count"]
        pairs[p] = read_alignment(os.path.join(run_dir, "alignment.tsv")).pairs
        unparseable = sum(1 for r in log_lines if r["verdict"] == "Unparseable")
        gate.ops(queries, unparseable, f"unparseable {p} LLM replies")
        gate.check(not report_json["partial"], f"{p} report is partial")
        gate.check(f_measure == 1.0, f"{p} F = {f_measure}, expected 1.0")
        gate.check(len(log_lines) == queries,
                   f"{p} llm_log has {len(log_lines)} lines for {queries} queries")
        planned = getattr(inputs, f"planned_{p}")
        if planned is not None:
            gate.check(queries == planned,
                       f"{p} issued {queries} queries, planned {planned}")
        found[f"llm_queries_{p}"] = queries
        found[f"f_measure_{p}"] = f_measure
    gate.check(pairs["mila"] == pairs["baseline"],
               "mila and baseline alignments differ")
    if stub_requests is not None:
        answered = found["llm_queries_mila"] + found["llm_queries_baseline"]
        gate.ops(0, max(0, stub_requests - answered),
                 "stub requests without a logged reply")
    digests.append(artifact_digest(out_dir))
    gate.check(digests[-1] == digests[0],
               "KB / candidate-DB / alignment bytes differ between flows")
    return found
