"""End-to-end command-line flows, exit codes, and artifact layout."""

import errno
import gc
import hashlib
import json
import os
import re
import signal
import stat
import subprocess
import sys
import threading
from contextlib import suppress
from types import SimpleNamespace

import pytest

from ontomatch import (
    candidates, cli, embedding, errors, evaluation, matcher, retrieval, transport,
)
from ontomatch.cli import main
from ontomatch.errors import EXIT_CONFIG, EXIT_ENDPOINT, EXIT_OK, EXIT_PARSE

from stubs import RecordingServer, cyclic_garbage, embedding_behavior


def make_corpus(tmp_path, n=12, hcb="0.5", seed="0"):
    """Generate a corpus via the CLI; returns (out_dir, config_path)."""
    out = str(tmp_path / "out")
    rc = main([
        "gen-synthetic", "--n", str(n), "--hcb-fraction", hcb,
        "--out", out, "--seed", seed,
    ])
    assert rc == EXIT_OK
    return out, os.path.join(out, "synthetic", "corpus.config")


def read_bytes(path):
    with open(path, "rb") as handle:
        return handle.read()


def read_text(*parts):
    with open(os.path.join(*parts), encoding="utf-8") as handle:
        return handle.read()


def test_gen_synthetic_writes_corpus_and_ready_config(tmp_path, capsys):
    out, config = make_corpus(tmp_path, n=10, hcb="0.8")
    captured = capsys.readouterr().out
    assert "10 pairs (8 HCB, 2 rank-2)" in captured
    assert config in captured
    for name in ("source.tsv", "target.tsv", "reference.tsv", "vectors.tsv",
                 "manifest.json"):
        assert os.path.exists(os.path.join(out, "synthetic", name))
    from ontomatch.config import build_config, load_config_file

    cfg = build_config(load_config_file(config))
    assert cfg.embedding_kind == "file"
    assert cfg.llm_kind == "oracle"
    assert cfg.k == 5 and cfg.tau == 0.75


def test_stepwise_flow_produces_expected_counts(tmp_path, capsys):
    # 6 anchor pairs and 6 single-parasite groups: 12 prompts for the
    # escalation pipeline, 5 candidates per source for the baseline.
    out, config = make_corpus(tmp_path, n=12, hcb="0.5")
    assert main(["build-kb", "--config", config]) == EXIT_OK
    assert os.path.exists(os.path.join(out, "kb", "source.kb"))
    assert os.path.exists(os.path.join(out, "kb", "target.kb"))
    assert main(["predict", "--config", config]) == EXIT_OK
    assert os.path.exists(os.path.join(out, "candidates", "s2t.tsv"))
    assert main(["match", "--config", config, "--run-id", "run-m"]) == EXIT_OK
    assert main([
        "match", "--config", config, "--pipeline", "baseline",
        "--run-id", "run-b",
    ]) == EXIT_OK

    mila_dir = os.path.join(out, "runs", "run-m")
    base_dir = os.path.join(out, "runs", "run-b")
    for name in ("alignment.tsv", "trace.tsv", "report.json", "config.txt",
                 "llm_log.jsonl"):
        assert os.path.exists(os.path.join(mila_dir, name))
    mila_report = json.loads(read_text(mila_dir, "report.json"))
    base_report = json.loads(read_text(base_dir, "report.json"))
    assert mila_report["pipeline"] == "mila"
    assert mila_report["llm_query_count"] == 12
    assert mila_report["hcb_count"] == 6
    assert base_report["llm_query_count"] == 60
    assert base_report["hcb_count"] == 0

    for line in read_text(mila_dir, "llm_log.jsonl").splitlines():
        entry = json.loads(line)
        assert entry["verdict"] in ("Yes", "No", "Unparseable")
        assert len(entry["pair"]) == 2

    reference = os.path.join(out, "synthetic", "reference.tsv")
    alignment = os.path.join(mila_dir, "alignment.tsv")
    capsys.readouterr()
    assert main([
        "eval", "--config", config, "--alignment", alignment,
        "--reference", reference,
    ]) == EXIT_OK
    summary = capsys.readouterr().out
    assert "P=1.000 R=1.000 F=1.000" in summary
    assert "|R|=12" in summary
    assert os.path.exists(os.path.join(mila_dir, "eval.json"))

    assert main([
        "compare", mila_dir, base_dir, "--reference", reference,
        "--config", config,
    ]) == EXIT_OK
    table = read_text(out, "compare.txt")
    assert "llm_queries" in table
    assert "12" in table and "60" in table
    assert "0.200" in table
    assert os.path.exists(os.path.join(out, "compare.tsv"))


def test_ontology_names_with_spaces_pass_through_every_verb(tmp_path, capsys):
    # a name is any text without a newline, in every artifact's header
    out, config = make_corpus(tmp_path, n=20, hcb="0.5", seed="1")
    named = variant_config(config, {
        "source.name": "Human Phenotype", "target.name": "Mouse  Anatomy",
    })
    reference = os.path.join(out, "synthetic", "reference.tsv")
    runs = [os.path.join(out, "runs", pipeline) for pipeline in ("mila", "baseline")]
    for argv in (
        ["build-kb"], ["predict"],
        *(["match", "--pipeline", pipeline, "--run-id", pipeline]
          for pipeline in ("mila", "baseline")),
        *(["eval", "--alignment", os.path.join(run, "alignment.tsv"),
           "--reference", reference] for run in runs),
        ["compare", *runs, "--reference", reference],
    ):
        assert main(argv + ["--config", named]) == EXIT_OK, argv
    for run in runs:
        alignment = matcher.read_alignment(os.path.join(run, "alignment.tsv"))
        assert (alignment.source_onto, alignment.target_onto) == (
            "Human Phenotype", "Mouse  Anatomy"
        )
    assert "error" not in capsys.readouterr().err


def run_artifacts(out):
    """Every file under out, minus what differs from run to run: wall times
    in report.json, latencies in llm_log.jsonl, the out path in config.txt
    and the run paths in eval.json, and the match_wall_time row of the
    compare tables."""
    found = {}
    for dirpath, _, names in os.walk(out):
        for name in names:
            path = os.path.join(dirpath, name)
            text = read_bytes(path)
            if name == "report.json":
                text = json.loads(text)
                del text["wall_times_s"]
            elif name == "llm_log.jsonl":
                text = [json.loads(line) for line in text.splitlines()]
                for entry in text:
                    del entry["latency_s"]
            elif name == "config.txt":
                text = text.replace(f"out = {out}\n".encode(), b"out = OUT\n")
            elif name == "eval.json":
                text = text.replace(os.path.join(out, "runs").encode(), b"OUT")
            elif name.startswith("compare."):
                text = [line for line in text.splitlines()
                        if not line.startswith(b"match_wall_time")]
            found[os.path.relpath(path, out)] = text
    return found


def test_stage_lines_print_seconds_to_three_decimals(tmp_path, capsys):
    _, config = make_corpus(tmp_path, n=6)
    capsys.readouterr()
    assert main(["build-kb", "--config", config]) == EXIT_OK
    assert main(["predict", "--config", config]) == EXIT_OK
    built, predicted = capsys.readouterr().out.splitlines()
    assert re.fullmatch(r"built KBs: .* in \d+\.\d{3} s", built)
    assert re.fullmatch(r"candidate DBs: .* in \d+\.\d{3} s", predicted)


def test_match_summary_prints_seconds_to_three_decimals(tmp_path, capsys):
    _, config = make_corpus(tmp_path, n=6)
    assert main(["build-kb", "--config", config]) == EXIT_OK
    assert main(["predict", "--config", config]) == EXIT_OK
    capsys.readouterr()
    assert main(["match", "--config", config, "--run-id", "m"]) == EXIT_OK
    summary = capsys.readouterr().out.splitlines()[0]
    assert re.fullmatch(r"mila: 6 correspondences, .*, \d+\.\d{3} s -> .*m",
                        summary), summary


def test_run_all_reproduces_the_stepwise_artifacts(tmp_path, capsys):
    out, config = make_corpus(tmp_path, n=12, hcb="0.5")
    reference = os.path.abspath(os.path.join(out, "synthetic", "reference.tsv"))
    run_dirs = [os.path.join(out, "runs", f"fixed-{p}") for p in ("mila", "baseline")]
    assert main(["build-kb", "--config", config]) == EXIT_OK
    assert main(["predict", "--config", config]) == EXIT_OK
    for pipeline, run_dir in zip(("mila", "baseline"), run_dirs):
        assert main([
            "match", "--config", config, "--pipeline", pipeline,
            "--run-id", os.path.basename(run_dir),
        ]) == EXIT_OK
        assert main([
            "eval", "--config", config, "--reference", reference,
            "--alignment", os.path.join(run_dir, "alignment.tsv"),
        ]) == EXIT_OK
    assert main([
        "compare", *run_dirs, "--reference", reference, "--config", config,
    ]) == EXIT_OK

    out2 = str(tmp_path / "out2")
    capsys.readouterr()
    assert main([
        "run-all", "--config", config, "--out", out2,
        "--pipeline", "both", "--run-id", "fixed",
    ]) == EXIT_OK
    assert "skipping evaluation" not in capsys.readouterr().out
    stepwise = {
        path: data for path, data in run_artifacts(out).items()
        if not path.startswith("synthetic")
    }
    together = run_artifacts(out2)
    assert sorted(together) == sorted(stepwise)
    assert {os.path.basename(path) for path in together} == {
        "source.kb", "target.kb", "s2t.tsv", "t2s.tsv",
        "alignment.tsv", "trace.tsv", "report.json", "llm_log.jsonl",
        "config.txt", "eval.json", "compare.txt", "compare.tsv",
    }
    for path, data in together.items():
        assert data == stepwise[path], path
    for pipeline in ("mila", "baseline"):
        run_dir = os.path.join(out2, "runs", f"fixed-{pipeline}")
        metadata = json.loads(read_text(run_dir, "eval.json"))["metadata"]
        assert metadata == {
            "alignment_path": os.path.join(run_dir, "alignment.tsv"),
            "reference_path": reference,
            "split": "full",
        }


def test_run_all_reads_each_input_once(tmp_path, monkeypatch):
    out, config = make_corpus(tmp_path, n=8, hcb="0.75")
    calls = {}

    def count(module, name):
        real = getattr(module, name)
        calls[name] = 0

        def counted(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    count(cli.config_mod, "build_provider")
    count(cli, "load_ontology")
    # cli and config import the other readers inside the verbs that use
    # them, so each is counted in the module that defines it; the oracle and
    # the scoring read one reference file in this config
    count(evaluation, "load_reference")
    count(candidates, "load_candidate_db")
    for name in ("read_alignment", "read_report"):
        count(matcher, name)
    count(retrieval, "load_kb")
    assert main([
        "run-all", "--config", config, "--pipeline", "both", "--run-id", "r",
    ]) == EXIT_OK
    assert calls == {
        "build_provider": 1, "load_reference": 1, "load_ontology": 2, "load_kb": 0,
        "load_candidate_db": 0, "read_alignment": 0, "read_report": 0,
    }


def test_run_all_without_reference_skips_evaluation(tmp_path, capsys):
    out, config = make_corpus(tmp_path, n=6, hcb="1.0")
    lines = [
        line for line in read_text(config).splitlines()
        if not line.startswith("eval.reference")
    ]
    stripped = tmp_path / "noeval.config"
    stripped.write_text("\n".join(lines) + "\n")
    assert main([
        "run-all", "--config", str(stripped), "--run-id", "solo",
    ]) == EXIT_OK
    assert "skipping evaluation" in capsys.readouterr().out
    assert not os.path.exists(os.path.join(out, "runs", "solo", "eval.json"))


def test_rebuilds_are_byte_identical(tmp_path):
    out, config = make_corpus(tmp_path, n=8, hcb="0.75")
    assert main(["build-kb", "--config", config]) == EXIT_OK
    kb_first = read_bytes(os.path.join(out, "kb", "source.kb"))
    assert main(["build-kb", "--config", config]) == EXIT_OK
    assert read_bytes(os.path.join(out, "kb", "source.kb")) == kb_first

    assert main(["predict", "--config", config]) == EXIT_OK
    s2t_first = read_bytes(os.path.join(out, "candidates", "s2t.tsv"))
    assert main(["predict", "--config", config]) == EXIT_OK
    assert read_bytes(os.path.join(out, "candidates", "s2t.tsv")) == s2t_first

    assert main(["match", "--config", config, "--run-id", "a"]) == EXIT_OK
    assert main(["match", "--config", config, "--run-id", "b"]) == EXIT_OK
    assert read_bytes(os.path.join(out, "runs", "a", "alignment.tsv")) == read_bytes(
        os.path.join(out, "runs", "b", "alignment.tsv")
    )


def test_artifact_modes_follow_the_umask(tmp_path):
    out, config = make_corpus(tmp_path, n=6, hcb="1.0")
    umask = 0o027
    previous = os.umask(umask)
    try:
        assert main(["build-kb", "--config", config]) == EXIT_OK
        assert main(["predict", "--config", config]) == EXIT_OK
        assert main(["match", "--config", config, "--run-id", "m"]) == EXIT_OK
    finally:
        os.umask(previous)
    for path in (
        os.path.join(out, "kb", "source.kb"),
        os.path.join(out, "runs", "m", "alignment.tsv"),
    ):
        assert stat.S_IMODE(os.stat(path).st_mode) == 0o666 & ~umask


def test_match_before_predict_is_a_config_error(tmp_path, capsys):
    out, config = make_corpus(tmp_path, n=6, hcb="1.0")
    assert main(["build-kb", "--config", config]) == EXIT_OK
    rc = main(["match", "--config", config, "--run-id", "early"])
    assert rc == EXIT_CONFIG
    assert "run `ontomatch predict` first" in capsys.readouterr().err


def test_match_with_mismatched_k_is_stale(tmp_path, capsys):
    out, config = make_corpus(tmp_path, n=6, hcb="1.0")
    assert main(["build-kb", "--config", config]) == EXIT_OK
    assert main(["predict", "--config", config, "--k", "2"]) == EXIT_OK
    rc = main(["match", "--config", config, "--run-id", "stale"])
    assert rc == EXIT_CONFIG
    assert "re-run predict" in capsys.readouterr().err


def test_missing_dumps_and_bad_values_exit_config(tmp_path, capsys):
    empty = tmp_path / "empty.config"
    empty.write_text("# no dumps configured\n")
    assert main(["build-kb", "--config", str(empty)]) == EXIT_CONFIG
    assert "source.dump and target.dump" in capsys.readouterr().err

    unknown = tmp_path / "unknown.config"
    unknown.write_text("frobnicate = yes\n")
    assert main(["build-kb", "--config", str(unknown)]) == EXIT_CONFIG

    out, config = make_corpus(tmp_path, n=6, hcb="1.0")
    assert main(["build-kb", "--config", config, "--k", "0"]) == EXIT_CONFIG
    assert main(["build-kb", "--config", config, "--tau", "1.5"]) == EXIT_CONFIG


def test_malformed_dump_exits_parse(tmp_path, capsys):
    dump = tmp_path / "bad.tsv"
    dump.write_text("onlyonefield\n")
    config = tmp_path / "bad.config"
    config.write_text(f"source.dump = {dump}\ntarget.dump = {dump}\n")
    assert main(["build-kb", "--config", str(config)]) == EXIT_PARSE
    assert "error:" in capsys.readouterr().err


def test_rejecting_embedding_endpoint_exits_endpoint(tmp_path, capsys):
    dump = tmp_path / "tiny.tsv"
    dump.write_text("a:1\talpha\nb:1\tbeta\n")
    with RecordingServer(lambda payload, index: (404, {"error": "nope"})) as server:
        config = tmp_path / "http.config"
        config.write_text(
            f"source.dump = {dump}\n"
            f"target.dump = {dump}\n"
            "embedding.kind = http\n"
            f"embedding.url = {server.url}\n"
        )
        assert main(["build-kb", "--config", str(config)]) == EXIT_ENDPOINT
    assert "error:" in capsys.readouterr().err


def test_chat_endpoint_death_keeps_partial_run(tmp_path, capsys):
    out, config = make_corpus(tmp_path, n=4, hcb="0.5")
    with RecordingServer(lambda payload, index: (404, {"error": "gone"})) as server:
        text = read_text(config).replace(
            "llm.kind = oracle", "llm.kind = http-chat"
        )
        # one worker: the kept prefix is the walks before the first prompt
        text += f"llm.url = {server.url}\nllm.model = stub\nmatch.workers = 1\n"
        dead = tmp_path / "dead.config"
        dead.write_text(text)
        assert main(["build-kb", "--config", str(dead)]) == EXIT_OK
        assert main(["predict", "--config", str(dead)]) == EXIT_OK
        rc = main(["match", "--config", str(dead), "--run-id", "dying"])
    assert rc == EXIT_ENDPOINT
    assert "partial" in capsys.readouterr().err
    report = json.loads(read_text(out, "runs", "dying", "report.json"))
    assert report["partial"] is True
    assert report["hcb_count"] == 2
    assert report["llm_query_count"] == 0
    assert report["llm_queries_issued"] == 0


def prompt_verdicts(payload, index):
    """A chat reply that depends on the prompt alone, not on request order."""
    prompt = payload["messages"][0]["content"]
    reply = "Yes" if hashlib.sha256(prompt.encode("utf-8")).digest()[0] % 2 else "No"
    return 200, {"choices": [{"message": {"content": reply}}]}


def chat_config(config, server, settings=()):
    """A copy of config that asks server's chat endpoint."""
    return variant_config(config, {
        "llm.kind": "http-chat", "llm.url": server.url, "llm.model": "stub",
        **dict(settings),
    })


def log_lines(run_dir):
    path = os.path.join(run_dir, "llm_log.jsonl")
    return read_text(path).splitlines() if os.path.exists(path) else []


def test_chat_runs_match_four_sources_at_once_by_default(tmp_path):
    out, config = make_corpus(tmp_path, n=12, hcb="0.5")
    assert main(["build-kb", "--config", config]) == EXIT_OK
    assert main(["predict", "--config", config]) == EXIT_OK
    run_dirs = {w: os.path.join(out, "runs", f"w{w}") for w in (4, 1)}
    # the first four requests wait until all four are in flight at once
    together = threading.Barrier(4, timeout=10)

    def behavior(payload, index):
        if index < 4:
            with suppress(threading.BrokenBarrierError):
                together.wait()
        return prompt_verdicts(payload, index)

    with RecordingServer(behavior) as server:
        assert main([
            "match", "--config", chat_config(config, server),
            "--pipeline", "baseline", "--run-id", "w4",
        ]) == EXIT_OK
        assert server.max_in_flight == 4
        assert main([
            "match", "--config", chat_config(config, server, {"match.workers": "1"}),
            "--pipeline", "baseline", "--run-id", "w1",
        ]) == EXIT_OK
    for name in ("alignment.tsv", "trace.tsv"):
        assert read_bytes(os.path.join(run_dirs[4], name)) == read_bytes(
            os.path.join(run_dirs[1], name)
        ), name
    for workers, run_dir in run_dirs.items():
        assert f"match.workers = {workers}" in read_text(run_dir, "config.txt")
        report = json.loads(read_text(run_dir, "report.json"))
        assert report["llm_queries_issued"] == report["llm_query_count"]
        assert len(log_lines(run_dir)) == report["llm_query_count"]


@pytest.mark.parametrize("answered", [0, 7, 1000])
@pytest.mark.parametrize("workers", [1, 4])
def test_llm_log_holds_one_line_per_issued_query_on_every_exit_path(
    tmp_path, workers, answered
):
    # the endpoint answers `answered` requests, then rejects every one
    out, config = make_corpus(tmp_path, n=12, hcb="0.5")
    assert main(["build-kb", "--config", config]) == EXIT_OK
    assert main(["predict", "--config", config]) == EXIT_OK

    def behavior(payload, index):
        if index >= answered:
            return 404, {"error": "gone"}
        return prompt_verdicts(payload, index)

    with RecordingServer(behavior, delay_s=0.005) as server:
        rc = main([
            "match", "--config",
            chat_config(config, server, {"match.workers": str(workers)}),
            "--pipeline", "baseline", "--run-id", "r",
        ])
        requests = len(server.payloads)
    run_dir = os.path.join(out, "runs", "r")
    report = json.loads(read_text(run_dir, "report.json"))
    complete = answered >= requests
    assert rc == (EXIT_OK if complete else EXIT_ENDPOINT)
    assert report["partial"] is not complete
    assert report["llm_queries_issued"] == min(answered, requests)
    assert len(log_lines(run_dir)) == report["llm_queries_issued"]
    assert report["llm_query_count"] <= report["llm_queries_issued"]


def name_a_missing_target(out):
    """Make the last s2t row name a target the dump lacks; every other row
    comes first."""
    s2t_path = os.path.join(out, "candidates", "s2t.tsv")
    lines = read_text(s2t_path).splitlines()
    owner, _, score = lines[-1].split("\t")
    lines[-1] = f"{owner}\tT99999\t{score}"
    with open(s2t_path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")


@pytest.mark.parametrize("pipeline", ["mila", "baseline"])
@pytest.mark.parametrize("workers", [1, 4])
def test_a_stale_candidate_exits_parse_before_any_request(
    tmp_path, capsys, pipeline, workers
):
    out, config = make_corpus(tmp_path, n=6, hcb="0.5")
    assert main(["build-kb", "--config", config]) == EXIT_OK
    assert main(["predict", "--config", config]) == EXIT_OK
    name_a_missing_target(out)
    capsys.readouterr()
    with RecordingServer(prompt_verdicts) as server:
        rc = main([
            "match", "--config",
            chat_config(config, server, {"match.workers": str(workers)}),
            "--pipeline", pipeline, "--run-id", "stale",
        ])
        assert server.payloads == []
    assert rc == EXIT_PARSE
    assert "'T99999'" in capsys.readouterr().err
    assert not os.path.exists(os.path.join(out, "runs", "stale"))


@pytest.mark.parametrize("key", ["source.name", "target.name"])
def test_match_on_dbs_built_under_other_names_is_stale_before_any_request(
    tmp_path, capsys, key
):
    # the prompts would name the config's ontologies, the alignment the DBs'
    out, config = make_corpus(tmp_path, n=10, hcb="0.5")
    assert main(["build-kb", "--config", config]) == EXIT_OK
    assert main(["predict", "--config", config]) == EXIT_OK
    capsys.readouterr()
    with RecordingServer(prompt_verdicts) as server:
        renamed = variant_config(chat_config(config, server), {key: "Renamed"})
        rc = main(["match", "--config", renamed, "--run-id", "renamed"])
        assert server.payloads == []
    assert rc == EXIT_CONFIG
    assert "re-run predict" in capsys.readouterr().err
    assert not os.path.exists(os.path.join(out, "runs"))


def test_gen_synthetic_refuses_an_out_a_config_file_cannot_hold(tmp_path, capsys):
    out = str(tmp_path / "o ")
    rc = main(["gen-synthetic", "--n", "4", "--out", out])
    assert rc == EXIT_CONFIG
    assert "config key 'out'" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("again", ["mila", "baseline"])
def test_a_rerun_under_one_run_id_starts_a_fresh_llm_log(tmp_path, again):
    # every pair is HCB, so mila asks nothing and the baseline asks 30 times
    out, config = make_corpus(tmp_path, n=6, hcb="1.0")
    assert main([
        "run-all", "--config", config, "--pipeline", "baseline", "--run-id", "r1",
    ]) == EXIT_OK
    assert main([
        "match", "--config", config, "--pipeline", again, "--run-id", "r1",
    ]) == EXIT_OK
    run_dir = os.path.join(out, "runs", "r1")
    report = json.loads(read_text(run_dir, "report.json"))
    assert report["llm_queries_issued"] == (30 if again == "baseline" else 0)
    assert len(log_lines(run_dir)) == report["llm_queries_issued"]


RUN_FILES = ("alignment.tsv", "config.txt", "eval.json", "llm_log.jsonl",
             "report.json", "trace.tsv")


def dir_bytes(path):
    """{name: bytes} of every file in a directory."""
    return {name: read_bytes(os.path.join(path, name)) for name in os.listdir(path)}


def stages(out, run_id="r1"):
    """The staging directories that runs of run_id left under runs/."""
    return [
        os.path.join(out, "runs", name)
        for name in os.listdir(os.path.join(out, "runs"))
        if name.startswith(f".{run_id}-")
    ]


def _earlier_run(tmp_path):
    """A 30-query baseline run under run id r1; (out, config, its run dir)."""
    out, config = make_corpus(tmp_path, n=6, hcb="0.5")
    assert main([
        "run-all", "--config", config, "--pipeline", "baseline", "--run-id", "r1",
    ]) == EXIT_OK
    run_dir = os.path.join(out, "runs", "r1")
    assert sorted(os.listdir(run_dir)) == list(RUN_FILES)
    assert len(log_lines(run_dir)) == 30
    return out, config, run_dir


def test_a_rerun_that_fails_after_a_query_keeps_only_its_own_log(tmp_path, capsys):
    # the earlier run stays whole; the rerun's paid queries stay in its stage
    out, config, run_dir = _earlier_run(tmp_path)
    earlier = dir_bytes(run_dir)
    replies = tmp_path / "replies.txt"
    replies.write_text("No\n" * 3)
    scripted = variant_config(
        config, {"llm.kind": "scripted", "llm.replies": str(replies)}
    )
    capsys.readouterr()
    assert main([
        "match", "--config", scripted, "--pipeline", "baseline", "--run-id", "r1",
    ]) == EXIT_CONFIG
    assert "scripted client exhausted after 3 replies" in capsys.readouterr().err
    assert dir_bytes(run_dir) == earlier
    (stage,) = stages(out)
    assert os.listdir(stage) == ["llm_log.jsonl"]
    assert len(log_lines(stage)) == 3


@pytest.mark.parametrize("ending", ["complete", "partial"])
def test_a_rerun_that_writes_an_alignment_drops_the_earlier_eval(tmp_path, ending):
    # the earlier eval.json scored the earlier alignment, not the new one
    _, config, run_dir = _earlier_run(tmp_path)
    replies = tmp_path / "replies.txt"
    replies.write_text("No\n" * 100)

    def seven_then_gone(payload, index):
        return (404, {"error": "gone"}) if index >= 7 else (
            prompt_verdicts(payload, index)
        )

    with RecordingServer(seven_then_gone) as server:
        rerun = (
            variant_config(config, {"llm.kind": "scripted", "llm.replies": str(replies)})
            if ending == "complete"
            else chat_config(config, server, {"match.workers": "1"})
        )
        assert main([
            "match", "--config", rerun, "--pipeline", "baseline", "--run-id", "r1",
        ]) == (EXIT_OK if ending == "complete" else EXIT_ENDPOINT)
    assert sorted(os.listdir(run_dir)) == [n for n in RUN_FILES if n != "eval.json"]
    report = json.loads(read_text(run_dir, "report.json"))
    assert report["partial"] is (ending == "partial")
    if ending == "complete":  # every reply was No: five header lines, no rows
        assert read_text(run_dir, "alignment.tsv").count("\n") == 5


@pytest.mark.parametrize("breaker", ["stale-k", "bad-config", "stale-candidate"])
def test_a_rerun_that_fails_before_any_query_keeps_the_earlier_run(
    tmp_path, breaker
):
    out, config, run_dir = _earlier_run(tmp_path)
    earlier = dir_bytes(run_dir)
    argv = ["match", "--config", config, "--pipeline", "baseline", "--run-id", "r1"]
    if breaker == "stale-k":
        argv += ["--k", "3"]
        expected = EXIT_CONFIG
    elif breaker == "bad-config":
        argv[2] = variant_config(config, {"prompt.template": str(tmp_path / "no")})
        expected = EXIT_CONFIG
    else:
        name_a_missing_target(out)
        expected = EXIT_PARSE
    assert main(argv) == expected
    assert dir_bytes(run_dir) == earlier
    assert os.listdir(os.path.join(out, "runs")) == ["r1"]


SRC = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))


@pytest.mark.parametrize("answered", [0, 3])
def test_a_killed_rerun_leaves_the_earlier_run_and_a_stage_of_its_paid_queries(
    tmp_path, answered
):
    # SIGKILL skips every cleanup, so only the order of the writes protects
    # the earlier run
    out, config, run_dir = _earlier_run(tmp_path)
    earlier = dir_bytes(run_dir)
    held, release = threading.Event(), threading.Event()

    def hold_after_answered(payload, index):
        if index >= answered:
            held.set()
            release.wait(30)
        return prompt_verdicts(payload, index)

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    output = tmp_path / "rerun.out"
    with RecordingServer(hold_after_answered) as server, open(output, "wb") as sink:
        proc = subprocess.Popen(
            [sys.executable, "-m", "ontomatch.cli", "match", "--config",
             chat_config(config, server, {"match.workers": "1"}),
             "--pipeline", "baseline", "--run-id", "r1"],
            env=env, stdout=sink, stderr=subprocess.STDOUT,
        )
        try:
            while not held.wait(0.05):
                assert proc.poll() is None, output.read_text()
        finally:
            proc.kill()
            proc.wait()
            release.set()
        paid = [p["messages"][0]["content"] for p in server.payloads[:answered]]
    assert proc.returncode == -signal.SIGKILL
    assert dir_bytes(run_dir) == earlier
    if not answered:  # nothing was paid for, so nothing was staged
        assert stages(out) == []
        return
    (stage,) = stages(out)
    assert os.listdir(stage) == ["llm_log.jsonl"]
    assert [json.loads(line)["prompt"] for line in log_lines(stage)] == paid


def test_a_rerun_whose_swap_fails_puts_the_earlier_run_back(
    tmp_path, capsys, monkeypatch
):
    out, config, run_dir = _earlier_run(tmp_path)
    earlier = dir_bytes(run_dir)
    rename = os.rename

    def the_stage_cannot_move(src, dst):
        if os.path.basename(src).startswith(".r1-") and not src.endswith("-old"):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        rename(src, dst)

    monkeypatch.setattr(os, "rename", the_stage_cannot_move)
    capsys.readouterr()
    assert main([
        "match", "--config", config, "--pipeline", "baseline", "--run-id", "r1",
    ]) == errors.EXIT_FAILURE
    assert "could not move" in capsys.readouterr().err
    assert dir_bytes(run_dir) == earlier


@pytest.mark.parametrize("run_id", [".", "..", ".r1-0123abcd", "a/b", "r1/"])
def test_a_run_id_that_is_not_one_plain_path_component_exits_config(
    tmp_path, capsys, monkeypatch, run_id
):
    out, config = make_corpus(tmp_path, n=6, hcb="0.5")

    def no_client(*args, **kwargs):
        raise AssertionError("the LLM client was built")

    monkeypatch.setattr(cli.config_mod, "build_llm_client", no_client)
    capsys.readouterr()
    assert main(["run-all", "--config", config, "--run-id", run_id]) == EXIT_CONFIG
    assert sorted(os.listdir(out)) == ["synthetic"]
    assert main(["build-kb", "--config", config]) == EXIT_OK
    assert main(["predict", "--config", config]) == EXIT_OK
    written = run_artifacts(out)
    capsys.readouterr()
    assert main(["match", "--config", config, "--run-id", run_id]) == EXIT_CONFIG
    assert run_artifacts(out) == written
    assert capsys.readouterr().err == (
        f"error: --run-id {run_id!r} must be one path component not starting with '.'\n"
    )


def test_scripted_replies_with_several_workers_exit_config(tmp_path, capsys):
    out, config = make_corpus(tmp_path, n=6, hcb="0.5")
    assert main(["build-kb", "--config", config]) == EXIT_OK
    assert main(["predict", "--config", config]) == EXIT_OK
    replies = tmp_path / "replies.txt"
    replies.write_text("No\n" * 100)
    scripted = {"llm.kind": "scripted", "llm.replies": str(replies)}
    capsys.readouterr()
    assert main([
        "match", "--config", variant_config(config, scripted | {"match.workers": "2"}),
        "--run-id", "s",
    ]) == EXIT_CONFIG
    assert not os.path.exists(os.path.join(out, "runs", "s"))
    assert capsys.readouterr().err == (
        "error: llm.kind=scripted replays its replies in call order, so it "
        "needs match.workers = 1, got 2\n"
    )
    # unset, match.workers is 1 for the scripted client
    assert main([
        "match", "--config", variant_config(config, scripted), "--run-id", "s",
    ]) == EXIT_OK
    assert "match.workers = 1" in read_text(out, "runs", "s", "config.txt")


@pytest.mark.parametrize("split, expected", [
    ("full", "|R|=10"),
    ("train", "|R|=7"),
    ("test", "|R|=3"),
])
def test_eval_splits_restrict_the_reference(tmp_path, capsys, split, expected):
    out, config = make_corpus(tmp_path, n=10, hcb="1.0")
    assert main(["build-kb", "--config", config]) == EXIT_OK
    assert main(["predict", "--config", config]) == EXIT_OK
    assert main(["match", "--config", config, "--run-id", "r"]) == EXIT_OK
    alignment = os.path.join(out, "runs", "r", "alignment.tsv")
    reference = os.path.join(out, "synthetic", "reference.tsv")
    capsys.readouterr()
    assert main([
        "eval", "--config", config, "--alignment", alignment,
        "--reference", reference, "--split", split,
    ]) == EXIT_OK
    assert expected in capsys.readouterr().out


def test_compare_rejects_runs_with_different_settings(tmp_path, capsys):
    out, config = make_corpus(tmp_path, n=6, hcb="1.0")
    assert main(["build-kb", "--config", config]) == EXIT_OK
    assert main(["predict", "--config", config]) == EXIT_OK
    assert main(["match", "--config", config, "--run-id", "k5"]) == EXIT_OK
    assert main(["predict", "--config", config, "--k", "3"]) == EXIT_OK
    assert main([
        "match", "--config", config, "--k", "3", "--run-id", "k3",
    ]) == EXIT_OK
    reference = os.path.join(out, "synthetic", "reference.tsv")
    rc = main([
        "compare", os.path.join(out, "runs", "k5"), os.path.join(out, "runs", "k3"),
        "--reference", reference, "--config", config,
    ])
    assert rc == EXIT_CONFIG
    assert "error:" in capsys.readouterr().err


def test_compare_refuses_a_partial_run(tmp_path, capsys):
    out, config = make_corpus(tmp_path, n=6, hcb="0.5")
    assert main(["build-kb", "--config", config]) == EXIT_OK
    assert main(["predict", "--config", config]) == EXIT_OK
    assert main(["match", "--config", config, "--run-id", "whole"]) == EXIT_OK

    def three_then_gone(payload, index):
        return (404, {"error": "gone"}) if index >= 3 else (
            prompt_verdicts(payload, index)
        )

    with RecordingServer(three_then_gone) as server:
        assert main([
            "match", "--config", chat_config(config, server, {"match.workers": "1"}),
            "--pipeline", "baseline", "--run-id", "cut",
        ]) == EXIT_ENDPOINT
    capsys.readouterr()
    rc = main([
        "compare", *(os.path.join(out, "runs", r) for r in ("whole", "cut")),
        "--reference", os.path.join(out, "synthetic", "reference.tsv"),
        "--config", config,
    ])
    assert rc == EXIT_CONFIG
    assert "the baseline run is partial (" in capsys.readouterr().err
    assert not os.path.exists(os.path.join(out, "compare.txt"))


def test_compare_on_a_non_run_directory_is_a_config_error(tmp_path, capsys):
    out, config = make_corpus(tmp_path, n=6, hcb="1.0")
    reference = os.path.join(out, "synthetic", "reference.tsv")
    rc = main([
        "compare", str(tmp_path), str(tmp_path), "--reference", reference,
        "--config", config,
    ])
    assert rc == EXIT_CONFIG
    assert "is not a run directory" in capsys.readouterr().err


# The exit codes README.md documents, by error class.
DOCUMENTED_EXIT_CODES = {
    "ConfigError": 2, "InvalidParameter": 2, "StaleKB": 2, "MismatchedInputs": 2,
    "MalformedRecord": 3, "DuplicateEntityId": 3, "EmptyOntology": 3,
    "UnknownEntity": 3, "MissingVector": 3, "MissingPlaceholder": 3,
    "ZeroVector": 3, "DimensionMismatch": 3,
    "EndpointUnavailable": 4, "ProviderUnavailable": 4,
    "OntomatchError": 1, "PersistFailure": 1,
}


@pytest.mark.parametrize("error_class", sorted(
    (value for value in vars(errors).values()
     if isinstance(value, type) and issubclass(value, errors.OntomatchError)),
    key=lambda value: value.__name__,
), ids=lambda value: value.__name__)
def test_each_error_class_exits_with_its_documented_code(
    monkeypatch, capsys, error_class
):
    if error_class is errors.MalformedRecord:
        error = error_class("in.tsv", 7, "boom")
    else:
        error = error_class("boom")

    def verb(args):
        raise error

    monkeypatch.setattr(cli, "cmd_build_kb", verb)
    assert main(["build-kb"]) == DOCUMENTED_EXIT_CODES[error_class.__name__]
    assert capsys.readouterr().err == f"error: {error}\n"


def variant_config(config, settings):
    """A copy of config with each key in settings set to its value."""
    lines = [
        line for line in read_text(config).splitlines()
        if line.partition(" = ")[0] not in settings
    ]
    lines += [f"{key} = {value}" for key, value in settings.items()]
    path = f"{config}-{'-'.join(settings)}"
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")
    return path


def test_missing_or_unreadable_inputs_exit_config(tmp_path, capsys):
    out, config = make_corpus(tmp_path, n=6, hcb="1.0")
    missing = str(tmp_path / "nope.tsv")
    reference = os.path.join(out, "synthetic", "reference.tsv")
    kb_path = os.path.join(out, "kb", "source.kb")

    def exits_config(argv, message):
        capsys.readouterr()
        assert main(argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err, err

    unreadable = f"cannot read {missing}: "
    exits_config(["build-kb", "--config",
                  variant_config(config, {"source.dump": missing})], unreadable)
    exits_config(["build-kb", "--config",
                  variant_config(config, {"embedding.file": missing})], unreadable)
    exits_config(["predict", "--config", config],
                 f"KB {kb_path} does not exist; run `ontomatch build-kb` first")

    assert main(["build-kb", "--config", config]) == EXIT_OK
    assert main(["predict", "--config", config]) == EXIT_OK
    scripted = variant_config(
        config, {"llm.kind": "scripted", "llm.replies": missing}
    )
    exits_config(["match", "--config", scripted, "--run-id", "s"], unreadable)
    exits_config(["eval", "--config", config, "--alignment", missing,
                  "--reference", reference], unreadable)
    exits_config(["eval", "--config", config, "--alignment", reference,
                  "--reference", missing], unreadable)

    os.remove(kb_path)
    os.mkdir(kb_path)  # a KB path that exists but cannot be read as a file
    exits_config(["predict", "--config", config], f"cannot read {kb_path}: ")


@pytest.mark.parametrize("fraction", ["1.5", "-0.5", "nan"])
def test_eval_split_fraction_outside_the_unit_interval_exits_config(
    tmp_path, capsys, fraction
):
    out, config = make_corpus(tmp_path, n=6, hcb="1.0")
    reference = os.path.join(out, "synthetic", "reference.tsv")
    capsys.readouterr()
    rc = main([
        "eval", "--config", config, "--alignment", reference,
        "--reference", reference, "--split", "test", "--split-fraction", fraction,
    ])
    assert rc == EXIT_CONFIG
    assert "split fraction must be in [0, 1]" in capsys.readouterr().err


@pytest.mark.parametrize("report_text, message", [
    ('{"pipeline": "mila", "llm_query', "bad JSON"),
    ('{"pipeline": "mila", "hcb_count": 0}', "missing key 'llm_query_count'"),
    ("[1, 2]", "not a JSON object"),
])
def test_compare_on_a_broken_report_exits_parse(
    tmp_path, capsys, report_text, message
):
    out, config = make_corpus(tmp_path, n=6, hcb="1.0")
    assert main(["build-kb", "--config", config]) == EXIT_OK
    assert main(["predict", "--config", config]) == EXIT_OK
    assert main(["match", "--config", config, "--run-id", "good"]) == EXIT_OK
    assert main(["match", "--config", config, "--run-id", "bad"]) == EXIT_OK
    report_path = os.path.join(out, "runs", "bad", "report.json")
    with open(report_path, "w", encoding="utf-8") as handle:
        handle.write(report_text)
    reference = os.path.join(out, "synthetic", "reference.tsv")
    capsys.readouterr()
    rc = main([
        "compare", os.path.join(out, "runs", "good"), os.path.join(out, "runs", "bad"),
        "--reference", reference, "--config", config,
    ])
    assert rc == EXIT_PARSE
    err = capsys.readouterr().err
    assert err.startswith(f"error: {report_path}:1: ") and message in err, err


@pytest.mark.parametrize("key, value", [
    ("pipeline", 1),
    ("llm_query_count", "x"),
    ("llm_query_count", True),
    ("hcb_count", 1.5),
    ("wall_times_s", [1]),
    ("wall_times_s", {"match": "1"}),
    ("partial", "no"),
    ("multi_matched_targets", {}),
])
def test_compare_on_a_report_value_of_the_wrong_type_exits_parse(
    tmp_path, capsys, key, value
):
    out, config = make_corpus(tmp_path, n=6, hcb="1.0")
    assert main(["run-all", "--config", config, "--pipeline", "both",
                 "--run-id", "r"]) == EXIT_OK
    run_dirs = [os.path.join(out, "runs", f"r-{p}") for p in ("mila", "baseline")]
    report_path = os.path.join(run_dirs[1], "report.json")
    report = json.loads(read_text(report_path))
    report[key] = value
    with open(report_path, "w", encoding="utf-8") as handle:
        json.dump(report, handle)
    reference = os.path.join(out, "synthetic", "reference.tsv")
    capsys.readouterr()
    rc = main(["compare", *run_dirs, "--reference", reference, "--config", config])
    assert rc == EXIT_PARSE
    assert capsys.readouterr().err == (
        f"error: {report_path}:1: key {key!r} has a value of the wrong type\n"
    )


@pytest.mark.parametrize("key, value", [
    ("llm.temperature", "nan"),
    ("llm.temperature", "-0.5"),
    ("llm.timeout", "-1"),
    ("llm.timeout", "inf"),
])
def test_bad_chat_settings_exit_config_before_any_request(
    tmp_path, capsys, key, value
):
    out, config = make_corpus(tmp_path, n=4, hcb="0.5")
    assert main(["build-kb", "--config", config]) == EXIT_OK
    assert main(["predict", "--config", config]) == EXIT_OK
    with RecordingServer(lambda payload, index: (200, {})) as server:
        chat = variant_config(config, {
            "llm.kind": "http-chat", "llm.url": server.url, "llm.model": "stub",
            key: value,
        })
        capsys.readouterr()
        rc = main(["match", "--config", chat, "--run-id", "r"])
        assert server.payloads == []
    assert rc == EXIT_CONFIG
    assert f"error: {key} must be finite" in capsys.readouterr().err


def test_unset_chat_token_exits_config_before_the_run_directory(
    tmp_path, capsys, monkeypatch
):
    out, config = make_corpus(tmp_path, n=4, hcb="0.5")
    assert main(["build-kb", "--config", config]) == EXIT_OK
    assert main(["predict", "--config", config]) == EXIT_OK
    monkeypatch.delenv("ONTOMATCH_TEST_TOKEN", raising=False)
    with RecordingServer(prompt_verdicts) as server:
        chat = chat_config(config, server, {"llm.token_env": "ONTOMATCH_TEST_TOKEN"})
        capsys.readouterr()
        assert main(["match", "--config", chat, "--run-id", "r"]) == EXIT_CONFIG
        assert server.payloads == []
    assert "ONTOMATCH_TEST_TOKEN is not set" in capsys.readouterr().err
    assert not os.path.exists(os.path.join(out, "runs", "r"))


def test_bad_prompt_template_exits_config_before_any_artifact(tmp_path, capsys):
    out, config = make_corpus(tmp_path, n=6, hcb="1.0")
    bad = variant_config(config, {"prompt.template": str(tmp_path)})
    assert main(["build-kb", "--config", config]) == EXIT_OK
    assert main(["predict", "--config", config]) == EXIT_OK
    capsys.readouterr()
    assert main(["match", "--config", bad, "--run-id", "t"]) == EXIT_CONFIG
    assert not os.path.exists(os.path.join(out, "runs", "t"))
    out2 = str(tmp_path / "out2")
    assert main(["run-all", "--config", bad, "--out", out2]) == EXIT_CONFIG
    assert not os.path.exists(os.path.join(out2, "kb"))
    err = capsys.readouterr().err.splitlines()
    assert err == [err[0]] * 2
    assert err[0].startswith(f"error: cannot read prompt template {tmp_path}: ")


@pytest.mark.parametrize("settings, message", [
    ({"llm.flip_probability": "2"}, "flip_probability must be in [0, 1], got 2.0"),
    ({"llm.kind": "http-chat"}, "llm.kind=http-chat requires llm.url and llm.model"),
    ({"llm.kind": "scripted"},
     "llm.kind=scripted requires llm.replies (path to a file with one reply per line)"),
    ({"llm.kind": "http-chat", "llm.model": "m", "llm.url": "localhost:8000/v1"},
     "chat endpoint URL 'localhost:8000/v1' needs an http:// or https:// scheme "
     "and a host"),
], ids=["flip", "http-chat", "scripted", "chat-url"])
def test_run_all_rejects_llm_settings_before_embedding(tmp_path, capsys, settings, message):
    _, config = make_corpus(tmp_path, n=6, hcb="0.5", seed="1")
    fresh = tmp_path / "fresh"
    bad = variant_config(config, {**settings, "out": str(fresh)})
    capsys.readouterr()
    assert main(["run-all", "--config", bad, "--pipeline", "mila"]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {message}\n")
    assert not fresh.exists()


def test_an_embedding_url_with_credentials_exits_config_before_any_request(
    tmp_path, capsys
):
    out, config = make_corpus(tmp_path, n=4, hcb="0.5")
    with RecordingServer(embedding_behavior(8)) as server:
        bad = variant_config(config, {
            "embedding.kind": "http", "embedding.dim": "8",
            "embedding.url": server.url.replace("http://", "http://user:secret@"),
        })
        capsys.readouterr()
        assert main(["build-kb", "--config", bad]) == EXIT_CONFIG
        assert server.payloads == []
    err = capsys.readouterr().err
    assert "user:password@ part" in err and "secret" not in err
    assert not os.path.exists(os.path.join(out, "kb"))


def test_non_utf8_inputs_exit_parse(tmp_path, capsys):
    out, config = make_corpus(tmp_path, n=6, hcb="1.0")
    latin1 = str(tmp_path / "latin1.tsv")
    with open(latin1, "wb") as handle:
        handle.write(b"a:1\t\xe9t\xe9\n")
    latin1_alignment = str(tmp_path / "latin1-alignment.tsv")
    with open(latin1_alignment, "wb") as handle:
        handle.write(b"# source S\n# target T\n# k 5\n# tau 0.75\n# provider fp\n"
                     b"a:1\t\xe9t\xe9\t=\t0.5\tHCB\n")
    assert main(["build-kb", "--config", config]) == EXIT_OK
    assert main(["predict", "--config", config]) == EXIT_OK
    run_dirs = [os.path.join(out, "runs", run_id) for run_id in ("good", "bad")]
    for run_dir in run_dirs:
        assert main([
            "match", "--config", config, "--run-id", os.path.basename(run_dir),
        ]) == EXIT_OK
    report_path = os.path.join(run_dirs[1], "report.json")
    with open(report_path, "wb") as handle:
        handle.write(b'{"pipeline": "caf\xe9"}')
    reference = os.path.join(out, "synthetic", "reference.tsv")
    scripted = variant_config(config, {"llm.kind": "scripted", "llm.replies": latin1})
    for argv, path in (
        (["build-kb", "--config", latin1], latin1),
        (["build-kb", "--config", variant_config(config, {"source.dump": latin1})],
         latin1),
        (["match", "--config", scripted, "--run-id", "s"], latin1),
        (["eval", "--config", config, "--alignment", latin1_alignment,
          "--reference", reference], latin1_alignment),
        (["compare", *run_dirs, "--reference", reference, "--config", config],
         report_path),
    ):
        capsys.readouterr()
        assert main(argv) == EXIT_PARSE
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}:0: not UTF-8 text: "), err
        assert err.count("\n") == 1


def kb_files(out):
    """The bytes of every file under out/kb, by name."""
    kb_dir = os.path.join(out, "kb")
    return {name: read_bytes(os.path.join(kb_dir, name))
            for name in sorted(os.listdir(kb_dir))}


def vector_file(out):
    return os.path.join(out, "synthetic", "vectors.tsv")


def built_corpus(tmp_path):
    out, config = make_corpus(tmp_path, n=8, hcb="0.75")
    assert main(["build-kb", "--config", config]) == EXIT_OK
    return out, config


def candidate_dbs(out):
    return [read_bytes(os.path.join(out, "candidates", name))
            for name in ("s2t.tsv", "t2s.tsv")]


def refuse_to_parse(*args, **kwargs):
    raise AssertionError("predict parsed the vector file")


def test_predict_hashes_the_vector_file_and_never_parses_it(
    tmp_path, monkeypatch, capsys
):
    out, config = built_corpus(tmp_path)
    path = vector_file(out)
    monkeypatch.setattr(embedding, "load_vector_file", refuse_to_parse)
    assert main(["predict", "--config", config]) == EXIT_OK
    assert all(candidate_dbs(out))
    # malformed bytes: the stale-KB check answers before any parse could
    with open(path, "wb") as handle:
        handle.write(b"a\t1.0,x\nno tab\n")
    capsys.readouterr()
    assert main(["predict", "--config", config]) == EXIT_CONFIG
    assert "rebuild the KB" in capsys.readouterr().err


@pytest.mark.parametrize("damage", [
    lambda text: text[:-1],
    lambda text: text[:40],
    lambda text: b"",
    lambda text: b"\xff\xfe" + text,
    lambda text: text.replace(b"\t", b" "),
    lambda text: text.replace(b"file/d", b"file/x"),
    lambda text: b"0" * 64 + text[64:],
    lambda text: text,
], ids=["last-byte-cut", "half-cut", "empty", "not-utf8", "no-tab",
        "bad-fingerprint", "other-bytes", "intact"])
def test_a_damaged_record_falls_back_to_the_parse(tmp_path, monkeypatch, damage):
    # predict never reads a vectors.sha256 left by an older build: whatever
    # its shape, the fingerprint comes from hashing the vector file's bytes,
    # the one check that replaced the parse the record once fell back to
    out, config = built_corpus(tmp_path)
    assert main(["predict", "--config", config]) == EXIT_OK
    expected = candidate_dbs(out)
    raw = hashlib.sha256(read_bytes(vector_file(out))).hexdigest()
    with open(os.path.join(out, "vectors.sha256"), "wb") as handle:
        handle.write(damage(f"{raw}\tfile/d1/00000000\n".encode()))
    monkeypatch.setattr(embedding, "load_vector_file", refuse_to_parse)
    assert main(["predict", "--config", config]) == EXIT_OK
    assert candidate_dbs(out) == expected


def test_predict_after_an_edit_that_keeps_size_and_mtime_is_stale(
    tmp_path, capsys
):
    out, config = built_corpus(tmp_path)
    path = vector_file(out)
    before = os.stat(path)
    text = read_bytes(path)
    # one digit of the first row's first nonzero component
    at = re.search(rb"\t(?:0\.0,)*-?0?\.?0*([1-8])", text).start(1)
    edited = text[:at] + bytes([text[at] + 1]) + text[at + 1:]
    with open(path, "wb") as handle:
        handle.write(edited)
    os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
    after = os.stat(path)
    assert (after.st_size, after.st_mtime_ns) == (before.st_size, before.st_mtime_ns)
    capsys.readouterr()
    assert main(["predict", "--config", config]) == EXIT_CONFIG
    assert "rebuild the KB" in capsys.readouterr().err


@pytest.mark.parametrize("old, new, message", [
    ("source concept 00002\t", "brand new label\t",
     "label 'brand new label' does not match its KB"),
    ("S00002\t", "S99999\t", "label 'source concept 00002' does not match its KB"),
], ids=["label", "id"])
def test_predict_after_a_dump_record_changed_is_stale(
    tmp_path, capsys, old, new, message
):
    out, config = built_corpus(tmp_path)
    assert main(["predict", "--config", config]) == EXIT_OK
    expected = candidate_dbs(out)
    source = os.path.join(out, "synthetic", "source.tsv")
    text = read_text(source)
    assert text.count(old) == 1
    with open(source, "w", encoding="utf-8") as handle:
        handle.write(text.replace(old, new))
    capsys.readouterr()
    assert main(["predict", "--config", config]) == errors.StaleKB.exit_code
    err = capsys.readouterr().err
    assert message in err
    assert "run build-kb" in err
    assert candidate_dbs(out) == expected


def test_predict_without_the_vector_file_exits_config(tmp_path, capsys):
    out, config = built_corpus(tmp_path)
    os.remove(vector_file(out))
    capsys.readouterr()
    assert main(["predict", "--config", config]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read {vector_file(out)}: "), err


def test_kb_bytes_do_not_depend_on_the_directory_built_in(tmp_path):
    first, _ = built_corpus(tmp_path / "a")
    second, _ = built_corpus(tmp_path / "elsewhere")
    assert read_bytes(vector_file(first)) == read_bytes(vector_file(second))
    assert kb_files(first) == kb_files(second)


def test_no_verb_makes_cyclic_garbage_that_grows_with_its_input(
    tmp_path, monkeypatch
):
    # A verb's process runs without the cyclic collector. What a verb leaves
    # for it (its argument parser) must not grow with the corpus, nor with
    # the chat queries, each of which is first answered by a 500.
    monkeypatch.setattr(transport, "time", SimpleNamespace(sleep=lambda s: None))
    garbage = {}
    for n in (6, 24):
        out, config = make_corpus(tmp_path / str(n), n=n)
        refused, lock = set(), threading.Lock()

        def behavior(payload, index):
            prompt = payload["messages"][0]["content"]
            with lock:
                first = prompt not in refused
                refused.add(prompt)
            if first:
                return 500, {"error": "busy"}
            return prompt_verdicts(payload, index)

        alignment = os.path.join(out, "runs", "c", "alignment.tsv")
        reference = os.path.join(out, "synthetic", "reference.tsv")
        with RecordingServer(behavior) as server:
            chat = chat_config(config, server, {"match.workers": "4"})
            verbs = {
                "build-kb": ["build-kb", "--config", config],
                "predict": ["predict", "--config", config],
                "oracle match": ["match", "--config", config, "--run-id", "o"],
                "chat match": ["match", "--config", chat,
                               "--pipeline", "baseline", "--run-id", "c"],
                "eval": ["eval", "--config", config, "--alignment", alignment,
                         "--reference", reference],
            }
            for verb, argv in verbs.items():
                rc, garbage[verb, n] = cyclic_garbage(lambda: main(argv))
                assert rc == EXIT_OK, verb
            report = json.loads(read_text(out, "runs", "c", "report.json"))
            assert report["llm_query_count"] == 5 * n
            assert len(server.payloads) == 2 * 5 * n
    for verb in verbs:
        assert garbage[verb, 24] <= garbage[verb, 6], verb


@pytest.mark.parametrize("enabled", [True, False])
def test_main_leaves_the_collector_as_it_found_it(tmp_path, enabled):
    before = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        _, config = make_corpus(tmp_path, n=4)
        assert (gc.isenabled(), gc.get_freeze_count()) == (enabled, 0)
        assert main(["predict", "--config", config]) == EXIT_CONFIG  # no KB
        assert (gc.isenabled(), gc.get_freeze_count()) == (enabled, 0)
    finally:
        (gc.enable if before else gc.disable)()


def masked(text, out):
    """Console lines with the out path and the wall times masked, and the
    match_wall_time row of the compare table left out."""
    return [
        re.sub(r"\b\d+\.\d{3} s\b", "T s", line)
        for line in text.replace(out, "OUT").splitlines()
        if not line.startswith("match_wall_time")
    ]


@pytest.mark.parametrize("verb, code", [
    ("run-all", EXIT_OK), ("predict", EXIT_CONFIG), ("match", EXIT_ENDPOINT),
])
def test_the_entry_point_changes_nothing_but_the_collector(
    tmp_path, capsys, caplog, verb, code
):
    # run-all succeeds, predict finds no KB, and the chat match ends partial
    _, config = make_corpus(tmp_path, n=6)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    ends = []
    with RecordingServer(lambda payload, index: (404, {"error": "gone"})) as server:
        argv = {
            "run-all": ["run-all", "--config", config, "--pipeline", "both",
                        "--run-id", "r"],
            "predict": ["predict", "--config", config],
            "match": ["match", "--config",
                      chat_config(config, server, {"match.workers": "1"}),
                      "--run-id", "r"],
        }[verb]
        for way in ("child", "in process"):
            out = str(tmp_path / way)
            if verb == "match":
                for stage in ("build-kb", "predict"):
                    assert main([stage, "--config", config, "--out", out]) == EXIT_OK
            capsys.readouterr()
            if way == "child":
                child = subprocess.run(
                    [sys.executable, "-m", "ontomatch.cli", *argv, "--out", out],
                    env=env, capture_output=True, text=True, timeout=120,
                )
                rc, stdout, stderr = child.returncode, child.stdout, child.stderr
            else:
                caplog.clear()
                rc = main([*argv, "--out", out])
                stdout, stderr = capsys.readouterr()
                # in process, log records go to pytest, not to stderr
                stderr = "".join(
                    f"{r.levelname} {r.name}: {r.getMessage()}\n"
                    for r in caplog.records
                ) + stderr
            ends.append((rc, masked(stdout, out), masked(stderr, out),
                         run_artifacts(out)))
    assert ends[0] == ends[1]
    assert ends[0][0] == code
