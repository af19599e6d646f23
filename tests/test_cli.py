"""End-to-end command-line flows, exit codes, and artifact layout."""

import json
import os
import stat

import pytest

from ontomatch.cli import (
    EXIT_CONFIG,
    EXIT_ENDPOINT,
    EXIT_OK,
    EXIT_PARSE,
    main,
)

from stubs import RecordingServer


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


def test_run_all_reproduces_the_stepwise_artifacts(tmp_path, capsys):
    out, config = make_corpus(tmp_path, n=12, hcb="0.5")
    assert main(["build-kb", "--config", config]) == EXIT_OK
    assert main(["predict", "--config", config]) == EXIT_OK
    assert main(["match", "--config", config, "--run-id", "run-m"]) == EXIT_OK

    out2 = str(tmp_path / "out2")
    assert main([
        "run-all", "--config", config, "--out", out2,
        "--pipeline", "both", "--run-id", "fixed",
    ]) == EXIT_OK
    captured = capsys.readouterr().out
    assert "skipping evaluation" not in captured
    mila_dir = os.path.join(out2, "runs", "fixed-mila")
    base_dir = os.path.join(out2, "runs", "fixed-baseline")
    assert read_bytes(os.path.join(mila_dir, "alignment.tsv")) == read_bytes(
        os.path.join(out, "runs", "run-m", "alignment.tsv")
    )
    assert os.path.exists(os.path.join(mila_dir, "eval.json"))
    assert os.path.exists(os.path.join(base_dir, "eval.json"))
    assert os.path.exists(os.path.join(out2, "compare.txt"))


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
        text += f"llm.url = {server.url}\nllm.model = stub\n"
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


def test_compare_on_a_non_run_directory_is_a_config_error(tmp_path, capsys):
    out, config = make_corpus(tmp_path, n=6, hcb="1.0")
    reference = os.path.join(out, "synthetic", "reference.tsv")
    rc = main([
        "compare", str(tmp_path), str(tmp_path), "--reference", reference,
        "--config", config,
    ])
    assert rc == EXIT_CONFIG
    assert "is not a run directory" in capsys.readouterr().err
