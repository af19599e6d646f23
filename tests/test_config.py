"""Run configuration: file parsing, defaults, snapshots, client factories."""

import re
from pathlib import Path

import pytest

from ontomatch.config import (
    DEFAULT_K,
    DEFAULT_TAU,
    DEFAULT_TEMPERATURE,
    EMBEDDING_KINDS,
    LLM_KINDS,
    RunConfig,
    build_config,
    build_llm_client,
    build_provider,
    load_config_file,
    load_template,
    snapshot,
)
from ontomatch.embedding import (
    DeterministicProvider,
    HttpProvider,
    PrecomputedFileProvider,
    write_vector_file,
)
from ontomatch.errors import ConfigError
from ontomatch.llm import (
    DEFAULT_PROMPT_TEMPLATE,
    HttpChatClient,
    OracleClient,
)


def test_defaults_match_reported_settings():
    config = RunConfig()
    assert config.k == DEFAULT_K == 5
    assert config.tau == DEFAULT_TAU == 0.75
    assert config.llm_temperature == DEFAULT_TEMPERATURE == 0.7
    assert config.embedding_dim == 32
    assert config.seed == 0
    assert config.match_workers == 1


@pytest.mark.parametrize("kind, workers", [("http-chat", 4), ("oracle", 1)])
def test_unset_match_workers_follow_the_llm_kind(kind, workers):
    config = build_config({"llm.kind": kind})
    assert config.match_workers == workers
    assert f"match.workers = {workers}" in snapshot(config).splitlines()
    assert build_config({"llm.kind": kind, "match.workers": "1"}).match_workers == 1


def test_explicit_match_workers_are_kept():
    for kind in ("http-chat", "oracle"):
        assert build_config({"llm.kind": kind}, match_workers=7).match_workers == 7


def test_snapshot_lists_the_decisive_settings():
    text = snapshot(RunConfig())
    lines = text.splitlines()
    assert "k = 5" in lines
    assert "tau = 0.75" in lines
    assert "llm.temperature = 0.7" in lines
    assert "embedding.dim = 32" in lines
    # unset optional keys are omitted entirely
    assert not any(line.startswith("source.dump") for line in lines)
    assert text.endswith("\n")
    assert lines == sorted(lines)


def test_snapshot_round_trips_through_the_parser(tmp_path):
    original = build_config(
        {"k": "7", "tau": "0.9", "source.dump": "src.tsv", "llm.kind": "oracle",
         "llm.reference": "reference.tsv", "embedding.timeout": "12.5"},
        match_workers=3,
    )
    path = tmp_path / "run.cfg"
    path.write_text(snapshot(original))
    reloaded = build_config(load_config_file(path))
    assert reloaded == original


def test_config_file_parsing(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# comment\n"
        "\n"
        "k = 3\n"
        "tau=0.8\n"
        "source.dump = path with spaces.tsv\n"
    )
    values = load_config_file(path)
    assert values == {"k": "3", "tau": "0.8", "source.dump": "path with spaces.tsv"}
    config = build_config(values)
    assert config.k == 3
    assert config.tau == 0.8
    assert config.source_dump == "path with spaces.tsv"


def test_config_file_rejects_duplicates_and_garbage(tmp_path):
    dup = tmp_path / "dup.cfg"
    dup.write_text("k = 3\nk = 4\n")
    with pytest.raises(ConfigError, match="duplicate key"):
        load_config_file(dup)
    bad = tmp_path / "bad.cfg"
    bad.write_text("just some words\n")
    with pytest.raises(ConfigError, match="expected 'key = value'"):
        load_config_file(bad)
    empty_key = tmp_path / "empty.cfg"
    empty_key.write_text("= 3\n")
    with pytest.raises(ConfigError):
        load_config_file(empty_key)
    with pytest.raises(ConfigError, match="cannot read config"):
        load_config_file(tmp_path / "missing.cfg")


def test_unknown_keys_fail_fast():
    with pytest.raises(ConfigError, match="unknown config key"):
        build_config({"kay": "5"})
    with pytest.raises(ConfigError, match="unknown config field"):
        build_config({}, kay=5)


def test_readme_config_table_lists_exactly_the_accepted_keys():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(
        encoding="utf-8"
    )
    table = readme.split("| Key | Default | Meaning |", 1)[1].split("\n\n", 1)[0]
    documented = set()
    values = {}
    for row in table.splitlines()[2:]:  # past the header and separator rows
        cells = row.split("|")
        keys = re.findall(r"`([^`]+)`", cells[1])
        documented.update(keys)
        values[keys[0]] = tuple(re.findall(r"`([^`]+)`", cells[3]))
    for key in documented:
        try:
            build_config({key: "1"})
        except ConfigError as exc:
            assert "unknown config key" not in str(exc)
    # every key names its own field, so equal counts mean equal sets
    assert len(documented) == len(RunConfig._fields)
    # a kind's row lists exactly the kinds RunConfig accepts
    assert values["llm.kind"] == LLM_KINDS
    assert values["embedding.kind"] == EMBEDDING_KINDS


def test_type_conversion_errors_name_the_key():
    with pytest.raises(ConfigError, match="'k'"):
        build_config({"k": "five"})
    with pytest.raises(ConfigError, match="'tau'"):
        build_config({"tau": "high"})


@pytest.mark.parametrize(
    "values",
    [
        {"k": "0"},
        {"tau": "1.5"},
        {"tau": "-0.1"},
        {"embedding.kind": "magic"},
        {"llm.kind": "magic"},
        {"match.workers": "0"},
        {"llm.temperature": "nan"},
        {"llm.temperature": "inf"},
        {"llm.temperature": "-0.1"},
        {"llm.timeout": "0"},
        {"llm.timeout": "nan"},
        {"embedding.timeout": "-1"},
        {"embedding.timeout": "inf"},
    ],
)
def test_out_of_range_values_are_rejected(values):
    with pytest.raises(ConfigError):
        build_config(values)


@pytest.mark.parametrize("key", ["source.name", "target.name"])
def test_an_empty_ontology_name_is_refused_naming_its_key(tmp_path, key):
    path = tmp_path / "run.cfg"
    path.write_text(f"{key} =\n")
    with pytest.raises(ConfigError, match=f"^{re.escape(key)} must not be empty$"):
        build_config(load_config_file(path))


@pytest.mark.parametrize("field_name, key, value", [
    ("out", "out", "o "),
    ("out", "out", " o"),
    ("out", "out", "o\nk = 3"),
    ("out", "out", "o\rp"),
    ("out", "out", "o\u3000"),
    ("source_name", "source.name", "\x85SRC"),
    ("llm_model", "llm.model", "m\n"),
])
def test_a_text_value_a_config_file_cannot_hold_is_refused(field_name, key, value):
    # load_config_file strips each value and ends a line at LF or CR, so a
    # snapshot of such a value would load back as another config
    with pytest.raises(ConfigError, match=f"config key {re.escape(repr(key))}"):
        build_config({}, **{field_name: value})


def test_inner_spaces_are_kept_and_the_snapshot_loads_back(tmp_path):
    config = build_config({}, out="my out", source_name="Human Phenotype")
    path = tmp_path / "config.txt"
    path.write_text(snapshot(config))
    assert build_config(load_config_file(path)) == config


def test_zero_temperature_is_accepted():
    assert build_config({"llm.temperature": "0"}).llm_temperature == 0.0


def test_overrides_beat_file_values_and_none_is_ignored():
    config = build_config({"k": "3", "tau": "0.8"}, k=9, tau=None)
    assert config.k == 9
    assert config.tau == 0.8


def test_build_provider_deterministic_uses_run_seed_as_fallback():
    provider = build_provider(build_config({"seed": "42"}))
    assert isinstance(provider, DeterministicProvider)
    assert provider.fingerprint == "deterministic/d32/s42"
    pinned = build_provider(build_config({"seed": "42", "embedding.seed": "7"}))
    assert pinned.fingerprint == "deterministic/d32/s7"


def test_build_provider_file_kind(tmp_path):
    with pytest.raises(ConfigError, match="embedding.file"):
        build_provider(build_config({"embedding.kind": "file"}))
    path = tmp_path / "vectors.tsv"
    write_vector_file(path, {"alpha": [1.0, 0.0], "beta": [0.0, 1.0]})
    provider = build_provider(
        build_config({"embedding.kind": "file", "embedding.file": str(path)})
    )
    assert isinstance(provider, PrecomputedFileProvider)
    assert provider.dim == 2


def test_build_provider_http_kind(monkeypatch):
    with pytest.raises(ConfigError, match="embedding.url"):
        build_provider(build_config({"embedding.kind": "http"}))
    base = {"embedding.kind": "http", "embedding.url": "http://svc.example/v1"}
    provider = build_provider(build_config(base))
    assert isinstance(provider, HttpProvider)
    monkeypatch.delenv("EMB_TOKEN", raising=False)
    with pytest.raises(ConfigError, match="EMB_TOKEN"):
        build_provider(build_config(base | {"embedding.token_env": "EMB_TOKEN"}))
    monkeypatch.setenv("EMB_TOKEN", "sekrit")
    build_provider(build_config(base | {"embedding.token_env": "EMB_TOKEN"}))


def test_build_llm_client_oracle(tmp_path):
    with pytest.raises(ConfigError, match="llm.reference"):
        build_llm_client(build_config({}))
    reference = tmp_path / "reference.tsv"
    reference.write_text("a:1\tb:1\n")
    client = build_llm_client(
        build_config({"llm.reference": str(reference), "seed": "5"})
    )
    assert isinstance(client, OracleClient)
    prompt = "Is a:1 the same as b:1?"
    assert client.classify(prompt, pair=("a:1", "b:1")).is_yes
    assert not client.classify(prompt, pair=("a:1", "b:2")).is_yes


def test_build_llm_client_http_chat(monkeypatch):
    with pytest.raises(ConfigError, match="llm.url and llm.model"):
        build_llm_client(build_config({"llm.kind": "http-chat"}))
    values = {
        "llm.kind": "http-chat",
        "llm.url": "http://chat.example/v1/chat/completions",
        "llm.model": "local-chat",
        "llm.temperature": "0.2",
    }
    client = build_llm_client(build_config(values))
    assert isinstance(client, HttpChatClient)
    monkeypatch.delenv("CHAT_TOKEN", raising=False)
    with pytest.raises(ConfigError, match="CHAT_TOKEN"):
        build_llm_client(build_config(values | {"llm.token_env": "CHAT_TOKEN"}))


def test_load_template_default_and_from_file(tmp_path):
    assert load_template(RunConfig()).text == DEFAULT_PROMPT_TEMPLATE
    path = tmp_path / "prompt.txt"
    path.write_text(
        "Compare {source_entity} ({src_onto_name}) with "
        "{target_entity} ({tgt_onto_name}). Yes or No?"
    )
    template = load_template(build_config({"prompt.template": str(path)}))
    assert "{source_entity}" in template.text
    with pytest.raises(ConfigError, match="does not exist"):
        load_template(build_config({"prompt.template": str(tmp_path / "nope.txt")}))
