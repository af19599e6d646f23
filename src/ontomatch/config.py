"""Run configuration: one flat key-value file plus flag overrides.

The config file is line-oriented `key = value` with # comments. Secrets
never appear in it; a config names the environment variable that holds a
token (embedding.token_env / llm.token_env) and the value is read at
client-construction time only.
"""

from __future__ import annotations

import math
import os
from typing import TYPE_CHECKING, NamedTuple

from .errors import ConfigError
from .fileio import read_lines

if TYPE_CHECKING:
    from .embedding import EmbeddingProvider
    from .llm import LlmClient, PromptTemplate

DEFAULT_K = 5
DEFAULT_TAU = 0.75
DEFAULT_TEMPERATURE = 0.7

EMBEDDING_KINDS = ("deterministic", "file", "http")
LLM_KINDS = ("oracle", "http-chat")
PIPELINE_MILA = "mila"
PIPELINE_BASELINE = "baseline"
PIPELINES = (PIPELINE_MILA, PIPELINE_BASELINE)
# match.workers when unset: a chat query waits on the network; the oracle never does
HTTP_CHAT_WORKERS = 4


class _Settings(NamedTuple):
    """RunConfig's fields, with their defaults."""

    source_dump: str | None = None
    source_name: str = "SOURCE"
    target_dump: str | None = None
    target_name: str = "TARGET"
    k: int = DEFAULT_K
    tau: float = DEFAULT_TAU
    seed: int = 0
    out: str = "out"
    embedding_kind: str = "deterministic"
    embedding_dim: int = 32
    embedding_seed: int | None = None
    embedding_file: str | None = None
    embedding_url: str | None = None
    embedding_batch_size: int = 64
    embedding_timeout: float = 30.0
    embedding_token_env: str | None = None
    llm_kind: str = "oracle"
    llm_url: str | None = None
    llm_model: str | None = None
    llm_temperature: float = DEFAULT_TEMPERATURE
    llm_timeout: float = 60.0
    llm_token_env: str | None = None
    llm_reference: str | None = None
    llm_flip_probability: float = 0.0
    prompt_template: str | None = None
    eval_reference: str | None = None
    match_workers: int | None = None


class RunConfig(_Settings):
    """Everything a pipeline run needs; defaults are k=5, tau=0.75, temperature 0.7.

    An unset match_workers resolves from llm_kind: HTTP_CHAT_WORKERS for
    http-chat, 1 for the in-process oracle. The ontology names are not
    empty, and no text value has what a config file cannot hold.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        for key, value in zip(_KEY_BY_FIELD.values(), self):
            if key in ("source.name", "target.name") and not value:
                raise ConfigError(f"{key} must not be empty")
            if isinstance(value, str) and (value.strip() != value or "\n" in value
                                           or "\r" in value):
                raise ConfigError(f"config key {key!r}: {value!r} has a line break "
                                  "or whitespace at either end")
        if self.match_workers is None:
            workers = HTTP_CHAT_WORKERS if self.llm_kind == "http-chat" else 1
            self = self._replace(match_workers=workers)
        if self.k < 1:
            raise ConfigError(f"k must be >= 1, got {self.k}")
        if not 0.0 <= self.tau <= 1.0:
            raise ConfigError(f"tau must be in [0, 1], got {self.tau}")
        if self.embedding_kind not in EMBEDDING_KINDS:
            raise ConfigError(
                f"embedding.kind must be one of {EMBEDDING_KINDS}, "
                f"got {self.embedding_kind!r}"
            )
        if self.llm_kind not in LLM_KINDS:
            raise ConfigError(
                f"llm.kind must be one of {LLM_KINDS}, got {self.llm_kind!r}"
            )
        if self.match_workers < 1:
            raise ConfigError(f"match.workers must be >= 1, got {self.match_workers}")
        if not 0.0 <= self.llm_temperature < math.inf:
            raise ConfigError(
                f"llm.temperature must be finite and >= 0, got {self.llm_temperature}"
            )
        for key, timeout in (
            ("llm.timeout", self.llm_timeout),
            ("embedding.timeout", self.embedding_timeout),
        ):
            if not 0.0 < timeout < math.inf:
                raise ConfigError(f"{key} must be finite and > 0, got {timeout}")
        return self


# config-file key <-> RunConfig field: the key is the field name with its
# first "_" replaced by "."
_KEY_BY_FIELD = {name: name.replace("_", ".", 1) for name in RunConfig._fields}
_FIELD_BY_KEY = {key: name for name, key in _KEY_BY_FIELD.items()}
# RunConfig field -> its annotation's text, which typing may wrap in a ForwardRef
_TYPE_BY_FIELD = {
    name: getattr(hint, "__forward_arg__", hint)
    for name, hint in _Settings.__annotations__.items()
}
# annotation -> parser of the config-file text; other types stay text
_PARSERS = {"int": int, "int | None": int, "float": float}


def load_config_file(path: str) -> dict[str, str]:
    """Parse `key = value` lines; # comments and blank lines are skipped."""
    values: dict[str, str] = {}
    for line_no, raw in enumerate(read_lines(path, "config"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep or not key.strip():
            raise ConfigError(
                f"{path}:{line_no}: expected 'key = value', got {line!r}"
            )
        key = key.strip()
        if key in values:
            raise ConfigError(f"{path}:{line_no}: duplicate key {key!r}")
        values[key] = value.strip()
    return values


def _convert(key: str, field_name: str, text: str):
    field_type = _TYPE_BY_FIELD[field_name]
    parser = _PARSERS.get(field_type)
    if parser is None:
        return text
    try:
        return parser(text)
    except ValueError:
        raise ConfigError(
            f"config key {key!r}: cannot parse {text!r} as {field_type}"
        ) from None


def build_config(
    values: dict[str, str] | None = None, **overrides
) -> RunConfig:
    """Build a RunConfig from file values plus keyword overrides.

    Unknown keys raise ConfigError so typos fail fast.
    """
    kwargs: dict = {}
    for key, text in (values or {}).items():
        field_name = _FIELD_BY_KEY.get(key)
        if field_name is None:
            raise ConfigError(f"unknown config key {key!r}")
        kwargs[field_name] = _convert(key, field_name, text)
    for field_name, value in overrides.items():
        if field_name not in _KEY_BY_FIELD:
            raise ConfigError(f"unknown config field {field_name!r}")
        if value is not None:
            kwargs[field_name] = value
    return RunConfig(**kwargs)


def format_settings(settings) -> str:
    """A `key = value` line, a float as its repr, per (key, value) of settings."""
    return "".join(f"{key} = {value!r}\n" if isinstance(value, float)
                   else f"{key} = {value}\n" for key, value in settings)


def snapshot(config: RunConfig) -> str:
    """Serialize a config as sorted `key = value` lines, omitting unset keys.

    Loading the snapshot back through build_config reproduces the config.
    """
    return format_settings(
        (key, getattr(config, field_name))
        for field_name, key in sorted(_KEY_BY_FIELD.items(), key=lambda kv: kv[1])
        if getattr(config, field_name) is not None
    )


def build_provider(config: RunConfig) -> EmbeddingProvider:
    # embedding loads numpy, which only the verbs that embed need
    from .embedding import DeterministicProvider, HttpProvider, PrecomputedFileProvider

    if config.embedding_kind == "deterministic":
        seed = (
            config.embedding_seed
            if config.embedding_seed is not None
            else config.seed
        )
        return DeterministicProvider(dim=config.embedding_dim, seed=seed)
    if config.embedding_kind == "file":
        if not config.embedding_file:
            raise ConfigError("embedding.kind=file requires embedding.file")
        return PrecomputedFileProvider(config.embedding_file)
    if not config.embedding_url:
        raise ConfigError("embedding.kind=http requires embedding.url")
    return HttpProvider(
        url=config.embedding_url,
        dim=config.embedding_dim,
        batch_size=config.embedding_batch_size,
        timeout=config.embedding_timeout,
        token_env=config.embedding_token_env,
    )


def build_llm_client(
    config: RunConfig, log_path: str | None = None, reference=None
) -> LlmClient:
    """The client llm.kind names; reference is the parsed llm.reference of
    an oracle, loaded here when None."""
    from .llm import HttpChatClient, OracleClient

    if config.llm_kind == "oracle":
        if not config.llm_reference:
            raise ConfigError(
                "llm.kind=oracle requires llm.reference (path to the reference "
                "alignment the oracle answers from)"
            )
        if reference is None:
            from .evaluation import load_reference

            reference = load_reference(config.llm_reference)
        return OracleClient(
            reference,
            flip_probability=config.llm_flip_probability,
            seed=config.seed,
            log_path=log_path,
        )
    if not config.llm_url or not config.llm_model:
        raise ConfigError("llm.kind=http-chat requires llm.url and llm.model")
    return HttpChatClient(
        url=config.llm_url,
        model=config.llm_model,
        temperature=config.llm_temperature,
        timeout=config.llm_timeout,
        token_env=config.llm_token_env,
        log_path=log_path,
    )


def load_template(config: RunConfig) -> PromptTemplate:
    from .llm import PromptTemplate

    if config.prompt_template:
        if not os.path.exists(config.prompt_template):
            raise ConfigError(
                f"prompt.template file {config.prompt_template!r} does not exist"
            )
        return PromptTemplate.from_file(config.prompt_template)
    return PromptTemplate.default()
