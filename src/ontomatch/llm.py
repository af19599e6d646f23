"""Prompt rendering, chat clients, and yes/no verdict parsing.

One fixed binary prompt asks whether two concepts are equivalent. Two
client kinds answer it: a remote chat-completion endpoint and a
deterministic oracle backed by a reference alignment (for tests and
simulation). All clients share request accounting and exchange logging.
"""

from __future__ import annotations

import enum
import json
import os
import re
import string
import threading
import time
from typing import Iterable, NamedTuple

from .errors import (
    EndpointUnavailable,
    InvalidParameter,
    MissingPlaceholder,
    refuse_assignment,
)
from .fileio import read_text

PLACEHOLDERS = ("src_onto_name", "tgt_onto_name", "source_entity", "target_entity")

DEFAULT_PROMPT_TEMPLATE = (
    "You are a helpful expert in ontology matching, which involves determining "
    "equivalence correspondences between concepts from different ontologies. "
    "The source ontology is called {src_onto_name} and the target ontology is "
    "called {tgt_onto_name}.\n"
    "\n"
    "Classify whether the following concepts are equivalent:\n"
    "\n"
    "Source concept: {source_entity}\n"
    "\n"
    "Target concept: {target_entity}\n"
    "\n"
    "If so, answer 'Yes', without adding any type of explanation. "
    "Otherwise, answer 'No'.\n"
)

_PLACEHOLDER_RE = re.compile(
    r"\{(" + "|".join(PLACEHOLDERS) + r")\}"
)


class PromptTemplate:
    """Prompt text with the four placeholders, each appearing exactly once;
    immutable. It is split once into the five literal pieces around the
    placeholders and each placeholder's PLACEHOLDERS index, in text order."""

    __slots__ = ("_pieces", "_order")
    __setattr__ = refuse_assignment

    def __init__(self, text: str):
        for name in PLACEHOLDERS:
            count = text.count("{" + name + "}")
            if count == 0:
                raise MissingPlaceholder(
                    f"template lacks the {{{name}}} placeholder"
                )
            if count > 1:
                raise MissingPlaceholder(
                    f"template must contain {{{name}}} exactly once, found {count}"
                )
        parts = _PLACEHOLDER_RE.split(text)
        object.__setattr__(self, "_pieces", tuple(parts[0::2]))
        object.__setattr__(
            self, "_order", tuple(PLACEHOLDERS.index(name) for name in parts[1::2])
        )

    @property
    def text(self) -> str:
        """The template text: its placeholders rendered as themselves."""
        return render_prompt(self, *("{" + name + "}" for name in PLACEHOLDERS))

    @classmethod
    def default(cls) -> "PromptTemplate":
        return cls(DEFAULT_PROMPT_TEMPLATE)

    @classmethod
    def from_file(cls, path: str) -> "PromptTemplate":
        return cls(read_text(path, "prompt template"))


def render_prompt(
    template: PromptTemplate,
    src_onto: str,
    tgt_onto: str,
    src_label: str,
    tgt_label: str,
) -> str:
    """Fill the four placeholders in one pass; byte-stable for equal inputs.

    The values are joined between the template's pre-split literal pieces,
    so placeholder-like text inside a label is never re-expanded.
    """
    values = (src_onto, tgt_onto, src_label, tgt_label)
    if not all(values):
        names = ("src_onto", "tgt_onto", "src_label", "tgt_label")
        for name, value in zip(names, values):
            if not value:
                raise InvalidParameter(f"render_prompt requires nonempty {name}")
    p, (a, b, c, d) = template._pieces, template._order
    return "".join(
        (p[0], values[a], p[1], values[b], p[2], values[c], p[3], values[d], p[4])
    )


class Verdict(enum.Enum):
    YES = "Yes"
    NO = "No"
    UNPARSEABLE = "Unparseable"


def parse_reply(text: str) -> Verdict:
    """Map a raw reply to a verdict.

    The first whitespace-delimited token, stripped of surrounding punctuation
    and casefolded, decides: "yes" -> YES, "no" -> NO, anything else (or an
    empty reply) -> UNPARSEABLE.
    """
    tokens = text.split()
    if not tokens:
        return Verdict.UNPARSEABLE
    word = tokens[0].strip(string.punctuation).casefold()
    if word == "yes":
        return Verdict.YES
    if word == "no":
        return Verdict.NO
    return Verdict.UNPARSEABLE


class LlmVerdict(NamedTuple):
    value: Verdict
    attempts: int

    @property
    def is_yes(self) -> bool:
        return self.value is Verdict.YES


_json_text = json.JSONEncoder(ensure_ascii=False).encode


def _log_line(
    pair: tuple[str, str] | None, prompt: str, reply: str, verdict: str,
    latency: float, attempts: int,
) -> str:
    """One exchange-log line: json.dumps(record, ensure_ascii=False) + "\n"
    for the record {pair: list(pair) or None, prompt, reply, verdict,
    latency_s: round(latency, 6), attempts}, built from fixed key text and
    one shared encoder rather than a new encoder per line."""
    pair_text = "[" + ", ".join(map(_json_text, pair)) + "]" if pair else "null"
    return (
        f'{{"pair": {pair_text}, "prompt": {_json_text(prompt)}, '
        f'"reply": {_json_text(reply)}, "verdict": {_json_text(verdict)}, '
        f'"latency_s": {round(latency, 6)!r}, "attempts": {attempts!r}}}\n'
    )


class LlmClient:
    """Base client: verdict parsing, request accounting, exchange logging.

    query_count is a monotone counter of completed classification requests;
    an Unparseable reply still counts. Subclasses implement _respond and may
    be called from several threads; the counter and the log are synchronized,
    so the log holds one line per counted query, in completion order. The
    log file and its directory are made at the first query, so a client
    that is never asked writes nothing, and the file stays open until
    close().
    """

    def __init__(self, log_path: str | None = None):
        self._count_lock = threading.Lock()
        self._query_count = 0
        self._log_path = log_path
        self._log = None

    def close(self) -> None:
        """Close the exchange log; a later query starts it afresh."""
        with self._count_lock:
            if self._log is not None:
                self._log.close()
                self._log = None

    @property
    def query_count(self) -> int:
        with self._count_lock:
            return self._query_count

    def _respond(
        self, prompt: str, pair: tuple[str, str] | None
    ) -> tuple[str, int]:
        raise NotImplementedError

    def classify(
        self, prompt: str, pair: tuple[str, str] | None = None
    ) -> LlmVerdict:
        start = time.perf_counter()
        reply, attempts = self._respond(prompt, pair)
        latency = time.perf_counter() - start
        verdict = LlmVerdict(value=parse_reply(reply), attempts=attempts)
        if self._log_path:
            line = _log_line(
                pair, prompt, reply, verdict.value.value, latency, attempts
            )
        with self._count_lock:
            if self._log_path:
                if self._log is None:
                    log_dir = os.path.dirname(os.path.abspath(self._log_path))
                    os.makedirs(log_dir, exist_ok=True)
                    self._log = open(self._log_path, "w", encoding="utf-8")
                self._log.write(line)
                self._log.flush()
            self._query_count += 1
        return verdict


class OracleClient(LlmClient):
    """Answers Yes iff the queried id pair is in the reference alignment.

    An optional flip probability simulates an imperfect model: each pair's
    verdict flips when sha256("{seed}:{src}:{tgt}") maps below the
    probability, so the decision is per-pair deterministic and independent
    of query order or thread interleaving.
    """

    def __init__(
        self,
        reference_pairs: Iterable[tuple[str, str]],
        flip_probability: float = 0.0,
        seed: int = 0,
        log_path: str | None = None,
    ):
        super().__init__(log_path=log_path)
        if not 0.0 <= flip_probability <= 1.0:
            raise InvalidParameter(
                f"flip_probability must be in [0, 1], got {flip_probability}"
            )
        self._pairs = frozenset((str(s), str(t)) for s, t in reference_pairs)
        self._flip = float(flip_probability)
        self._seed = int(seed)

    def _flip_decision(self, source_id: str, target_id: str) -> bool:
        import hashlib  # OpenSSL loads only for a run that flips verdicts

        digest = hashlib.sha256(
            f"{self._seed}:{source_id}:{target_id}".encode("utf-8")
        ).digest()
        fraction = int.from_bytes(digest[:8], "big") / 2.0**64
        return fraction < self._flip

    def _respond(
        self, prompt: str, pair: tuple[str, str] | None
    ) -> tuple[str, int]:
        if pair is None:
            raise InvalidParameter(
                "the oracle client needs the (source_id, target_id) pair; "
                "prompts alone carry only labels"
            )
        member = (pair[0], pair[1]) in self._pairs
        if self._flip and self._flip_decision(pair[0], pair[1]):
            member = not member
        return ("Yes" if member else "No"), 1


class HttpChatClient(LlmClient):
    """Chat-completion endpoint client.

    Sends one user message per classification and reads the first choice's
    message content. Transport errors, 429 and 5xx responses retry with
    exponential backoff; after the retry budget (or on any other bad
    response) EndpointUnavailable is raised. The client sets no limit of
    its own on requests in flight: each classify call sends one request on
    the calling thread, so the matcher's worker count is that limit.
    """

    def __init__(
        self,
        url: str,
        model: str,
        temperature: float = 0.7,
        timeout: float = 60.0,
        max_retries: int = 3,
        backoff_seconds: float = 0.5,
        token_env: str | None = None,
        log_path: str | None = None,
    ):
        from .transport import Endpoint  # urllib.request only for HTTP clients

        super().__init__(log_path=log_path)
        self._model = model
        self._temperature = float(temperature)
        self._endpoint = Endpoint(
            url, service="chat endpoint", error=EndpointUnavailable,
            timeout=timeout, max_retries=max_retries,
            backoff_seconds=backoff_seconds, token_env=token_env,
        )

    def _respond(
        self, prompt: str, pair: tuple[str, str] | None
    ) -> tuple[str, int]:
        payload = {
            "model": self._model,
            "temperature": self._temperature,
            "messages": [{"role": "user", "content": prompt}],
        }
        body, attempts = self._endpoint.post(payload)
        try:
            content = json.loads(body)["choices"][0]["message"]["content"]
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            raise EndpointUnavailable(
                f"chat endpoint returned an unusable payload: {exc}"
            ) from exc
        if not isinstance(content, str):
            raise EndpointUnavailable(
                "chat endpoint returned a non-text message content"
            )
        return content, attempts
