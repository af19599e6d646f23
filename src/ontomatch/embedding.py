"""Label embedding providers, cosine similarity, and score rounding.

Three providers share one interface: a deterministic hash-based encoder for
tests and synthetic corpora (optionally overridden by fixture vectors), a
precomputed-vector file, and a remote HTTP service. All scores the pipeline
compares or persists go through round_score, which is the single place the
5-decimal half-away-from-zero rule lives.
"""

from __future__ import annotations

import hashlib
import math
import os
import threading
from decimal import ROUND_HALF_UP, Decimal
from typing import Mapping, Sequence
from urllib.parse import urlparse

import numpy as np

from .errors import (
    ConfigError,
    DimensionMismatch,
    InvalidParameter,
    MalformedRecord,
    MissingVector,
    ProviderUnavailable,
    ZeroVector,
)
from .fileio import atomic_write_text, read_records
from .transport import post_json

SCORE_DECIMALS = 5
_QUANTUM = Decimal(1).scaleb(-SCORE_DECIMALS)


def round_score(score: float) -> float:
    """Round a similarity to 5 decimals, halves away from zero.

    Works on the shortest decimal representation of the float (via repr), so
    a stored 0.123455 rounds up to 0.12346 instead of falling into binary
    representation noise. Python's built-in round() is banker's rounding and
    must not be used for scores.
    """
    value = float(score)
    if not math.isfinite(value):
        raise InvalidParameter(f"cannot round non-finite score {score!r}")
    return float(Decimal(repr(value)).quantize(_QUANTUM, rounding=ROUND_HALF_UP))


def cosine_similarity(u: np.ndarray, v: np.ndarray) -> float:
    """Raw (unrounded) cosine similarity between two vectors."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape != v.shape or u.ndim != 1:
        raise DimensionMismatch(f"cannot compare shapes {u.shape} and {v.shape}")
    norm_u = float(np.linalg.norm(u))
    norm_v = float(np.linalg.norm(v))
    if norm_u == 0.0 or norm_v == 0.0:
        raise ZeroVector("cosine similarity is undefined for a zero vector")
    return float(np.dot(u, v) / (norm_u * norm_v))


class EmbeddingProvider:
    """Base class: batch label encoding with a thread-safe cache.

    Subclasses implement _encode_batch for labels not yet cached. encode
    preserves input order, dedups repeated labels, and validates shape and
    finiteness of whatever the subclass returns.
    """

    def __init__(self):
        self._cache: dict[str, np.ndarray] = {}
        self._cache_lock = threading.Lock()

    @property
    def dim(self) -> int:
        raise NotImplementedError

    @property
    def fingerprint(self) -> str:
        raise NotImplementedError

    def _encode_batch(self, labels: Sequence[str]) -> np.ndarray:
        raise NotImplementedError

    def encode(self, labels: Sequence[str]) -> np.ndarray:
        if not labels:
            raise InvalidParameter("encode requires at least one label")
        distinct = list(dict.fromkeys(labels))
        with self._cache_lock:
            missing = [label for label in distinct if label not in self._cache]
        if missing:
            vectors = np.asarray(self._encode_batch(missing), dtype=np.float64)
            if vectors.shape != (len(missing), self.dim):
                raise DimensionMismatch(
                    f"provider returned shape {vectors.shape}, "
                    f"expected {(len(missing), self.dim)}"
                )
            if not np.isfinite(vectors).all():
                raise ProviderUnavailable(
                    f"{self.fingerprint} returned non-finite vector components"
                )
            with self._cache_lock:
                for label, vector in zip(missing, vectors):
                    self._cache[label] = vector
        with self._cache_lock:
            return np.stack([self._cache[label] for label in labels])


def _fixtures_digest(fixtures: Mapping[str, np.ndarray]) -> str:
    hasher = hashlib.sha256()
    for label in sorted(fixtures):
        row = ",".join(repr(float(x)) for x in np.asarray(fixtures[label]).ravel())
        hasher.update(f"{label}\t{row}\n".encode("utf-8"))
    return hasher.hexdigest()[:8]


class DeterministicProvider(EmbeddingProvider):
    """Hash-seeded unit vectors; same label + seed always gives the same row.

    Optional fixtures pin exact vectors for chosen labels (worked-example
    corpora); everything else falls back to the hashed vector. Fixture
    presence is part of the fingerprint.
    """

    def __init__(
        self,
        dim: int = 32,
        seed: int = 0,
        fixtures: Mapping[str, np.ndarray] | None = None,
    ):
        super().__init__()
        if dim < 1:
            raise InvalidParameter(f"dim must be >= 1, got {dim}")
        self._dim = int(dim)
        self._seed = int(seed)
        self._fixtures: dict[str, np.ndarray] = {}
        if fixtures:
            for label, vector in fixtures.items():
                row = np.asarray(vector, dtype=np.float64)
                if row.shape != (self._dim,):
                    raise DimensionMismatch(
                        f"fixture for {label!r} has shape {row.shape}, "
                        f"expected ({self._dim},)"
                    )
                self._fixtures[label] = row
        suffix = f"/fx{_fixtures_digest(self._fixtures)}" if self._fixtures else ""
        self._fingerprint = f"deterministic/d{self._dim}/s{self._seed}{suffix}"

    @property
    def dim(self) -> int:
        return self._dim

    @property
    def fingerprint(self) -> str:
        return self._fingerprint

    def _hash_vector(self, label: str) -> np.ndarray:
        digest = hashlib.sha256(f"{self._seed}:{label}".encode("utf-8")).digest()
        rng = np.random.default_rng(int.from_bytes(digest[:8], "big"))
        vector = rng.standard_normal(self._dim)
        norm = np.linalg.norm(vector)
        if norm == 0.0:  # astronomically unlikely; keep the invariant anyway
            vector[0] = 1.0
            norm = 1.0
        return vector / norm

    def _encode_batch(self, labels: Sequence[str]) -> np.ndarray:
        rows = [
            self._fixtures.get(label)
            if label in self._fixtures
            else self._hash_vector(label)
            for label in labels
        ]
        return np.stack(rows)


def load_vector_file(path: str) -> dict[str, np.ndarray]:
    """Parse a precomputed-vector file: label<TAB>comma-separated floats.

    Comment (#) and blank lines are skipped. All rows must share one
    dimensionality and be finite.
    """
    vectors: dict[str, np.ndarray] = {}
    dim: int | None = None
    for line_no, (label, payload) in read_records(path, 2):
        if not label:
            raise MalformedRecord(path, line_no, "empty label")
        if label in vectors:
            raise MalformedRecord(path, line_no, f"duplicate label {label!r}")
        try:
            row = np.array(
                [float(part) for part in payload.split(",")], dtype=np.float64
            )
        except ValueError as exc:
            raise MalformedRecord(path, line_no, f"bad float: {exc}") from None
        if not np.isfinite(row).all():
            raise MalformedRecord(path, line_no, "non-finite vector component")
        if dim is None:
            dim = row.size
        elif row.size != dim:
            raise MalformedRecord(
                path, line_no, f"dimension {row.size} != first row's {dim}"
            )
        vectors[label] = row
    if not vectors:
        raise MalformedRecord(path, 0, "no vector rows")
    return vectors


def write_vector_file(path: str, vectors: Mapping[str, np.ndarray]) -> None:
    """Write vectors in the load_vector_file format, sorted by label.

    A label that starts with '#' would be read back as a comment, and the
    reader ends a line at a lone carriage return too, so such labels are
    rejected like one that contains a tab or newline.
    """
    lines = ["# label\tcomma-separated components"]
    for label in sorted(vectors):
        if any(ch in label for ch in "\t\n\r"):
            raise InvalidParameter(
                f"label {label!r} cannot contain tab, newline or carriage return"
            )
        if label.lstrip().startswith("#"):
            raise InvalidParameter(
                f"label {label!r} cannot start with '#': vector files read "
                "'#' lines as comments"
            )
        row = ",".join(repr(float(x)) for x in np.asarray(vectors[label]).ravel())
        lines.append(f"{label}\t{row}")
    atomic_write_text(path, "\n".join(lines) + "\n")


class PrecomputedFileProvider(EmbeddingProvider):
    """Serves vectors from a file; unknown labels raise MissingVector."""

    def __init__(self, path: str):
        super().__init__()
        self._path = path
        self._vectors = load_vector_file(path)
        self._dim = next(iter(self._vectors.values())).size
        self._fingerprint = f"file/d{self._dim}/{_fixtures_digest(self._vectors)}"

    @property
    def dim(self) -> int:
        return self._dim

    @property
    def fingerprint(self) -> str:
        return self._fingerprint

    def _encode_batch(self, labels: Sequence[str]) -> np.ndarray:
        rows = []
        for label in labels:
            try:
                rows.append(self._vectors[label])
            except KeyError:
                hint = (
                    "; '#' lines are comments in a vector file, so such a "
                    "label cannot have a vector"
                    if label.lstrip().startswith("#") else ""
                )
                raise MissingVector(
                    f"{self._path} has no vector for label {label!r}{hint}"
                ) from None
        return np.stack(rows)


class HttpProvider(EmbeddingProvider):
    """Remote embedding service speaking JSON.

    Request: POST {"inputs": [label, ...]}; response: {"vectors": [[...], ...]}
    with rows aligned to inputs. Transient failures (connection errors, 5xx)
    retry with exponential backoff; anything else, or retry exhaustion, raises
    ProviderUnavailable. The secret, if any, is read from the environment
    variable named in the config; it never appears in artifacts or logs.
    """

    def __init__(
        self,
        url: str,
        dim: int,
        batch_size: int = 64,
        timeout: float = 30.0,
        max_retries: int = 3,
        backoff_seconds: float = 0.5,
        token_env: str | None = None,
    ):
        super().__init__()
        if dim < 1:
            raise InvalidParameter(f"dim must be >= 1, got {dim}")
        if batch_size < 1:
            raise InvalidParameter(f"batch_size must be >= 1, got {batch_size}")
        self._url = url
        self._dim = int(dim)
        self._batch_size = int(batch_size)
        self._timeout = float(timeout)
        self._max_retries = int(max_retries)
        self._backoff = float(backoff_seconds)
        self._headers = {"Content-Type": "application/json"}
        if token_env:
            token = os.environ.get(token_env)
            if not token:
                raise ConfigError(
                    f"environment variable {token_env} is not set; it must hold "
                    "the embedding service token"
                )
            self._headers["Authorization"] = f"Bearer {token}"
        digest = hashlib.sha256(url.encode("utf-8")).hexdigest()[:8]
        netloc = urlparse(url).netloc or "local"
        self._fingerprint = f"http/{netloc}/{digest}/d{self._dim}"

    @property
    def dim(self) -> int:
        return self._dim

    @property
    def fingerprint(self) -> str:
        return self._fingerprint

    def _post_batch(self, batch: list[str]) -> list[list[float]]:
        response, _ = post_json(
            self._url,
            {"inputs": batch},
            headers=self._headers,
            timeout=self._timeout,
            max_retries=self._max_retries,
            backoff_seconds=self._backoff,
            error=ProviderUnavailable,
            service="embedding service",
        )
        try:
            vectors = response.json()["vectors"]
        except (ValueError, KeyError) as exc:
            raise ProviderUnavailable(
                f"embedding service returned an unusable payload: {exc}"
            ) from exc
        if len(vectors) != len(batch):
            raise ProviderUnavailable(
                f"embedding service returned {len(vectors)} vectors "
                f"for {len(batch)} inputs"
            )
        return vectors

    def _encode_batch(self, labels: Sequence[str]) -> np.ndarray:
        rows: list[list[float]] = []
        for start in range(0, len(labels), self._batch_size):
            rows.extend(self._post_batch(list(labels[start:start + self._batch_size])))
        return np.asarray(rows, dtype=np.float64)
