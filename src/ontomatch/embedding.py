"""Label embedding providers and score rounding.

Three providers share one interface: a deterministic hash-based encoder for
tests and synthetic corpora, a precomputed-vector file, and a remote HTTP
service. All scores the pipeline compares or persists go through
round_scores, the single place the 5-decimal half-away-from-zero rule lives.
"""

from __future__ import annotations

import threading
from decimal import ROUND_HALF_UP, Decimal
from typing import Iterator, Mapping, Sequence
from urllib.parse import urlparse

import numpy as np

from .errors import (
    DimensionMismatch,
    InvalidParameter,
    MalformedRecord,
    MissingVector,
    ProviderUnavailable,
)
from .fileio import atomic_write_text, open_input, read_records
# hashlib and json load where used: a deterministic predict needs neither

SCORE_DECIMALS = 5
_SCALE = 10.0 ** SCORE_DECIMALS
_QUANTUM = Decimal(1).scaleb(-SCORE_DECIMALS)


def round_window(scaled: np.ndarray) -> np.ndarray:
    """Largest |scaled - 1e5 * d| for scaled = |x| * 1e5 in float64 and d the
    decimal repr(x) spells, x any finite float.

    The product is off by at most 2**-53 of itself and repr(x) by at most
    2**-53 * |x| for a normal x, together under 2**-52 * scaled * (1 + 2**-52);
    a subnormal x or product adds under 2**-1057. The window is twice
    the first bound plus a cover for the second.
    """
    return scaled * 2.0 ** -51 + 2.0 ** -1056


def round_scores(scores) -> np.ndarray:
    """Round similarities to 5 decimals, halves away from zero, as float64.

    The rule works on each float's shortest decimal, its repr, so 0.123455
    rounds up to 0.12346 (Python's round() is banker's rounding on the binary
    value). With y = |x| * 1e5 and f = floor(y), that is copysign((f +
    (y - f > 0.5)) / 1e5, x) unless y - f is within round_window(y) of one
    half; only those values go through Decimal.
    """
    values = np.asarray(scores, dtype=np.float64)
    if not np.isfinite(values).all():
        raise InvalidParameter(f"cannot round non-finite scores in {scores!r}")
    scaled = np.abs(values) * _SCALE
    whole = np.floor(scaled)
    frac = scaled - whole
    rounded = np.copysign((whole + (frac > 0.5)) / _SCALE, values)
    near = np.abs(frac - 0.5) <= round_window(scaled)
    if near.any():
        rounded[near] = [
            float(Decimal(repr(x)).quantize(_QUANTUM, rounding=ROUND_HALF_UP))
            for x in values[near].tolist()
        ]
    return rounded


class EmbeddingProvider:
    """Base class: batch label encoding with a thread-safe cache.

    Subclasses implement _encode_batch for labels not yet cached. encode
    preserves input order, dedups repeated labels, and validates shape and
    finiteness of whatever the subclass returns. When every label is new
    and distinct, encode returns that batch itself, read-only, and the cache
    keeps views of its rows, so the batch is held once.
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
            vectors.flags.writeable = False
            with self._cache_lock:
                for label, vector in zip(missing, vectors):
                    self._cache[label] = vector
            if len(missing) == len(labels):
                return vectors
        with self._cache_lock:
            return np.stack([self._cache[label] for label in labels])


def _row_text(row: np.ndarray) -> str:
    """A float64 row as the vector file writes it: each component's repr."""
    return ",".join(map(repr, row.tolist()))


class DeterministicProvider(EmbeddingProvider):
    """Hash-seeded unit vectors; same label + seed always gives the same row."""

    def __init__(self, dim: int = 32, seed: int = 0):
        super().__init__()
        if dim < 1:
            raise InvalidParameter(f"dim must be >= 1, got {dim}")
        self._dim = int(dim)
        self._seed = int(seed)
        self._fingerprint = f"deterministic/d{self._dim}/s{self._seed}"

    @property
    def dim(self) -> int:
        return self._dim

    @property
    def fingerprint(self) -> str:
        return self._fingerprint

    def _encode_batch(self, labels: Sequence[str]) -> np.ndarray:
        return _hash_rows(self._seed, labels, self._dim)


# numpy's SeedSequence constants (numpy/random/bit_generator.pyx).
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_POOL_SIZE = 4
_SHIFT = np.uint32(16)


def _hash_steps(const: int, mult: int):
    """A running hash constant's (xor, multiply) pairs: each step multiplies it."""
    while True:
        product = (const * mult) & 0xFFFFFFFF
        yield np.uint32(const), np.uint32(product)
        const = product


def _hashmix(value: np.ndarray, steps) -> np.ndarray:
    xor, mult = next(steps)
    value = (value ^ xor) * mult
    return value ^ (value >> _SHIFT)


def seed_words(seeds: np.ndarray) -> np.ndarray:
    """SeedSequence(s).generate_state(4, np.uint64) for every 64-bit seed s.

    numpy's SeedSequence algorithm (pool size 4, no spawn key), run on all
    seeds at once in wrapping uint32 arithmetic. A seed's entropy is its
    low and high 32-bit words; a seed below 2**32 is the one word [w0],
    which mixes exactly like [w0, 0]. Returns a C-contiguous (n, 4) array.
    """
    seeds = np.asarray(seeds, dtype=np.uint64)
    entropy = [
        (seeds & np.uint64(0xFFFFFFFF)).astype(np.uint32),
        (seeds >> np.uint64(32)).astype(np.uint32),
    ]
    entropy += [np.zeros_like(entropy[0])] * (_POOL_SIZE - len(entropy))
    steps = _hash_steps(_INIT_A, _MULT_A)
    pool = [_hashmix(word, steps) for word in entropy]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                mixed = (_MIX_MULT_L * pool[dst]
                         - _MIX_MULT_R * _hashmix(pool[src], steps))
                pool[dst] = mixed ^ (mixed >> _SHIFT)
    steps = _hash_steps(_INIT_B, _MULT_B)
    state = np.stack(
        [_hashmix(pool[i % _POOL_SIZE], steps) for i in range(2 * _POOL_SIZE)],
        axis=1,
    )
    # uint32 pairs, low word first, as SeedSequence assembles its uint64s
    return state.astype("<u4").view("<u8").astype(np.uint64)


def _hash_rows(seed: int, labels: Sequence[str], dim: int) -> np.ndarray:
    """One unit row per label, each a function of sha256(f"{seed}:{label}").

    The digest's first 8 bytes (big-endian) seed the row exactly as
    np.random.default_rng(that seed).standard_normal(dim) would, with the
    SeedSequence words computed for all labels at once; the row is then
    divided by its 2-norm, as np.linalg.norm computes it.
    """
    # numpy.random and hashlib are loaded here, not at import: the verbs that
    # never hash a label should not pay for them
    import hashlib

    from numpy.random import PCG64, Generator
    from numpy.random.bit_generator import ISeedSequence

    class Words(ISeedSequence):
        """Hands PCG64 precomputed SeedSequence state words."""

        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words

    seeds = np.fromiter(
        (
            int.from_bytes(
                hashlib.sha256(f"{seed}:{label}".encode("utf-8")).digest()[:8],
                "big",
            )
            for label in labels
        ),
        dtype=np.uint64, count=len(labels),
    )
    rows = np.empty((len(labels), dim), dtype=np.float64)
    for words, row in zip(seed_words(seeds), rows):
        Generator(PCG64(Words(words))).standard_normal(out=row)
    # one stacked matmul takes every row's dot with itself, as np.dot does
    norms = np.sqrt((rows[:, None, :] @ rows[:, :, None]).ravel())
    zero = norms == 0.0  # astronomically unlikely; keep the invariant anyway
    rows[zero, 0], norms[zero] = 1.0, 1.0
    rows /= norms[:, None]
    return rows


# Tokens per parse block: enough to spread numpy's per-call cost thin, few
# enough that a block's strings, floats and index arrays stay small. A
# 2**14 block's Python objects fit in a 2 MiB L2 cache and a 2**16 block's
# do not; a sparse 2,992 x 402 file parsed in 72 ms at 2**14 and 90 ms at
# 2**16 (medians of 40 alternating calls).
_BLOCK_TOKENS = 1 << 14
_COMMA, _ZERO = ord(","), np.frombuffer(b"0.0", np.uint8)  # repr(0.0)


def _record_blocks(path: str, hasher) -> Iterator[list[tuple[int, str, str, int]]]:
    """The vector file's records in runs of about _BLOCK_TOKENS tokens.

    Each run is a list of (line_no, label, payload, token count). A line
    the reader rejects is raised only after the run read before it, so a
    fault in an earlier row is still the one reported. hasher is fed the
    file's bytes as they are read.
    """
    block, size = [], 0
    try:
        for line_no, (label, payload) in read_records(path, 2, hasher):
            width = payload.count(",") + 1
            block.append((line_no, label, payload, width))
            size += width
            if size >= _BLOCK_TOKENS:
                yield block
                block, size = [], 0
    except MalformedRecord:
        if block:
            yield block
        raise
    if block:
        yield block


def _split_tokens(
    payloads: Sequence[str], n_tokens: int
) -> tuple[np.ndarray, list[str]]:
    """The comma-separated tokens of the payloads, in order.

    Returns a mask of the tokens spelled exactly '0.0' and the text of every
    other token. Only the other tokens' bytes are decoded: in a sparse file
    nearly every token is '0.0', which is repr(0.0) and so its own canonical
    text. A block without such a token, as in a dense file, has nothing to
    mask and is split as it is.
    """
    text = "," + ",".join(payloads) + ","  # a comma on each side of every token
    zero = np.zeros(n_tokens, dtype=bool)
    if ",0.0," in text:
        data = np.frombuffer(text.encode("utf-8"), np.uint8)
        commas = np.flatnonzero(data == _COMMA)
        starts, ends = commas[:-1] + 1, commas[1:]
        zero = ends - starts == _ZERO.size
        at = starts[zero]
        zero[zero] = ((data[at] == _ZERO[0]) & (data[at + 1] == _ZERO[1])
                      & (data[at + 2] == _ZERO[2]))
        kept = np.concatenate(([True], np.repeat(~zero, ends - starts + 1)))
        text = data[kept].tobytes().decode("utf-8")
    return zero, text.split(",")[1:-1]


def _first_fault(
    labels: Sequence[str], payloads: Sequence[str], dim: int,
    seen: Mapping[str, np.ndarray],
) -> tuple[int, str]:
    """The block's first faulty row and its fault.

    A row's faults are tested in order: empty label, duplicate label, first
    bad token, non-finite component, dimension. seen holds the labels of
    earlier blocks.
    """
    earlier = set()
    for row, (label, payload) in enumerate(zip(labels, payloads)):
        if not label:
            return row, "empty label"
        if label in seen or label in earlier:
            return row, f"duplicate label {label!r}"
        earlier.add(label)
        tokens = payload.split(",")
        try:
            values = [float(token) for token in tokens]
        except ValueError as exc:
            return row, f"bad float: {exc}"
        if not np.isfinite(values).all():
            return row, "non-finite vector component"
        if len(tokens) != dim:
            return row, f"dimension {len(tokens)} != first row's {dim}"
    raise AssertionError("the block has no faulty row")


def load_vector_file(path: str) -> tuple[dict[str, np.ndarray], str]:
    """Parse a precomputed-vector file: label<TAB>comma-separated floats.

    Comment (#) and blank lines are skipped. All rows must share one
    dimensionality and be finite; the first faulty row is reported. Returns
    the rows and the sha256 hex digest of the bytes the parse read, so the
    rows and the digest come from one read of the file.

    Rows are parsed a block of about _BLOCK_TOKENS tokens at a time. A
    token spelled '0.0' is found as bytes and never becomes a Python object;
    each distinct other token of the block goes through float() once.
    """
    import hashlib

    vectors: dict[str, np.ndarray] = {}
    dim: int | None = None
    hasher = hashlib.sha256()
    for block in _record_blocks(path, hasher):
        line_nos, labels, payloads, widths = zip(*block)
        widths = np.array(widths)
        if dim is None:
            dim = int(widths[0])
        zero, others = _split_tokens(payloads, int(widths.sum()))
        distinct = dict.fromkeys(others)
        fresh = dict.fromkeys(labels)
        try:
            parsed = np.array(list(map(float, distinct)), dtype=np.float64)
        except ValueError:
            parsed = None
        if (parsed is None or not np.isfinite(parsed).all()
                or "" in fresh or len(fresh) < len(labels)
                or not vectors.keys().isdisjoint(fresh) or (widths != dim).any()):
            row, reason = _first_fault(labels, payloads, dim, vectors)
            raise MalformedRecord(path, line_nos[row], reason)
        flat = np.zeros(zero.size)
        if len(parsed) < len(others):  # repeated tokens: one value per token
            index = dict(zip(distinct, range(len(parsed))))
            parsed = parsed[np.fromiter(map(index.__getitem__, others),
                                        np.intp, len(others))]
        flat[~zero] = parsed
        vectors.update(zip(labels, flat.reshape(len(labels), dim)))
    if not vectors:
        raise MalformedRecord(path, 0, "no vector rows")
    return vectors, hasher.hexdigest()


def write_vector_file(path: str, vectors: Mapping[str, np.ndarray]) -> None:
    """Write vectors in the load_vector_file format, sorted by label.

    Whatever load_vector_file would refuse is rejected before anything is
    written: no rows, an empty label, a row that is not one-dimensional or
    is empty, rows of different widths and non-finite components. A label
    that starts with '#' would be read back as a comment, and the reader
    ends a line at a lone carriage return too, so such labels are rejected
    like one that contains a tab or newline.
    """
    if not vectors:
        raise InvalidParameter("a vector file needs at least one row")
    lines = ["# label\tcomma-separated components"]
    dim: int | None = None
    for label in sorted(vectors):
        if not label:
            raise InvalidParameter("a vector file label cannot be empty")
        if any(ch in label for ch in "\t\n\r"):
            raise InvalidParameter(
                f"label {label!r} cannot contain tab, newline or carriage return"
            )
        if label.lstrip().startswith("#"):
            raise InvalidParameter(
                f"label {label!r} cannot start with '#': vector files read "
                "'#' lines as comments"
            )
        row = np.asarray(vectors[label], dtype=np.float64)
        if row.ndim != 1 or row.size == 0:
            raise InvalidParameter(
                f"vector for {label!r} has shape {row.shape}; a vector file "
                "row is one-dimensional with at least one component"
            )
        if dim is None:
            dim = row.size
        elif row.size != dim:
            raise InvalidParameter(
                f"vector for {label!r} has {row.size} components, "
                f"the first row {dim}"
            )
        if not np.isfinite(row).all():
            raise InvalidParameter(f"vector for {label!r} has a non-finite component")
        lines.append(f"{label}\t{_row_text(row)}")
    atomic_write_text(path, "\n".join(lines) + "\n")


class PrecomputedFileProvider(EmbeddingProvider):
    """Serves vectors from a file; unknown labels raise MissingVector.

    The fingerprint is `file/d<dim>/<first 8 hex of the file's sha256>`.
    Read before the first encode, it costs a hash of the file and a read of
    its first record; the file is parsed at the first encode, and the parse
    sets the fingerprint from the bytes it read.
    """

    def __init__(self, path: str):
        super().__init__()
        self._path = path
        self._vectors = self._fingerprint = None  # until read

    def _parse(self) -> dict[str, np.ndarray]:
        with self._cache_lock:
            if self._vectors is None:
                self._vectors, digest = load_vector_file(self._path)
                dim = next(iter(self._vectors.values())).size
                self._fingerprint = f"file/d{dim}/{digest[:8]}"
        return self._vectors

    @property
    def dim(self) -> int:
        return int(self.fingerprint.split("/")[1][1:])  # file/d<dim>/<hex>

    @property
    def fingerprint(self) -> str:
        if self._fingerprint is None:
            import hashlib

            hasher = hashlib.sha256()
            with open_input(self._path, "rb") as handle:
                for chunk in iter(lambda: handle.read(1 << 20), b""):
                    hasher.update(chunk)
            for _, (_, payload) in read_records(self._path, 2):
                dim = payload.count(",") + 1
                break
            else:
                raise MalformedRecord(self._path, 0, "no vector rows")
            self._fingerprint = f"file/d{dim}/{hasher.hexdigest()[:8]}"
        return self._fingerprint

    def _encode_batch(self, labels: Sequence[str]) -> np.ndarray:
        vectors, rows = self._parse(), []
        for label in labels:
            try:
                rows.append(vectors[label])
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
        self._dim = int(dim)
        self._batch_size = int(batch_size)
        import hashlib

        from .transport import Endpoint  # urllib.request only for HTTP clients

        self._endpoint = Endpoint(
            url, service="embedding service", error=ProviderUnavailable,
            timeout=timeout, max_retries=max_retries,
            backoff_seconds=backoff_seconds, token_env=token_env,
        )
        digest = hashlib.sha256(url.encode("utf-8")).hexdigest()[:8]
        netloc = urlparse(url).netloc or "local"
        self._fingerprint = f"http/{netloc}/{digest}/d{self._dim}"

    @property
    def dim(self) -> int:
        return self._dim

    @property
    def fingerprint(self) -> str:
        return self._fingerprint

    def _post_batch(self, batch: list[str]) -> np.ndarray:
        import json

        body, _ = self._endpoint.post({"inputs": batch})
        try:
            vectors = np.asarray(json.loads(body)["vectors"], dtype=np.float64)
            if vectors.ndim != 2:
                raise ValueError(f"vectors has {vectors.ndim} dimensions, not 2")
        except (ValueError, KeyError, TypeError) as exc:
            raise ProviderUnavailable(
                f"embedding service returned an unusable payload: {exc}"
            ) from exc
        if len(vectors) != len(batch):
            raise ProviderUnavailable(
                f"embedding service returned {len(vectors)} vectors "
                f"for {len(batch)} inputs"
            )
        if vectors.shape[1] != self._dim:
            raise DimensionMismatch(
                f"embedding service returned vectors of width "
                f"{vectors.shape[1]}, expected {self._dim}"
            )
        return vectors

    def _encode_batch(self, labels: Sequence[str]) -> np.ndarray:
        return np.concatenate([
            self._post_batch(list(labels[start:start + self._batch_size]))
            for start in range(0, len(labels), self._batch_size)
        ])
