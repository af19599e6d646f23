"""In-process HTTP stubs for exercising the remote embedding/chat clients,
a provider that pins chosen labels' vectors, an LLM client that replays
canned replies, and a count of the cyclic garbage a call leaves."""

from __future__ import annotations

import gc
import hashlib
import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Sequence

import numpy as np

from ontomatch.embedding import DeterministicProvider
from ontomatch.errors import InvalidParameter
from ontomatch.llm import LlmClient


class PinnedProvider(DeterministicProvider):
    """DeterministicProvider that returns exact vectors for chosen labels.

    Every other label gets its hashed row. The pinned rows are part of the
    fingerprint, so a KB built with them never passes for a plain one.
    """

    def __init__(self, pinned, dim: int, seed: int = 0):
        super().__init__(dim=dim, seed=seed)
        self._pinned = {
            label: np.asarray(row, dtype=np.float64) for label, row in pinned.items()
        }
        text = repr(sorted((k, v.tolist()) for k, v in self._pinned.items()))
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()[:8]
        self._fingerprint += f"/pin{digest}"

    def _encode_batch(self, labels):
        hashed = super()._encode_batch(labels)
        return np.stack([
            self._pinned.get(label, row) for label, row in zip(labels, hashed)
        ])


class ScriptedClient(LlmClient):
    """Replays a fixed reply sequence; raises once the script runs out."""

    def __init__(self, replies: Sequence[str], log_path: str | None = None):
        super().__init__(log_path=log_path)
        self._replies = list(replies)
        self._next = 0
        self._script_lock = threading.Lock()

    def _respond(
        self, prompt: str, pair: tuple[str, str] | None
    ) -> tuple[str, int]:
        with self._script_lock:
            if self._next >= len(self._replies):
                raise InvalidParameter(
                    f"scripted client exhausted after {len(self._replies)} replies"
                )
            reply = self._replies[self._next]
            self._next += 1
        return reply, 1


class RecordingServer:
    """A JSON POST endpoint whose behavior is a per-test callable.

    behavior(payload, index) receives the parsed request body and the
    0-based request index and returns (status_code, response_object).
    The server records every payload, every Authorization header, and the
    maximum number of simultaneously in-flight requests (for concurrency
    assertions). Optional per-request delay makes overlap observable.
    """

    def __init__(self, behavior, delay_s: float = 0.0):
        self.behavior = behavior
        self.delay_s = delay_s
        self.payloads: list[dict] = []
        self.auth_headers: list[str | None] = []
        self.max_in_flight = 0
        self._in_flight = 0
        self._lock = threading.Lock()
        stub = self

        class Handler(BaseHTTPRequestHandler):
            def do_POST(self):
                with stub._lock:
                    stub._in_flight += 1
                    stub.max_in_flight = max(stub.max_in_flight, stub._in_flight)
                try:
                    length = int(self.headers.get("Content-Length", 0))
                    payload = json.loads(self.rfile.read(length) or b"{}")
                    with stub._lock:
                        index = len(stub.payloads)
                        stub.payloads.append(payload)
                        stub.auth_headers.append(self.headers.get("Authorization"))
                    if stub.delay_s:
                        time.sleep(stub.delay_s)
                    status, body = stub.behavior(payload, index)
                    data = (
                        body.encode("utf-8")
                        if isinstance(body, str)
                        else json.dumps(body).encode("utf-8")
                    )
                    self.send_response(status)
                    self.send_header("Content-Type", "application/json")
                    self.send_header("Content-Length", str(len(data)))
                    self.end_headers()
                    self.wfile.write(data)
                finally:
                    with stub._lock:
                        stub._in_flight -= 1

            def log_message(self, *args):
                pass

        self._server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self._thread = threading.Thread(
            target=self._server.serve_forever, daemon=True
        )
        self._thread.start()

    @property
    def url(self) -> str:
        host, port = self._server.server_address[:2]
        return f"http://{host}:{port}/v1"

    def close(self) -> None:
        self._server.shutdown()
        self._server.server_close()

    def __enter__(self) -> "RecordingServer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def embedding_behavior(dim: int):
    """Happy-path embedding endpoint: vector i is index-tagged but fixed."""

    def behavior(payload, index):
        vectors = []
        for label in payload["inputs"]:
            base = float(len(label) % 7 + 1)
            vectors.append([base] + [0.0] * (dim - 1))
        return 200, {"vectors": vectors}

    return behavior


def chat_behavior(replies):
    """Chat endpoint answering from a fixed reply list by request index."""

    def behavior(payload, index):
        reply = replies[index % len(replies)]
        return 200, {"choices": [{"message": {"content": reply}}]}

    return behavior


def cyclic_garbage(call):
    """Run call() with the cyclic collector off; return its result and the
    number of objects it left that only the collector frees."""
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        return call(), gc.collect()
    finally:
        if enabled:
            gc.enable()
