"""Stand-in chat-completion endpoint for the synth_llm workload.

Run as its own process:

    python3 perfbench/stub_chat.py --source S.tsv --target T.tsv --reference R.tsv

It prints ``PORT <n>`` on its first stdout line once it listens on
127.0.0.1. A POST carries a chat request whose user message is the default
ontomatch prompt; the stub reads the two concept labels out of it and, after
a fixed delay of DELAY_S, answers "Yes" exactly when the labels' entities
form a reference pair and "No" otherwise. A prompt it cannot read gets HTTP
400. ``GET /stats`` returns the request count and the largest number of
requests in flight at once. At most one request per CPU is handled at a
time; further connections wait in the listen queue. The stub exits when
its stdin reaches end of file.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

DELAY_S = 0.002

_SOURCE_RE = re.compile(r"^Source concept: (.*)$", re.MULTILINE)
_TARGET_RE = re.compile(r"^Target concept: (.*)$", re.MULTILINE)


def _preferred_labels(dump_path: str) -> dict[str, str]:
    """Map each entity's preferred label to its id (dump format)."""
    by_label: dict[str, str] = {}
    with open(dump_path, "r", encoding="utf-8") as handle:
        for line in handle:
            if not line.strip() or line.startswith("#"):
                continue
            fields = line.rstrip("\n").split("\t")
            by_label[" ".join(fields[1].split())] = fields[0]
    return by_label


def _reference_pairs(path: str) -> frozenset[tuple[str, str]]:
    with open(path, "r", encoding="utf-8") as handle:
        return frozenset(
            tuple(line.rstrip("\n").split("\t"))
            for line in handle
            if line.strip() and not line.startswith("#")
        )


class StubServer(ThreadingHTTPServer):
    daemon_threads = True

    def __init__(self, address, handler, answer):
        super().__init__(address, handler)
        self.answer = answer
        self.lock = threading.Lock()
        self.requests = 0
        self.in_flight = 0
        self.max_in_flight = 0
        self._slots = threading.BoundedSemaphore(os.cpu_count() or 1)

    def process_request(self, request, client_address):
        # Block the accept loop until a slot frees up, so no more than
        # one request per CPU is ever being served at once.
        self._slots.acquire()
        try:
            super().process_request(request, client_address)
        except BaseException:
            self._slots.release()
            raise

    def process_request_thread(self, request, client_address):
        try:
            super().process_request_thread(request, client_address)
        finally:
            self._slots.release()


class Handler(BaseHTTPRequestHandler):
    server: StubServer

    def _send_json(self, status: int, body: dict) -> None:
        data = json.dumps(body).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def do_GET(self):
        stub = self.server
        with stub.lock:
            stats = {
                "requests": stub.requests,
                "max_in_flight": stub.max_in_flight,
            }
        self._send_json(200, stats)

    def do_POST(self):
        stub = self.server
        with stub.lock:
            stub.requests += 1
            stub.in_flight += 1
            stub.max_in_flight = max(stub.max_in_flight, stub.in_flight)
        try:
            length = int(self.headers.get("Content-Length", 0))
            payload = json.loads(self.rfile.read(length) or b"{}")
            time.sleep(DELAY_S)
            reply = stub.answer(payload)
        finally:
            # before the reply goes out: a client that sends its next
            # request as soon as it has the reply must not count as two
            with stub.lock:
                stub.in_flight -= 1
        if reply is None:
            self._send_json(400, {"error": "prompt names no known concepts"})
        else:
            self._send_json(200, {"choices": [{"message": {"content": reply}}]})

    def log_message(self, *args):
        pass


def make_answer(source_dump: str, target_dump: str, reference: str):
    """Return payload -> "Yes" / "No" / None (unreadable prompt)."""
    source_ids = _preferred_labels(source_dump)
    target_ids = _preferred_labels(target_dump)
    pairs = _reference_pairs(reference)

    def answer(payload: dict) -> str | None:
        try:
            prompt = payload["messages"][-1]["content"]
        except (KeyError, IndexError, TypeError):
            return None
        source = _SOURCE_RE.search(prompt)
        target = _TARGET_RE.search(prompt)
        if not source or not target:
            return None
        source_id = source_ids.get(source.group(1).strip())
        target_id = target_ids.get(target.group(1).strip())
        if source_id is None or target_id is None:
            return None
        return "Yes" if (source_id, target_id) in pairs else "No"

    return answer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--source", required=True, help="source dump")
    parser.add_argument("--target", required=True, help="target dump")
    parser.add_argument("--reference", required=True, help="reference TSV")
    args = parser.parse_args(argv)
    server = StubServer(
        ("127.0.0.1", 0),
        Handler,
        make_answer(args.source, args.target, args.reference),
    )
    print(f"PORT {server.server_address[1]}", flush=True)
    # The bench holds the other end of stdin; EOF means it is gone, even if
    # it was killed before it could stop the stub.
    threading.Thread(
        target=lambda: (sys.stdin.buffer.read(), server.shutdown()), daemon=True
    ).start()
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
