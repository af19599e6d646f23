"""The remote JSON endpoint both HTTP clients post to.

An Endpoint holds everything about a service but the payload: the URL, the
headers with the bearer token read from the environment, the timeout, the
retry and backoff settings, the service name and the error class.
Endpoint.post is the one request loop, built on the standard library: each
attempt is one ``urllib.request`` POST on a connection of its own. The
openers honour ``HTTP(S)_PROXY`` and ``NO_PROXY``, verify HTTPS against the
system certificate store through one default ``ssl`` context per process,
and do not follow a 307/308 redirect of a POST, so that reply is rejected
without a retry.
"""

from __future__ import annotations

import json
import logging
import os
import ssl
import threading
import time
from http.client import HTTPException
from urllib.error import HTTPError
from urllib.parse import urlsplit
from urllib.request import (
    HTTPSHandler,
    OpenerDirector,
    Request,
    build_opener,
    urlopen,
)

from .errors import ConfigError, InvalidParameter

logger = logging.getLogger(__name__)


_https_lock = threading.Lock()
_https: OpenerDirector | None = None


def _https_opener() -> OpenerDirector:
    """The opener for HTTPS requests, built on the first one.

    It holds one TLS context for the process: urllib's default opener builds
    one, and so loads the whole CA store, for every connection. The context
    is set up as http.client sets up the one it builds itself, from the
    default-context hook that PEP 476 documents. The lock makes threads that
    send their first requests together wait for one build.
    """
    global _https
    with _https_lock:
        if _https is None:
            context = ssl._create_default_https_context()
            context.set_alpn_protocols(["http/1.1"])
            if context.post_handshake_auth is not None:
                context.post_handshake_auth = True
            _https = build_opener(HTTPSHandler(context=context))
        return _https


def _send(request: Request, timeout: float) -> tuple[int, bytes]:
    """One POST; return the reply's status and body, whatever the status.

    A non-2xx reply comes as an HTTPError and is read inside its handler:
    kept past it, the error, its traceback and this frame form a cycle that
    only the cyclic collector frees.
    """
    send = _https_opener().open if request.type == "https" else urlopen
    try:
        response = send(request, timeout=timeout)
    except HTTPError as exc:  # a non-2xx status is still a reply
        with exc:
            return exc.status, exc.read()
    with response:
        return response.status, response.read()


def _check_url(url: str, service: str) -> None:
    """ConfigError unless urllib can POST to url: an http or https URL with
    a host, a numeric port if any, and no user:password@ part, which urllib
    would not send. The message never shows a URL that holds a password."""
    try:
        parts = urlsplit(url)
        parts.port  # ValueError for a port that is not a number
    except ValueError as exc:
        raise ConfigError(f"{service} URL is malformed: {exc}") from None
    if parts.username is not None:
        raise ConfigError(
            f"{service} URL has a user:password@ part, which is never sent; "
            "put the token in the environment variable that *.token_env names"
        )
    if parts.scheme not in ("http", "https") or not parts.hostname:
        raise ConfigError(
            f"{service} URL {url!r} needs an http:// or https:// scheme and a host"
        )


class Endpoint:
    """One remote JSON service: its URL and headers, and how a request to it
    is retried.

    The URL is checked when the endpoint is built (see _check_url), so a
    URL no request can reach fails before any work is done. token_env
    names the environment variable whose value is sent as
    ``Authorization: Bearer <token>``; ConfigError if it is unset or holds
    a line break or a character beyond Latin-1, which no header can carry.
    service names the endpoint in messages and error is the class they
    raise. No message shows the token.
    """

    def __init__(
        self,
        url: str,
        *,
        service: str,
        error: type[Exception],
        timeout: float,
        max_retries: int,
        backoff_seconds: float,
        token_env: str | None = None,
    ):
        _check_url(url, service)
        self._url = url
        self._service = service
        self._error = error
        self._timeout = float(timeout)
        self._max_retries = int(max_retries)
        self._backoff = float(backoff_seconds)
        self._headers = {"Content-Type": "application/json"}
        if token_env:
            token = os.environ.get(token_env)
            if not token:
                raise ConfigError(
                    f"environment variable {token_env} is not set; it must hold "
                    f"the {service} token"
                )
            if "\r" in token or "\n" in token or max(token) > "\xff":
                raise ConfigError(
                    f"environment variable {token_env} holds a line break or a "
                    f"character beyond Latin-1; it must hold the {service} token "
                    "alone"
                )
            self._headers["Authorization"] = f"Bearer {token}"

    def post(self, payload: dict) -> tuple[bytes, int]:
        """POST payload as JSON; return the 200 reply's body and the attempt
        count.

        A request that cannot be built is not retried: a payload that is
        not JSON (a NaN or infinity included) raises InvalidParameter before
        any attempt. Transport errors, 429 (too many requests) and 5xx
        replies are retried, sleeping backoff_seconds * 2**(n-1) before
        retry n. Any other non-200 status, or running out of attempts,
        raises the endpoint's error class.
        """
        service = self._service
        try:
            body = json.dumps(payload, allow_nan=False).encode("utf-8")
        except (TypeError, ValueError) as exc:
            raise InvalidParameter(
                f"{service} request cannot be encoded as JSON: {exc}"
            ) from None
        last_error = "no attempt made"
        for attempt in range(1, self._max_retries + 1):
            if attempt > 1:
                time.sleep(self._backoff * 2 ** (attempt - 2))
            try:
                status, reply = _send(
                    Request(self._url, data=body, headers=self._headers,
                            method="POST"),
                    self._timeout,
                )
            # OSError covers URLError and timeouts; ValueError a URL or
            # header that http.client refuses.
            except (OSError, HTTPException, ValueError) as exc:
                last_error = f"transport error: {exc}"
                logger.warning(
                    "%s request failed (attempt %d): %s", service, attempt, exc
                )
                continue
            if status >= 500 or status == 429:
                last_error = (
                    f"server error {status}" if status >= 500
                    else "rate limited (429)"
                )
                logger.warning("%s returned %d (attempt %d)", service, status, attempt)
                continue
            if status != 200:
                text = reply.decode("utf-8", "replace")[:200]
                raise self._error(f"{service} rejected the request ({status}): {text}")
            return reply, attempt
        raise self._error(
            f"{service} unreachable after {self._max_retries} attempts ({last_error})"
        )
