"""The one JSON-over-HTTP request loop shared by the remote clients."""

from __future__ import annotations

import logging
import time

import requests

logger = logging.getLogger(__name__)


def post_json(
    url: str,
    payload: dict,
    *,
    headers: dict[str, str],
    timeout: float,
    max_retries: int,
    backoff_seconds: float,
    error: type[Exception],
    service: str,
) -> tuple[requests.Response, int]:
    """POST payload as JSON; return the 200 response and the attempt count.

    Transport errors and 5xx replies are retried, sleeping backoff_seconds
    * 2**(n-1) before retry n. Any other non-200 status, or running out of
    attempts, raises the caller's error class; service names the endpoint
    in its message and in the retry warnings.
    """
    last_error = "no attempt made"
    for attempt in range(1, max_retries + 1):
        if attempt > 1:
            time.sleep(backoff_seconds * 2 ** (attempt - 2))
        try:
            response = requests.post(
                url, json=payload, headers=headers, timeout=timeout
            )
        except requests.RequestException as exc:
            last_error = f"transport error: {exc}"
            logger.warning("%s request failed (attempt %d): %s", service, attempt, exc)
            continue
        if response.status_code >= 500:
            last_error = f"server error {response.status_code}"
            logger.warning(
                "%s returned %d (attempt %d)", service, response.status_code, attempt
            )
            continue
        if response.status_code != 200:
            raise error(
                f"{service} rejected the request "
                f"({response.status_code}): {response.text[:200]}"
            )
        return response, attempt
    raise error(f"{service} unreachable after {max_retries} attempts ({last_error})")
