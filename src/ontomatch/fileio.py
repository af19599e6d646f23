"""Small file helpers: atomic writes and wall-time formatting."""

from __future__ import annotations

import os
import secrets

from .errors import PersistFailure


def atomic_write_bytes(path: str, *chunks) -> None:
    """Write byte chunks to path, in order, via a temp file + rename.

    Readers never observe a half-written artifact; on failure the original
    file (if any) is left untouched. Each chunk is any bytes-like object and
    is written as is, so a large buffer is never copied into a joined one.
    The temp file is created with mode 0o666 so the process umask decides
    the artifact's permissions.
    """
    directory = os.path.dirname(os.path.abspath(path)) or "."
    tmp_path = os.path.join(directory, f".tmp-{secrets.token_hex(8)}~")
    flags = os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_BINARY", 0)
    try:
        os.makedirs(directory, exist_ok=True)
        fd = os.open(tmp_path, flags, 0o666)
        try:
            with os.fdopen(fd, "wb") as handle:
                for chunk in chunks:
                    handle.write(chunk)
            os.replace(tmp_path, path)
        except BaseException:
            if os.path.exists(tmp_path):
                os.unlink(tmp_path)
            raise
    except OSError as exc:
        raise PersistFailure(f"could not write {path}: {exc}") from exc


def atomic_write_text(path: str, text: str) -> None:
    """Write UTF-8 text to path atomically; see atomic_write_bytes."""
    atomic_write_bytes(path, text.encode("utf-8"))


def format_wall_time(seconds: float) -> str:
    """Render elapsed seconds as HH:MM:SS, rounding to whole seconds."""
    total = int(round(seconds))
    if total < 0:
        total = 0
    hours, rem = divmod(total, 3600)
    minutes, secs = divmod(rem, 60)
    return f"{hours:02d}:{minutes:02d}:{secs:02d}"
