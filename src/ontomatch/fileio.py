"""Small file helpers: opening inputs, the text record grammar, the
`# key value` header codec and atomic writes."""

from __future__ import annotations

import io
import os
from typing import IO, Iterator

from .errors import ConfigError, MalformedRecord, PersistFailure


def open_input(path: str, mode: str = "r", what: str = "") -> IO:
    """Open an input file for reading, as UTF-8 text unless mode has 'b'.

    A missing or unreadable file raises ConfigError, `cannot read <what>
    <path>: <reason>`, instead of the OSError.
    """
    try:
        return open(path, mode, encoding=None if "b" in mode else "utf-8")
    except OSError as exc:
        name = f"{what} {path}" if what else path
        raise ConfigError(f"cannot read {name}: {exc}") from exc


class _HashingReader(io.RawIOBase):
    """A binary file's reader that feeds every byte it reads to a hasher."""

    def __init__(self, handle: IO[bytes], hasher):
        self._handle, self._hasher = handle, hasher

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        size = self._handle.readinto(buffer)
        self._hasher.update(memoryview(buffer)[:size])
        return size


def read_lines(path: str, what: str = "", hasher=None) -> Iterator[str]:
    """The lines of a UTF-8 text file opened by open_input.

    Bytes that are not UTF-8 raise MalformedRecord at line 0: the decoder
    reads ahead in chunks, so the failing line is not known. A hasher, such
    as hashlib.sha256(), is fed exactly the bytes decoded.
    """
    with open_input(path, "r" if hasher is None else "rb", what) as handle:
        if hasher is not None:
            handle = io.TextIOWrapper(io.BufferedReader(
                _HashingReader(handle, hasher), 1 << 16), encoding="utf-8")
        try:
            yield from handle
        except UnicodeDecodeError as exc:
            raise MalformedRecord(path, 0, f"not UTF-8 text: {exc}") from None


def read_text(path: str, what: str = "") -> str:
    """The whole of a UTF-8 text file; errors as for read_lines."""
    with open_input(path, "r", what) as handle:
        try:
            return handle.read()
        except UnicodeDecodeError as exc:
            raise MalformedRecord(path, 0, f"not UTF-8 text: {exc}") from None


def read_records(
    path: str, n_fields: int | None = None, hasher=None
) -> Iterator[tuple[int, list[str]]]:
    """Yield (line_no, fields) for each record of a tab-separated text file.

    This is the one line grammar of every text format: blank lines and lines
    whose first non-blank character is '#' are skipped, line endings (LF,
    CRLF or a lone CR) are stripped, and the rest splits on tab. With
    n_fields set, any other field count raises MalformedRecord at that line;
    hasher as for read_lines.
    """
    # Universal newlines end every line read in "\n" alone, so no "\r" is left.
    for line_no, raw in enumerate(read_lines(path, hasher=hasher), start=1):
        head = raw.lstrip()
        if not head or head[0] == "#":
            continue
        fields = raw.rstrip("\n").split("\t")
        if n_fields is not None and len(fields) != n_fields:
            raise MalformedRecord(
                path, line_no,
                f"expected {n_fields} tab-separated fields, got {len(fields)}",
            )
        yield line_no, fields


def format_header(layout, values) -> str:
    """A `# <key> <value>` line per (key, converter) of layout and value."""
    return "".join(f"# {key} {value}\n" for (key, _), value in zip(layout, values))


def parse_header(path: str, data: bytes, layout) -> tuple[list, int]:
    """(converted values, end offset) of the header format_header wrote for
    layout at the start of data; only the header's bytes are copied.

    A line that is missing, out of order or not UTF-8, or whose value its
    converter rejects with ValueError, is a MalformedRecord at that line.
    """
    values, pos = [], 0
    for line_no, (key, convert) in enumerate(layout, start=1):
        end = data.find(b"\n", pos)
        prefix = f"# {key} ".encode()
        if end < 0 or not data.startswith(prefix, pos):
            raise MalformedRecord(path, line_no, f"missing header '# {key} ...'")
        try:
            text = data[pos + len(prefix):end].decode("utf-8")
            values.append(convert(text))
        except UnicodeDecodeError as exc:
            raise MalformedRecord(path, line_no, f"bad header: {exc}") from None
        except ValueError:
            raise MalformedRecord(path, line_no, f"bad {key} header {text!r}") from None
        pos = end + 1
    return values, pos


def atomic_write_bytes(path: str, *chunks) -> None:
    """Write byte chunks to path, in order, via a temp file + rename.

    Readers never observe a half-written artifact; on failure the original
    file (if any) is left untouched. Each chunk is any bytes-like object and
    is written as is, so a large buffer is never copied into a joined one.
    The temp file is created with mode 0o666 so the process umask decides
    the artifact's permissions.
    """
    directory = os.path.dirname(os.path.abspath(path)) or "."
    tmp_path = os.path.join(directory, f".tmp-{os.urandom(8).hex()}~")
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

