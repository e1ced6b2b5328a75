"""Text file I/O: line iteration over paths, byte streams, text streams, and
string iterables, and artifact writes that replace a file atomically."""

from __future__ import annotations

import contextlib
import io
import os
import uuid
from typing import IO, Iterable, Iterator


def iter_lines(source: str | os.PathLike | IO | Iterable[str]) -> Iterator[str]:
    """Yield lines from `source` with trailing newlines removed.

    Strings and path-likes are treated as file paths and read as UTF-8.
    Byte streams are wrapped in a UTF-8 decoder; text streams and plain
    iterables of strings are consumed as-is.
    """
    if isinstance(source, (str, os.PathLike)):
        with open(source, "r", encoding="utf-8", newline="") as handle:
            for line in handle:
                yield line.rstrip("\r\n")
        return
    if hasattr(source, "read") and isinstance(getattr(source, "read")(0), bytes):
        source = io.TextIOWrapper(source, encoding="utf-8")
    for line in source:
        yield line.rstrip("\r\n")


@contextlib.contextmanager
def atomic_write(path: str | os.PathLike) -> Iterator[IO[str]]:
    """Open a UTF-8 text handle whose contents replace `path` when the block ends.

    The text goes to a new temporary file in the same directory, which
    `os.replace` moves over `path` only after the block completes, so a
    reader sees the previous file or the whole new one. If the block raises,
    the temporary file is removed and `path` is left as it was.
    """
    path = os.fspath(path)
    directory, name = os.path.split(path)
    temporary = os.path.join(directory, f".{name}.{uuid.uuid4().hex[:12]}.tmp")
    handle = open(temporary, "x", encoding="utf-8", newline="\n")
    try:
        with handle:
            yield handle
        os.replace(temporary, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(temporary)
        raise
