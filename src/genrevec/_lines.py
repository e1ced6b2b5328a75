"""File I/O: line iteration over UTF-8 text files, JSON-lines records, and
artifact writes that replace a file atomically."""

from __future__ import annotations

import contextlib
import json
import os
import uuid
from typing import IO, Iterator


def iter_lines(path: str | os.PathLike) -> Iterator[str]:
    """Yield the lines of the UTF-8 file at `path` with trailing newlines removed."""
    with open(path, "r", encoding="utf-8", newline="") as handle:
        for line in handle:
            yield line.rstrip("\r\n")


def iter_json_objects(source: str | os.PathLike, what: str, error: type[Exception]) -> Iterator[tuple[int, dict]]:
    """(line number, object) per nonblank line; `error` names `what` and the line of a bad one."""
    for lineno, line in enumerate(iter_lines(source), start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise error(f"{what} line {lineno}: invalid JSON ({exc.msg})") from None
        if not isinstance(record, dict):
            raise error(f"{what} line {lineno}: expected a JSON object")
        yield lineno, record


@contextlib.contextmanager
def atomic_write(path: str | os.PathLike, binary: bool = False) -> Iterator[IO]:
    """Open a handle whose contents replace `path` when the block ends.

    The handle writes UTF-8 text, or bytes when `binary` is true. The
    contents go to a new temporary file in the same directory, which
    `os.replace` moves over `path` only after the block completes, so a
    reader sees the previous file or the whole new one. If the block raises,
    the temporary file is removed and `path` is left as it was.
    """
    path = os.fspath(path)
    directory, name = os.path.split(path)
    temporary = os.path.join(directory, f".{name}.{uuid.uuid4().hex[:12]}.tmp")
    handle = open(temporary, "xb") if binary else open(temporary, "x", encoding="utf-8", newline="\n")
    try:
        with handle:
            yield handle
        os.replace(temporary, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(temporary)
        raise
