"""File I/O: UTF-8 lines, JSON records and atomic artifact writes. An input
error reads '<path>: <what> line <n>[, column <c>]: <problem>'."""

from __future__ import annotations

import contextlib
import json
import os
import uuid
from typing import IO, Iterator

NOT_JSON = (ValueError, RecursionError)  # json.loads: bad syntax, an integer too long, nesting too deep


@contextlib.contextmanager
def reading(path: str | os.PathLike, error: type[Exception]) -> Iterator[None]:
    """Block in which a loader reads the file at `path`; every `error` raised in it gets the path in front."""
    try:
        yield
    except error as exc:
        raise error(f"{path}: {exc}") from None


def iter_lines(path: str | os.PathLike, what: str, error: type[Exception]) -> Iterator[str]:
    """The lines of the UTF-8 file at `path`, newlines removed; `error` names `what`, the line and column of a bad byte."""
    with open(path, "r", encoding="utf-8", newline="") as handle:
        try:
            for line in handle:
                yield line.rstrip("\r\n")
        except UnicodeDecodeError:
            raise error(f"{what} {_undecodable(path)}".lstrip()) from None


def iter_json_objects(source: str | os.PathLike, what: str, error: type[Exception]) -> Iterator[tuple[int, dict]]:
    """(line number, object) per nonblank line; `error` names `what` and the line of a bad one."""
    for lineno, line in enumerate(iter_lines(source, what, error), start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except NOT_JSON as exc:
            raise error(f"{what} line {lineno}: invalid JSON ({getattr(exc, 'msg', exc)})") from None
        if not isinstance(record, dict):
            raise error(f"{what} line {lineno}: expected a JSON object")
        yield lineno, record


def read_json(path: str | os.PathLike, error: type[Exception]) -> object:
    """The JSON value in the UTF-8 file at `path`; `error` says what is wrong with one that holds none."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except UnicodeDecodeError:
        raise error(_undecodable(path)) from None
    except NOT_JSON as exc:
        raise error(f"invalid JSON ({getattr(exc, 'msg', exc)})") from None


def _undecodable(path: str | os.PathLike) -> str:
    """'line L, column C: ...' of the first byte that is not UTF-8, looked for only once decoding has failed. The file
    is read again line by line as the text reader splits it, each bad byte kept as a surrogate escape."""
    with open(path, "r", encoding="utf-8", errors="surrogateescape", newline="") as handle:
        for lineno, line in enumerate(handle, start=1):
            raw = line.encode("utf-8", "surrogateescape")
            try:
                raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                column = len(raw[:exc.start].decode("utf-8")) + 1
                return f"line {lineno}, column {column}: byte 0x{raw[exc.start]:02x} is not UTF-8 ({exc.reason})"
    return "not UTF-8 (the file changed while it was read)"


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
