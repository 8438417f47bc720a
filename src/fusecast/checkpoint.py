"""The file boundary, with its rules, and the binary checkpoint format.

Every text input is read by `decode_text`, and config files, series CSVs
and edge lists are cut into lines by `numbered_lines`. Every file the
program writes goes through `replacing`: beside its target, then moved over
it when complete, so a failed write leaves the earlier file untouched.

Checkpoint layout: an 8-byte magic, a format version, a record count, then
one record per parameter in the order given. Each record is
(name length u16, name utf-8, dtype tag u8, ndim u8, dims u32 each,
raw little-endian values). Writing the same parameters twice produces
byte-identical files.
"""

from __future__ import annotations

import math
import os
import struct
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .errors import IngestionError

MAGIC = b"FCASTCK1"
VERSION = 1

_DTYPE_TAGS = {np.dtype(np.float32): 0, np.dtype(np.float64): 1}
_TAG_DTYPES = {0: np.dtype("<f4"), 1: np.dtype("<f8")}


@contextmanager
def replacing(path, mode: str = "w"):
    """Open `<path>.tmp` for writing and move it over `path` when the block ends.

    If the block raises, the tmp file is removed and `path` keeps its earlier
    content. There is no fsync: this survives a failed or killed process,
    not a power loss.
    """
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, mode) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def decode_text(path, error: type[Exception]) -> str:
    """A UTF-8 file's text past an optional BOM, with universal newlines, as `open()` reads it.

    A byte that is not UTF-8 raises `error("<path>:<line>: not valid UTF-8")`.
    """
    raw = Path(path).read_bytes()
    try:
        text = raw.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        head = raw[:exc.start]  # newline bytes never occur inside a UTF-8 sequence
        line_no = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1
        raise error(f"{path}:{line_no}: not valid UTF-8") from None
    return text.replace("\r\n", "\n").replace("\r", "\n")


def numbered_lines(path, error: type[Exception]):
    """(line number, content) of each line `decode_text` reads that is not blank past its comment.

    `#` starts a comment that runs to the end of the line; content is stripped of whitespace.
    """
    for line_no, line in enumerate(decode_text(path, error).split("\n"), start=1):
        content = line.split("#", 1)[0].strip()
        if content:
            yield line_no, content


def save_checkpoint(path, params: dict) -> None:
    """Write named float32 or float64 arrays to `path` in declaration order."""
    with replacing(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<II", VERSION, len(params)))
        for name, value in params.items():
            arr = np.asarray(value)
            tag = _DTYPE_TAGS.get(arr.dtype)
            if tag is None:
                raise ValueError(f"checkpoint: unsupported dtype {arr.dtype} for '{name}'")
            encoded = name.encode("utf-8")
            fh.write(struct.pack("<H", len(encoded)))
            fh.write(encoded)
            fh.write(struct.pack("<BB", tag, arr.ndim))
            fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            fh.write(np.ascontiguousarray(arr, dtype=_TAG_DTYPES[tag]).tobytes())


def load_checkpoint(path) -> "dict[str, np.ndarray]":
    """Read a checkpoint back as a name -> array mapping in file order.

    Malformed content (a repeated name, trailing bytes) raises IngestionError naming the file.
    """
    out = {}
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size

        def take(n: int) -> bytes:
            # n comes from the file itself: check it against the bytes left first
            if n > size - fh.tell():
                raise IngestionError(f"checkpoint {path}: truncated at byte {fh.tell()}")
            return fh.read(n)

        if take(8) != MAGIC:
            raise IngestionError(f"checkpoint {path}: bad magic")
        version, count = struct.unpack("<II", take(8))
        if version != VERSION:
            raise IngestionError(f"checkpoint {path}: unsupported format version {version}")
        for _ in range(count):
            try:
                name = take(struct.unpack("<H", take(2))[0]).decode("utf-8")
            except UnicodeDecodeError:
                raise IngestionError(f"checkpoint {path}: record name is not utf-8") from None
            tag, ndim = struct.unpack("<BB", take(2))
            dtype = _TAG_DTYPES.get(tag)
            if dtype is None:
                raise IngestionError(f"checkpoint {path}: unknown dtype tag {tag} for '{name}'")
            shape = struct.unpack(f"<{ndim}I", take(4 * ndim))
            raw = take(math.prod(shape) * dtype.itemsize)
            if name in out:
                raise IngestionError(f"checkpoint {path}: record '{name}' appears twice")
            out[name] = np.frombuffer(raw, dtype=dtype).reshape(shape).copy()
        if fh.tell() != size:
            raise IngestionError(f"checkpoint {path}: {size - fh.tell()} bytes after the records")
    return out
