"""MSG1 checkpoint container: canonical text header + named float64 blobs.

Layout (all integers little-endian):

    magic   4 bytes  b"MSG1"
    version u32
    hlen    u64      length of the UTF-8 header text
    header  hlen bytes, lines "key = value\\n" sorted by key
    nblobs  u32
    per blob, sorted by name:
        nlen u16, name (UTF-8), ndim u8, ndim x u64 dims,
        little-endian float64 data

Writing the result of a read reproduces the file byte for byte.  A file
cut short anywhere, or whose lengths point past its end, is rejected
with "<path>: truncated checkpoint"; one whose header or a blob name is
not UTF-8 is rejected naming the file too.  ``read_header`` reads and
checks the magic, the version and the header alone, so it does not see
damage after them.
"""

from __future__ import annotations

import contextlib
import math
import os
import struct

import numpy as np

MAGIC = b"MSG1"
VERSION = 1


def write_container(path, header: dict[str, str], blobs: dict[str, np.ndarray]) -> None:
    text = "".join(f"{k} = {header[k]}\n" for k in sorted(header))
    raw = text.encode("utf-8")
    with atomic_write(path) as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", VERSION))
        fh.write(struct.pack("<Q", len(raw)))
        fh.write(raw)
        fh.write(struct.pack("<I", len(blobs)))
        for name in sorted(blobs):
            arr = np.asarray(blobs[name], dtype="<f8")
            nb = name.encode("utf-8")
            fh.write(struct.pack("<H", len(nb)))
            fh.write(nb)
            fh.write(struct.pack("<B", arr.ndim))
            for dim in arr.shape:
                fh.write(struct.pack("<Q", dim))
            fh.write(arr.tobytes())


@contextlib.contextmanager
def atomic_write(path, mode: str = "wb", **kwargs):
    """Write through the sibling file ``<path>.tmp``, opened with
    ``open(tmp, mode, **kwargs)``, and move it over ``path`` when the block
    ends, so a run that dies mid-write leaves the previous file whole.  On
    an error the temporary file is removed."""
    tmp = os.fspath(path) + ".tmp"
    try:
        with open(tmp, mode, **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def read_exact(fh, n: int, path, what: str) -> bytes:
    """Read exactly ``n`` bytes, or fail naming the file as truncated before
    reading anything, so a damaged length cannot ask for a huge buffer."""
    if n > os.fstat(fh.fileno()).st_size - fh.tell():
        raise ValueError(f"{path}: truncated {what}")
    return fh.read(n)


def read_head(fh, magic: bytes, version: int, path, what: str) -> None:
    """Check a file's magic and u32 version, naming the file on failure;
    a file cut inside its magic is truncated."""
    got = fh.read(len(magic))
    if got != magic:
        if len(got) < len(magic) and magic.startswith(got):
            raise ValueError(f"{path}: truncated {what}")
        raise ValueError(f"{path}: bad {what} magic {got!r}: {magic.decode()} expected")
    (got_version,) = struct.unpack("<I", read_exact(fh, 4, path, what))
    if got_version != version:
        raise ValueError(f"{path}: unsupported {what} version {got_version}")


def _unpack(fh, fmt: str, path):
    return struct.unpack(fmt, read_exact(fh, struct.calcsize(fmt), path, "checkpoint"))


def _text(fh, n: int, path, what: str) -> str:
    try:
        return read_exact(fh, n, path, "checkpoint").decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: checkpoint {what} is not UTF-8: {exc}") from None


def _read_header(fh, path) -> dict[str, str]:
    """The magic, the version and the header text, from the start of the file."""
    read_head(fh, MAGIC, VERSION, path, "checkpoint")
    (hlen,) = _unpack(fh, "<Q", path)
    header: dict[str, str] = {}
    for line in _text(fh, hlen, path, "header").splitlines():
        key, _, value = line.partition(" = ")
        header[key] = value
    return header


def read_header(path) -> dict[str, str]:
    """The header of the file at ``path``, read without its blobs."""
    with open(path, "rb") as fh:
        return _read_header(fh, path)


def read_container(path) -> tuple[dict[str, str], dict[str, np.ndarray]]:
    with open(path, "rb") as fh:
        header = _read_header(fh, path)
        (nblobs,) = _unpack(fh, "<I", path)
        blobs: dict[str, np.ndarray] = {}
        for _ in range(nblobs):
            (nlen,) = _unpack(fh, "<H", path)
            name = _text(fh, nlen, path, "blob name")
            (ndim,) = _unpack(fh, "<B", path)
            shape = _unpack(fh, f"<{ndim}Q", path)
            raw = read_exact(fh, math.prod(shape) * 8, path, "checkpoint")
            blobs[name] = np.frombuffer(raw, dtype="<f8").reshape(shape).copy()
        return header, blobs
