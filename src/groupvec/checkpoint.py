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
cut short anywhere is rejected with "<path>: truncated checkpoint".
"""

from __future__ import annotations

import struct

import numpy as np

MAGIC = b"MSG1"
VERSION = 1


def write_container(path, header: dict[str, str], blobs: dict[str, np.ndarray]) -> None:
    text = "".join(f"{k} = {header[k]}\n" for k in sorted(header))
    raw = text.encode("utf-8")
    with open(path, "wb") as fh:
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


def read_exact(fh, n: int, path, what: str) -> bytes:
    """Read exactly ``n`` bytes, or fail naming the file as truncated."""
    raw = fh.read(n)
    if len(raw) != n:
        raise ValueError(f"{path}: truncated {what}")
    return raw


def read_container(path) -> tuple[dict[str, str], dict[str, np.ndarray]]:
    def unpack(fmt: str):
        return struct.unpack(fmt, read_exact(fh, struct.calcsize(fmt), path, "checkpoint"))

    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != MAGIC:
            if len(magic) < 4 and MAGIC.startswith(magic):
                raise ValueError(f"{path}: truncated checkpoint")
            raise ValueError(f"{path}: bad checkpoint magic {magic!r}: MSG1 expected")
        (version,) = unpack("<I")
        if version != VERSION:
            raise ValueError(f"{path}: unsupported checkpoint version {version}")
        (hlen,) = unpack("<Q")
        text = read_exact(fh, hlen, path, "checkpoint").decode("utf-8")
        header: dict[str, str] = {}
        for line in text.splitlines():
            key, _, value = line.partition(" = ")
            header[key] = value
        (nblobs,) = unpack("<I")
        blobs: dict[str, np.ndarray] = {}
        for _ in range(nblobs):
            (nlen,) = unpack("<H")
            name = read_exact(fh, nlen, path, "checkpoint").decode("utf-8")
            (ndim,) = unpack("<B")
            shape = unpack(f"<{ndim}Q")
            count = int(np.prod(shape)) if shape else 1
            raw = read_exact(fh, count * 8, path, "checkpoint")
            blobs[name] = np.frombuffer(raw, dtype="<f8").reshape(shape).copy()
        return header, blobs
