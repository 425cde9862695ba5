"""One container for the checkpoint and the store: a canonical text
header and named blobs, each of its own dtype.

Layout (all integers little-endian):

    magic   4 bytes  b"MSG1"
    version u32      2 (there is no reader for version 1)
    hlen    u64      length of the UTF-8 header text
    header  hlen bytes, lines "key = value\\n" sorted by key
    nblobs  u32
    per blob, sorted by name:
        nlen u16, name (UTF-8), dtype 3 bytes b"<f8", b"<f4" or b"<i8",
        ndim u8, ndim x u64 dims, the data in that dtype in C order

    format = train-state       config, config_hash, feature_dim, step,
        rng_state; <f8 student.data, teacher.data, opt.m, opt.v and
        bank.centroids; <i8 opt.t, bank.step, nt.ids, nt.rows, nt.step
    format = embedding-store   manifest_sha256; <f4 vectors, <i8 ids

Writing the result of a read reproduces the file byte for byte.  Blob
data moves straight between the file and the array: the writer writes
each array's own buffer, and the reader reads each blob into a fresh
array, reading only the blobs asked for and seeking past the others.
Every error names the file and ``what`` it holds ("checkpoint" or
"store").  A file cut short anywhere, or whose lengths point past its
end, is rejected with "<path>: truncated <what>", whichever blobs are
read, and one with another dtype or a shape NumPy cannot make with
"<path>: damaged <what>"; one whose header or a blob name is not UTF-8
is rejected naming the file too.  ``read_header`` reads and checks the
magic, the version and the header alone, so it does not see damage
after them.
"""

from __future__ import annotations

import contextlib
import math
import os
import struct

import numpy as np

MAGIC = b"MSG1"
VERSION = 2
DTYPES = {code.encode(): np.dtype(code) for code in ("<f4", "<f8", "<i8")}


def write_container(path, header: dict[str, str], blobs: dict[str, np.ndarray]) -> None:
    """Write each blob in its own dtype, one of ``DTYPES`` in either byte order."""
    raw = "".join(f"{k} = {header[k]}\n" for k in sorted(header)).encode("utf-8")
    with atomic_write(path) as fh:
        fh.write(MAGIC + struct.pack("<IQ", VERSION, len(raw)) + raw + struct.pack("<I", len(blobs)))
        for name in sorted(blobs):
            arr = np.asarray(blobs[name])
            dtype = arr.dtype.newbyteorder("<").str.encode()
            if dtype not in DTYPES:
                raise ValueError(f"blob {name!r}: dtype {arr.dtype} is not <f4, <f8 or <i8")
            nb = name.encode("utf-8")
            fh.write(struct.pack("<H", len(nb)) + nb + dtype)
            fh.write(struct.pack(f"<B{arr.ndim}Q", arr.ndim, *arr.shape))
            fh.write(_bytes(np.asarray(arr, dtype=DTYPES[dtype], order="C")))


def _bytes(arr: np.ndarray) -> np.ndarray:
    """The bytes of a C-contiguous array, as a flat uint8 view of its buffer
    (a memoryview cannot be cast to bytes when a dimension is 0)."""
    return arr.reshape(-1).view(np.uint8)


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


def _check_left(fh, n: int, path, what: str) -> None:
    """Fail naming the file as truncated unless ``n`` bytes are left in it,
    so a damaged length cannot ask for a huge buffer."""
    if n > os.fstat(fh.fileno()).st_size - fh.tell():
        raise ValueError(f"{path}: truncated {what}")


def _read_exact(fh, n: int, path, what: str) -> bytes:
    """Read exactly ``n`` bytes, checking that they are there first."""
    _check_left(fh, n, path, what)
    return fh.read(n)


def _blob_bytes(fh, shape, itemsize: int, path, what: str) -> int:
    """The byte length of a blob of ``shape``, checked to be left in the
    file, and the shape checked to be one NumPy can make: a 0 in it makes
    0 bytes whatever the other dimensions, which must still fit."""
    n = math.prod(shape) * itemsize
    _check_left(fh, n, path, what)
    if math.prod(dim for dim in shape if dim) * itemsize > np.iinfo(np.intp).max:
        raise ValueError(f"{path}: damaged {what}")
    return n


def _read_array(fh, shape, dtype: np.dtype, path, what: str) -> np.ndarray:
    """A fresh array of ``shape`` and ``dtype``, read straight from the file
    into its buffer; the bytes are checked to be there before it is made."""
    n = _blob_bytes(fh, shape, dtype.itemsize, path, what)
    arr = np.empty(shape, dtype=dtype)
    if fh.readinto(_bytes(arr)) != n:  # the file shrank meanwhile
        raise ValueError(f"{path}: truncated {what}")
    return arr


def _unpack(fh, fmt: str, path, what: str):
    return struct.unpack(fmt, _read_exact(fh, struct.calcsize(fmt), path, what))


def _text(fh, n: int, path, what: str, part: str) -> str:
    try:
        return _read_exact(fh, n, path, what).decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {what} {part} is not UTF-8: {exc}") from None


def _read_header(fh, path, what: str) -> dict[str, str]:
    """The magic, the version and the header text, from the start of the
    file; a file cut inside its magic is truncated."""
    got = fh.read(len(MAGIC))
    if got != MAGIC:
        if len(got) < len(MAGIC) and MAGIC.startswith(got):
            raise ValueError(f"{path}: truncated {what}")
        raise ValueError(f"{path}: bad {what} magic {got!r}: {MAGIC.decode()} expected")
    (version,) = _unpack(fh, "<I", path, what)
    if version != VERSION:
        raise ValueError(f"{path}: unsupported {what} version {version}")
    (hlen,) = _unpack(fh, "<Q", path, what)
    return dict(line.partition(" = ")[::2] for line in _text(fh, hlen, path, what, "header").splitlines())


def read_header(path, what: str = "checkpoint") -> dict[str, str]:
    """The header of the file at ``path``, read without its blobs."""
    with open(path, "rb") as fh:
        return _read_header(fh, path, what)


def read_container(path, names=None, what: str = "checkpoint") -> tuple[dict, dict]:
    """The header and the blobs named in ``names`` (every blob when None),
    each blob in the dtype it was written in.  Each other blob's name,
    dtype, shape and length are read and checked as well, and its data is
    skipped."""
    with open(path, "rb") as fh:
        header = _read_header(fh, path, what)
        (nblobs,) = _unpack(fh, "<I", path, what)
        blobs: dict[str, np.ndarray] = {}
        for _ in range(nblobs):
            (nlen,) = _unpack(fh, "<H", path, what)
            name = _text(fh, nlen, path, what, "blob name")
            if (dtype := DTYPES.get(_read_exact(fh, 3, path, what))) is None:
                raise ValueError(f"{path}: damaged {what}")
            (ndim,) = _unpack(fh, "<B", path, what)
            shape = _unpack(fh, f"<{ndim}Q", path, what)
            if names is None or name in names:
                blobs[name] = _read_array(fh, shape, dtype, path, what)
            else:
                fh.seek(_blob_bytes(fh, shape, dtype.itemsize, path, what), os.SEEK_CUR)
        return header, blobs
