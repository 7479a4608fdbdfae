"""One self-checking file format for named arrays plus JSON metadata.

Checkpoints and token exports share it. Layout, in order:

- a 4-byte magic naming the artifact, a ``<H`` format version and a
  ``<I`` header length;
- the header: ``sort_keys`` JSON holding ``meta`` and the ordered
  ``[name, dtype, shape]`` list of the arrays, space-padded so the array
  data starts 8-byte aligned;
- each array's raw C-order bytes, in header order;
- the SHA-256 of everything before it (32 bytes).

This is the safetensors layout (a JSON header, then raw little-endian
buffers) with a magic and a digest added, so any corrupted byte is caught
on read. Writing is deterministic and atomic: a temp file is moved into
place with one ``os.replace``.
"""
from __future__ import annotations

import hashlib
import json
import math
import os
import struct
from pathlib import Path

import numpy as np

VERSION = 2
DTYPES = ("<f4", "<f8", "<i8")
_PREFIX = struct.Struct("<4sHI")
_DIGEST_SIZE = 32


def write_arrays(path, magic: bytes, meta: dict, arrays: dict[str, np.ndarray]) -> Path:
    """Write arrays (in dict order) and meta to path; returns the path."""
    path = Path(path)
    arrays = {name: np.asarray(a, order="C") for name, a in arrays.items()}
    for name, a in arrays.items():
        if a.dtype.str not in DTYPES:
            raise ValueError(f"array {name} has unsupported dtype {a.dtype}")
    spec = [[name, a.dtype.str, list(a.shape)] for name, a in arrays.items()]
    header = json.dumps({"arrays": spec, "meta": meta}, sort_keys=True).encode()
    header += b" " * (-(_PREFIX.size + len(header)) % 8)
    digest = hashlib.sha256()
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as fh:
        for part in (_PREFIX.pack(magic, VERSION, len(header)), header, *arrays.values()):
            digest.update(part)
            fh.write(part)
        fh.write(digest.digest())
    os.replace(tmp, path)
    return path


def read_arrays(path, magic: bytes) -> tuple[dict, dict[str, np.ndarray]]:
    """(meta, arrays) from a file written by write_arrays with this magic.

    Any malformed, truncated, extended or corrupted file raises ValueError.
    The arrays are writable views into one buffer, in header order.
    """
    path = Path(path)
    with open(path, "rb") as fh:
        buf = bytearray(os.fstat(fh.fileno()).st_size)
        fh.readinto(buf)
    if buf[:4] != magic:
        raise ValueError(f"{path} has bad magic {bytes(buf[:4])!r}, expected {magic!r}")
    if len(buf) < _PREFIX.size:
        raise ValueError(f"{path} is truncated at byte {len(buf)}")
    _, version, header_size = _PREFIX.unpack_from(buf)
    if version != VERSION:
        raise ValueError(f"{path}: unsupported {magic.decode()} version {version}")
    start = _PREFIX.size + header_size
    if len(buf) < start + _DIGEST_SIZE:
        raise ValueError(f"{path} is truncated at byte {len(buf)}")
    meta, layout = _parse_header(path, buf[_PREFIX.size:start])

    sizes = [math.prod(shape) * dtype.itemsize for dtype, shape in layout.values()]
    expected = start + sum(sizes) + _DIGEST_SIZE
    if len(buf) < expected:
        raise ValueError(f"{path} has {len(buf)} bytes, expected {expected}")
    if len(buf) > expected:
        raise ValueError(f"{path} has {len(buf) - expected} trailing bytes")
    if hashlib.sha256(memoryview(buf)[:-_DIGEST_SIZE]).digest() != buf[-_DIGEST_SIZE:]:
        raise ValueError(f"{path} fails its SHA-256 check (corrupted)")

    arrays, offset = {}, start
    for (name, (dtype, shape)), size in zip(layout.items(), sizes):
        arrays[name] = np.frombuffer(buf, dtype, math.prod(shape), offset).reshape(shape)
        offset += size
    return meta, arrays


def _parse_header(path, raw) -> tuple[dict, dict[str, tuple[np.dtype, tuple]]]:
    try:
        head = json.loads(raw)
        meta, spec = head["meta"], head["arrays"]
        layout = {}
        for name, dtype, shape in spec:
            if (not isinstance(name, str) or name in layout or dtype not in DTYPES
                    or not all(type(n) is int and n >= 0 for n in shape)):
                raise ValueError(f"bad array entry {[name, dtype, shape]}")
            layout[name] = (np.dtype(dtype), tuple(shape))
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{path} has a malformed header: {exc}") from exc
    if not isinstance(meta, dict):
        raise ValueError(f"{path} header meta is not a JSON object")
    return meta, layout
