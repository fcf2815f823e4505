"""Low-level binary tensor encoding shared by checkpoints and dataset files.

All multi-byte fields are little-endian. Tensor payload layout:
rank (u8), dims (u32 each), data (IEEE-754 single precision, row-major,
every value finite: readers and writers reject NaN and infinity).
Named tensors prefix the payload with a u16 length + UTF-8 name.
Standalone tensor files carry the magic "FTT0" before the payload.
"""

from __future__ import annotations

import io
import math
import struct
import sys
from typing import BinaryIO

import numpy as np

TENSOR_FILE_MAGIC = b"FTT0"

MAX_RANK = 8


class FormatError(Exception):
    """Raised when a binary tensor or checkpoint stream is malformed."""


# A read longer than this is checked against the bytes left in the stream
# before it is made, so a corrupt length or dims end in FormatError instead
# of an overflow or a huge allocation; shorter reads just come up short.
_CHECKED_READ = 1 << 16


def _bytes_left(f: BinaryIO) -> int | None:
    """Bytes from the current position to the end, or None if not seekable."""
    try:
        pos = f.tell()
        end = f.seek(0, io.SEEK_END)
        f.seek(pos)
    except (AttributeError, OSError, ValueError):
        return None
    return end - pos


def _read_exact(f: BinaryIO, n: int, what: str) -> bytes:
    if n > _CHECKED_READ:
        left = _bytes_left(f)
        if n > (sys.maxsize if left is None else left):
            raise FormatError(f"truncated stream while reading {what} "
                              f"(wanted {n} bytes, {left} left)")
    buf = f.read(n)
    if len(buf) != n:
        raise FormatError(f"truncated stream while reading {what} "
                          f"(wanted {n} bytes, got {len(buf)})")
    return buf


def finite_float32(array: np.ndarray) -> np.ndarray:
    """array as contiguous float32; FormatError unless every value is finite
    at that precision (so a float64 beyond float32's range is rejected)."""
    with np.errstate(over="ignore"):     # the check below reports it
        arr = np.ascontiguousarray(array, dtype=np.float32)
    if not np.isfinite(arr).all():
        raise FormatError("tensor data is not finite as float32")
    return arr


def write_tensor_payload(f: BinaryIO, array: np.ndarray) -> None:
    """Write rank, dims, and float32 data for one tensor."""
    arr = finite_float32(array)
    if arr.ndim > MAX_RANK:
        raise FormatError(f"tensor rank {arr.ndim} exceeds maximum {MAX_RANK}")
    f.write(struct.pack("<B", arr.ndim))
    for dim in arr.shape:
        f.write(struct.pack("<I", dim))
    f.write(arr.tobytes(order="C"))


def read_tensor_payload(f: BinaryIO, what: str = "tensor") -> np.ndarray:
    """Read one rank/dims/data payload as a float32 array."""
    (rank,) = struct.unpack("<B", _read_exact(f, 1, f"rank of {what}"))
    if rank > MAX_RANK:
        raise FormatError(f"{what}: rank {rank} exceeds maximum {MAX_RANK}")
    dims = []
    for i in range(rank):
        (d,) = struct.unpack("<I", _read_exact(f, 4, f"dim {i} of {what}"))
        dims.append(d)
    raw = _read_exact(f, 4 * math.prod(dims), f"data of {what} (dims {dims})")
    try:
        arr = np.frombuffer(raw, dtype="<f4").reshape(dims).astype(np.float32)
    except ValueError as e:     # a zero dim beside dims too large for numpy
        raise FormatError(f"{what}: dims {dims}: {e}") from None
    if not np.isfinite(arr).all():
        raise FormatError(f"{what}: data holds NaN or infinity")
    return arr


def write_named_tensor(f: BinaryIO, name: str, array: np.ndarray) -> None:
    encoded = name.encode("utf-8")
    if len(encoded) > 0xFFFF:
        raise FormatError(f"tensor name too long: {len(encoded)} bytes")
    f.write(struct.pack("<H", len(encoded)))
    f.write(encoded)
    write_tensor_payload(f, array)


def read_named_tensor(f: BinaryIO, what: str = "tensor") -> tuple[str, np.ndarray]:
    (name_len,) = struct.unpack("<H", _read_exact(f, 2, f"name length of {what}"))
    raw = _read_exact(f, name_len, f"name of {what}")
    try:
        name = raw.decode("utf-8")
    except UnicodeDecodeError:
        raise FormatError(f"{what}: name {raw!r} is not valid UTF-8") from None
    return name, read_tensor_payload(f, f"{what} '{name}'")


def save_tensor_file(path, array: np.ndarray) -> None:
    """Write a single unnamed tensor file (magic FTT0 + payload); an array
    the payload refuses leaves no file."""
    payload = io.BytesIO()
    write_tensor_payload(payload, array)
    with open(path, "wb") as f:
        f.write(TENSOR_FILE_MAGIC + payload.getvalue())


def load_tensor_file(path) -> np.ndarray:
    with open(path, "rb") as f:
        magic = _read_exact(f, 4, "magic")
        if magic != TENSOR_FILE_MAGIC:
            raise FormatError(f"bad magic {magic!r}, expected {TENSOR_FILE_MAGIC!r}")
        arr = read_tensor_payload(f, "tensor")
        if f.read(1):
            raise FormatError("trailing bytes after tensor data")
    return arr
