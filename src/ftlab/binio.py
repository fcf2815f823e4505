"""Low-level binary tensor encoding shared by checkpoints and dataset files.

All multi-byte fields are little-endian. Tensor payload layout:
rank (u8), dims (u32 each), data (IEEE-754 single precision, row-major,
every value finite: readers and writers reject NaN and infinity).
Named tensors prefix the payload with a u16 length + UTF-8 name.
Standalone tensor files carry the magic "FTT0" before the payload.
This module alone knows those bytes: it writes and reads one tensor file,
and stacks a dataset's tensor files into one array (stack_tensor_files).
"""

from __future__ import annotations

import math
import os
import struct

import numpy as np

TENSOR_FILE_MAGIC = b"FTT0"

MAX_RANK = 8


class FormatError(Exception):
    """Raised when a binary tensor or checkpoint stream is malformed."""


class Reader:
    """A cursor over a whole file's bytes. take is the one truncation check:
    a length or dims past the end fail there, before anything so big is made."""

    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, n: int, what: str) -> bytes:
        """The next n bytes; FormatError if fewer are left."""
        left = len(self.data) - self.pos
        if n > left:
            raise FormatError(f"truncated stream while reading {what} "
                              f"(wanted {n} bytes, got {left})")
        self.pos += n
        return self.data[self.pos - n:self.pos]

    def unpack(self, fmt: str, what: str) -> tuple:
        """The next struct.calcsize(fmt) bytes, unpacked by fmt."""
        return struct.unpack(fmt, self.take(struct.calcsize(fmt), what))

    def end(self, what: str) -> None:
        """FormatError unless every byte has been taken."""
        if self.pos != len(self.data):
            raise FormatError(f"trailing bytes after {what}")


def finite_float32(array: np.ndarray) -> np.ndarray:
    """array as contiguous float32; FormatError unless every value is finite
    at that precision (so a float64 beyond float32's range is rejected)."""
    with np.errstate(over="ignore"):     # the check below reports it
        arr = np.ascontiguousarray(array, dtype=np.float32)
    if not np.isfinite(arr).all():
        raise FormatError("tensor data is not finite as float32")
    return arr


def _payload_header(shape: tuple) -> bytes:
    """A payload's rank and dims."""
    if len(shape) > MAX_RANK:
        raise FormatError(f"tensor rank {len(shape)} exceeds maximum {MAX_RANK}")
    return struct.pack(f"<B{len(shape)}I", len(shape), *shape)


def read_tensor_payload(r: Reader, what: str = "tensor") -> np.ndarray:
    """Read one rank/dims/data payload as a float32 array."""
    (rank,) = r.unpack("<B", f"rank of {what}")
    if rank > MAX_RANK:
        raise FormatError(f"{what}: rank {rank} exceeds maximum {MAX_RANK}")
    dims = list(r.unpack(f"<{rank}I", f"dims of {what}"))
    raw = r.take(4 * math.prod(dims), f"data of {what} (dims {dims})")
    try:
        arr = np.frombuffer(raw, dtype="<f4").reshape(dims).astype(np.float32)
    except ValueError as e:     # a zero dim beside dims too large for numpy
        raise FormatError(f"{what}: dims {dims}: {e}") from None
    if not np.isfinite(arr).all():
        raise FormatError(f"{what}: data holds NaN or infinity")
    return arr


def named_tensor_header(name: str, shape: tuple) -> bytes:
    """The bytes of a named tensor before its data: name length, name, rank
    and dims."""
    encoded = name.encode("utf-8")
    if len(encoded) > 0xFFFF:
        raise FormatError(f"tensor name too long: {len(encoded)} bytes")
    return struct.pack("<H", len(encoded)) + encoded + _payload_header(shape)


def read_named_tensor(r: Reader, what: str = "tensor") -> tuple[str, np.ndarray]:
    (name_len,) = r.unpack("<H", f"name length of {what}")
    raw = r.take(name_len, f"name of {what}")
    try:
        name = raw.decode("utf-8")
    except UnicodeDecodeError:
        raise FormatError(f"{what}: name {raw!r} is not valid UTF-8") from None
    return name, read_tensor_payload(r, f"{what} '{name}'")


def tensor_file_header(shape: tuple) -> bytes:
    """The bytes of a tensor file before its data: magic, rank and dims."""
    return TENSOR_FILE_MAGIC + _payload_header(shape)


def save_tensor_file(path, array: np.ndarray) -> None:
    """Write a single unnamed tensor file (magic FTT0 + payload); an array
    the payload refuses leaves no file."""
    arr = finite_float32(array)
    header = tensor_file_header(arr.shape)
    with open(path, "wb") as f:
        f.write(header)
        f.write(arr)


def load_tensor_file(path) -> np.ndarray:
    """Read a file that save_tensor_file wrote, in one read."""
    with open(path, "rb") as f:
        r = Reader(f.read())
    magic = r.take(4, "magic")
    if magic != TENSOR_FILE_MAGIC:
        raise FormatError(f"bad magic {magic!r}, expected {TENSOR_FILE_MAGIC!r}")
    arr = read_tensor_payload(r, "tensor")
    r.end("tensor data")
    return arr


def stack_tensor_files(paths) -> np.ndarray | None:
    """The tensor files at paths as one (n, *shape) float32 array, or None
    when a file cannot be read, differs from the first in length or header
    (magic, rank, dims), or holds a value that is not finite. Raises nothing.
    The first file is loaded by load_tensor_file; every other one is read
    once, by one os.read of one byte more than the first's length, and its
    data appended to one buffer, which is checked for finiteness at the end."""
    try:
        first = load_tensor_file(paths[0])
        header = tensor_file_header(first.shape)
        size = len(header) + first.nbytes
        data = bytearray(first.astype("<f4").tobytes())
        for path in paths[1:]:
            fd = os.open(path, os.O_RDONLY)
            try:
                blob = os.read(fd, size + 1)
            finally:
                os.close(fd)
            if len(blob) != size or not blob.startswith(header):
                return None
            data += memoryview(blob)[len(header):]
    except (OSError, ValueError, FormatError):  # ValueError: a NUL in a path
        return None
    stacked = np.frombuffer(data, "<f4").reshape((len(paths),) + first.shape)
    return stacked if np.isfinite(stacked).all() else None
