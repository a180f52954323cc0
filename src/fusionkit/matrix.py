"""Dense float64 matrix container and its on-disk format.

Every numerical routine in this package operates on :class:`Matrix`. The
wrapped numpy buffer is always 2-D, C-contiguous, float64 and marked
read-only, so values can be shared freely between threads and reused as
dictionary-free caches without defensive copies.

The serialization is FKMX, a tiny binary container: magic ``b"FKMX"``,
then rows and cols as little-endian u32, then the row-major float64
payload (little-endian).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

FKMX_MAGIC = b"FKMX"
_FKMX_HEADER = struct.Struct("<II")


class ShapeError(ValueError):
    """Operand dimensions do not line up, or a shape is empty."""


class NotFiniteError(ValueError):
    """A matrix entry is NaN or infinite."""


class FkmxFormatError(ValueError):
    """An FKMX byte stream is truncated, oversized, or mislabeled."""


@dataclass(frozen=True, eq=False)
class Matrix:
    """An immutable rows x cols matrix of finite 64-bit floats.

    Construction validates shape (both dimensions must be positive) and
    finiteness, copies the input, and freezes the buffer.
    """

    data: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.data, dtype=np.float64, order="C", copy=True)
        if arr.ndim != 2:
            raise ShapeError(f"matrix data must be 2-D, got {arr.ndim}-D")
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ShapeError(f"matrix dimensions must be positive, got {arr.shape}")
        if not np.isfinite(arr).all():
            raise NotFiniteError("matrix entries must be finite")
        arr.setflags(write=False)
        object.__setattr__(self, "data", arr)

    @property
    def rows(self) -> int:
        return int(self.data.shape[0])

    @property
    def cols(self) -> int:
        return int(self.data.shape[1])

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.data.shape == other.data.shape and bool(
            np.array_equal(self.data, other.data)
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return f"Matrix({self.rows}x{self.cols})"

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "Matrix":
        return cls(np.zeros((rows, cols)))

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls(np.eye(n))


def dump_fkmx(m: Matrix) -> bytes:
    """Serialize a matrix to FKMX bytes."""
    payload = np.ascontiguousarray(m.data, dtype="<f8").tobytes()
    return FKMX_MAGIC + _FKMX_HEADER.pack(m.rows, m.cols) + payload


def parse_fkmx(blob: bytes) -> Matrix:
    """Parse FKMX bytes back into a matrix.

    Raises FkmxFormatError on a bad magic, a truncated header, or a payload
    whose length disagrees with the header. NaN/inf payloads are rejected by
    the Matrix constructor.
    """
    if len(blob) < len(FKMX_MAGIC) + _FKMX_HEADER.size:
        raise FkmxFormatError("FKMX stream shorter than its fixed header")
    if blob[: len(FKMX_MAGIC)] != FKMX_MAGIC:
        raise FkmxFormatError(
            f"bad magic {blob[:len(FKMX_MAGIC)]!r}, expected {FKMX_MAGIC!r}"
        )
    rows, cols = _FKMX_HEADER.unpack_from(blob, len(FKMX_MAGIC))
    if rows < 1 or cols < 1:
        raise FkmxFormatError(f"FKMX header declares empty shape {rows}x{cols}")
    expected = rows * cols * 8
    start = len(FKMX_MAGIC) + _FKMX_HEADER.size
    if len(blob) - start != expected:
        raise FkmxFormatError(
            f"FKMX payload holds {len(blob) - start} bytes, header implies {expected}"
        )
    # a view of the payload, not a sliced copy: Matrix makes the one copy
    arr = np.frombuffer(blob, dtype="<f8", offset=start).reshape(rows, cols)
    return Matrix(arr)


def save_fkmx(m: Matrix, path: str | Path) -> None:
    Path(path).write_bytes(dump_fkmx(m))


def load_fkmx(path: str | Path) -> Matrix:
    return parse_fkmx(Path(path).read_bytes())

