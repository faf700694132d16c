"""In-memory pixel grid shared by every codec and transform in the package.

``width``, ``height`` and ``channels`` pass :func:`kpng.errors._check_int`,
the package's one integer check, and are stored as plain ints; ``samples``
that are not ``bytes`` pass :func:`kpng.errors._check_bytes`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, ParameterError, _check_bytes, _check_int


@dataclass(frozen=True)
class RasterImage:
    """8-bit image, row-major, channel-interleaved.

    ``channels`` is 1 (grayscale) or 3 (RGB). ``samples`` holds exactly
    ``width * height * channels`` bytes; byte values are the sample values,
    so the [0, 255] range invariant comes for free.
    """

    width: int
    height: int
    channels: int
    samples: bytes

    def __post_init__(self) -> None:
        for name, hi in (("width", None), ("height", None), ("channels", 3)):
            object.__setattr__(self, name, _check_int(name, getattr(self, name), 1, hi))
        if self.channels == 2:
            raise ParameterError("channels must be 1 or 3, got 2")
        if not isinstance(self.samples, bytes):
            object.__setattr__(self, "samples", _check_bytes("samples", self.samples))
        expected = self.width * self.height * self.channels
        if len(self.samples) != expected:
            raise ParameterError(
                f"sample count {len(self.samples)} does not match "
                f"{self.width}x{self.height}x{self.channels} = {expected}"
            )

    @classmethod
    def from_array(cls, arr: np.ndarray) -> "RasterImage":
        """Build from an (H, W) or (H, W, C) uint8-compatible array."""
        a = np.asarray(arr)
        if a.ndim == 2:
            a = a[:, :, np.newaxis]
        if a.ndim != 3:
            raise ParameterError(f"expected a 2-D or 3-D array, got ndim={a.ndim}")
        h, w, c = a.shape
        if a.dtype != np.uint8:
            # a value the cast changes (out of range, fractional, NaN) is refused
            try:
                with np.errstate(invalid="ignore"):
                    u = a.astype(np.uint8)
            except (TypeError, ValueError) as exc:
                raise ParameterError(f"array values are not 8-bit samples: {exc}") from None
            if not np.array_equal(u, a):
                raise ParameterError("array values are not integers in [0, 255]")
            a = u
        return cls(width=w, height=h, channels=c, samples=a.tobytes())

    def to_array(self) -> np.ndarray:
        """Return an (H, W, C) uint8 view of the samples."""
        a = np.frombuffer(self.samples, dtype=np.uint8)
        return a.reshape(self.height, self.width, self.channels)

    def same_shape(self, other: "RasterImage") -> bool:
        return (
            self.width == other.width
            and self.height == other.height
            and self.channels == other.channels
        )

    def check_same_shape(self, other: "RasterImage") -> None:
        """Raise :class:`DimensionMismatchError` unless ``other`` has this shape."""
        if not self.same_shape(other):
            raise DimensionMismatchError(
                f"shape mismatch: {self.width}x{self.height}x{self.channels} vs "
                f"{other.width}x{other.height}x{other.channels}"
            )
