"""Quantize samples to multiples of k.

Every sample is replaced by the closest multiple of k inside [0, 255].
When a sample sits exactly halfway between two multiples (residue k/2,
even k only) the lower multiple wins, and when the closest multiple would
be 256 or more the largest multiple <= 255 is used instead. Those two
rules pin the transform completely; everything else is plain rounding.

``kmm_pixel`` holds the only copy of the formula. ``kmm_transform`` fills a
256-byte table from it, one entry per sample value, and maps the image
through that table. ``k`` and the sample pass :func:`kpng.errors._check_int`,
the package's one integer check, so numpy integers work and bools do not.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import _check_int
from .raster import RasterImage

K_MIN = 2
K_MAX = 25
DEFAULT_K = 10


def check_k(k: int) -> int:
    """Validate the quantization step; returns it as a plain int."""
    return _check_int("k", k, K_MIN, K_MAX)


@dataclass(frozen=True)
class ResidualGrid:
    """Signed per-sample differences original - transformed."""

    width: int
    height: int
    channels: int
    residuals: tuple[int, ...]

    def to_array(self) -> np.ndarray:
        return np.array(self.residuals, dtype=np.int16).reshape(
            self.height, self.width, self.channels
        )


def kmm_pixel(v: int, k: int) -> int:
    """Quantize one sample to the nearest multiple of k, ties down, clamped to 255."""
    k = check_k(k)
    v = _check_int("sample", v, 0, 255)
    r = v % k
    m = v - r + (k if 2 * r > k else 0)
    return min(m, (255 // k) * k)


def kmm_transform(img: RasterImage, k: int) -> RasterImage:
    """Quantize every sample of ``img``; the input image is left untouched.

    A sample has only 256 values, so ``kmm_pixel`` fills a 256-byte table
    once per call and ``bytes.translate`` looks every sample up in it.
    """
    table = bytes(kmm_pixel(v, k) for v in range(256))
    return RasterImage(
        width=img.width,
        height=img.height,
        channels=img.channels,
        samples=img.samples.translate(table),
    )


def residual(original: RasterImage, transformed: RasterImage) -> ResidualGrid:
    """Per-sample signed difference original - transformed."""
    original.check_same_shape(transformed)
    a = np.frombuffer(original.samples, dtype=np.uint8).astype(np.int16)
    b = np.frombuffer(transformed.samples, dtype=np.uint8).astype(np.int16)
    return ResidualGrid(
        width=original.width,
        height=original.height,
        channels=original.channels,
        residuals=tuple((a - b).tolist()),
    )
