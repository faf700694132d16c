"""Image quality measures: MSE, PSNR, and SSIM.

MSE pools every sample across channels into one scalar. PSNR is
10*log10(255^2 / MSE) with +inf for identical images. SSIM uses the
standard defaults: 11x11 Gaussian window (sigma 1.5), K1=0.01, K2=0.03,
L=255, mean over fully-interior windows, channels averaged. The window is
the outer product of a 1-D Gaussian, so each local mean is taken as two
1-D passes (down the columns, then along the rows) in numpy alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DimensionMismatchError, ParameterError
from .raster import RasterImage

SSIM_WINDOW = 11
SSIM_SIGMA = 1.5
_C1 = (0.01 * 255) ** 2
_C2 = (0.03 * 255) ** 2


@dataclass(frozen=True)
class QualityReport:
    mse: float
    psnr: float
    ssim: float


def _check_shapes(a: RasterImage, b: RasterImage) -> None:
    if not a.same_shape(b):
        raise DimensionMismatchError(
            f"shape mismatch: {a.width}x{a.height}x{a.channels} vs "
            f"{b.width}x{b.height}x{b.channels}"
        )


def _mse_of(x: np.ndarray, y: np.ndarray) -> float:
    # each squared difference is an integer <= 65025, so every partial sum
    # is exact in float64 and the layout of x and y cannot change the result
    return float(np.mean((x - y) ** 2))


def mse(a: RasterImage, b: RasterImage) -> float:
    """Mean squared sample difference, all channels pooled."""
    _check_shapes(a, b)
    x = np.frombuffer(a.samples, np.uint8).astype(np.float64)
    y = np.frombuffer(b.samples, np.uint8).astype(np.float64)
    return _mse_of(x, y)


def _psnr_from_mse(m: float) -> float:
    if m == 0.0:
        return math.inf
    return 10.0 * math.log10(255.0**2 / m)


def psnr(a: RasterImage, b: RasterImage) -> float:
    """Peak signal-to-noise ratio in dB; +inf when the images are identical."""
    return _psnr_from_mse(mse(a, b))


def _gaussian_1d(size: int, sigma: float) -> np.ndarray:
    half = (size - 1) / 2.0
    coords = np.arange(size) - half
    g = np.exp(-(coords**2) / (2.0 * sigma**2))
    return g / g.sum()


def gaussian_window(size: int = SSIM_WINDOW, sigma: float = SSIM_SIGMA) -> np.ndarray:
    """Normalized 2-D Gaussian weighting window."""
    g = _gaussian_1d(size, sigma)
    return np.outer(g, g)


def _blur(p: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Weighted mean of every fully-interior window: ``p`` filtered by
    ``outer(g, g)``, one 1-D pass per axis."""
    p = sliding_window_view(p, g.size, axis=0) @ g
    return sliding_window_view(p, g.size, axis=1) @ g


def _ssim_plane(x: np.ndarray, y: np.ndarray, g: np.ndarray) -> float:
    mu_x = _blur(x, g)
    mu_y = _blur(y, g)
    mu_xx = mu_x * mu_x
    mu_yy = mu_y * mu_y
    mu_xy = mu_x * mu_y
    var_x = _blur(x * x, g) - mu_xx
    var_y = _blur(y * y, g) - mu_yy
    cov = _blur(x * y, g) - mu_xy
    s = ((2.0 * mu_xy + _C1) * (2.0 * cov + _C2)) / (
        (mu_xx + mu_yy + _C1) * (var_x + var_y + _C2)
    )
    return float(s.mean())


def _planes(img: RasterImage) -> np.ndarray:
    """float64 samples, channel-major, so each plane is contiguous for the
    1-D passes."""
    return img.to_array().transpose(2, 0, 1).astype(np.float64, order="C")


def _check_ssim_size(a: RasterImage) -> None:
    if min(a.width, a.height) < SSIM_WINDOW:
        raise ParameterError(
            f"image {a.width}x{a.height} is smaller than the {SSIM_WINDOW}x{SSIM_WINDOW} window"
        )


def _ssim_of(xa: np.ndarray, ya: np.ndarray) -> float:
    g = _gaussian_1d(SSIM_WINDOW, SSIM_SIGMA)
    return float(np.mean([_ssim_plane(x, y, g) for x, y in zip(xa, ya)]))


def ssim(a: RasterImage, b: RasterImage) -> float:
    """Mean local structural similarity; 1.0 means identical."""
    _check_shapes(a, b)
    _check_ssim_size(a)
    return _ssim_of(_planes(a), _planes(b))


def compare(a: RasterImage, b: RasterImage) -> QualityReport:
    """All three quality measures at once, from one float64 conversion of
    each image."""
    _check_shapes(a, b)
    _check_ssim_size(a)
    xa = _planes(a)
    ya = _planes(b)
    m = _mse_of(xa, ya)
    return QualityReport(mse=m, psnr=_psnr_from_mse(m), ssim=_ssim_of(xa, ya))
