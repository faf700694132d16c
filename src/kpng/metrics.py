"""Image quality measures: MSE, PSNR, and SSIM.

MSE pools every sample across channels into one scalar. PSNR is
10*log10(255^2 / MSE) with +inf for identical images. SSIM uses the
standard defaults: 11x11 Gaussian window (sigma 1.5), K1=0.01, K2=0.03,
L=255, mean over fully-interior windows, channels averaged. The window is
the outer product of a 1-D Gaussian, so each local mean is taken as two
1-D passes in numpy alone. One banded kernel serves ``ssim`` and
``compare``: it walks the output rows in bands, each sliced with a
10-row halo, and blurs four maps for all channels at once: ``x``, ``y``,
``x*x + y*y`` and ``x*y``. SSIM needs only ``var_x + var_y``, so four
blurs per channel do the work of five. Each pass is a sliding window
along a strided axis times the 1-D Gaussian; between the passes the band
is copied column-major so the pass along the rows has the same form.
The planes stay uint8: each band is cast to float64 alone, and MSE is an
exact integer sum. ``ssim`` refuses an image smaller than the window;
``compare`` reports its SSIM as NaN, beside its MSE and PSNR.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ParameterError
from .raster import RasterImage

SSIM_WINDOW = 11
SSIM_SIGMA = 1.5
_C1 = (0.01 * 255) ** 2
_C2 = (0.03 * 255) ** 2
# output rows per SSIM band. Measured on 512x512 RGB (2 vCPU Xeon, Python
# 3.11): three compare calls in a fresh process grow ru_maxrss by 8.2 MB at
# 32 rows, 4.4 MB at 16 and 18.7 MB at 64 (19.6 MB unbanded), and 32 rows
# were the fastest of 16-64
_SSIM_BAND_ROWS = 32


@dataclass(frozen=True)
class QualityReport:
    mse: float
    psnr: float
    ssim: float


def _mse_of(x: np.ndarray, y: np.ndarray) -> float:
    """The mean squared difference of the uint8 samples ``x`` and ``y``,
    from the exact integer sum: each squared difference is at most 65025,
    squared in place in int32 and summed in int64, so the layout of x and y
    cannot change the result. An int32 dot product would wrap past 2^31."""
    d = x.astype(np.int32)
    d -= y
    d *= d
    return int(d.sum(dtype=np.int64)) / d.size


def mse(a: RasterImage, b: RasterImage) -> float:
    """Mean squared sample difference, all channels pooled."""
    a.check_same_shape(b)
    return _mse_of(np.frombuffer(a.samples, np.uint8), np.frombuffer(b.samples, np.uint8))


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


def _planes(img: RasterImage) -> np.ndarray:
    """uint8 samples, channel-major, so an SSIM band is one row slice of
    every contiguous plane."""
    return np.ascontiguousarray(img.to_array().transpose(2, 0, 1))


def _ssim_of(xa: np.ndarray, ya: np.ndarray) -> float:
    """Mean over channels of each channel's mean SSIM, for channel-major
    uint8 planes ``xa`` and ``ya``; each band is cast to float64 alone."""
    g = _gaussian_1d(SSIM_WINDOW, SSIM_SIGMA)
    halo = SSIM_WINDOW - 1
    channels, height, width = xa.shape
    out_h = height - halo
    sums = np.zeros(channels)
    for r0 in range(0, out_h, _SSIM_BAND_ROWS):
        r1 = min(r0 + _SSIM_BAND_ROWS, out_h) + halo
        x = xa[:, r0:r1].astype(np.float64)
        y = ya[:, r0:r1].astype(np.float64)
        maps = np.stack((x, y, x * x + y * y, x * y))
        cols = sliding_window_view(maps, SSIM_WINDOW, axis=2) @ g
        cols = np.ascontiguousarray(cols.swapaxes(2, 3))
        mu_x, mu_y, sq, xy = sliding_window_view(cols, SSIM_WINDOW, axis=2) @ g
        mu_xy = mu_x * mu_y
        mu_sq = mu_x * mu_x + mu_y * mu_y
        s = ((2.0 * mu_xy + _C1) * (2.0 * (xy - mu_xy) + _C2)) / (
            (mu_sq + _C1) * (sq - mu_sq + _C2)
        )
        sums += s.sum(axis=(1, 2))
    return float(np.mean(sums / (out_h * (width - halo))))


def ssim(a: RasterImage, b: RasterImage) -> float:
    """Mean local structural similarity; 1.0 means identical."""
    a.check_same_shape(b)
    if min(a.width, a.height) < SSIM_WINDOW:
        raise ParameterError(
            f"image {a.width}x{a.height} is smaller than the {SSIM_WINDOW}x{SSIM_WINDOW} window"
        )
    return _ssim_of(_planes(a), _planes(b))


def compare(a: RasterImage, b: RasterImage) -> QualityReport:
    """All three quality measures at once, from one channel-major copy of
    each image. SSIM is NaN when the images are smaller than the window."""
    a.check_same_shape(b)
    xa = _planes(a)
    ya = _planes(b)
    m = _mse_of(xa, ya)
    s = _ssim_of(xa, ya) if min(a.width, a.height) >= SSIM_WINDOW else math.nan
    return QualityReport(mse=m, psnr=_psnr_from_mse(m), ssim=s)
