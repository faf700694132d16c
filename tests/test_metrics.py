import ast
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import kpng
from kpng import RasterImage, kmm_transform
from kpng.errors import DimensionMismatchError, ParameterError
from kpng.metrics import (
    _SSIM_BAND_ROWS,
    SSIM_WINDOW,
    QualityReport,
    compare,
    gaussian_window,
    mse,
    psnr,
    ssim,
)

from conftest import SAMPLE_BLOCK, SAMPLE_BLOCK_K10, random_image


def ssim_naive(a: RasterImage, b: RasterImage) -> float:
    """Window-by-window double-loop oracle, independent of the convolution path."""
    w = gaussian_window()
    win = SSIM_WINDOW
    c1 = (0.01 * 255) ** 2
    c2 = (0.03 * 255) ** 2
    xa = a.to_array().astype(np.float64)
    ya = b.to_array().astype(np.float64)
    per_channel = []
    for ch in range(a.channels):
        vals = []
        for y in range(a.height - win + 1):
            for x in range(a.width - win + 1):
                px = xa[y : y + win, x : x + win, ch]
                py = ya[y : y + win, x : x + win, ch]
                mu_x = (w * px).sum()
                mu_y = (w * py).sum()
                var_x = (w * (px - mu_x) ** 2).sum()
                var_y = (w * (py - mu_y) ** 2).sum()
                cov = (w * (px - mu_x) * (py - mu_y)).sum()
                vals.append(
                    ((2 * mu_x * mu_y + c1) * (2 * cov + c2))
                    / ((mu_x**2 + mu_y**2 + c1) * (var_x + var_y + c2))
                )
        per_channel.append(sum(vals) / len(vals))
    return sum(per_channel) / len(per_channel)


def test_mse_identity():
    img = random_image(np.random.default_rng(0), 8, 8, 3)
    assert mse(img, img) == 0.0


def test_mse_of_worked_block():
    a = RasterImage(10, 10, 1, bytes(SAMPLE_BLOCK))
    b = RasterImage(10, 10, 1, bytes(SAMPLE_BLOCK_K10))
    diffs = [x - y for x, y in zip(SAMPLE_BLOCK, SAMPLE_BLOCK_K10)]
    expected = sum(d * d for d in diffs) / 100
    assert mse(a, b) == pytest.approx(expected)
    assert expected == pytest.approx(8.15)


def test_mse_single_pixel():
    a = RasterImage(1, 1, 1, bytes([137]))
    b = RasterImage(1, 1, 1, bytes([140]))
    assert mse(a, b) == 9.0


def test_mse_shape_mismatch():
    with pytest.raises(DimensionMismatchError):
        mse(RasterImage(2, 1, 1, bytes(2)), RasterImage(1, 2, 1, bytes(2)))


def test_psnr_infinite_iff_zero_mse():
    img = random_image(np.random.default_rng(1), 6, 6, 1)
    assert psnr(img, img) == math.inf
    other = RasterImage(6, 6, 1, bytes(36))
    assert math.isfinite(psnr(img, other)) or mse(img, other) == 0


def test_psnr_closed_form_at_mse_25():
    a = RasterImage(8, 8, 1, bytes(64))
    b = RasterImage(8, 8, 1, bytes([5] * 64))
    assert mse(a, b) == 25.0
    assert psnr(a, b) == pytest.approx(34.1514, abs=1e-3)


def test_psnr_of_noise_quantized_at_10():
    # residues 0..9 uniform -> expected squared error 8.5 -> about 38.84 dB
    rng = np.random.default_rng(1234)
    vals = []
    for _ in range(20):
        img = random_image(rng, 64, 64, 3)
        vals.append(psnr(img, kmm_transform(img, 10)))
    mean = sum(vals) / len(vals)
    assert mean == pytest.approx(10 * math.log10(255**2 / 8.5), abs=0.2)
    assert all(37.5 <= v <= 46.5 for v in vals)


def test_psnr_strictly_decreasing_in_mse():
    base = RasterImage(16, 16, 1, bytes(256))
    worse = [RasterImage(16, 16, 1, bytes([d] * 256)) for d in (1, 2, 5, 9, 20)]
    values = [psnr(base, w) for w in worse]
    assert all(x > y for x, y in zip(values, values[1:]))


def test_kmm_quality_floor_at_10():
    rng = np.random.default_rng(77)
    for _ in range(10):
        img = random_image(rng, 32, 32, 3)
        m = mse(img, kmm_transform(img, 10))
        assert m <= 25.0
        assert psnr(img, kmm_transform(img, 10)) >= 34.1513


def test_ssim_identity():
    img = random_image(np.random.default_rng(2), 16, 16, 3)
    assert abs(ssim(img, img) - 1.0) < 1e-9


def test_ssim_matches_naive_oracle():
    rng = np.random.default_rng(3)
    for c in (1, 3):
        img_a = random_image(rng, 16, 16, c)
        img_b = random_image(rng, 16, 16, c)
        assert ssim(img_a, img_b) == pytest.approx(ssim_naive(img_a, img_b), abs=1e-6)
        assert ssim(img_a, kmm_transform(img_a, 10)) == pytest.approx(
            ssim_naive(img_a, kmm_transform(img_a, 10)), abs=1e-6
        )


def test_ssim_contrast_inversion_strongly_negative():
    rng = np.random.default_rng(4)
    img = random_image(rng, 24, 24, 1)
    inverted = RasterImage(24, 24, 1, bytes(255 - s for s in img.samples))
    assert ssim(img, inverted) < -0.5
    checker = np.indices((24, 24)).sum(axis=0) % 2 * 255
    cimg = RasterImage.from_array(checker.astype(np.uint8))
    cinv = RasterImage.from_array((255 - checker).astype(np.uint8))
    assert ssim(cimg, cinv) < -0.5


def test_ssim_symmetry():
    rng = np.random.default_rng(5)
    a = random_image(rng, 14, 18, 3)
    b = random_image(rng, 14, 18, 3)
    assert abs(ssim(a, b) - ssim(b, a)) < 1e-9
    assert mse(a, b) == mse(b, a)


def test_ssim_window_requirement():
    small = random_image(np.random.default_rng(6), 10, 32, 1)
    with pytest.raises(ParameterError):
        ssim(small, small)


def test_compare_below_the_window_reports_nan_ssim():
    # ssim refuses an image this small; compare still gives MSE and PSNR
    rng = np.random.default_rng(6)
    small = random_image(rng, 8, SSIM_WINDOW, 3)
    quant = kmm_transform(small, 10)
    report = compare(small, quant)
    assert math.isnan(report.ssim)
    assert (report.mse, report.psnr) == (mse(small, quant), psnr(small, quant))
    with pytest.raises(DimensionMismatchError):
        compare(small, random_image(rng, 9, SSIM_WINDOW, 3))


def test_ssim_range():
    rng = np.random.default_rng(7)
    for _ in range(5):
        a = random_image(rng, 12, 12, 1)
        b = random_image(rng, 12, 12, 1)
        assert -1.0 <= ssim(a, b) <= 1.0


# SSIM output rows = height - SSIM_WINDOW + 1, so these heights give exactly
# one band plus its halo, one row more, and several bands with a remainder
_BAND_HEIGHTS = [_SSIM_BAND_ROWS + SSIM_WINDOW - 1 + extra
                 for extra in (0, 1, 2 * _SSIM_BAND_ROWS + 7)]


def test_compare_bundles_all_three():
    rng = np.random.default_rng(8)
    # the second image spans several SSIM bands
    for img in (random_image(rng, 16, 16, 3), random_image(rng, 16, _BAND_HEIGHTS[-1], 3)):
        report = compare(img, img)
        assert report.mse == 0.0
        assert report.psnr == math.inf
        assert abs(report.ssim - 1.0) < 1e-9
        quant = kmm_transform(img, 10)
        report = compare(img, quant)
        assert report.mse > 0 and math.isfinite(report.psnr) and report.ssim <= 1.0
        assert report == QualityReport(mse(img, quant), psnr(img, quant), ssim(img, quant))


def ssim_convolve2d(a: RasterImage, b: RasterImage) -> float:
    """The 2-D convolution form of SSIM, with scipy as the oracle's blur."""
    from scipy.signal import convolve2d

    w = gaussian_window()
    c1 = (0.01 * 255) ** 2
    c2 = (0.03 * 255) ** 2
    xa = a.to_array().astype(np.float64)
    ya = b.to_array().astype(np.float64)
    per_channel = []
    for ch in range(a.channels):
        x, y = xa[:, :, ch], ya[:, :, ch]
        mu_x = convolve2d(x, w, mode="valid")
        mu_y = convolve2d(y, w, mode="valid")
        var_x = convolve2d(x * x, w, mode="valid") - mu_x * mu_x
        var_y = convolve2d(y * y, w, mode="valid") - mu_y * mu_y
        cov = convolve2d(x * y, w, mode="valid") - mu_x * mu_y
        s = ((2 * mu_x * mu_y + c1) * (2 * cov + c2)) / (
            (mu_x**2 + mu_y**2 + c1) * (var_x + var_y + c2)
        )
        per_channel.append(s.mean())
    return float(np.mean(per_channel))


@pytest.mark.parametrize("channels", [1, 3])
@pytest.mark.parametrize(
    "width,height",
    [(11, 11), (11, 40), (40, 11), (64, 37)] + [(23, h) for h in _BAND_HEIGHTS],
)
def test_ssim_matches_convolve2d_reference(width, height, channels):
    pytest.importorskip("scipy.signal")
    rng = np.random.default_rng(width * 100 + height + channels)
    a = random_image(rng, width, height, channels)
    for b in (random_image(rng, width, height, channels), kmm_transform(a, 10)):
        assert ssim(a, b) == pytest.approx(ssim_convolve2d(a, b), abs=1e-10)


def test_runtime_imports_no_scipy():
    src = str(Path(kpng.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    code = (
        "import sys, kpng, kpng.metrics, kpng.bench, kpng.cli\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.strip() == "[]"


def test_runtime_imports_only_stdlib_and_numpy():
    # numpy itself loads zlib and binascii, so sys.modules cannot tell; read
    # every import statement, function-level ones included. zlib stays a
    # test oracle only
    top = set()
    for path in Path(kpng.__file__).resolve().parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                top.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and not node.level:
                top.add(node.module.split(".")[0])
    assert top - sys.stdlib_module_names == {"numpy"}
    assert not top & {"zlib", "binascii", "gzip"}
