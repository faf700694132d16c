"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report as it executes.
"""

import hashlib
import itertools
import random
import zlib

import numpy as np
import pytest

from kpng import (
    RasterImage,
    decode_bmp,
    decode_png,
    deflate_compress,
    encode_bmp,
    encode_png,
    inflate,
    kmm_pixel,
    kmm_transform,
    psnr,
)
from kpng.bench import run_synthetic
from kpng.corpus import CorpusSpec, generate
from kpng.metrics import ssim as windowed_ssim
from kpng.pngcodec import EncodeOptions, FilterType, apply_filter, choose_filter, parse_chunks

from conftest import SAMPLE_BLOCK, SAMPLE_BLOCK_K10, random_image
from test_metrics import ssim_naive
from test_pngcodec import hand_assembled_1x1_png
from test_bmpcodec import hand_bmp
from test_corpus import SHAPES_01_BMP_SHA256

SHAPES_01_PNG_SHA256 = "afbbbfc03d453e2ad2f587ef250073dff87cf76a95822f1954bae21827622285"


def _report(num: int, label: str, ok: bool, detail: str = "") -> None:
    line = f"[acceptance] criterion {num} ({label}): {'PASS' if ok else 'FAIL'}"
    if detail and not ok:
        line += f" - {detail}"
    print(line)
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def synthetic_records():
    return run_synthetic()


@pytest.fixture(scope="module")
def shapes_01():
    """The pinned flat-shapes seed=1 image and its default (level 3) PNG."""
    img = generate(CorpusSpec("flat-shapes", seed=1))
    return img, encode_png(img)


def test_criterion_1_worked_block_ground_truth():
    src = RasterImage(10, 10, 1, bytes(SAMPLE_BLOCK))
    got = kmm_transform(src, 10)
    bad = [
        (i, got.samples[i], SAMPLE_BLOCK_K10[i])
        for i in range(100)
        if got.samples[i] != SAMPLE_BLOCK_K10[i]
    ]
    _report(1, "k=10 worked block, all 100 entries", not bad, f"mismatches: {bad[:5]}")


def test_criterion_2_exhaustive_pixel_oracle():
    def oracle(v, k):
        return min(range(0, 256, k), key=lambda m: (abs(v - m), m))

    bad = [
        (v, k, kmm_pixel(v, k), oracle(v, k))
        for k in range(2, 26)
        for v in range(256)
        if kmm_pixel(v, k) != oracle(v, k)
    ]
    _report(2, "6144-case nearest-multiple oracle", not bad, f"first: {bad[:5]}")


def test_criterion_3_psnr_floor():
    rng = np.random.default_rng(1001)
    values = []
    for i in range(100):
        img = random_image(rng, 64, 64, 1 if i % 2 else 3)
        values.append(psnr(img, kmm_transform(img, 10)))
    floor_ok = all(v >= 34.1514 for v in values)
    band_ok = all(37.5 <= v <= 46.5 for v in values)
    _report(
        3,
        "PSNR floor and noise band over 100 images",
        floor_ok and band_ok,
        f"min={min(values):.4f} max={max(values):.4f}",
    )


def test_criterion_4_ssim_sanity():
    rng = np.random.default_rng(2002)
    idents = []
    for c in (1, 3):
        img = random_image(rng, 32, 32, c)
        idents.append(abs(windowed_ssim(img, img) - 1.0))
    ident_ok = all(e <= 1e-9 for e in idents)

    worst = 0.0
    for i in range(10):
        a = random_image(rng, 32, 32, 1)
        b = kmm_transform(a, 10) if i % 2 else random_image(rng, 32, 32, 1)
        worst = max(worst, abs(windowed_ssim(a, b) - ssim_naive(a, b)))
    oracle_ok = worst <= 1e-6
    _report(
        4,
        "SSIM identity and brute-force oracle",
        ident_ok and oracle_ok,
        f"identity err {max(idents):.2e}, oracle err {worst:.2e}",
    )


def test_criterion_5_png_losslessness():
    rng = np.random.default_rng(3003)
    combos = list(itertools.product([0, 1, 2, 3], [None] + list(FilterType)))
    failures = []
    fixed_dims = [(1, 1), (1, 129), (129, 1), (129, 129)]
    for i in range(500):
        if i < len(fixed_dims):
            w, h = fixed_dims[i]
        else:
            w = int(rng.integers(1, 130))
            h = int(rng.integers(1, 130))
        c = 1 if i % 3 == 0 else 3
        img = random_image(rng, w, h, c)
        level, strategy = combos[i % len(combos)]
        data = encode_png(img, EncodeOptions(level=level, filter_strategy=strategy))
        if decode_png(data) != img:
            failures.append((w, h, c, level, strategy))
    _report(5, "500-image PNG round trip", not failures, f"failed: {failures[:3]}")


def test_criterion_6_deflate_round_trip():
    mib = 1 << 20
    rng = random.Random(4004)
    randomized = bytearray()
    while len(randomized) < mib:
        if rng.random() < 0.5:
            randomized += bytes([rng.randrange(256)]) * rng.randint(1, 2000)
        else:
            randomized += rng.randbytes(rng.randint(1, 2000))
    inputs = {
        "randomized": bytes(randomized[:mib]),
        "run-heavy": b"\xa5" * (mib // 2) + b"\x00" * (mib // 2),
        "periodic": (bytes(range(251)) * (mib // 251 + 1))[:mib],
        "incompressible": rng.randbytes(mib),
    }
    failures = []
    for name, blob in inputs.items():
        for level in (0, 1, 2, 3):
            if inflate(deflate_compress(blob, level)) != blob:
                failures.append((name, level))
    _report(6, "1 MiB round trips, all levels", not failures, f"failed: {failures}")


def test_criterion_7_compression_ratio_effect(synthetic_records):
    shapes = [r for r in synthetic_records if r.name.startswith("shapes-")]
    ratios = {r.name: r.kpng_cr / r.png_cr for r in shapes}
    all_ok = len(shapes) >= 6 and all(v >= 1.5 for v in ratios.values())
    half_ok = sum(v >= 2.0 for v in ratios.values()) * 2 >= len(ratios)
    _report(
        7,
        "flat-shapes CR gain >= 1.5x all, >= 2.0x half",
        all_ok and half_ok,
        f"ratios: { {k: round(v, 2) for k, v in sorted(ratios.items())} }",
    )


def test_criterion_8_monotone_size(synthetic_records):
    offenders = [
        (r.name, r.kpng_size, r.png_size)
        for r in synthetic_records
        if not r.name.startswith("gradient-") and r.kpng_size > r.png_size
    ]
    _report(8, "quantized PNG never larger outside gradients", not offenders, str(offenders))


def test_criterion_9_golden_fixtures(shapes_01):
    png_ok = decode_png(hand_assembled_1x1_png()) == RasterImage(1, 1, 1, b"\x00")
    white = hand_bmp(1, 1, [b"\xff\xff\xff\x00"])
    bmp_ok = decode_bmp(white) == RasterImage(1, 1, 3, b"\xff\xff\xff") and len(white) == 58

    img, png_bytes = shapes_01
    bmp_bytes = encode_bmp(img)
    deterministic = png_bytes == encode_png(generate(CorpusSpec("flat-shapes", seed=1)))
    bmp_hash_ok = hashlib.sha256(bmp_bytes).hexdigest() == SHAPES_01_BMP_SHA256
    png_hash_ok = hashlib.sha256(png_bytes).hexdigest() == SHAPES_01_PNG_SHA256
    _report(
        9,
        "hand-built fixtures decode; pinned corpus encodes byte-identically",
        png_ok and bmp_ok and deterministic and bmp_hash_ok and png_hash_ok,
        f"png={png_ok} bmp={bmp_ok} det={deterministic} hashes={bmp_hash_ok},{png_hash_ok}",
    )


def test_pinned_png_stays_near_zlib_9(shapes_01):
    """Level 3 trades search effort for speed; on the pinned image its IDAT
    must still inflate (by zlib) to the adaptive-filtered scanlines and stay
    within 5% of zlib -9 on those same scanlines."""
    img, png_bytes = shapes_01
    stride = img.width * img.channels
    filtered = bytearray()
    prior = bytes(stride)
    for y in range(img.height):
        row = img.samples[y * stride : (y + 1) * stride]
        ftype = choose_filter(row, prior, img.channels)
        filtered.append(ftype)
        filtered += apply_filter(row, prior, ftype, img.channels)
        prior = row
    idat = b"".join(c.data for c in parse_chunks(png_bytes) if c.type_code == b"IDAT")
    assert zlib.decompress(idat) == filtered
    assert len(idat) <= 1.05 * len(zlib.compress(bytes(filtered), 9))
