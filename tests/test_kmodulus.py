import pytest
from hypothesis import given, strategies as st

from kpng import K_MAX, K_MIN, RasterImage, kmm_pixel, kmm_transform, residual
from kpng.errors import DimensionMismatchError, ParameterError

from conftest import SAMPLE_BLOCK, SAMPLE_BLOCK_K10


def nearest_multiple_oracle(v: int, k: int) -> int:
    """Exhaustive search over multiples of k in [0, 255]: closest wins,
    ties go to the smaller multiple."""
    best = None
    for m in range(0, 256, k):
        if best is None or abs(v - m) < abs(v - best):
            best = m
    return best


def test_exhaustive_pixel_oracle():
    for k in range(2, 26):
        for v in range(256):
            assert kmm_pixel(v, k) == nearest_multiple_oracle(v, k), (v, k)


@pytest.mark.parametrize(
    "v,k,expected",
    [
        (141, 10, 140),
        (145, 10, 140),  # tie rounds down
        (76, 10, 80),
        (255, 13, 247),  # nearest multiple 260 is out of range, clamp to 19*13
        (137, 10, 140),
    ],
)
def test_pixel_examples(v, k, expected):
    assert kmm_pixel(v, k) == expected


def test_zero_is_fixed_point_for_every_k():
    for k in range(2, 26):
        assert kmm_pixel(0, k) == 0


@pytest.mark.parametrize("bad_k", [1, 26, 0, -3, 2.5, "10", True])
def test_invalid_k_rejected(bad_k):
    with pytest.raises(ParameterError):
        kmm_pixel(100, bad_k)


def test_invalid_sample_rejected():
    with pytest.raises(ParameterError):
        kmm_pixel(256, 10)
    with pytest.raises(ParameterError):
        kmm_pixel(-1, 10)
    with pytest.raises(ParameterError):
        kmm_pixel(True, 10)


def test_worked_block_at_k10(sample_block_images):
    src, expected = sample_block_images
    assert kmm_transform(src, 10) == expected


def test_transform_matches_pixel_map():
    """Exhaustive: every sample value, in every channel, at every k."""
    data = bytes(range(256)) * 3
    img = RasterImage(16, 16, 3, data)
    for k in range(K_MIN, K_MAX + 1):
        out = kmm_transform(img, k)
        assert list(out.samples) == [kmm_pixel(v, k) for v in data], k


def test_transform_leaves_input_unmodified():
    data = bytes([137] * 12)
    img = RasterImage(2, 2, 3, data)
    out = kmm_transform(img, 10)
    assert img.samples == data
    assert out.samples == bytes([140] * 12)
    assert out is not img


def test_all_zero_image_unchanged():
    img = RasterImage(4, 3, 1, bytes(12))
    for k in (2, 10, 25):
        assert kmm_transform(img, k) == img


def test_single_pixel_transform():
    assert kmm_transform(RasterImage(1, 1, 1, bytes([137])), 10).samples == bytes([140])


def test_residual_of_worked_block(sample_block_images):
    src, quant = sample_block_images
    grid = residual(src, quant)
    expected = [a - b for a, b in zip(SAMPLE_BLOCK, SAMPLE_BLOCK_K10)]
    assert list(grid.residuals) == expected
    assert min(grid.residuals) == -4
    assert max(grid.residuals) == 5


def test_residual_identity_and_single_pixel():
    img = RasterImage(2, 2, 1, bytes([9, 0, 255, 31]))
    assert all(r == 0 for r in residual(img, img).residuals)
    one = residual(RasterImage(1, 1, 1, bytes([137])), RasterImage(1, 1, 1, bytes([140])))
    assert list(one.residuals) == [-3]
    assert type(one.residuals[0]) is int


def test_residual_shape_mismatch():
    a = RasterImage(2, 2, 1, bytes(4))
    b = RasterImage(2, 2, 3, bytes(12))
    with pytest.raises(DimensionMismatchError):
        residual(a, b)


@given(v=st.integers(0, 255), k=st.integers(2, 25))
def test_divisibility_and_fixed_points(v, k):
    out = kmm_pixel(v, k)
    assert out % k == 0
    assert 0 <= out <= 255
    assert (out == v) == (v % k == 0)


@given(v=st.integers(0, 255), k=st.integers(2, 25))
def test_error_bounds(v, k):
    out = kmm_pixel(v, k)
    assert abs(v - out) <= k - 1
    nearest = v - v % k + (k if 2 * (v % k) > k else 0)
    if nearest <= 255:
        assert abs(v - out) <= k // 2


@given(
    data=st.binary(min_size=6, max_size=60).filter(lambda b: len(b) % 6 == 0),
    k=st.integers(2, 25),
)
def test_idempotence(data, k):
    img = RasterImage(len(data) // 6, 2, 3, data)
    once = kmm_transform(img, k)
    assert kmm_transform(once, k) == once
