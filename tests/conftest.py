import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from kpng import RasterImage

settings.register_profile(
    "default", deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
settings.load_profile("default")


# 10x10 worked-example block: a crop of a photographic test image alongside
# its k=10 quantization; the halfway samples (145, 135, 185) prove that ties
# round down.
SAMPLE_BLOCK = [
    141, 128, 107, 84, 81, 81, 112, 136, 133, 72,
    122, 106, 86, 80, 92, 107, 134, 140, 113, 67,
    117, 98, 80, 76, 108, 138, 145, 137, 79, 66,
    98, 92, 80, 83, 121, 154, 146, 130, 68, 64,
    87, 81, 76, 92, 137, 156, 148, 90, 70, 83,
    81, 74, 72, 99, 139, 147, 132, 72, 100, 132,
    87, 73, 76, 107, 138, 144, 126, 103, 148, 162,
    87, 77, 86, 133, 144, 139, 135, 152, 178, 179,
    92, 79, 108, 142, 144, 134, 150, 184, 201, 185,
    114, 89, 124, 145, 145, 128, 152, 197, 184, 172,
]

SAMPLE_BLOCK_K10 = [
    140, 130, 110, 80, 80, 80, 110, 140, 130, 70,
    120, 110, 90, 80, 90, 110, 130, 140, 110, 70,
    120, 100, 80, 80, 110, 140, 140, 140, 80, 70,
    100, 90, 80, 80, 120, 150, 150, 130, 70, 60,
    90, 80, 80, 90, 140, 160, 150, 90, 70, 80,
    80, 70, 70, 100, 140, 150, 130, 70, 100, 130,
    90, 70, 80, 110, 140, 140, 130, 100, 150, 160,
    90, 80, 90, 130, 140, 140, 130, 150, 180, 180,
    90, 80, 110, 140, 140, 130, 150, 180, 200, 180,
    110, 90, 120, 140, 140, 130, 150, 200, 180, 170,
]


@pytest.fixture(scope="session")
def sample_block_images():
    src = RasterImage(10, 10, 1, bytes(SAMPLE_BLOCK))
    quant = RasterImage(10, 10, 1, bytes(SAMPLE_BLOCK_K10))
    return src, quant


def random_image(rng: np.random.Generator, width: int, height: int, channels: int) -> RasterImage:
    data = rng.integers(0, 256, size=width * height * channels, dtype=np.uint8)
    return RasterImage(width, height, channels, data.tobytes())


def smooth_image(width: int, height: int, channels: int) -> RasterImage:
    """Gradients with a little noise: every filter has work, and level 1
    compresses it quickly."""
    rng = np.random.default_rng(width + height + channels)
    y, x, c = np.mgrid[0:height, 0:width, 0:channels]
    arr = (x * 2 + y * 3 + c * 50 + rng.integers(0, 4, x.shape)) % 256
    return RasterImage(width, height, channels, arr.astype(np.uint8).tobytes())
