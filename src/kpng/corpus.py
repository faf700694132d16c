"""Deterministic synthetic test images.

The benchmark needs cartoon-like inputs: few colors, large
single-color areas. The flat-shapes generator draws axis-aligned rectangles
with a palette of at most 8 colors clustered within +/-4 of two base colors
whose components are multiples of 10, so k=10 quantization collapses the
clusters; that is the regime where the pre-pass pays off. The gradient
generator is the documented failure mode (visible banding), and noise /
mixed round out the corpus. ``CorpusSpec``'s width, height, colors and
seed pass :func:`kpng.errors._check_int`, the package's one integer check.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, _check_int
from .raster import RasterImage

GENERATOR_KINDS = ("flat-shapes", "gradient", "noise", "mixed")


@dataclass(frozen=True)
class CorpusSpec:
    """One synthetic image: generator id, dimensions, palette size, seed."""

    kind: str
    width: int = 512
    height: int = 512
    colors: int = 8
    seed: int = 0

    def __post_init__(self) -> None:
        if self.kind not in GENERATOR_KINDS:
            raise ParameterError(
                f"unknown generator {self.kind!r}, expected one of {', '.join(GENERATOR_KINDS)}"
            )
        for name, lo, hi in (("width", 1, None), ("height", 1, None), ("colors", 2, 8), ("seed", 0, None)):
            object.__setattr__(self, name, _check_int(name, getattr(self, name), lo, hi))


def _anchor(rng: random.Random) -> tuple[int, int, int]:
    # multiples of 10 well inside [0, 255] so +/-4 offsets never clamp
    return tuple(rng.randrange(30, 221, 10) for _ in range(3))


def _cluster_color(rng: random.Random, anchor: tuple[int, int, int]) -> tuple[int, int, int]:
    return tuple(c + rng.randint(-4, 4) for c in anchor)


def _shapes_canvas(rng: random.Random, width: int, height: int, colors: int) -> np.ndarray:
    anchor_a = _anchor(rng)
    anchor_b = _anchor(rng)
    while anchor_b == anchor_a:
        anchor_b = _anchor(rng)

    # two color clusters, each within +/-4 of its base color; quantization
    # with k=10 maps every cluster member onto its base
    n_a = (colors + 1) // 2
    clusters: list[list[tuple[int, int, int]]] = [[], []]
    seen = set()
    while len(seen) < colors:
        idx = 0 if len(seen) < n_a else 1
        c = _cluster_color(rng, anchor_a if idx == 0 else anchor_b)
        if c not in seen:
            seen.add(c)
            clusters[idx].append(c)

    canvas = np.full((height, width, 3), clusters[0][0], dtype=np.uint8)
    region = np.zeros((height, width), dtype=np.uint8)
    n_rects = rng.randint(16, 32)
    for _ in range(n_rects):
        rw = rng.randint(max(2, width // 16), max(3, width // 3))
        rh = rng.randint(max(2, height // 16), max(3, height // 3))
        x0 = rng.randint(0, max(0, width - rw))
        y0 = rng.randint(0, max(0, height - rh))
        idx = rng.randrange(2)
        canvas[y0 : y0 + rh, x0 : x0 + rw] = clusters[idx][rng.randrange(len(clusters[idx]))]
        region[y0 : y0 + rh, x0 : x0 + rw] = idx

    # cluster-mate speckle: single pixels flip to a sibling of the color
    # cluster underneath them, like dithered or anti-aliased cartoon scans;
    # this is the detail the quantization pre-pass strips away
    n_speckles = int(width * height * rng.uniform(0.02, 0.08))
    for _ in range(n_speckles):
        x = rng.randrange(width)
        y = rng.randrange(height)
        members = clusters[region[y, x]]
        canvas[y, x] = members[rng.randrange(len(members))]
    return canvas


def _gradient_canvas(width: int, height: int) -> np.ndarray:
    # horizontal ramp 0..255, identical rows, equal channels
    if width == 1:
        ramp = np.zeros(1, dtype=np.uint8)
    else:
        ramp = np.round(np.arange(width) * 255.0 / (width - 1)).astype(np.uint8)
    return np.repeat(ramp[np.newaxis, :, np.newaxis], 3, axis=2).repeat(height, axis=0)


def _noise_canvas(rng: random.Random, width: int, height: int) -> np.ndarray:
    flat = np.frombuffer(rng.randbytes(width * height * 3), dtype=np.uint8)
    return flat.reshape(height, width, 3).copy()


def _mixed_canvas(rng: random.Random, width: int, height: int, colors: int) -> np.ndarray:
    canvas = np.empty((height, width, 3), dtype=np.uint8)
    split_y = max(1, (height * 3) // 5)
    split_x = max(1, width // 2)
    canvas[:split_y] = _shapes_canvas(rng, width, split_y, colors)
    # low-amplitude texture around one base color: flattens out under k=10
    anchor = np.array(_anchor(rng), dtype=np.int16)
    jitter = np.frombuffer(rng.randbytes((height - split_y) * split_x * 3), dtype=np.uint8)
    jitter = (jitter.astype(np.int16) % 9) - 4
    canvas[split_y:, :split_x] = (
        anchor + jitter.reshape(height - split_y, split_x, 3)
    ).astype(np.uint8)
    canvas[split_y:, split_x:] = _noise_canvas(rng, width - split_x, height - split_y)
    return canvas


def generate(spec: CorpusSpec) -> RasterImage:
    """Render one synthetic image; identical specs yield identical bytes."""
    rng = random.Random(spec.seed)
    if spec.kind == "flat-shapes":
        canvas = _shapes_canvas(rng, spec.width, spec.height, spec.colors)
    elif spec.kind == "gradient":
        canvas = _gradient_canvas(spec.width, spec.height)
    elif spec.kind == "noise":
        canvas = _noise_canvas(rng, spec.width, spec.height)
    else:
        canvas = _mixed_canvas(rng, spec.width, spec.height, spec.colors)
    return RasterImage.from_array(canvas)


# the pinned corpus the benchmark and acceptance checks run on
DEFAULT_BENCH_CORPUS: tuple[tuple[str, CorpusSpec], ...] = tuple(
    [(f"shapes-{i:02d}", CorpusSpec("flat-shapes", seed=i)) for i in range(1, 7)]
    + [
        ("gradient-01", CorpusSpec("gradient", seed=0)),
        ("noise-01", CorpusSpec("noise", seed=7)),
        ("mixed-01", CorpusSpec("mixed", seed=8)),
        ("mixed-02", CorpusSpec("mixed", seed=9)),
    ]
)
