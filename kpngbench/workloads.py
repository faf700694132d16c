"""Workload inputs, set-up and the closed loops, untraced and traced.

Each workload is one client in a closed loop: it takes the next image of
its set only when the previous one is done, on one thread. The set is made
from the seed during set-up and the loop cycles through it; every image is
handled at least once, so the size and quality figures cover the whole set
and repeat exactly for a seed.
"""

from __future__ import annotations

import hashlib
import random
import statistics
import struct
import time
import zlib
from dataclasses import dataclass, field

import numpy as np

from kpng.bmpcodec import encode_bmp
from kpng.corpus import CorpusSpec, generate
from kpng.errors import KpngError
from kpng.flate import CompressionLevel
from kpng.kmodulus import kmm_transform
from kpng.metrics import compare
from kpng.pngcodec import EncodeOptions, decode_png, encode_png
from kpng.raster import RasterImage

from tracing import NoTracer, Tracer, filter_scanlines, traced_decode, traced_encode, traced_quality

SIZE = 512
LEVEL = CompressionLevel.LAZY
OPTIONS = EncodeOptions(level=LEVEL, filter_strategy=None)  # level 3, adaptive filter
SETUP_REPEATS = 3
WARMUP_SIZE = 64

# Host-speed calibration. This host shares its cores, and the speed it
# gives one thread drifts by up to a third over tens of seconds, more than
# a run can average out. A fixed pure-Python loop is timed between measured
# steps; the median of the samples on both sides of a step, divided by
# CAL_REF_S, is the host's slowdown during that step, and the reported time
# is the raw time divided by it: seconds on a host where the loop takes
# CAL_REF_S. Raw times are reported beside the scaled ones.
CAL_LOOP = 20_000
CAL_REF_S = 0.001
CAL_SAMPLES = 8


def calibration_samples() -> list[float]:
    out = []
    for _ in range(CAL_SAMPLES):
        t0 = time.perf_counter()
        x = 0
        for i in range(CAL_LOOP):
            x += i
        out.append(time.perf_counter() - t0)
    return out


class Stopwatch:
    """Times steps one after another, each scaled by the slowdown sampled
    just before and just after it."""

    def __init__(self) -> None:
        self.cal = calibration_samples()
        self.raw: dict[str, float] = {}
        self.scaled: dict[str, float] = {}

    def step(self, name: str, fn, *args):
        t0 = time.perf_counter()
        out = fn(*args)
        seconds = time.perf_counter() - t0
        cal = calibration_samples()
        self.raw[name] = seconds
        self.scaled[name] = seconds * CAL_REF_S / statistics.median(self.cal + cal)
        self.cal = cal
        return out


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    images: int  # size of the image set the loop cycles through
    tiles: tuple[str, ...]  # corpus generators, laid out as a checkerboard
    per_side: int  # tiles per image side; 1 means whole generator images
    k: int | None  # quantization step; None re-encodes losslessly


# Mixed-content workloads build every image as a 4x4 mosaic of 128x128
# corpus tiles. A whole generator image varies ~3x in LZ77 time from seed
# to seed, and a loop handles only a handful of images per run, so whole
# images would make the per-seed medians swing by a third; a mosaic
# averages 16 draws in each image, and every image holds the same mix.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "kpng-cartoon",
            "the paper's headline path on flat-shapes images: filter choice, Adler-32 and Huffman "
            "carry encode, SSIM the quality step, and the gap to zlib -9 shows",
            8, ("flat-shapes",), 1, 10,
        ),
        Workload(
            "png-lossless",
            "flat-shapes and mixed content re-encoded without k: LZ77 chain search is ~90% of "
            "encode and no quality step runs, so SSIM changes should not move it",
            4, ("flat-shapes", "mixed"), 4, None,
        ),
        Workload(
            "kpng-entropy",
            "noise and mixed content at k=10: many tokens, inflate, CRC-32 and per-byte "
            "AVERAGE/PAETH unfilter carry the cost, where cartoon-friendly changes can hurt",
            6, ("noise", "mixed"), 4, 10,
        ),
    )
}


@dataclass(frozen=True)
class Item:
    """One input image with the reference outputs the loop checks against."""

    name: str
    original: RasterImage
    target: RasterImage  # what gets encoded: quantized, or the original
    filtered: bytes  # adaptive-filtered scanlines of target
    bmp_bytes: int
    zlib9_bytes: int  # zlib.compress(filtered, 9), the size reference


@dataclass
class Outcome:
    """What one image produced the first time; later passes must repeat it."""

    png: bytes
    idat_bytes: int
    psnr: float | None = None
    ssim: float | None = None


@dataclass
class LoopResult:
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    # scaled seconds per pass (see CAL_REF_S), and the raw ones by step name
    encode_s: list[float] = field(default_factory=list)
    decode_s: list[float] = field(default_factory=list)
    quality_s: list[float] = field(default_factory=list)
    image_s: list[float] = field(default_factory=list)
    unscaled: dict[str, list[float]] = field(default_factory=dict)
    raw_bytes: int = 0  # samples encoded, summed over passes
    outcomes: dict[str, Outcome] = field(default_factory=dict)

    def fail(self, item: Item, why: str) -> None:
        self.failed += 1
        self.errors.append(f"{item.name}: {why}")


def make_image(workload: Workload, rng: random.Random, tracer=NoTracer()) -> tuple[RasterImage, str]:
    """One input image from kpng.corpus.generate, and its spec for the digest."""
    n = workload.per_side
    side = SIZE // n
    canvas = np.empty((SIZE, SIZE, 3), dtype=np.uint8)
    specs = []
    for r in range(n):
        for c in range(n):
            spec = CorpusSpec(workload.tiles[(r + c) % len(workload.tiles)], side, side,
                              seed=rng.randrange(1 << 31))
            with tracer.span("corpus.generate"):
                tile = generate(spec)
            canvas[r * side : (r + 1) * side, c * side : (c + 1) * side] = tile.to_array()
            specs.append(f"{spec.kind}:{spec.seed}")
    return RasterImage.from_array(canvas), f"{SIZE}x{SIZE} " + ",".join(specs)


def set_up(workload: Workload, seed: int, count: int | None = None,
           tracer=NoTracer()) -> tuple[list[Item], str]:
    """Generate the inputs and their references, then warm up; returns the
    items and the SHA-256 of the generated samples."""
    rng = random.Random(f"{workload.name}/{seed}")
    digest = hashlib.sha256(f"{workload.name} seed={seed}\n".encode())
    items = []
    for j in range(count or workload.images):
        img, spec = make_image(workload, rng, tracer)
        with tracer.span("bmpcodec.encode_bmp"):
            bmp = encode_bmp(img)
        target = kmm_transform(img, workload.k) if workload.k else img
        filtered = filter_scanlines(target)
        items.append(Item(f"image{j}", img, target, filtered, len(bmp),
                          len(zlib.compress(filtered, 9))))
        digest.update(f"image{j} {spec}\n".encode())
        digest.update(img.samples)

    # warm-up: the full op sequence once, on a small image of the first kind
    small = generate(CorpusSpec(workload.tiles[0], WARMUP_SIZE, WARMUP_SIZE, seed=seed))
    target, png = encode(small, workload.k)
    decode_png(png)
    if workload.k:
        compare(small, target)
    return items, digest.hexdigest()


def idat_stream(png: bytes) -> bytes:
    """Concatenated IDAT payloads, parsed here rather than by kpng."""
    out = bytearray()
    pos = 8
    while pos + 8 <= len(png):
        length, type_code = struct.unpack_from(">I4s", png, pos)
        if type_code == b"IDAT":
            out += png[pos + 8 : pos + 8 + length]
        pos += 12 + length
    return bytes(out)


def check(item: Item, target: RasterImage, png: bytes, decoded_samples: bytes) -> str | None:
    """Correctness gates for one pass; returns what failed, or None."""
    if target.samples != item.target.samples:
        return "kmm_transform output differs from the set-up quantization"
    if decoded_samples != item.target.samples:
        return "decode_png did not return the encoded samples"
    try:
        if zlib.decompress(idat_stream(png)) != item.filtered:
            return "IDAT stream does not inflate to the adaptive-filtered scanlines"
    except zlib.error as exc:
        return f"zlib rejects the IDAT stream: {exc}"
    return None


def _record(res: LoopResult, item: Item, png: bytes, quality) -> str | None:
    """Keep the first outcome of an image; later passes must repeat it."""
    seen = res.outcomes.get(item.name)
    if seen is None:
        res.outcomes[item.name] = Outcome(
            png, len(idat_stream(png)),
            quality.psnr if quality else None, quality.ssim if quality else None,
        )
        return None
    if seen.png != png:
        return "encode_png output changed between passes"
    return None


def encode(img: RasterImage, k: int | None) -> tuple[RasterImage, bytes]:
    """The measured encode step: quantize when k is set, then encode_png."""
    target = kmm_transform(img, k) if k else img
    return target, encode_png(target, OPTIONS)


def run_loop(workload: Workload, items: list[Item], seconds: float) -> LoopResult:
    """The untraced closed loop: end-to-end timings with every output checked."""
    res = LoopResult()
    k = workload.k
    start = time.perf_counter()
    i = 0
    while i < len(items) or time.perf_counter() - start < seconds:
        item = items[i % len(items)]
        i += 1
        res.attempted += 1
        watch = Stopwatch()
        try:
            target, png = watch.step("encode", encode, item.original, k)
            decoded = watch.step("decode", decode_png, png)
            quality = watch.step("quality", compare, item.original, decoded) if k else None
        except KpngError as exc:
            res.fail(item, f"{type(exc).__name__}: {exc}")
            continue
        problem = check(item, target, png, decoded.samples) or _record(res, item, png, quality)
        if problem:
            res.fail(item, problem)
            continue
        res.encode_s.append(watch.scaled["encode"])
        res.decode_s.append(watch.scaled["decode"])
        if k:
            res.quality_s.append(watch.scaled["quality"])
        res.image_s.append(sum(watch.scaled.values()))
        for name, raw in watch.raw.items():
            res.unscaled.setdefault(name, []).append(raw)
        res.unscaled.setdefault("image", []).append(sum(watch.raw.values()))
        res.raw_bytes += len(item.original.samples)
    return res


def run_traced(workload: Workload, items: list[Item], seconds: float,
               tracer: Tracer) -> LoopResult:
    """Each pass runs the untraced encode_png/decode_png (for the gates and
    the overhead baseline) and then the traced rebuild, which must match.
    Here encode_s and decode_s are raw: the traced pass beside them is
    compared with them, so no host-speed scaling is needed."""
    res = LoopResult()
    k = workload.k
    start = time.perf_counter()
    i = 0
    while i == 0 or time.perf_counter() - start < seconds:
        item = items[i % len(items)]
        i += 1
        res.attempted += 1
        tracer.image = f"{item.name}#{i}"
        try:
            t0 = time.perf_counter()
            target, png = encode(item.original, k)
            t1 = time.perf_counter()
            decoded = decode_png(png)
            t2 = time.perf_counter()
            traced_target, traced_png = traced_encode(tracer, item.original, k, LEVEL)
            traced_samples = traced_decode(tracer, traced_png)
            if k:
                traced_quality(tracer, item.original, RasterImage(
                    traced_target.width, traced_target.height, traced_target.channels,
                    traced_samples))
        except KpngError as exc:
            res.fail(item, f"{type(exc).__name__}: {exc}")
            continue
        problem = check(item, target, png, decoded.samples)
        if problem is None and traced_png != png:
            problem = "traced layers did not rebuild the encode_png bytes"
        if problem is None and traced_samples != decoded.samples:
            problem = "traced layers did not rebuild the decode_png samples"
        if problem:
            res.fail(item, problem)
            continue
        res.encode_s.append(t1 - t0)
        res.decode_s.append(t2 - t1)
        res.raw_bytes += len(item.original.samples)
    return res
