"""Spans recorded around calls into kpng's public layer functions.

The traced run rebuilds ``encode_png`` and ``decode_png`` from the layers
they are made of, with a span around each call, and checks that the
rebuilt bytes and samples equal what the real entry points returned:

    encode:  kmm_transform -> choose_filter/apply_filter per row
             -> deflate_compress -> PngChunk.build
    decode:  parse_chunks -> inflate -> unfilter per row
    quality: mse, psnr, ssim (what metrics.compare calls)

Two layers run inside a single public call and cannot be timed around it:
LZ77 and Adler-32 inside ``deflate_compress``. They are timed as *probes*:
``lz77_tokenize`` and ``adler32`` run again on the same input, beside the
call. The Huffman stage is then derived as deflate minus LZ77 minus
Adler-32. CRC-32 in the decoder is probed the same way, since
``parse_chunks`` verifies every chunk CRC inside one call. Probe spans are
excluded when the traced time is compared with the untraced one, so the
stated tracing overhead is the cost of the spans and of rebuilding the
pipeline from its parts (which applies the chosen filter once more per row).

Spans are kept in memory and written out when the run ends.
"""

from __future__ import annotations

import statistics
import struct
import time
from contextlib import contextmanager
from dataclasses import dataclass

from kpng.errors import KpngError
from kpng.flate import Literal, Match, adler32, crc32, deflate_compress, inflate, lz77_tokenize
from kpng.kmodulus import kmm_transform
from kpng.metrics import QualityReport, mse, psnr, ssim
from kpng.pngcodec import (
    _IDAT_SPLIT,
    SIGNATURE,
    FilterType,
    PngChunk,
    apply_filter,
    choose_filter,
    parse_chunks,
    unfilter,
)
from kpng.raster import RasterImage

SETUP_LAYERS = ("corpus.generate", "bmpcodec.encode_bmp")
FILTER_NAMES = ("none", "sub", "up", "average", "paeth")
SLOW_UNFILTER = (FilterType.AVERAGE, FilterType.PAETH)  # per-byte Python loops

# Each layer, the end-to-end metric it should move and on which workloads.
# Later changes cite these names; BENCHMARK.json's per_layer list is
# checked against LAYER_METRICS by the smoke tests.
LAYER_MAP = {
    "kmodulus.kmm_transform": "encode_s on every k workload, at a small share",
    "pngcodec.filter": "encode_s on kpng-cartoon",
    "flate.lz77": "encode_s on png-lossless and kpng-entropy; size_vs_zlib9 on kpng-cartoon",
    "flate.deflate": "encode_s on kpng-entropy; size_vs_zlib9 on kpng-cartoon",
    "flate.huffman": "encode_s on kpng-entropy; size_vs_zlib9 on kpng-cartoon (derived)",
    "flate.adler32": "encode_s on kpng-cartoon",
    "flate.crc32": "encode_s and decode_s on kpng-entropy",
    "flate.inflate": "decode_s on kpng-entropy",
    "pngcodec.unfilter": "decode_s on kpng-entropy and png-lossless",
    "metrics.ssim": "image_s (quality step) on kpng-cartoon and kpng-entropy",
    "metrics.mse": "image_s (quality step) on kpng-cartoon and kpng-entropy",
    "corpus.generate": "setup_s",
    "bmpcodec.encode_bmp": "setup_s",
}

# (metric, unit, better); every value is per traced image unless it is a
# ratio. ".s" is self time, ".share" its share of all traced time.
LAYER_METRICS: list[tuple[str, str, str]] = []
for _layer in LAYER_MAP:
    LAYER_METRICS += [(f"{_layer}.s", "s", "lower"), (f"{_layer}.share", "ratio", "lower")]
    if _layer != "flate.huffman":  # derived, it has no calls of its own
        LAYER_METRICS.append((f"{_layer}.failed", "count", "lower"))
LAYER_METRICS += [
    ("kmodulus.samples", "count", "lower"),
    ("pngcodec.filter.rows", "count", "lower"),
    *((f"pngcodec.filter.hist.{n}", "count", "lower") for n in FILTER_NAMES),
    ("flate.lz77.literals", "count", "lower"),
    ("flate.lz77.matches", "count", "lower"),
    ("flate.lz77.match_coverage", "ratio", "higher"),
    ("flate.lz77.mean_match_len", "bytes", "higher"),
    ("flate.adler32.bytes", "bytes", "lower"),
    ("flate.crc32.bytes", "bytes", "lower"),
    ("flate.inflate.bytes_out", "bytes", "lower"),
    ("pngcodec.unfilter.rows", "count", "lower"),
    ("pngcodec.unfilter.slow_rows", "count", "lower"),
    ("trace.encode_overhead", "ratio", "lower"),
    ("trace.decode_overhead", "ratio", "lower"),
]


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index into Tracer.spans
    image: str
    failed: bool = False


class Tracer:
    """In-memory span recorder; one image id is current at a time."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, int] = {}
        self.image = ""
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        sp = Span(name, time.perf_counter(), 0.0, parent, self.image)
        self.spans.append(sp)
        self._stack.append(idx)
        try:
            yield sp
        except KpngError:
            sp.failed = True
            raise
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, n: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, minus the time covered by child spans."""
        own = [sp.end - sp.start for sp in self.spans]
        for sp in self.spans:
            if sp.parent is not None:
                own[sp.parent] -= sp.end - sp.start
        out: dict[str, float] = {}
        for sp, t in zip(self.spans, own):
            out[sp.name] = out.get(sp.name, 0.0) + t
        return out

    def durations(self, name: str) -> list[float]:
        return [sp.end - sp.start for sp in self.spans if sp.name == name]

    def dump(self) -> list[dict]:
        t0 = self.spans[0].start if self.spans else 0.0
        return [
            {
                "name": sp.name,
                "start": sp.start - t0,
                "end": sp.end - t0,
                "parent": sp.parent,
                "image": sp.image,
                "failed": sp.failed,
            }
            for sp in self.spans
        ]


class NoTracer:
    """Stand-in for set-up code when the run is not traced."""

    @contextmanager
    def span(self, name: str):
        yield None

    def count(self, name: str, n: int) -> None:
        pass


def filter_scanlines(img: RasterImage, tracer=NoTracer()) -> bytes:
    """Filtered scanlines as encode_png builds them (adaptive filter, type
    byte first), made row by row from choose_filter and apply_filter."""
    stride = img.width * img.channels
    bpp = img.channels
    out = bytearray()
    prior = bytes(stride)
    with tracer.span("pngcodec.filter"):
        for y in range(img.height):
            row = img.samples[y * stride : (y + 1) * stride]
            ft = choose_filter(row, prior, bpp)
            out.append(int(ft))
            out += apply_filter(row, prior, ft, bpp)
            tracer.count(f"pngcodec.filter.hist.{FILTER_NAMES[ft]}", 1)
            prior = row
    tracer.count("pngcodec.filter.rows", img.height)
    return bytes(out)


def traced_encode(tracer: Tracer, img: RasterImage, k: int | None, level: int) -> tuple[RasterImage, bytes]:
    """kmm_transform (when k is set) plus encode_png, one layer at a time."""
    with tracer.span("encode"):
        if k is not None:
            with tracer.span("kmodulus.kmm_transform"):
                img = kmm_transform(img, k)
            tracer.count("kmodulus.samples", len(img.samples))
        raw = filter_scanlines(img, tracer)
        with tracer.span("flate.deflate"):
            stream = deflate_compress(raw, level)
        with tracer.span("flate.lz77"):
            tokens = lz77_tokenize(raw, level)
        # lz77_tokenize wraps each op in a Literal or Match object, which
        # deflate_compress never does; building the same objects again
        # measures that cost, and it is taken out of the LZ77 time
        with tracer.span("flate.lz77.wrap"):
            [Literal(t.value) if type(t) is Literal else Match(t.length, t.distance) for t in tokens]
        matched = [t.length for t in tokens if type(t) is Match]
        tracer.count("flate.lz77.literals", len(tokens) - len(matched))
        tracer.count("flate.lz77.matches", len(matched))
        tracer.count("flate.lz77.matched_bytes", sum(matched))
        tracer.count("flate.lz77.input_bytes", len(raw))
        with tracer.span("flate.adler32"):
            adler32(raw)
        tracer.count("flate.adler32.bytes", len(raw))

        color = 0 if img.channels == 1 else 2
        ihdr = struct.pack(">IIBBBBB", img.width, img.height, 8, color, 0, 0, 0)
        payloads = [(b"IHDR", ihdr)]
        payloads += [
            (b"IDAT", stream[off : off + _IDAT_SPLIT])
            for off in range(0, max(len(stream), 1), _IDAT_SPLIT)
        ]
        payloads.append((b"IEND", b""))
        with tracer.span("flate.crc32"):
            chunks = [PngChunk.build(tc, data) for tc, data in payloads]
        tracer.count("flate.crc32.bytes", sum(4 + len(d) for _, d in payloads))
        png = SIGNATURE + b"".join(c.encoded() for c in chunks)
    return img, png


def traced_decode(tracer: Tracer, png: bytes) -> bytes:
    """decode_png's samples, one layer at a time (input is a PNG this
    encoder wrote, so the header is not re-validated here)."""
    with tracer.span("decode"):
        with tracer.span("pngcodec.parse_chunks"):
            chunks = parse_chunks(png)
        with tracer.span("flate.crc32.verify"):
            for c in chunks:
                crc32(c.type_code + c.data)
        tracer.count("flate.crc32.bytes", sum(4 + len(c.data) for c in chunks))
        width, height, _depth, color, *_ = struct.unpack(">IIBBBBB", chunks[0].data)
        idat = b"".join(c.data for c in chunks if c.type_code == b"IDAT")
        with tracer.span("flate.inflate"):
            raw = inflate(idat)
        tracer.count("flate.inflate.bytes_out", len(raw))

        channels = 1 if color == 0 else 3
        stride = width * channels
        samples = bytearray()
        prior = bytes(stride)
        slow = 0
        with tracer.span("pngcodec.unfilter"):
            for y in range(height):
                pos = y * (stride + 1)
                ft = FilterType(raw[pos])
                slow += ft in SLOW_UNFILTER
                prior = unfilter(raw[pos + 1 : pos + 1 + stride], prior, ft, channels)
                samples += prior
        tracer.count("pngcodec.unfilter.rows", height)
        tracer.count("pngcodec.unfilter.slow_rows", slow)
    return bytes(samples)


def traced_quality(tracer: Tracer, a: RasterImage, b: RasterImage) -> QualityReport:
    """metrics.compare, one measure at a time (psnr is mse plus a log, so
    its time counts to the mse layer)."""
    with tracer.span("quality"):
        with tracer.span("metrics.mse"):
            m = mse(a, b)
            p = psnr(a, b)
        with tracer.span("metrics.ssim"):
            s = ssim(a, b)
    return QualityReport(mse=m, psnr=p, ssim=s)


def layer_metrics(tracer: Tracer, images: int, generated: int,
                  untraced_encode: list[float], untraced_decode: list[float]) -> dict[str, float]:
    """Per-layer figures from the spans and counts: times and counts per
    traced image (set-up layers: per generated image), shares of the traced
    loop time (set-up layers: of set-up time)."""
    own = tracer.self_times()
    own["flate.crc32"] = own.get("flate.crc32", 0.0) + own.get("flate.crc32.verify", 0.0)
    own["flate.lz77"] = own.get("flate.lz77", 0.0) - own.get("flate.lz77.wrap", 0.0)
    own["flate.huffman"] = (
        own.get("flate.deflate", 0.0) - own.get("flate.lz77", 0.0) - own.get("flate.adler32", 0.0)
    )
    roots: dict[str, float] = {}
    for sp in tracer.spans:
        if sp.parent is None:
            roots[sp.name] = roots.get(sp.name, 0.0) + sp.end - sp.start
    loop_time = roots.get("encode", 0.0) + roots.get("decode", 0.0) + roots.get("quality", 0.0)

    out: dict[str, float] = {}
    for layer in LAYER_MAP:
        t = own.get(layer, 0.0)
        per, base = (generated, roots.get("setup", 0.0)) if layer in SETUP_LAYERS else (images, loop_time)
        out[f"{layer}.s"] = t / per
        out[f"{layer}.share"] = t / base
        if layer != "flate.huffman":
            out[f"{layer}.failed"] = float(sum(
                sp.failed for sp in tracer.spans if sp.name.startswith(layer)
            ))
    c = tracer.counts
    for name in ("kmodulus.samples", "pngcodec.filter.rows", "flate.lz77.literals",
                 "flate.lz77.matches", "flate.adler32.bytes", "flate.crc32.bytes",
                 "flate.inflate.bytes_out", "pngcodec.unfilter.rows",
                 "pngcodec.unfilter.slow_rows",
                 *(f"pngcodec.filter.hist.{f}" for f in FILTER_NAMES)):
        out[name] = c.get(name, 0) / images
    matched = c.get("flate.lz77.matched_bytes", 0)
    matches = c.get("flate.lz77.matches", 0)
    out["flate.lz77.match_coverage"] = matched / c["flate.lz77.input_bytes"]
    out["flate.lz77.mean_match_len"] = matched / matches if matches else 0.0

    # tracing overhead: traced minus probe time, against the untraced calls
    probes = zip(tracer.durations("flate.lz77"), tracer.durations("flate.lz77.wrap"),
                 tracer.durations("flate.adler32"))
    enc = [t - sum(p) for t, p in zip(tracer.durations("encode"), probes)]
    dec = [t - p for t, p in zip(tracer.durations("decode"), tracer.durations("flate.crc32.verify"))]
    out["trace.encode_overhead"] = statistics.median(enc) / statistics.median(untraced_encode) - 1
    out["trace.decode_overhead"] = statistics.median(dec) / statistics.median(untraced_decode) - 1
    return out
