"""PNG container codec for 8-bit grayscale and truecolor, non-interlaced.

Covers the feature subset the toolkit needs: signature, IHDR/IDAT/IEND,
chunk CRCs, and scanline filters 0-4 with an adaptive per-row chooser.
One numpy pass builds all five filtered candidates of a block of rows (each
depends only on unfiltered rows) and picks per row the least sum of absolute
signed bytes; ``encode_png`` runs it over bands of about 64 KiB of samples,
``apply_filter`` and ``choose_filter`` on one row. Filter arithmetic follows
the public PNG standard; the compressed stream comes from :mod:`kpng.flate`.
The filter type and bytes per pixel pass :func:`kpng.errors._check_int`,
the package's one integer check.

``decode_png`` has two unfilter paths. AVERAGE and PAETH rows depend on the
byte to their left, so :func:`unfilter` rebuilds them byte by byte; UP and
SUB rows take one uint8 numpy step per row (an add, or a running sum per
byte of the pixel), where uint8 arithmetic wraps mod 256 as the filters do,
and NONE rows are copied. Across rows the dependency is looser:
pixel (y, x) needs only (y, x-1), (y-1, x) and (y-1, x-1), so a wavefront
rebuilds every anti-diagonal x + y = d of the image in one numpy step, all
five filter types at once, in width + height - 1 steps. The decoder counts
the AVERAGE/PAETH rows and takes the wavefront when their bytes outweigh
its steps (``slow_rows * stride > 160 * (width + height)``), else the
per-row loop; both give the same samples.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from enum import IntEnum

import numpy as np
from numpy.lib.stride_tricks import as_strided

from . import flate
from .errors import ParameterError, PngCrcError, PngFormatError, UnsupportedImageError, _check_bytes, _check_int
from .flate import CompressionLevel, crc32
from .raster import RasterImage

SIGNATURE = bytes((137, 80, 78, 71, 13, 10, 26, 10))

_IDAT_SPLIT = 1 << 20  # split the zlib stream into 1 MiB IDAT chunks
_MAX_CHUNK = (1 << 31) - 1
_MAX_DIMENSION = (1 << 31) - 1  # IHDR width and height (ISO/IEC 15948 11.2.2)
# decode_png refuses larger images before inflating: a valid IDAT of a few
# MB can declare gigabytes of scanlines, and 2^28 RGB pixels already take
# 768 MiB of samples
_MAX_PIXELS = 1 << 28
# encode_png filters this many samples per numpy pass; a whole large image
# in one pass would hold tens of MiB of int16 temporaries
_FILTER_BAND_BYTES = 1 << 16
# one wavefront step of decode_png costs about as much as 110-160 bytes of
# unfilter's per-byte AVERAGE/PAETH loop (27-36 us per step against 0.21-0.32
# us per byte, 2 vCPU Xeon, Python 3.11); the upper end leans to the loop
_WAVEFRONT_STEP_BYTES = 160


class FilterType(IntEnum):
    NONE = 0
    SUB = 1
    UP = 2
    AVERAGE = 3
    PAETH = 4


@dataclass(frozen=True)
class EncodeOptions:
    """Encoder knobs: compression level and filter strategy.

    ``filter_strategy`` is a fixed :class:`FilterType`, or None for the
    adaptive minimum-sum heuristic (the default).
    """

    level: CompressionLevel = CompressionLevel.LAZY
    filter_strategy: FilterType | None = None

    def __post_init__(self) -> None:
        flate.check_level(self.level)
        if self.filter_strategy is not None:
            _check_int("filter type", self.filter_strategy, 0, 4)


@dataclass(frozen=True)
class PngChunk:
    """One length/type/data/CRC unit of the PNG container."""

    type_code: bytes
    data: bytes
    crc: int

    @classmethod
    def build(cls, type_code: bytes, data: bytes) -> "PngChunk":
        return cls(type_code, data, crc32(type_code + data))

    def crc_ok(self) -> bool:
        return self.crc == crc32(self.type_code + self.data)

    def encoded(self) -> bytes:
        return (
            struct.pack(">I", len(self.data))
            + self.type_code
            + self.data
            + struct.pack(">I", self.crc)
        )


def paeth_predictor(a: int, b: int, c: int) -> int:
    """Pick whichever of left/above/upper-left is closest to a + b - c;
    ties prefer a, then b."""
    p = a + b - c
    pa = abs(p - a)
    pb = abs(p - b)
    pc = abs(p - c)
    if pa <= pb and pa <= pc:
        return a
    if pb <= pc:
        return b
    return c


def _paeth(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """:func:`paeth_predictor` over int16 arrays of left, above and
    upper-left samples."""
    bc = b - c
    ac = a - c
    pa = np.abs(bc)  # |p - a| with p = a + b - c
    pb = np.abs(ac)
    pc = np.abs(bc + ac)
    return np.where(pa <= np.minimum(pb, pc), a, np.where(pb <= pc, b, c))


def _filter_rows(rows: np.ndarray, priors: np.ndarray, bpp: int) -> np.ndarray:
    """All five filtered versions of a block of unfiltered rows.

    ``rows`` and ``priors`` are (n, stride) uint8, ``priors[i]`` being the
    unfiltered row above ``rows[i]``. Returns (5, n, stride) uint8, indexed
    by filter type (mod-256 subtraction of each predictor).
    """
    x = rows.astype(np.int16)
    b = priors.astype(np.int16)
    a = np.zeros_like(x)
    a[:, bpp:] = x[:, :-bpp]
    c = np.zeros_like(b)
    c[:, bpp:] = b[:, :-bpp]
    return np.stack((x, x - a, x - b, x - ((a + b) >> 1), x - _paeth(a, b, c))).astype(np.uint8)


def _best_filters(cand: np.ndarray) -> np.ndarray:
    """Per-row filter type of least sum of absolute values, bytes read as
    signed (the minimum-sum heuristic); argmin sends ties to the lowest type."""
    return np.minimum(cand, -cand).sum(axis=2, dtype=np.int64).argmin(axis=0)


def _row_candidates(row: bytes, prior_row: bytes, bytes_per_pixel: int) -> np.ndarray:
    """:func:`_filter_rows` on a one-row block, arguments checked."""
    bpp = _check_int("bytes per pixel", bytes_per_pixel, 1)
    if len(row) != len(prior_row):
        raise ParameterError(f"row length {len(row)} != prior row length {len(prior_row)}")
    r = np.frombuffer(bytes(row), np.uint8)[np.newaxis]
    return _filter_rows(r, np.frombuffer(bytes(prior_row), np.uint8)[np.newaxis], bpp)


def apply_filter(row: bytes, prior_row: bytes, ftype: FilterType, bytes_per_pixel: int) -> bytes:
    """Filter one scanline (mod-256 subtraction of the predictor)."""
    f = _check_int("filter type", ftype, 0, 4)
    return _row_candidates(row, prior_row, bytes_per_pixel)[f, 0].tobytes()


def unfilter(filtered: bytes, prior_row: bytes, ftype: FilterType, bytes_per_pixel: int) -> bytes:
    """Exact inverse of :func:`apply_filter`; ``ftype`` is a
    :class:`FilterType` or its int value, as ``decode_png`` passes it."""
    f = _check_int("filter type", ftype, 0, 4)
    bpp = _check_int("bytes per pixel", bytes_per_pixel, 1)
    if len(filtered) != len(prior_row):
        raise ParameterError(
            f"row length {len(filtered)} != prior row length {len(prior_row)}"
        )
    n = len(filtered)
    if f == FilterType.NONE:
        return bytes(filtered)
    # UP and SUB add in uint8, which wraps mod 256 as the filters do
    if f == FilterType.UP:
        above = np.frombuffer(bytes(prior_row), np.uint8)
        return (np.frombuffer(bytes(filtered), np.uint8) + above).tobytes()
    if f == FilterType.SUB:
        # byte i adds up bytes i, i - bpp, ...: a column of the row cut into
        # pixels, zero-padded to whole pixels
        fa = np.frombuffer(bytes(filtered) + bytes(-n % bpp), np.uint8)
        return np.cumsum(fa.reshape(-1, bpp), axis=0, dtype=np.uint8).tobytes()[:n]
    # AVERAGE and PAETH reconstruct left-to-right
    fl = list(filtered)
    pr = list(prior_row)
    out = [0] * n
    if f == FilterType.AVERAGE:
        for i in range(n):
            a = out[i - bpp] if i >= bpp else 0
            out[i] = (fl[i] + ((a + pr[i]) >> 1)) & 0xFF
    else:
        for i in range(n):
            if i >= bpp:
                a = out[i - bpp]
                c = pr[i - bpp]
            else:
                a = 0
                c = 0
            b = pr[i]
            if b == c:
                # p = a, so pa = 0 and a wins: most bytes of flat content
                out[i] = (fl[i] + a) & 0xFF
                continue
            p = a + b - c
            pa = p - a if p >= a else a - p
            pb = p - b if p >= b else b - p
            pc = p - c if p >= c else c - p
            if pa <= pb and pa <= pc:
                pred = a
            elif pb <= pc:
                pred = b
            else:
                pred = c
            out[i] = (fl[i] + pred) & 0xFF
    return bytes(out)


def choose_filter(row: bytes, prior_row: bytes, bytes_per_pixel: int) -> FilterType:
    """Minimum-sum-of-absolute-differences heuristic; ties go to the lowest type."""
    return FilterType(int(_best_filters(_row_candidates(row, prior_row, bytes_per_pixel))[0]))


def _unfilter_image(raw, height: int, width: int, bpp: int) -> bytes:
    """Samples of a whole image from its inflated scanlines (a filter-type
    byte, 0..4 and already checked, before each row), one anti-diagonal of
    pixels per numpy step.

    The output buffer has a zero row above and a zero column left of the
    image, so the left (a), above (b) and upper-left (c) neighbours of every
    pixel exist. Pixel (y, x) of diagonal d = x + y sits ``bpp`` bytes after
    (y, x - 1) and ``width * bpp`` bytes after (y - 1, x + 1) in that buffer,
    so each diagonal of the output, of its shifted neighbours and of the
    scanlines is a row of a strided view over the buffer itself.
    """
    stride = width * bpp
    src = np.frombuffer(raw, np.uint8)
    row = (width + 1) * bpp
    out = np.zeros((height + 1) * row, np.uint8)
    shape = (width + height - 1, height, bpp)
    # view[d, y] is pixel (y, d - y) for rows on diagonal d; the full extent
    # of each view lies inside its buffer (cur and filt end on its last byte)
    cur = as_strided(out[row + bpp :], shape, (bpp, stride, 1))
    left = as_strided(out[row:], shape, (bpp, stride, 1), writeable=False)
    up = as_strided(out[bpp:], shape, (bpp, stride, 1), writeable=False)
    upleft = as_strided(out, shape, (bpp, stride, 1), writeable=False)
    filt = as_strided(src[1:], shape, (bpp, stride + 1 - bpp, 1), writeable=False)

    # pred[t, y] holds filter type t's predictor for row y (pred[0] stays 0);
    # pick[y] indexes the one that row's filter byte names in the flat array
    pred = np.zeros((5, height, bpp), np.int16)
    ftypes = src[:: stride + 1].astype(np.intp)
    pick = (ftypes[:, None] * height + np.arange(height)[:, None]) * bpp + np.arange(bpp)
    flat = pred.reshape(-1)
    pred_a, pred_b, pred_avg, pred_paeth = pred[1:]
    for d in range(width + height - 1):
        y0 = max(0, d - width + 1)
        y1 = min(d, height - 1) + 1
        a = pred_a[y0:y1]
        b = pred_b[y0:y1]
        a[...] = left[d, y0:y1]
        b[...] = up[d, y0:y1]
        np.right_shift(a + b, 1, out=pred_avg[y0:y1])
        pred_paeth[y0:y1] = _paeth(a, b, upleft[d, y0:y1].astype(np.int16))
        cur[d, y0:y1] = filt[d, y0:y1] + flat.take(pick[y0:y1])  # mod 256 on store
    return out.reshape(height + 1, row)[1:, bpp:].tobytes()


def encode_png(img: RasterImage, options: EncodeOptions | None = None) -> bytes:
    """Encode to a complete PNG byte string (signature through IEND)."""
    opts = options or EncodeOptions()
    color = 0 if img.channels == 1 else 2
    bpp = img.channels
    stride = img.width * img.channels

    # row y + 1 of pix is scanline y; row 0 is the zero row above the image
    pix = np.zeros((img.height + 1, stride), np.uint8)
    pix[1:] = np.frombuffer(img.samples, np.uint8).reshape(img.height, stride)
    raw = np.empty((img.height, stride + 1), np.uint8)
    band = max(1, _FILTER_BAND_BYTES // stride)
    for y in range(0, img.height, band):
        n = min(band, img.height - y)
        cand = _filter_rows(pix[y + 1 : y + 1 + n], pix[y : y + n], bpp)
        if opts.filter_strategy is None:
            types = _best_filters(cand)
        else:
            types = np.full(n, int(opts.filter_strategy))
        raw[y : y + n, 0] = types
        raw[y : y + n, 1:] = cand[types, np.arange(n)]

    stream = flate.deflate_compress(raw.tobytes(), opts.level)

    out = bytearray(SIGNATURE)
    ihdr = struct.pack(">IIBBBBB", img.width, img.height, 8, color, 0, 0, 0)
    out += PngChunk.build(b"IHDR", ihdr).encoded()
    for off in range(0, max(len(stream), 1), _IDAT_SPLIT):
        out += PngChunk.build(b"IDAT", stream[off : off + _IDAT_SPLIT]).encoded()
    out += PngChunk.build(b"IEND", b"").encoded()
    return bytes(out)


def parse_chunks(data: bytes) -> list[PngChunk]:
    """Split a PNG byte string into chunks, verifying every CRC."""
    if len(data) < 8 or data[:8] != SIGNATURE:
        raise PngFormatError("bad PNG signature")
    chunks = []
    pos = 8
    n = len(data)
    while pos < n:
        if pos + 8 > n:
            raise PngFormatError("truncated chunk header")
        (length,) = struct.unpack_from(">I", data, pos)
        if length > _MAX_CHUNK:
            raise PngFormatError(f"chunk length {length} exceeds 2^31-1")
        type_code = data[pos + 4 : pos + 8]
        if not all(65 <= c <= 90 or 97 <= c <= 122 for c in type_code):
            raise PngFormatError(f"invalid chunk type {type_code!r}")
        end = pos + 8 + length
        if end + 4 > n:
            raise PngFormatError(f"truncated {type_code.decode()} chunk")
        payload = data[pos + 8 : end]
        (crc,) = struct.unpack_from(">I", data, end)
        chunk = PngChunk(type_code, payload, crc)
        if not chunk.crc_ok():
            raise PngCrcError(f"CRC mismatch in {type_code.decode()} chunk")
        chunks.append(chunk)
        pos = end + 4
        if type_code == b"IEND":
            if pos != n:
                raise PngFormatError(f"{n - pos} trailing bytes after IEND")
            return chunks
    raise PngFormatError("missing IEND chunk")


def decode_png(data: bytes) -> RasterImage:
    """Decode a PNG produced by this encoder's feature subset
    (8-bit, color type 0 or 2, non-interlaced) of at most 2^28 pixels."""
    chunks = parse_chunks(_check_bytes("data", data))
    if chunks[0].type_code != b"IHDR":
        raise PngFormatError("first chunk is not IHDR")
    ihdr = chunks[0].data
    if len(ihdr) != 13:
        raise PngFormatError(f"IHDR length {len(ihdr)}, expected 13")
    width, height, depth, color, compression, filter_method, interlace = struct.unpack(
        ">IIBBBBB", ihdr
    )
    if not (0 < width <= _MAX_DIMENSION and 0 < height <= _MAX_DIMENSION):
        raise PngFormatError(f"invalid dimensions {width}x{height}")
    if width * height > _MAX_PIXELS:
        raise PngFormatError(f"{width}x{height} image exceeds the decoder's limit of 2^28 pixels")
    if depth != 8:
        raise UnsupportedImageError(f"bit depth {depth} not supported (only 8)")
    if color not in (0, 2):
        raise UnsupportedImageError(f"color type {color} not supported (only 0 and 2)")
    if compression != 0:
        raise UnsupportedImageError(f"compression method {compression} not supported")
    if filter_method != 0:
        raise UnsupportedImageError(f"filter method {filter_method} not supported")
    if interlace != 0:
        raise UnsupportedImageError("interlaced images not supported")

    idat = bytearray()
    saw_idat = False
    for chunk in chunks[1:]:
        tc = chunk.type_code
        if tc == b"IDAT":
            idat += chunk.data
            saw_idat = True
        elif tc == b"IEND":
            if chunk.data:
                raise PngFormatError("IEND chunk must be empty")
        elif tc == b"IHDR":
            raise PngFormatError("duplicate IHDR chunk")
        elif tc[0] & 0x20:
            continue  # ancillary chunk, safe to ignore
        else:
            raise UnsupportedImageError(f"unknown critical chunk {tc.decode()}")
    if not saw_idat:
        raise PngFormatError("no IDAT chunk")

    channels = 1 if color == 0 else 3
    stride = width * channels
    expected = height * (stride + 1)
    raw = flate.inflate(bytes(idat), max_output=expected)
    if len(raw) != expected:
        raise PngFormatError(
            f"decompressed pixel data is {len(raw)} bytes, expected {expected}"
        )
    ftypes = np.frombuffer(raw, np.uint8)[:: stride + 1]
    if ftypes.max() > FilterType.PAETH:
        raise PngFormatError(f"invalid scanline filter type {ftypes[ftypes > FilterType.PAETH][0]}")

    slow_rows = int(np.count_nonzero(ftypes >= FilterType.AVERAGE))
    if slow_rows * stride > _WAVEFRONT_STEP_BYTES * (width + height):
        samples = _unfilter_image(raw, height, width, channels)
    else:
        rows = bytearray()
        prior = bytes(stride)
        for pos in range(0, expected, stride + 1):
            prior = unfilter(raw[pos + 1 : pos + 1 + stride], prior, raw[pos], channels)
            rows += prior
        samples = bytes(rows)
    return RasterImage(width=width, height=height, channels=channels, samples=samples)
