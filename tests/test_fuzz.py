"""Seeded mutation fuzz: decoders either return or raise a KpngError.

Valid zlib, PNG and BMP files get a few bytes flipped, deleted or
inserted. PNG mutations go four ways: into the file as it is (chunk CRCs
catch most), into the IDAT payload with the CRC recomputed (reaching
inflate), and into the inflated scanlines or just their filter-type bytes,
recompressed by zlib (reaching the filter-type check and both unfilter
paths, the wavefront among them). IHDR mutations set any width and height
and recompute the chunk CRC, which reaches the dimension and pixel limits.
"""

import struct
import zlib

from hypothesis import given, seed, settings, strategies as st

from kpng.bmpcodec import decode_bmp, encode_bmp
from kpng.errors import KpngError
from kpng.flate import deflate_compress, inflate
from kpng.pngcodec import (
    SIGNATURE,
    EncodeOptions,
    FilterType,
    PngChunk,
    decode_png,
    encode_png,
    parse_chunks,
)

from conftest import smooth_image

mutations = st.lists(
    st.tuples(st.sampled_from(["flip", "delete", "insert"]), st.integers(0, 1 << 20), st.integers(0, 255)),
    min_size=1,
    max_size=4,
)


def mutate(data: bytes, ops) -> bytes:
    out = bytearray(data)
    for kind, pos, value in ops:
        if kind == "insert":
            out.insert(pos % (len(out) + 1), value)
        elif out:
            i = pos % len(out)
            if kind == "flip":
                out[i] ^= 1 << (value % 8)
            else:
                del out[i]
    return bytes(out)


def returns_or_raises_kpng_error(decode, data: bytes) -> None:
    try:
        decode(data)
    except KpngError:
        pass


_TEXT = b"".join(b"scanline %d of a k-PNG, " % (i % 37) for i in range(200))
ZLIB_STREAMS = [deflate_compress(_TEXT, 3), deflate_compress(_TEXT[:300], 1), zlib.compress(_TEXT, 0)]

# 12x10 gray takes the per-row path; 128x128 RGB with PAETH rows the wavefront
PNG_IMAGES = [
    (smooth_image(12, 10, 1), None),
    (smooth_image(128, 128, 3), FilterType.PAETH),
]
PNGS = [encode_png(img, EncodeOptions(level=1, filter_strategy=f)) for img, f in PNG_IMAGES]
BMPS = [encode_bmp(smooth_image(7, 5, 3)), encode_bmp(smooth_image(4, 3, 1))]


@seed(20261018)
@settings(max_examples=300)
@given(st.sampled_from(ZLIB_STREAMS), mutations)
def test_fuzz_inflate(stream, ops):
    returns_or_raises_kpng_error(inflate, mutate(stream, ops))


@seed(20261019)
@settings(max_examples=400)
@given(st.sampled_from(range(len(PNGS))), st.sampled_from(["file", "idat", "scanlines", "types"]), mutations)
def test_fuzz_decode_png(which, target, ops):
    png = PNGS[which]
    if target == "file":
        returns_or_raises_kpng_error(decode_png, mutate(png, ops))
        return
    chunks = parse_chunks(png)
    stream = b"".join(c.data for c in chunks if c.type_code == b"IDAT")
    if target == "idat":
        stream = mutate(stream, ops)
    elif target == "scanlines":
        stream = zlib.compress(mutate(zlib.decompress(stream), ops), 1)
    else:
        raw = bytearray(zlib.decompress(stream))
        (height,) = struct.unpack_from(">I", chunks[0].data, 4)
        for _, pos, value in ops:
            raw[pos % height * (len(raw) // height)] = value
        stream = zlib.compress(bytes(raw), 1)
    idat = PngChunk.build(b"IDAT", stream)
    data = SIGNATURE + b"".join(c.encoded() for c in (chunks[0], idat, chunks[-1]))
    returns_or_raises_kpng_error(decode_png, data)


# small sizes, sizes near the 2^28-pixel and 2^31-1 limits, and any 32-bit value
dimensions = st.one_of(
    st.integers(0, 300),
    st.sampled_from([65535, 1 << 14, (1 << 14) + 1, 1 << 28, (1 << 28) + 1, (1 << 31) - 1, 1 << 31]),
    st.integers(0, (1 << 32) - 1),
)


@seed(20261021)
@settings(max_examples=300)
@given(st.sampled_from(range(len(PNGS))), dimensions, dimensions)
def test_fuzz_ihdr_dimensions(which, width, height):
    chunks = parse_chunks(PNGS[which])
    ihdr = bytearray(chunks[0].data)
    struct.pack_into(">II", ihdr, 0, width, height)
    data = SIGNATURE + b"".join(c.encoded() for c in [PngChunk.build(b"IHDR", bytes(ihdr))] + chunks[1:])
    returns_or_raises_kpng_error(decode_png, data)


@seed(20261020)
@settings(max_examples=300)
@given(st.sampled_from(BMPS), mutations)
def test_fuzz_decode_bmp(bmp, ops):
    returns_or_raises_kpng_error(decode_bmp, mutate(bmp, ops))


def test_fuzz_inputs_are_valid():
    assert [inflate(s) for s in ZLIB_STREAMS] == [_TEXT, _TEXT[:300], _TEXT]
    assert [decode_png(p) for p in PNGS] == [img for img, _ in PNG_IMAGES]
    for bmp in BMPS:
        decode_bmp(bmp)
