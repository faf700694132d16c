import random
import struct
import time
import zlib

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from kpng import RasterImage, kmm_transform, pngcodec
from kpng.corpus import CorpusSpec, generate
from kpng.errors import (
    KpngError,
    ParameterError,
    PngCrcError,
    PngFormatError,
    UnsupportedImageError,
)
from kpng.pngcodec import (
    _FILTER_BAND_BYTES,
    _WAVEFRONT_STEP_BYTES,
    _unfilter_image,
    _unfilter_row,
    SIGNATURE,
    EncodeOptions,
    FilterType,
    PngChunk,
    apply_filter,
    choose_filter,
    decode_png,
    encode_png,
    paeth_predictor,
    parse_chunks,
    unfilter,
)

from conftest import random_image, smooth_image

ALL_FILTERS = list(FilterType)
ALL_STRATEGIES = [None] + ALL_FILTERS

# encoder output for a 1x1 gray [0] image at default options, pinned after
# the first verified build
GOLDEN_1X1_GRAY0 = bytes.fromhex(
    "89504e470d0a1a0a0000000d49484452000000010000000108000000003a7e9b55"
    "0000000a4944415478da6360000000020001e527defc0000000049454e44ae426082"
)


def crc32_bitwise(data: bytes) -> int:
    crc = 0xFFFFFFFF
    for byte in data:
        crc ^= byte
        for _ in range(8):
            crc = (crc >> 1) ^ 0xEDB88320 if crc & 1 else crc >> 1
    return crc ^ 0xFFFFFFFF


def hand_chunk(type_code: bytes, payload: bytes) -> bytes:
    return (
        struct.pack(">I", len(payload))
        + type_code
        + payload
        + struct.pack(">I", crc32_bitwise(type_code + payload))
    )


def hand_assembled_1x1_png() -> bytes:
    """1x1 gray [0] PNG built from first principles: stored-block zlib stream
    of the filtered scanline 00 00, headers packed by hand."""
    ihdr = struct.pack(">IIBBBBB", 1, 1, 8, 0, 0, 0, 0)
    scanline = b"\x00\x00"  # filter byte 0 + one zero sample
    zstream = b"\x78\x01" + b"\x01\x02\x00\xfd\xff" + scanline + b"\x00\x02\x00\x01"
    return SIGNATURE + hand_chunk(b"IHDR", ihdr) + hand_chunk(b"IDAT", zstream) + hand_chunk(b"IEND", b"")


# ---------------------------------------------------------------------------
# Paeth predictor


@pytest.mark.parametrize("a,b,c,expected", [(0, 0, 0, 0), (10, 20, 30, 10), (100, 200, 50, 200)])
def test_paeth_examples(a, b, c, expected):
    assert paeth_predictor(a, b, c) == expected


@given(st.integers(0, 255), st.integers(0, 255), st.integers(0, 255))
def test_paeth_matches_distance_oracle(a, b, c):
    p = a + b - c
    best = min((abs(p - v), i) for i, v in enumerate((a, b, c)))
    assert paeth_predictor(a, b, c) == (a, b, c)[best[1]]


# ---------------------------------------------------------------------------
# filters


def test_filter_none_is_identity():
    row = bytes([1, 2, 3, 4])
    assert apply_filter(row, bytes(4), FilterType.NONE, 1) == row


def test_filter_sub_example():
    assert apply_filter(bytes([10, 20, 30]), bytes(3), FilterType.SUB, 1) == bytes([10, 10, 10])


def test_filter_up_perfect_prediction():
    row = bytes([9, 200, 0, 13])
    assert apply_filter(row, row, FilterType.UP, 1) == bytes(4)


def test_unfilter_sub_example():
    assert unfilter(bytes([10, 10, 10]), bytes(3), FilterType.SUB, 1) == bytes([10, 20, 30])


def test_unfilter_up_zero_row_copies_prior():
    prior = bytes([7, 8, 9])
    assert unfilter(bytes(3), prior, FilterType.UP, 1) == prior


@given(
    st.binary(min_size=1, max_size=64),
    st.sampled_from(ALL_FILTERS),
    st.sampled_from([1, 3]),
    st.randoms(use_true_random=False),
)
def test_unfilter_inverts_apply_filter(row, ftype, bpp, rnd):
    prior = bytes(rnd.randrange(256) for _ in row)
    assert unfilter(apply_filter(row, prior, ftype, bpp), prior, ftype, bpp) == row


def up_sub_unfilter_bytewise(filtered: bytes, prior: bytes, ftype: FilterType, bpp: int) -> bytes:
    """Per-byte reference for UP and SUB: add the predictor, keep the low 8 bits."""
    out = bytearray()
    for i, x in enumerate(filtered):
        pred = prior[i] if ftype == FilterType.UP else (out[i - bpp] if i >= bpp else 0)
        out.append((x + pred) & 0xFF)
    return bytes(out)


@pytest.mark.parametrize("ftype", [FilterType.SUB, FilterType.UP])
@pytest.mark.parametrize("bpp", [1, 3])
@pytest.mark.parametrize("n", [1, 2, 3, 7, 8, 301])
def test_unfilter_up_sub_wrap_mod_256(ftype, bpp, n):
    # bytes of 128 and up make every UP sum and most SUB running sums pass
    # 255; lengths 1, 2, 7, 8 and 301 are not whole pixels at bpp 3
    rng = random.Random(n * 10 + bpp)
    high = bytes(rng.randrange(128, 256) for _ in range(2 * n))
    for filtered, prior in ((high[:n], high[n:]), (b"\xff" * n, b"\xff" * n)):
        assert unfilter(filtered, prior, ftype, bpp) == up_sub_unfilter_bytewise(filtered, prior, ftype, bpp)


def runs_row(rng: random.Random, n: int) -> bytes:
    """n bytes in runs of 1-16 drawn from a small alphabet, as rows of flat
    content are."""
    row = bytearray()
    while len(row) < n:
        row += bytes([rng.choice((0, 40, 41, 200, 255))]) * rng.randint(1, 16)
    return bytes(row[:n])


def paeth_unfilter_bytewise(filtered: bytes, prior: bytes, bpp: int) -> bytes:
    """Per-byte reference for PAETH on :func:`paeth_predictor`."""
    out = bytearray()
    for i, x in enumerate(filtered):
        a, c = (out[i - bpp], prior[i - bpp]) if i >= bpp else (0, 0)
        out.append((x + paeth_predictor(a, prior[i], c)) & 0xFF)
    return bytes(out)


@pytest.mark.parametrize("bpp", [1, 3])
@pytest.mark.parametrize("seed", range(4))
def test_unfilter_paeth_on_runs(bpp, seed):
    """Priors in runs make above equal upper-left (the predictor is then the
    left byte) at most positions but not all; random priors almost never do."""
    rng = random.Random(seed)
    n = 301
    prior = runs_row(rng, n)
    upleft = bytes(bpp) + prior[:-bpp]
    same = sum(b == c for b, c in zip(prior, upleft))
    assert n // 2 < same < n
    for filtered in (runs_row(rng, n), rng.randbytes(n)):
        assert unfilter(filtered, prior, FilterType.PAETH, bpp) == paeth_unfilter_bytewise(filtered, prior, bpp)


def test_filter_length_mismatch():
    with pytest.raises(ParameterError):
        apply_filter(b"ab", b"abc", FilterType.SUB, 1)
    with pytest.raises(ParameterError):
        unfilter(b"ab", b"abc", FilterType.SUB, 1)


def test_filter_invalid_type():
    with pytest.raises(ParameterError):
        apply_filter(b"ab", b"cd", 5, 1)
    with pytest.raises(ParameterError):
        unfilter(b"ab", b"cd", -1, 1)
    for bpp in (0, -1, 1.5, True, "3", None):
        with pytest.raises(ParameterError):
            apply_filter(b"abc", b"def", FilterType.SUB, bpp)
        with pytest.raises(ParameterError):
            choose_filter(b"abc", b"def", bpp)
        with pytest.raises(ParameterError):
            unfilter(b"abc", b"def", FilterType.SUB, bpp)


def test_choose_filter_prefers_up_for_repeated_row():
    row = bytes([5, 9, 200, 17, 60, 3])
    assert choose_filter(row, row, 1) == FilterType.UP


def test_choose_filter_all_zero_ties_to_none():
    assert choose_filter(bytes(12), bytes(12), 1) == FilterType.NONE


def test_choose_filter_constant_row_pinned():
    # value 7 x16 over a zero prior: SUB and PAETH tie at score 7, SUB wins
    assert choose_filter(bytes([7] * 16), bytes(16), 1) == FilterType.SUB
    assert choose_filter(bytes([7] * 30), bytes(30), 3) == FilterType.SUB


def reference_filter(row: bytes, prior: bytes, ftype: int, bpp: int) -> bytes:
    """Per-byte filter straight from the PNG specification."""
    out = bytearray()
    for i, x in enumerate(row):
        a = row[i - bpp] if i >= bpp else 0
        b = prior[i]
        c = prior[i - bpp] if i >= bpp else 0
        pred = (0, a, b, (a + b) // 2, paeth_predictor(a, b, c))[ftype]
        out.append((x - pred) % 256)
    return bytes(out)


def reference_score(filtered: bytes) -> int:
    return sum(min(v, 256 - v) for v in filtered)


def mixed_rows_image(width: int, height: int, channels: int) -> RasterImage:
    """Noise, flat, ramp and repeated rows, so every filter type can win."""
    rng = np.random.default_rng(width * 1000 + height * 10 + channels)
    stride = width * channels
    ramp = np.arange(stride) * 3 % 256
    rows = []
    for y in range(height):
        kind = y % 5
        if kind == 0:
            r = rng.integers(0, 256, stride)
        elif kind == 1:
            r = np.full(stride, 7 * y)
        elif kind == 2:
            r = ramp + y
        elif kind == 3:
            r = rows[-1]
        else:
            r = (rows[-1] + ramp // 2 + rng.integers(0, 3, stride)) % 256
        rows.append(np.asarray(r) % 256)
    return RasterImage(width, height, channels, np.array(rows, np.uint8).tobytes())


# the 200x120 RGB image spans more than one encoder band; adaptive
# multi-band output is checked by test_pinned_png_stays_near_zlib_9
@pytest.mark.parametrize(
    "w,h,c,strategy",
    [(w, h, c, s) for w, h, c in [(1, 9, 1), (1, 9, 3), (23, 16, 1), (17, 12, 3)] for s in ALL_STRATEGIES]
    + [(200, 120, 3, f) for f in ALL_FILTERS],
)
def test_encoder_scanlines_match_reference_filter(w, h, c, strategy):
    """The IDAT inflates (by zlib) to the reference-filtered scanlines: the
    fixed type on every row, or an adaptive type of least reference score
    with ties going to the lowest type."""
    img = mixed_rows_image(w, h, c)
    stride = w * c
    if w == 200:
        assert h > _FILTER_BAND_BYTES // stride
    data = encode_png(img, EncodeOptions(level=1, filter_strategy=strategy))
    raw = zlib.decompress(b"".join(ch.data for ch in parse_chunks(data) if ch.type_code == b"IDAT"))
    assert len(raw) == h * (stride + 1)
    prior = bytes(stride)
    for y in range(h):
        row = img.samples[y * stride : (y + 1) * stride]
        line = raw[y * (stride + 1) : (y + 1) * (stride + 1)]
        if strategy is None:
            scores = [(reference_score(reference_filter(row, prior, f, c)), f) for f in range(5)]
            assert line[0] == min(scores)[1]
        else:
            assert line[0] == strategy
        assert line[1:] == reference_filter(row, prior, line[0], c)
        prior = row


# ---------------------------------------------------------------------------
# container


def test_golden_hand_assembled_decodes():
    img = decode_png(hand_assembled_1x1_png())
    assert img == RasterImage(1, 1, 1, b"\x00")


def test_encoder_golden_pinned():
    data = encode_png(RasterImage(1, 1, 1, b"\x00"))
    assert data == GOLDEN_1X1_GRAY0
    assert decode_png(data) == RasterImage(1, 1, 1, b"\x00")


@pytest.mark.parametrize("level", [0, 1, 2, 3])
@pytest.mark.parametrize("strategy", ALL_STRATEGIES)
def test_round_trip_shapes_and_options(level, strategy):
    rng = np.random.default_rng(11)
    opts = EncodeOptions(level=level, filter_strategy=strategy)
    for (w, h, c) in [(1, 1, 1), (1, 7, 3), (13, 1, 1), (8, 5, 3), (17, 17, 1)]:
        img = random_image(rng, w, h, c)
        assert decode_png(encode_png(img, opts)) == img


@given(
    w=st.integers(1, 20),
    h=st.integers(1, 20),
    c=st.sampled_from([1, 3]),
    seed=st.integers(0, 2**31),
)
@settings(max_examples=40)
def test_round_trip_random(w, h, c, seed):
    img = random_image(np.random.default_rng(seed), w, h, c)
    assert decode_png(encode_png(img)) == img


def test_signature_is_bit_exact():
    data = encode_png(RasterImage(2, 2, 1, bytes(4)))
    assert data[:8] == bytes((137, 80, 78, 71, 13, 10, 26, 10))


def test_all_chunk_crcs_verify():
    data = encode_png(random_image(np.random.default_rng(0), 9, 4, 3))
    for chunk in parse_chunks(data):
        assert chunk.crc_ok()


def test_crc_corruption_detected():
    data = bytearray(encode_png(RasterImage(2, 2, 1, bytes(4))))
    data[-3] ^= 0x40  # inside IEND's CRC field
    with pytest.raises(PngCrcError):
        decode_png(bytes(data))
    data = bytearray(encode_png(RasterImage(2, 2, 1, bytes(4))))
    data[41] ^= 0x01  # inside the IDAT payload, CRC left alone
    with pytest.raises(PngCrcError):
        decode_png(bytes(data))


def test_bad_signature():
    with pytest.raises(PngFormatError):
        decode_png(b"\x89PNG\r\n\x1a\x0b" + b"\x00" * 30)


def test_truncated_stream():
    data = encode_png(RasterImage(2, 2, 1, bytes(4)))
    with pytest.raises(PngFormatError):
        decode_png(data[:-7])


def _rebuild(chunks: list[PngChunk]) -> bytes:
    return SIGNATURE + b"".join(c.encoded() for c in chunks)


def _encode_chunks(img=None) -> list[PngChunk]:
    img = img or RasterImage(2, 3, 1, bytes(6))
    return parse_chunks(encode_png(img))


def test_unsupported_bit_depth_and_color_type():
    chunks = _encode_chunks()
    ihdr = bytearray(chunks[0].data)
    ihdr[8] = 16  # bit depth
    bad = [PngChunk.build(b"IHDR", bytes(ihdr))] + chunks[1:]
    with pytest.raises(UnsupportedImageError):
        decode_png(_rebuild(bad))
    ihdr = bytearray(chunks[0].data)
    ihdr[9] = 3  # palette color type
    bad = [PngChunk.build(b"IHDR", bytes(ihdr))] + chunks[1:]
    with pytest.raises(UnsupportedImageError):
        decode_png(_rebuild(bad))
    ihdr = bytearray(chunks[0].data)
    ihdr[12] = 1  # interlace
    bad = [PngChunk.build(b"IHDR", bytes(ihdr))] + chunks[1:]
    with pytest.raises(UnsupportedImageError):
        decode_png(_rebuild(bad))


def test_unknown_critical_chunk_rejected_ancillary_ignored():
    chunks = _encode_chunks()
    with_anc = [chunks[0], PngChunk.build(b"tEXt", b"comment\x00hi")] + chunks[1:]
    assert decode_png(_rebuild(with_anc)) == RasterImage(2, 3, 1, bytes(6))
    with_crit = [chunks[0], PngChunk.build(b"QRST", b"")] + chunks[1:]
    with pytest.raises(UnsupportedImageError):
        decode_png(_rebuild(with_crit))


def test_decoder_accepts_any_idat_split():
    img = random_image(np.random.default_rng(2), 40, 23, 3)
    chunks = parse_chunks(encode_png(img))
    stream = b"".join(c.data for c in chunks if c.type_code == b"IDAT")
    resplit = [chunks[0]]
    for off in range(0, len(stream), 7):
        resplit.append(PngChunk.build(b"IDAT", stream[off : off + 7]))
    resplit.append(PngChunk.build(b"IEND", b""))
    assert decode_png(_rebuild(resplit)) == img


def test_trailing_bytes_after_iend():
    data = encode_png(RasterImage(1, 1, 1, b"\x00"))
    with pytest.raises(PngFormatError):
        decode_png(data + b"x")


def test_unsupported_channel_count():
    with pytest.raises(ParameterError):
        RasterImage(1, 1, 2, bytes(2))


@pytest.mark.parametrize(
    "arr",
    [
        np.zeros((0, 5), np.int32),
        np.array([[1.5, 2.0]]),
        np.array([[np.nan, 1.0]]),
        np.array([[-1, 0]]),
        np.array([[0, 256]]),
        np.array([["a"]]),
    ],
    ids=["empty", "fraction", "nan", "negative", "over-255", "text"],
)
def test_from_array_refuses_values_the_cast_changes(arr):
    with pytest.raises(ParameterError):
        RasterImage.from_array(arr)


def test_from_array_takes_integral_values_of_any_dtype():
    assert RasterImage.from_array(np.array([[0.0, 255.0]])).samples == b"\x00\xff"
    assert RasterImage.from_array(np.array([[True, False]])).samples == b"\x01\x00"


def test_invalid_options():
    with pytest.raises(ParameterError):
        EncodeOptions(level=5)
    with pytest.raises(ParameterError):
        EncodeOptions(filter_strategy=9)


def _idat_size(data: bytes) -> int:
    return sum(len(c.data) for c in parse_chunks(data) if c.type_code == b"IDAT")


def test_adaptive_no_regression():
    rng = np.random.default_rng(4)
    flat = RasterImage.from_array(np.full((24, 40, 3), 77, np.uint8))
    ramp = RasterImage.from_array(
        np.tile(np.arange(40, dtype=np.uint8) * 6, (24, 1))[:, :, np.newaxis].repeat(3, axis=2)
    )
    noisy = random_image(rng, 40, 24, 3)
    for img in (flat, ramp, noisy):
        adaptive = _idat_size(encode_png(img, EncodeOptions()))
        best_fixed = min(
            _idat_size(encode_png(img, EncodeOptions(filter_strategy=f))) for f in ALL_FILTERS
        )
        assert adaptive <= best_fixed + img.height


def test_quantized_flat_image_encodes_smaller():
    # mostly-flat content with low-amplitude speckle: the quantize pre-pass
    # must strictly shrink the PNG at identical options
    rng = np.random.default_rng(8)
    arr = np.full((64, 64, 3), 103, np.uint8)
    mask = rng.random((64, 64)) < 0.2
    arr[mask] = np.array([98, 99, 101], np.uint8)
    img = RasterImage.from_array(arr)
    opts = EncodeOptions()
    assert len(encode_png(kmm_transform(img, 10), opts)) < len(encode_png(img, opts))


def test_ihdr_length_enforced():
    chunks = _encode_chunks()
    bad = [PngChunk.build(b"IHDR", chunks[0].data + b"\x00")] + chunks[1:]
    with pytest.raises(PngFormatError):
        decode_png(_rebuild(bad))


def test_pixel_data_size_mismatch():
    from kpng.flate import deflate_compress

    chunks = _encode_chunks()  # 2x3 gray: expects 3 rows of 1+2 bytes
    short = [chunks[0], PngChunk.build(b"IDAT", deflate_compress(b"\x00\x00\x00", 2)), chunks[-1]]
    with pytest.raises(PngFormatError):
        decode_png(_rebuild(short))


def test_invalid_scanline_filter_byte():
    from kpng.flate import deflate_compress

    chunks = _encode_chunks()
    raw = b"\x05\x00\x00" + b"\x00\x00\x00" * 2  # filter byte 5 is undefined
    bad = [chunks[0], PngChunk.build(b"IDAT", deflate_compress(raw, 2)), chunks[-1]]
    with pytest.raises(PngFormatError):
        decode_png(_rebuild(bad))


def test_missing_idat():
    chunks = _encode_chunks()
    with pytest.raises(PngFormatError):
        decode_png(_rebuild([chunks[0], chunks[-1]]))


def test_zero_dimension_rejected():
    chunks = _encode_chunks()
    ihdr = bytearray(chunks[0].data)
    struct.pack_into(">I", ihdr, 0, 0)
    bad = [PngChunk.build(b"IHDR", bytes(ihdr))] + chunks[1:]
    with pytest.raises(PngFormatError):
        decode_png(_rebuild(bad))


# ---------------------------------------------------------------------------
# whole-image unfilter and the decoder's two paths


def reference_unfilter_image(raw: bytes, height: int, width: int, bpp: int) -> bytes:
    """Row after row through the public one-row :func:`unfilter`."""
    stride = width * bpp
    prior = bytes(stride)
    out = bytearray()
    for y in range(height):
        pos = y * (stride + 1)
        prior = unfilter(raw[pos + 1 : pos + 1 + stride], prior, FilterType(raw[pos]), bpp)
        out += prior
    return bytes(out)


@given(
    st.integers(1, 40),
    st.integers(1, 40),
    st.sampled_from([1, 3]),
    st.randoms(use_true_random=False),
)
@example(1, 1, 3, random.Random(0))
@example(1, 40, 1, random.Random(1))
@example(40, 1, 3, random.Random(2))
@example(40, 40, 3, random.Random(3))
@settings(max_examples=80)
def test_wavefront_matches_per_row_unfilter(height, width, bpp, rnd):
    """Any inflated stream: random payload, a random filter byte 0..4 per row."""
    stride = width * bpp
    raw = bytearray(rnd.randbytes(height * (stride + 1)))
    raw[:: stride + 1] = bytes(rnd.randrange(5) for _ in range(height))
    raw = bytes(raw)
    assert _unfilter_image(raw, height, width, bpp) == reference_unfilter_image(raw, height, width, bpp)


def _spy_unfilter_paths(monkeypatch) -> dict[str, int]:
    calls = {"wavefront": 0, "rows": 0}

    def wavefront(*args):
        calls["wavefront"] += 1
        return _unfilter_image(*args)

    def one_row(*args):
        calls["rows"] += 1
        return _unfilter_row(*args)

    monkeypatch.setattr(pngcodec, "_unfilter_image", wavefront)
    monkeypatch.setattr(pngcodec, "_unfilter_row", one_row)
    return calls


@pytest.mark.parametrize("ftype,wavefront", [(FilterType.PAETH, True), (FilterType.UP, False)])
def test_decode_takes_each_unfilter_path(ftype, wavefront, monkeypatch):
    img = smooth_image(128, 128, 3)
    assert 128 * 384 > _WAVEFRONT_STEP_BYTES * (128 + 128)  # all-PAETH rows outweigh the steps
    data = encode_png(img, EncodeOptions(level=1, filter_strategy=ftype))
    calls = _spy_unfilter_paths(monkeypatch)
    assert decode_png(data) == img
    assert calls == ({"wavefront": 1, "rows": 0} if wavefront else {"wavefront": 0, "rows": 128})


def png_from_stream(width: int, height: int, color: int, stream: bytes) -> bytes:
    ihdr = struct.pack(">IIBBBBB", width, height, 8, color, 0, 0, 0)
    chunks = [PngChunk.build(b"IHDR", ihdr), PngChunk.build(b"IDAT", stream), PngChunk.build(b"IEND", b"")]
    return _rebuild(chunks)


@pytest.mark.parametrize("bpp", [1, 3])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_decode_row_path_on_random_scanlines(bpp, seed, monkeypatch):
    """Random payload and random filter bytes 0..4, sized so the AVERAGE/PAETH
    rows stay below the wavefront threshold: the row path runs every row."""
    rng = random.Random(seed)
    width, height = 48, 40
    stride = width * bpp
    assert height * stride <= _WAVEFRONT_STEP_BYTES * (width + height)  # even all-slow rows
    raw = bytearray(rng.randbytes(height * (stride + 1)))
    raw[:: stride + 1] = bytes(rng.randrange(5) for _ in range(height))
    raw = bytes(raw)
    calls = _spy_unfilter_paths(monkeypatch)
    img = decode_png(png_from_stream(width, height, 0 if bpp == 1 else 2, zlib.compress(raw)))
    assert calls == {"wavefront": 0, "rows": height}
    assert img.samples == reference_unfilter_image(raw, height, width, bpp)
    assert img.samples == _unfilter_image(raw, height, width, bpp)


def paeth_breaks(prior: bytes, bpp: int) -> list[int]:
    """Positions where above differs from upper-left, where PAETH's
    predictor may be other than the left byte."""
    return [i for i, b in enumerate(prior) if b != (prior[i - bpp] if i >= bpp else 0)]


def paeth_edge_rows() -> dict[str, tuple[int, list[tuple[bytes, bytes, list[int]]]]]:
    """name -> (bpp, rows of (prior, filtered, the prior's breaks)), with
    breaks at the edges of the running-sum kernel; random filtered bytes.
    A break's above byte is mostly far from its upper-left one, so its
    predictor is seldom the left byte the running sum would give."""
    rng = random.Random(23)
    cases = {}
    for bpp in (1, 3):
        n = 30

        def row(prior, breaks):
            return bytes(prior), rng.randbytes(len(prior)), breaks

        every = bytearray()
        for i in range(n):
            every.append(rng.randrange(1, 256))
            while i >= bpp and every[i] == every[i - bpp]:
                every[i] = rng.randrange(1, 256)
        adjacent = bytearray(n)
        adjacent[12 : 12 + 2 * bpp + 1 : bpp] = (5, 200, 17)
        # byte 1's lane holds 255 from byte 1 on: its one break is byte 1
        first = bytes([0]) + b"\xff" * (n - 1) if bpp == 1 else bytes([0, 255, 0]) * (n // 3)
        cases[f"break in the first pixel, bpp {bpp}"] = (bpp, [row(first, [1])])
        cases[f"adjacent breaks in one lane, bpp {bpp}"] = (bpp, [
            row(adjacent, [12, 12 + bpp, 12 + 2 * bpp, 12 + 3 * bpp]),
        ])
        cases[f"break on the last byte, bpp {bpp}"] = (bpp, [row(bytes(n - 1) + b"\xff", [n - 1])])
        cases[f"every byte a break, bpp {bpp}"] = (bpp, [row(every, list(range(n)))])
        # a zero prior has no break at all, any other constant one a break
        # at each byte of the first pixel only
        cases[f"constant prior, bpp {bpp}"] = (bpp, [
            row(bytes(n), []), row(bytes([77]) * n, list(range(bpp))),
        ])
    # ten pixels and a byte: the breaks at 28 and 30 sit in the last whole
    # pixel and in the part pixel
    cases["31 bytes, bpp 3"] = (3, [(bytes(28) + bytes([250, 0, 240]), rng.randbytes(31), [28, 30])])
    cases["bpp above the length"] = (3, [
        (bytes([0, 9]), rng.randbytes(2), [1]), (bytes([200]), rng.randbytes(1), [0]),
    ])
    cases["bpp 4 above the length"] = (4, [(bytes([4, 0, 250]), rng.randbytes(3), [0, 2])])
    return cases


PAETH_EDGES = paeth_edge_rows()
# the cases a scanline can hold: whole pixels, at least one
WHOLE_PIXEL_EDGES = sorted(name for name, (bpp, rows) in PAETH_EDGES.items()
                           if all(len(prior) and len(prior) % bpp == 0 for prior, _, _ in rows))


@pytest.mark.parametrize("name", sorted(PAETH_EDGES))
def test_unfilter_paeth_edges(name):
    bpp, rows = PAETH_EDGES[name]
    for prior, filtered, breaks in rows:
        assert paeth_breaks(prior, bpp) == breaks
        assert unfilter(filtered, prior, FilterType.PAETH, bpp) == paeth_unfilter_bytewise(filtered, prior, bpp)


@pytest.mark.parametrize("name", WHOLE_PIXEL_EDGES)
def test_decode_row_path_paeth_edges(name, monkeypatch):
    """Each edge row as the PAETH scanline under a NONE scanline that holds
    its prior, decoded on the row path."""
    bpp, rows = PAETH_EDGES[name]
    calls = _spy_unfilter_paths(monkeypatch)
    for prior, filtered, _ in rows:
        raw = bytes([FilterType.NONE]) + prior + bytes([FilterType.PAETH]) + filtered
        img = decode_png(png_from_stream(len(prior) // bpp, 2, 0 if bpp == 1 else 2, zlib.compress(raw)))
        assert img.samples == prior + paeth_unfilter_bytewise(filtered, prior, bpp)
    assert calls == {"wavefront": 0, "rows": 2 * len(rows)}


def test_decode_k10_flat_shapes_paeth_on_row_path(monkeypatch):
    """A k-PNG of flat shapes, every row PAETH: few breaks per row, and few
    enough PAETH bytes for the row path."""
    img = kmm_transform(generate(CorpusSpec("flat-shapes", 64, 64, seed=1)), 10)
    data = encode_png(img, EncodeOptions(filter_strategy=FilterType.PAETH))
    raw = pngcodec.flate.inflate(b"".join(c.data for c in parse_chunks(data) if c.type_code == b"IDAT"))
    assert raw[:: 64 * 3 + 1] == bytes([FilterType.PAETH]) * 64
    calls = _spy_unfilter_paths(monkeypatch)
    decoded = decode_png(data)
    assert calls == {"wavefront": 0, "rows": 64}
    assert decoded.samples == _unfilter_image(raw, 64, 64, 3)
    assert decoded == img


@pytest.mark.parametrize("ftype", [FilterType.PAETH, FilterType.UP])
def test_bad_filter_byte_in_last_row_rejected_before_unfiltering(ftype, monkeypatch):
    width, height = 128, 128
    stride = width * 3
    raw = bytearray((bytes([ftype]) + bytes(range(256)) + bytes(stride - 256)) * height)
    calls = _spy_unfilter_paths(monkeypatch)
    decode_png(png_from_stream(width, height, 2, zlib.compress(bytes(raw))))
    assert calls["wavefront"] == (ftype == FilterType.PAETH)

    raw[(height - 1) * (stride + 1)] = 5
    calls.update(wavefront=0, rows=0)
    with pytest.raises(PngFormatError, match="invalid scanline filter type 5"):
        decode_png(png_from_stream(width, height, 2, zlib.compress(bytes(raw))))
    assert calls == {"wavefront": 0, "rows": 0}


@pytest.mark.parametrize("width,height", [(1 << 31, 1), (1, 1 << 31), (0xFFFFFFFF, 0xFFFFFFFF)])
def test_oversized_ihdr_dimensions_rejected(width, height):
    chunks = _encode_chunks()
    ihdr = bytearray(chunks[0].data)
    struct.pack_into(">II", ihdr, 0, width, height)
    bad = [PngChunk.build(b"IHDR", bytes(ihdr))] + chunks[1:]
    with pytest.raises(PngFormatError, match="invalid dimensions"):
        decode_png(_rebuild(bad))


@pytest.mark.parametrize(
    "width,height,inflates",
    [(65535, 65535, False), (1 << 14, (1 << 14) + 1, False), ((1 << 28) + 1, 1, False), (1 << 14, 1 << 14, True)],
)
def test_pixel_limit_checked_before_inflating(width, height, inflates, monkeypatch):
    """Past 2^28 pixels a PNG is refused from its IHDR alone; at the limit
    its tiny IDAT is inflated and found short."""
    calls = []
    inflate = pngcodec.flate.inflate

    def spy(*args, **kwargs):
        calls.append(kwargs)
        return inflate(*args, **kwargs)

    data = png_from_stream(width, height, 2, zlib.compress(bytes(16)))
    monkeypatch.setattr(pngcodec.flate, "inflate", spy)
    t0 = time.perf_counter()
    with pytest.raises(PngFormatError, match="decompressed pixel data" if inflates else "limit of 2\\^28 pixels"):
        decode_png(data)
    assert time.perf_counter() - t0 < 0.5
    assert len(calls) == inflates


def test_decompression_bomb_stops_early():
    """A 1x1 gray PNG whose IDAT inflates to 64 MiB stops at the size the
    header allows."""
    comp = zlib.compressobj(9)
    zero = bytes(1 << 20)
    stream = b"".join(comp.compress(zero) for _ in range(64)) + comp.flush()
    assert len(stream) < 70_000
    data = png_from_stream(1, 1, 0, stream)
    t0 = time.perf_counter()
    with pytest.raises(KpngError):
        decode_png(data)
    assert time.perf_counter() - t0 < 0.5
