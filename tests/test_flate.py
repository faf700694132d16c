import hashlib
import random
import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kpng import flate, kmm_transform
from kpng.corpus import CorpusSpec, generate
from kpng.errors import (
    ChecksumMismatchError,
    CorruptStreamError,
    DistanceTooFarError,
    ParameterError,
    TruncatedStreamError,
    ZlibHeaderError,
)
from kpng.flate import (
    _ADLER_GROUP,
    _ADLER_NMAX,
    _BLOCK_INPUT,
    _CHUNK_INPUT,
    _CRC_LANE,
    _CRC_MIN_LANES,
    _EMIT_OPS,
    _FAR_LIMIT,
    _FIXED_DIST_LENGTHS,
    _FIXED_LIT_LENGTHS,
    _MIN_BLOCK,
    _NO_DIST,
    WINDOW_SIZE,
    Literal,
    Match,
    _BitWriter,
    _Block,
    _block_stats,
    _build_decode_table,
    _chunk_sums,
    _codes_from_lengths,
    _DynamicPlan,
    _emit_block,
    _limited_code_lengths,
    _op_fields,
    _plan_blocks,
    _priced_block,
    _rle_code_lengths,
    _split_blocks,
    _tokenize_ops,
    adler32,
    crc32,
    deflate_compress,
    inflate,
    lz77_expand,
    lz77_tokenize,
)

ALL_LEVELS = [0, 1, 2, 3]


def crc32_bitwise(data: bytes) -> int:
    """Independent bit-at-a-time reference (no table)."""
    crc = 0xFFFFFFFF
    for byte in data:
        crc ^= byte
        for _ in range(8):
            crc = (crc >> 1) ^ 0xEDB88320 if crc & 1 else crc >> 1
    return crc ^ 0xFFFFFFFF


def adler32_bytewise(data: bytes) -> int:
    s1, s2 = 1, 0
    for b in data:
        s1 = (s1 + b) % 65521
        s2 = (s2 + s1) % 65521
    return (s2 << 16) | s1


def structured_inputs() -> list[bytes]:
    rng = random.Random(42)
    return [
        b"",
        b"a",
        b"abc",
        b"aaaaaa",
        b"\x00" * 70000,
        b"ab" * 5000,
        bytes(range(256)) * 40,
        b"the quick brown fox jumps over the lazy dog " * 300,
        rng.randbytes(50000),
        bytes(rng.randrange(4) for _ in range(20000)),
    ]


# ---------------------------------------------------------------------------
# checksums


def test_crc32_known_values():
    assert crc32(b"") == 0x00000000
    assert crc32(b"IEND") == 0xAE426082
    assert crc32(b"123456789") == 0xCBF43926


def test_crc32_matches_bitwise_reference():
    rng = random.Random(0)
    for n in (0, 1, 2, 7, 63, 300):
        blob = rng.randbytes(n)
        assert crc32(blob) == crc32_bitwise(blob)


def test_crc32_incremental_equals_one_shot():
    blob = bytes(range(256)) * 3
    for split in (0, 1, 100, 768):
        assert crc32(blob[split:], crc32(blob[:split])) == crc32(blob)


def test_adler32_known_values():
    assert adler32(b"") == 1
    assert adler32(b"\x00") == 0x00010001


def test_adler32_matches_bytewise_reference():
    rng = random.Random(1)
    for n in (0, 1, 2, 5551, 5552, 5553, 20000):
        blob = rng.randbytes(n)
        assert adler32(blob) == adler32_bytewise(blob)


def test_adler32_incremental_equals_one_shot():
    blob = bytes(range(256)) * 70
    for split in (0, 3, 5552, 17000, len(blob)):
        assert adler32(blob[split:], adler32(blob[:split])) == adler32(blob)


@pytest.mark.parametrize("n", [(1 << 20) - 1, 1 << 20, (1 << 20) + 1, (3 << 20) + 7])
def test_adler32_matches_zlib_across_chunks(n):
    # all-0xFF bytes give the largest weighted sum a block can hold
    for blob in (random.Random(n).randbytes(n), b"\xff" * n):
        assert adler32(blob) == zlib.adler32(blob)
        start = zlib.adler32(blob[:777])
        assert adler32(blob[777:], start) == zlib.adler32(blob[777:], start)
        assert adler32(bytearray(blob), 0xFFF0FFF0) == zlib.adler32(blob, 0xFFF0FFF0)


@pytest.mark.parametrize(
    "n",
    [m * _ADLER_NMAX + e for m in (1, 2, 3) for e in (-1, 0, 1)]
    + [_ADLER_GROUP - 1, _ADLER_GROUP, _ADLER_GROUP + 1, 2 * _ADLER_GROUP + 1],
)
def test_adler32_matches_zlib_at_block_boundaries(n):
    assert 255 * _ADLER_NMAX * (_ADLER_NMAX + 1) // 2 < 1 << 32  # no uint32 weighted sum wraps
    for blob in (random.Random(n).randbytes(n), b"\xff" * n):
        for start in (1, 0xFFF0FFF0, (1 << 32) - 1):
            assert adler32(blob, start) == zlib.adler32(blob, start), (n, start)


def _adler32_peak_bytes(n: int) -> int:
    data = b"\xff" * n
    tracemalloc.start()
    try:
        adler32(data)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_adler32_memory_does_not_grow_with_input():
    """Temporaries are bounded by a group of blocks, whatever the input
    size: a 2^28-pixel IDAT must not need a copy of itself per numpy pass."""
    small = _adler32_peak_bytes(8 << 20)
    large = _adler32_peak_bytes(32 << 20)
    assert abs(large - small) < 64 << 10, (small, large)


_LANES_FROM = _CRC_MIN_LANES * _CRC_LANE


@pytest.mark.parametrize(
    "n",
    [255, 256, 257, 1023, 1024, 1025, _LANES_FROM - 1, _LANES_FROM, _LANES_FROM + 1,
     _LANES_FROM + _CRC_LANE - 1, 786944, (3 << 20) + 7],
)
def test_crc32_matches_zlib_across_lanes(n):
    blob = random.Random(n).randbytes(n)
    want = zlib.crc32(blob)
    for data in (blob, bytearray(blob), memoryview(blob)):
        assert crc32(data) == want
    for split in (1, 777, n // 2):
        assert crc32(blob[split:], crc32(blob[:split])) == want
        start = zlib.crc32(blob[:split])
        assert crc32(memoryview(blob)[split:], start) == zlib.crc32(blob[split:], start)


@given(st.binary(max_size=2000))
def test_checksums_match_stdlib(blob):
    assert crc32(blob) == zlib.crc32(blob)
    assert adler32(blob) == zlib.adler32(blob)


@pytest.mark.parametrize("value", [-1, 1 << 32, True, 1.0, "1", None])
def test_checksum_start_value_checked(value):
    with pytest.raises(ParameterError):
        crc32(b"abc", value)
    with pytest.raises(ParameterError):
        adler32(b"abc", value)


def test_checksum_start_value_range_ends():
    top = (1 << 32) - 1
    assert crc32(b"abc", top) == zlib.crc32(b"abc", top)
    assert adler32(b"abc", top) == zlib.adler32(b"abc", top)
    assert crc32(b"", 0) == 0 and adler32(b"", 0) == 0
    # zlib reduces an unreduced start value mod 65521 even for empty data
    assert adler32(b"", top) == zlib.adler32(b"", top) == 0x000E000E


# ---------------------------------------------------------------------------
# tokenizer


def test_tokenize_run():
    assert lz77_tokenize(b"aaaaaa", 1) == [Literal(ord("a")), Match(5, 1)]


def test_tokenize_empty():
    assert lz77_tokenize(b"") == []


def test_tokenize_no_repeats():
    toks = lz77_tokenize(b"abcdef", 2)
    assert toks == [Literal(c) for c in b"abcdef"]


def test_tokenize_rejects_level_zero():
    with pytest.raises(ParameterError):
        lz77_tokenize(b"abc", 0)


@given(st.binary(max_size=4000), st.sampled_from([1, 2, 3]))
def test_tokenize_expand_round_trip(data, level):
    toks = lz77_tokenize(data, level)
    assert lz77_expand(toks) == data


def test_tokenize_matches_stay_in_window():
    rng = random.Random(9)
    data = rng.randbytes(500) * 8
    produced = 0
    for tok in lz77_tokenize(data, 3):
        if isinstance(tok, Match):
            assert 3 <= tok.length <= 258
            assert 1 <= tok.distance <= 32768
            assert tok.distance <= produced
            produced += tok.length
        else:
            produced += 1
    assert produced == len(data)


def far_short_matches(tokens) -> list[Match]:
    """Matches of length 3 farther than 256 bytes and of length 4 farther
    than 4096, whose codes cost more than their literals on noisy input."""
    return [
        t for t in tokens
        if isinstance(t, Match) and (t.length == 3 and t.distance > 256 or t.length == 4 and t.distance > 4096)
    ]


def test_lazy_parse_drops_short_far_matches():
    data = kmm_transform(generate(CorpusSpec("noise", 64, 64, seed=1)), 10).samples
    lazy = lz77_tokenize(data, 3)
    greedy = lz77_tokenize(data, 2)
    assert far_short_matches(lazy) == []
    # the rule is level 3's: the greedy parse takes such matches
    assert {3, 4} <= {m.length for m in far_short_matches(greedy)}
    # short near matches are still taken
    assert any(isinstance(t, Match) and t.length == 3 for t in lazy)
    for level in (2, 3):
        stream = deflate_compress(data, level)
        assert zlib.decompress(stream) == data
        assert inflate(stream) == data


def repeat_at(distance: int, size: int = 16) -> bytes:
    """A ``size``-byte marker that recurs ``distance`` bytes after it starts,
    with random bytes between and after; the byte after the second copy
    differs from the byte after the first, so the repeat is ``size`` long."""
    rng = random.Random(distance * 100 + size)
    marker = rng.randbytes(size)
    between = rng.randbytes(distance - size)
    return marker + between + marker + bytes([between[0] ^ 1]) + rng.randbytes(99)


TOKENIZE_INPUTS = {
    # below 3 bytes there is no key
    **{f"length-{n}": b"aaaa"[:n] for n in range(5)},
    # 49,152 bytes of 26 sample values: 865 positions last saw their key
    # more than a window back, so runs of literals cross the window floor
    "noise-k10": kmm_transform(generate(CorpusSpec("noise", 128, 128, seed=3)), 10).samples,
    # matches of 258 bytes, longer than _INSERT_CAP
    "long-matches": b"\x00" * 1000 + random.Random(5).randbytes(300) * 3 + b"ab" * 400 + bytes(range(256)) * 4,
    "distance-32768": repeat_at(WINDOW_SIZE),
    "distance-32769": repeat_at(WINDOW_SIZE + 1),
}

# the op arrays of the greedy (False) and lazy (True) parse, so a change to
# how the tokenizer searches shows even where the stream would not move
TOKENIZE_OPS_SHA256 = {
    ("distance-32768", False): "170fda1da5bb3f620aaaddf511117c5e5f40b5f428085a2e09b4afc786e3e10b",
    ("distance-32768", True): "d6cf1d6fa98fbcdebb2a6a7e90906ac1a715673a2850327a44e21d24dd7d6142",
    ("distance-32769", False): "73ec70c0bf0d6201141a79cfdd18a35063cde49fac710478fd7d4f141fc7e39a",
    ("distance-32769", True): "dc890e08179027fad09b26d385011b202ef91fdbe01875306b46085adeb2bcaf",
    ("length-0", False): "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ("length-0", True): "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ("length-1", False): "d806031683ebde4734ae728e226af7e40923dfdd38c6e7f7be8052a4278a7e15",
    ("length-1", True): "d806031683ebde4734ae728e226af7e40923dfdd38c6e7f7be8052a4278a7e15",
    ("length-2", False): "a24067d4df58d0a70ed73482dd0f1438d9270e0149be37768a4356992a24808f",
    ("length-2", True): "a24067d4df58d0a70ed73482dd0f1438d9270e0149be37768a4356992a24808f",
    ("length-3", False): "cf608f16cb6b9b5cfbecfca0f62eaff912e29dedbf1dabbc780dcc670388788c",
    ("length-3", True): "cf608f16cb6b9b5cfbecfca0f62eaff912e29dedbf1dabbc780dcc670388788c",
    ("length-4", False): "8d37404c346d3b0ebc29dd53e006940dffd2a10c63e989459e7c8735900e5948",
    ("length-4", True): "8d37404c346d3b0ebc29dd53e006940dffd2a10c63e989459e7c8735900e5948",
    ("long-matches", False): "3472ac4c0253ff357a6119659f6491fb9f9288e738bd59d0f6819ba7853cb879",
    ("long-matches", True): "3472ac4c0253ff357a6119659f6491fb9f9288e738bd59d0f6819ba7853cb879",
    ("noise-k10", False): "ce49d3338575a5f1d1e87eead3cc20643d1eaa5a355103ee00366ac3a937cc17",
    ("noise-k10", True): "4c7906d0fe5f5a54614b1301570edf6eb38e9819ab36086aa4a416d246b367f6",
}


@pytest.mark.parametrize("name, lazy", sorted(TOKENIZE_OPS_SHA256))
def test_tokenize_ops_are_pinned(name, lazy):
    data = TOKENIZE_INPUTS[name]
    ops = _tokenize_ops(data, lazy)
    assert hashlib.sha256(ops.tobytes()).hexdigest() == TOKENIZE_OPS_SHA256[name, lazy]
    tokens = [Literal(op) if op < 256 else Match(op >> 16, op & 0xFFFF) for op in ops.tolist()]
    assert lz77_expand(tokens) == data


@pytest.mark.parametrize("lazy", [False, True])
def test_tokenize_reaches_exactly_one_window_back(lazy):
    def longest_distance(distance):
        ops = _tokenize_ops(repeat_at(distance), lazy)
        return int((ops[ops > 255] & 0xFFFF).max(initial=0))

    # the marker at WINDOW_SIZE matches its first copy; one byte later the
    # first copy has left the window
    assert longest_distance(WINDOW_SIZE) == WINDOW_SIZE
    assert longest_distance(WINDOW_SIZE + 1) < WINDOW_SIZE


@pytest.mark.parametrize("size", [3, 4])
def test_lazy_parse_takes_short_matches_up_to_the_far_limit(size):
    # level 3 takes a repeat of 3 bytes at distance 256 and one of 4 bytes
    # at 4096; one byte farther it drops the repeat, which level 2 takes
    limit = _FAR_LIMIT[size]
    assert Match(size, limit) in lz77_tokenize(repeat_at(limit, size), 3)
    beyond = repeat_at(limit + 1, size)
    assert Match(size, limit + 1) in lz77_tokenize(beyond, 2)
    assert Match(size, limit + 1) not in lz77_tokenize(beyond, 3)


def test_expand_rejects_bad_tokens():
    with pytest.raises(DistanceTooFarError):
        lz77_expand([Literal(5), Match(3, 2)])
    for bad in (
        [Match(2, 1)],
        [Match(3, 40000)],
        [Literal(300)],
        [Literal(-1)],
        [Literal(5), Match(3.0, 1)],
        [Literal(5), Match(3, 1.0)],
        [Literal(True)],
        [Literal(False)],
        [Literal(True), Match(True + 2, True)],
        [Literal(5), Literal(6), Match(3, True)],
        ["not a token"],
    ):
        with pytest.raises(ParameterError):
            lz77_expand(bad)


# ---------------------------------------------------------------------------
# deflate / inflate round trips


@pytest.mark.parametrize("level", ALL_LEVELS)
def test_round_trip_structured(level):
    for blob in structured_inputs():
        assert inflate(deflate_compress(blob, level)) == blob


@given(st.binary(max_size=3000), st.sampled_from(ALL_LEVELS))
@settings(max_examples=60)
def test_round_trip_random(data, level):
    assert inflate(deflate_compress(data, level)) == data


@pytest.mark.parametrize("level", ALL_LEVELS)
def test_stdlib_inflates_our_streams(level):
    for blob in structured_inputs():
        assert zlib.decompress(deflate_compress(blob, level)) == blob


def test_we_inflate_stdlib_streams():
    for blob in structured_inputs():
        for zlevel in (1, 6, 9):
            assert inflate(zlib.compress(blob, zlevel)) == blob


def test_deterministic_output():
    blob = random.Random(3).randbytes(30000)
    for level in ALL_LEVELS:
        assert deflate_compress(blob, level) == deflate_compress(blob, level)


# Level 0 is stored, levels 1-2 greedy and level 3 lazy; the bytes of all
# four are pinned, so a change to the tokenizer, the Huffman stage or the
# block writer that moves them shows.
GREEDY_LEVEL_SHA256 = {
    0: "ac2a59fe737dc40675d48eefa407abd7cff64b7c410eb3ad9d6c005f508cd55c",
    1: "1c41e596b391e31aab2e8685b54546ae121bc9541eec3c0a18362065b3846d1d",
    2: "beacaa7b5556edbe1812177114644da5c3ea100a5e7659e14bc3561752fd8730",
    3: "552c0b5daa978f07e2d524793aed4e599a2f22abe8f4c92509c55acc65265ad1",
}


@pytest.mark.parametrize("level", sorted(GREEDY_LEVEL_SHA256))
def test_greedy_level_output_is_pinned(level):
    stream = deflate_compress(b"".join(structured_inputs()), level)
    assert hashlib.sha256(stream).hexdigest() == GREEDY_LEVEL_SHA256[level]


def test_run_compresses_tightly():
    # regression-pinned sizes for 10,000 identical bytes
    sizes = {lv: len(deflate_compress(b"x" * 10000, lv)) for lv in (1, 2, 3)}
    assert all(size < 100 for size in sizes.values()), sizes
    assert sizes == {1: 73, 2: 32, 3: 32}


def test_stored_level_size_formula():
    for n in (1, 2, 100, 65535, 65536, 131071, 200000):
        got = len(deflate_compress(b"\x07" * n, 0))
        assert got == n + 5 * ((n + 65534) // 65535) + 6
    # empty input still needs one stored block
    assert len(deflate_compress(b"", 0)) == 11


def test_monotone_levels_weak():
    for blob in structured_inputs():
        l1 = len(deflate_compress(blob, 1))
        l3 = len(deflate_compress(blob, 3))
        assert l3 <= l1 + 64


def test_invalid_level_rejected():
    for bad in (-1, 4, 2.5, "2", None):
        with pytest.raises(ParameterError):
            deflate_compress(b"x", bad)


# ---------------------------------------------------------------------------
# inflate error handling


def test_inflate_stored_block_of_abc():
    raw = b"\x01\x03\x00\xfc\xffabc"
    stream = b"\x78\x01" + raw + adler32(b"abc").to_bytes(4, "big")
    assert inflate(stream) == b"abc"


def test_truncated_stream_errors_without_partial_output():
    blob = deflate_compress(b"hello world, hello world", 2)
    for cut in (0, 1, 5, len(blob) - 5, len(blob) - 1):
        with pytest.raises(TruncatedStreamError):
            inflate(blob[:cut])


def test_flipped_adler_bit_is_checksum_mismatch():
    blob = bytearray(deflate_compress(b"payload bytes", 2))
    blob[-1] ^= 0x01
    with pytest.raises(ChecksumMismatchError):
        inflate(bytes(blob))


def test_bad_zlib_headers():
    with pytest.raises(ZlibHeaderError):
        inflate(b"\x79\x00" + b"\x00" * 8)  # method 9
    with pytest.raises(ZlibHeaderError):
        inflate(b"\x88\x00" + b"\x00" * 8)  # window exponent 8
    with pytest.raises(ZlibHeaderError):
        inflate(b"\x78\x02" + b"\x00" * 8)  # check bits
    with pytest.raises(ZlibHeaderError):
        inflate(b"\x78\x20" + b"\x00" * 8)  # preset dictionary


def test_reserved_block_type():
    with pytest.raises(CorruptStreamError):
        inflate(b"\x78\x01\x07" + b"\x00" * 8)


def test_stored_length_check():
    blob = bytearray(deflate_compress(b"abc", 0))
    blob[5] ^= 0xFF  # NLEN low byte
    with pytest.raises(CorruptStreamError):
        inflate(bytes(blob))


def test_distance_too_far():
    # hand-packed fixed-Huffman block whose first token is a match:
    # BFINAL=1, BTYPE=01, litlen symbol 257 (length 3), distance symbol 0
    stream = b"\x78\x01\x03\x02\x00" + b"\x00" * 4
    with pytest.raises(DistanceTooFarError):
        inflate(stream)


def test_trailing_garbage_rejected():
    blob = deflate_compress(b"abc", 2)
    with pytest.raises(CorruptStreamError):
        inflate(blob + b"\x00")


@pytest.mark.parametrize("level", [0, 9])  # stored blocks, then matches
def test_inflate_max_output(level):
    payload = bytes(range(256)) * 400
    stream = zlib.compress(payload, level)
    assert inflate(stream, max_output=len(payload)) == payload
    assert inflate(stream, max_output=None) == payload
    with pytest.raises(CorruptStreamError, match="exceeds"):
        inflate(stream, max_output=len(payload) - 1)
    # checked inside the block, before the cut is reached
    with pytest.raises(CorruptStreamError, match="exceeds"):
        inflate(stream[:-8], max_output=1000)


def test_inflate_max_output_on_literal_block():
    # fixed-Huffman literals only: checked at the end of the block
    stream = deflate_compress(bytes(range(200)), 1)
    assert inflate(stream, max_output=200) == bytes(range(200))
    with pytest.raises(CorruptStreamError):
        inflate(stream, max_output=199)


@pytest.mark.parametrize("bad", ["5", -1, 5.5, True, False, b"5"])
def test_inflate_max_output_checked(bad):
    with pytest.raises(ParameterError):
        inflate(deflate_compress(b"abc", 2), max_output=bad)


def test_inflate_rejects_empty():
    with pytest.raises(TruncatedStreamError):
        inflate(b"")


def test_every_proper_prefix_is_truncated():
    rng = random.Random(7)
    text = b"".join(b"scanline %d of a k-PNG, " % (i % 23) for i in range(60))
    # literal 0 is the most frequent symbol, so the dynamic code's all-zero
    # code is a literal: the zero bits past a cut decode as literals
    skewed_src = bytes(rng.choice(b"\x00" * 12 + bytes(range(1, 48))) for _ in range(600))
    skewed = deflate_compress(skewed_src, 2)
    assert skewed[2] & 7 == 0b101  # one final dynamic block
    (block,) = _plan_blocks(_op_fields(_tokenize_ops(skewed_src, False)))
    lit_lengths = block.plan.lit_lengths
    # the canonical all-zero code is the first symbol of the shortest length
    assert np.flatnonzero(lit_lengths == lit_lengths[lit_lengths > 0].min())[0] < 256
    zeros = bytes(_BLOCK_INPUT + 4000)  # two blocks
    # a non-final dynamic block, then a second dynamic header to cut inside
    c = zlib.compressobj(9)
    synced = c.compress(text) + c.flush(zlib.Z_SYNC_FLUSH) + c.compress(text[::-1]) + c.flush()
    assert synced[2] & 7 == 0b100
    corpus = (
        [deflate_compress(text, level) for level in ALL_LEVELS]
        + [zlib.compress(text, level) for level in (0, 1, 9)]
        + [deflate_compress(b"", 2), skewed, deflate_compress(zeros, 1), zlib.compress(zeros, 9), synced]
    )
    for stream in corpus:
        assert inflate(stream) == zlib.decompress(stream)
        for cut in range(len(stream)):
            with pytest.raises(TruncatedStreamError):
                inflate(stream[:cut])


def test_stored_blocks_after_huffman_blocks_at_every_bit_offset():
    # the reader holds up to 21 whole bytes past the bits it has used, and
    # pushes them back before a stored block's LEN/NLEN and the trailer
    streams = []
    for size in range(1, 15):
        # distinct bytes >= 144: no match, 9-bit fixed literal codes, so the
        # empty stored block of the sync flush starts at bit 10 + 9 * size
        c = zlib.compressobj(9)
        stream = c.compress(bytes(range(144, 144 + size))) + c.flush(zlib.Z_SYNC_FLUSH) + c.flush()
        assert stream[2] & 7 == 0b010  # a non-final fixed block
        assert len(stream) == 2 + (10 + 9 * size + 3 + 7) // 8 + 4 + 2 + 4
        streams.append(stream)
    assert {(10 + 9 * size) % 8 for size in range(1, 15)} == set(range(8))
    for stream in streams:
        assert inflate(stream) == zlib.decompress(stream)
        for cut in range(len(stream)):
            with pytest.raises(TruncatedStreamError):
                inflate(stream[:cut])
    # stored blocks between two dynamic blocks: the plan stores the noise
    # between the two texts, each coded in a block of at least 16 KiB, the
    # least a split leaves. Every prefix would cost minutes; cut within 24
    # bytes of where the stored data starts and ends, and of the trailer
    text = b"".join(b"scanline %d of a k-PNG, " % (i % 23) for i in range(60))
    src = text + random.Random(3).randbytes(140_000) + text
    _, stored, _ = blocks = _plan_blocks(_op_fields(_tokenize_ops(src, False)))
    assert [b.btype for b in blocks] == [2, 0, 2]
    stream = deflate_compress(src, 2)
    assert inflate(stream) == src
    start = stream.find(src[stored.byte_start : stored.byte_start + 64])
    end = stream.find(src[stored.byte_end - 64 : stored.byte_end]) + 64
    for cut in {*range(start - 24, start + 24), *range(end - 24, end + 24), *range(len(stream) - 24, len(stream))}:
        with pytest.raises(TruncatedStreamError):
            inflate(stream[:cut])


# ---------------------------------------------------------------------------
# hand-packed dynamic blocks exercising rare decoder paths


class BitPacker:
    """Independent LSB-first bit packer for crafting adversarial streams."""

    def __init__(self):
        self.bits = []

    def put(self, value, nbits):
        for i in range(nbits):
            self.bits.append((value >> i) & 1)
        return self

    def put_code_msb(self, value, nbits):
        # Huffman codes enter the stream most-significant bit first
        for i in reversed(range(nbits)):
            self.bits.append((value >> i) & 1)
        return self

    def to_zlib(self):
        out = bytearray(b"\x78\x01")
        acc = 0
        for i, bit in enumerate(self.bits):
            acc |= bit << (i % 8)
            if i % 8 == 7:
                out.append(acc)
                acc = 0
        if len(self.bits) % 8:
            out.append(acc)
        out += b"\x00" * 4  # placeholder trailer, never reached on error paths
        return bytes(out)


def _dynamic_header(codelen_lengths, hlit=257, hdist=1):
    """Start a dynamic block with the given code counts and code-length-code
    lengths (list of 19 ints in transmission order)."""
    p = BitPacker()
    p.put(1, 1).put(2, 2)
    p.put(hlit - 257, 5).put(hdist - 1, 5).put(len(codelen_lengths) - 4, 4)
    for l in codelen_lengths:
        p.put(l, 3)
    return p


def _oversubscribed_stream(code):
    """A dynamic block whose code-length, literal/length or distance code
    gives three symbols 1-bit codes; the other codes are complete, or one
    1-bit code, which inflaters accept."""
    if code == "code-length":
        return _dynamic_header([1] * 19).to_zlib()  # nineteen 1-bit code lengths
    # code-length code: symbols 0, 1, 2 and 18 -> codes 00, 01, 10, 11
    cl = [0] * 19
    cl[2] = cl[3] = cl[15] = cl[17] = 2
    if code == "litlen":
        p = _dynamic_header(cl, hlit=257, hdist=1)
        p.put_code_msb(0b01, 2).put_code_msb(0b01, 2)  # litlen 0, 1: length 1
        p.put_code_msb(0b11, 2).put(138 - 11, 7)       # 138 zeros (litlen 2..139)
        p.put_code_msb(0b11, 2).put(116 - 11, 7)       # 116 zeros (litlen 140..255)
        p.put_code_msb(0b01, 2)                        # litlen 256: length 1
        p.put_code_msb(0b01, 2)                        # dist 0: length 1
    else:
        p = _dynamic_header(cl, hlit=257, hdist=3)
        p.put_code_msb(0b01, 2)                        # litlen 0: length 1
        p.put_code_msb(0b11, 2).put(138 - 11, 7)       # 138 zeros (litlen 1..138)
        p.put_code_msb(0b11, 2).put(117 - 11, 7)       # 117 zeros (litlen 139..255)
        p.put_code_msb(0b01, 2)                        # litlen 256: length 1
        for _ in range(3):
            p.put_code_msb(0b01, 2)                    # dist 0, 1, 2: length 1
    return p.to_zlib()


@pytest.mark.parametrize(
    "code, zlib_message",
    [
        pytest.param("code-length", "invalid code lengths set", id="code-length"),
        pytest.param("litlen", "invalid literal/lengths set", id="litlen"),
        pytest.param("distance", "invalid distances set", id="distance"),
    ],
)
def test_oversubscribed_code(code, zlib_message):
    stream = _oversubscribed_stream(code)
    with pytest.raises(zlib.error, match=zlib_message):
        zlib.decompress(stream)
    with pytest.raises(CorruptStreamError, match="oversubscribed Huffman code"):
        inflate(stream)


# transmission order is 16 17 18 0 8 7 9 6 10 5 11 4 12 3 13 2 14 1 15;
# give symbols 1 and 18 one bit each: canonical codes 1 -> 0, 18 -> 1
CL_ONE_AND_EIGHTEEN = [0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0]


def test_missing_end_of_block_code():
    p = _dynamic_header(CL_ONE_AND_EIGHTEEN)
    # litlen lengths: symbols 0 and 1 get one bit, everything else zero,
    # so the tree is complete but has no end-of-block code
    p.put_code_msb(0, 1)                 # length 1 for symbol 0
    p.put_code_msb(0, 1)                 # length 1 for symbol 1
    p.put_code_msb(1, 1).put(138 - 11, 7)  # 138 zeros
    p.put_code_msb(1, 1).put(118 - 11, 7)  # 118 zeros (255 litlen + 1 dist)
    with pytest.raises(CorruptStreamError):
        inflate(p.to_zlib())


def test_code_length_run_overflow():
    p = _dynamic_header(CL_ONE_AND_EIGHTEEN)
    p.put_code_msb(0, 1)
    p.put_code_msb(0, 1)
    p.put_code_msb(1, 1).put(138 - 11, 7)
    p.put_code_msb(1, 1).put(138 - 11, 7)  # 2 + 138 + 138 > 258 declared
    with pytest.raises(CorruptStreamError):
        inflate(p.to_zlib())


def test_repeat_with_no_previous_length():
    # transmission order gives symbol 16 one bit; 0 gets the other
    cl = [1, 0, 0, 1] + [0] * 15
    p = _dynamic_header(cl)
    p.put_code_msb(1, 1).put(0, 2)  # symbol 16 first: nothing to repeat
    with pytest.raises(CorruptStreamError):
        inflate(p.to_zlib())


def test_match_with_no_distance_code():
    # code-length code: symbol 18 -> 1 bit (code 0), symbols 0 and 1 -> 2 bits
    # (codes 10 and 11); litlen = {256: 1 bit, 257: 1 bit}, dist: all zero
    cl = [0] * 19
    cl[2] = 1   # symbol 18
    cl[3] = 2   # symbol 0
    cl[17] = 2  # symbol 1
    p = _dynamic_header(cl, hlit=258, hdist=1)
    p.put_code_msb(0, 1).put(138 - 11, 7)  # 138 zeros (litlen 0..137)
    p.put_code_msb(0, 1).put(118 - 11, 7)  # 118 zeros (litlen 138..255)
    p.put_code_msb(0b11, 2)                # litlen 256: length 1
    p.put_code_msb(0b11, 2)                # litlen 257: length 1
    p.put_code_msb(0b10, 2)                # dist 0: length 0 -> no distance code
    # block data: litlen symbol 257 (canonical code 1) = match length 3
    p.put_code_msb(1, 1)
    stream = p.to_zlib()
    # zlib takes the empty distance code and refuses the match that needs it
    with pytest.raises(zlib.error, match="invalid distance code"):
        zlib.decompress(stream)
    with pytest.raises(CorruptStreamError, match="invalid distance code"):
        inflate(stream)


@pytest.mark.parametrize(
    "codes, message",
    [
        pytest.param([(0b11000110, 8)], "invalid literal/length code", id="litlen-286"),
        pytest.param([(0b11000111, 8)], "invalid literal/length code", id="litlen-287"),
        pytest.param([(0b0000001, 7), (30, 5)], "invalid distance code", id="distance-30"),
        pytest.param([(0b0000001, 7), (31, 5)], "invalid distance code", id="distance-31"),
    ],
)
def test_reserved_fixed_symbols_are_invalid_codes(codes, message):
    # the fixed codes give lit/len 286-287 and distances 30-31 codes that
    # "will never actually occur" (RFC 1951 section 3.2.6); the distance
    # cases follow litlen 257 (code 0000001), a match of length 3
    p = BitPacker().put(1, 1).put(1, 2)  # final, fixed
    for code, nbits in codes:
        p.put_code_msb(code, nbits)
    stream = p.to_zlib()
    with pytest.raises(zlib.error, match=message):
        zlib.decompress(stream)
    with pytest.raises(CorruptStreamError, match=message):
        inflate(stream)


@pytest.mark.parametrize(
    "code, bits",
    [
        pytest.param("litlen", 1, id="1"),
        pytest.param("litlen", 2, id="2"),
        pytest.param("distance", 1, id="distance-1"),
        pytest.param("distance", 2, id="distance-2"),
    ],
)
def test_lone_end_of_block_code_is_read_as_zlib_reads_it(code, bits):
    # a code with one symbol is incomplete. zlib accepts it when the code is
    # 1 bit long and refuses it otherwise: the literal/length code as
    # end-of-block alone, or one distance code beside a lone 1-bit end-of-block
    eob_bits, dist_bits = (bits, 0) if code == "litlen" else (1, bits)
    cl = [0] * 19
    cl[2] = cl[3] = cl[15] = cl[17] = 2  # symbols 0, 1, 2, 18: codes 00, 01, 10, 11
    p = _dynamic_header(cl, hlit=257, hdist=1)
    p.put_code_msb(0b11, 2).put(138 - 11, 7)  # 138 zeros (litlen 0..137)
    p.put_code_msb(0b11, 2).put(118 - 11, 7)  # 118 zeros (litlen 138..255)
    p.put_code_msb(eob_bits, 2)            # litlen 256: length eob_bits
    p.put_code_msb(dist_bits, 2)           # dist 0: length dist_bits
    p.put_code_msb(0, eob_bits)            # end-of-block
    stream = p.to_zlib()[:-4] + adler32(b"").to_bytes(4, "big")
    if bits == 1:
        assert inflate(stream) == zlib.decompress(stream) == b""
    else:
        with pytest.raises(zlib.error):
            zlib.decompress(stream)
        with pytest.raises(CorruptStreamError, match="incomplete"):
            inflate(stream)


def test_single_distance_code_round_trips_everywhere():
    # only distance 2 is ever used: the distance tree has exactly one code
    blob = b"ab" * 600
    for level in (2, 3):
        stream = deflate_compress(blob, level)
        assert inflate(stream) == blob
        assert zlib.decompress(stream) == blob


# ---------------------------------------------------------------------------
# Huffman stage: block split, statistics and the array bit packer against
# per-op scalar references

# RFC 1951 section 3.2.5, written out apart from kpng.flate's own tables
LEN_BASES = [3, 4, 5, 6, 7, 8, 9, 10, 11, 13, 15, 17, 19, 23, 27, 31,
             35, 43, 51, 59, 67, 83, 99, 115, 131, 163, 195, 227, 258]
LEN_XBITS = [0] * 8 + [1] * 4 + [2] * 4 + [3] * 4 + [4] * 4 + [5] * 4 + [0]
DIST_BASES = [1, 2, 3, 4, 5, 7, 9, 13, 17, 25, 33, 49, 65, 97, 129, 193, 257, 385,
              513, 769, 1025, 1537, 2049, 3073, 4097, 6145, 8193, 12289, 16385, 24577]
DIST_XBITS = [0, 0, 0, 0] + [x for x in range(1, 14) for _ in (0, 1)]


def symbol_index(value, bases):
    return max(i for i, base in enumerate(bases) if base <= value)


def canonical_codes(lengths):
    """RFC 1951 section 3.2.2: each symbol's code as an MSB-first integer."""
    bl_count = [0] * 16
    for l in lengths:
        if l:
            bl_count[l] += 1
    next_code = [0] * 16
    code = 0
    for bits in range(1, 16):
        code = (code + bl_count[bits - 1]) << 1
        next_code[bits] = code
    codes = []
    for l in lengths:
        codes.append(next_code[l])
        if l:
            next_code[l] += 1
    return codes


def reversed_bits(value, nbits):
    """``value``'s low ``nbits`` bits in reverse order; 0 when nbits is 0."""
    return sum((value >> i & 1) << (nbits - 1 - i) for i in range(nbits))


def reference_block_bits(ops, lit_lengths, dist_lengths):
    """Scalar writer: each op's code and extra bits, then end-of-block."""
    lit_codes = canonical_codes(lit_lengths)
    dist_codes = canonical_codes(dist_lengths)
    p = BitPacker()
    for op in ops:
        if op < 256:
            p.put_code_msb(lit_codes[op], lit_lengths[op])
            continue
        length, dist = op >> 16, op & 0xFFFF
        li = symbol_index(length, LEN_BASES)
        p.put_code_msb(lit_codes[257 + li], lit_lengths[257 + li])
        p.put(length - LEN_BASES[li], LEN_XBITS[li])
        di = symbol_index(dist, DIST_BASES)
        p.put_code_msb(dist_codes[di], dist_lengths[di])
        p.put(dist - DIST_BASES[di], DIST_XBITS[di])
    p.put_code_msb(lit_codes[256], lit_lengths[256])
    return p.bits


def _packer_ops():
    rng = random.Random(6)
    # each length and distance symbol at its largest extra value; code 284
    # stops at 257 because 258 has code 285
    lengths = [b + (1 << x) - 1 for b, x in zip(LEN_BASES[:-2], LEN_XBITS[:-2])] + [257, 258]
    distances = [b + (1 << x) - 1 for b, x in zip(DIST_BASES, DIST_XBITS)]
    literals = list(range(256)) * 3
    rng.shuffle(literals)
    mixed = [rng.randrange(256) if rng.random() < 0.6
             else rng.randrange(3, 259) << 16 | rng.randrange(1, 32769) for _ in range(2000)]
    return {
        "literals": literals,
        "matches": [l << 16 | d for l in lengths for d in distances],
        "mixed": mixed,
    }


PACKER_OPS = _packer_ops()


CODELEN_ORDER = [16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15]


def reference_dynamic_header(final, lit_lengths, dist_lengths, cl_lengths):
    """Scalar writer of a dynamic block header (RFC 1951 section 3.2.7) for
    the given code lengths; the counts and the code-length runs are derived
    here from the lengths."""
    hlit = max(257, max(i for i, l in enumerate(lit_lengths) if l) + 1)
    hdist = max((i + 1 for i, l in enumerate(dist_lengths) if l), default=1)
    hclen = max(4, max(i for i, sym in enumerate(CODELEN_ORDER) if cl_lengths[sym]) + 1)
    cl_codes = canonical_codes(cl_lengths)
    p = BitPacker().put(final, 1).put(2, 2)
    p.put(hlit - 257, 5).put(hdist - 1, 5).put(hclen - 4, 4)
    for sym in CODELEN_ORDER[:hclen]:
        p.put(cl_lengths[sym], 3)
    for sym, xval, xbits in rle_code_lengths_reference(list(lit_lengths[:hlit]) + list(dist_lengths[:hdist])):
        p.put_code_msb(cl_codes[sym], cl_lengths[sym]).put(xval, xbits)
    return p.bits


def assert_written(w, bits):
    """``w`` holds exactly ``bits``: whole bytes in ``out``, the rest pending."""
    whole = len(bits) // 8 * 8
    want = bytes(sum(b << i for i, b in enumerate(bits[k : k + 8])) for k in range(0, whole, 8))
    assert bytes(w.out) == want
    assert (w.acc, w.cnt) == (sum(b << i for i, b in enumerate(bits[whole:])), len(bits) - whole)


@pytest.mark.parametrize("dynamic", [False, True], ids=["fixed", "dynamic"])
@pytest.mark.parametrize("kind", sorted(PACKER_OPS))
@pytest.mark.parametrize("pending", range(8))
def test_packer_matches_scalar_writer(pending, kind, dynamic):
    ops = PACKER_OPS[kind]
    pad = [7, 65, 3 << 16 | 1]  # ops on either side of the block, not written
    f = _op_fields(np.array(pad + ops + pad, np.int64))
    start, end = len(pad), len(pad) + len(ops)
    final = pending % 2
    if dynamic:
        plan = _DynamicPlan(*_block_stats(f, start, end))
        lit_lengths, dist_lengths = plan.lit_lengths, plan.dist_lengths
        head = reference_dynamic_header(final, lit_lengths, dist_lengths, plan.cl_lengths)
    else:
        plan = None
        lit_lengths, dist_lengths = _FIXED_LIT_LENGTHS, _FIXED_DIST_LENGTHS
        head = BitPacker().put(final, 1).put(1, 2).bits
    pending_bits = [random.Random(pending).randrange(2) for _ in range(pending)]
    w = _BitWriter(bytearray())
    w.pack(np.array(pending_bits, np.uint64), np.ones(pending, np.uint64))
    _emit_block(w, f, _Block(start, end, 0, 0, 2 if dynamic else 1, plan=plan), final)
    assert_written(w, pending_bits + head + reference_block_bits(ops, lit_lengths, dist_lengths))


@pytest.mark.parametrize("dynamic", [False, True], ids=["fixed", "dynamic"])
@pytest.mark.parametrize("cap", [1, 5, 64])
def test_emit_block_in_pieces_writes_the_same_bits(cap, dynamic, monkeypatch):
    # the ops go to pack at most _EMIT_OPS at a time; the pending bits carry
    # across each seam, so the bits equal the scalar writer's at any cap
    monkeypatch.setattr(flate, "_EMIT_OPS", cap)
    ops = PACKER_OPS["mixed"] + PACKER_OPS["matches"]
    f = _op_fields(np.array(ops, np.int64))
    if dynamic:
        plan = _DynamicPlan(*_block_stats(f, 0, len(ops)))
        lit_lengths, dist_lengths = plan.lit_lengths, plan.dist_lengths
        head = reference_dynamic_header(0, lit_lengths, dist_lengths, plan.cl_lengths)
    else:
        plan = None
        lit_lengths, dist_lengths = _FIXED_LIT_LENGTHS, _FIXED_DIST_LENGTHS
        head = BitPacker().put(0, 1).put(1, 2).bits
    w = _BitWriter(bytearray())
    w.pack(np.array([1, 0, 1], np.uint64), np.ones(3, np.uint64))
    _emit_block(w, f, _Block(0, len(ops), 0, 0, 2 if dynamic else 1, plan=plan), False)
    assert_written(w, [1, 0, 1] + head + reference_block_bits(ops, lit_lengths, dist_lengths))


def _emit_block_peak_bytes(nops: int) -> int:
    ops = np.array(random.Random(nops).choices(range(256), k=nops), np.int64)
    f = _op_fields(ops)
    block = _Block(0, nops, 0, 0, 2, plan=_DynamicPlan(*_block_stats(f, 0, nops)))
    tracemalloc.start()
    try:
        _emit_block(_BitWriter(bytearray()), f, block, True)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_emit_block_memory_does_not_grow_with_block():
    """Merged blocks may span the whole input. The packer's temporaries, a
    dozen uint64 per op it is given, stay bounded by _EMIT_OPS whatever the
    block; only the written stream grows, here about a byte per op."""
    small = _emit_block_peak_bytes(2 * _EMIT_OPS)
    large = _emit_block_peak_bytes(10 * _EMIT_OPS)
    assert large - small < 3 * 8 * _EMIT_OPS, (small, large)


@pytest.mark.parametrize("dynamic", [False, True], ids=["fixed", "dynamic"])
def test_inflate_decodes_every_length_and_distance_symbol(dynamic):
    # every length and distance symbol at its base and at its largest extra
    # value (49 lengths x 56 distances; code 284 stops at 257), after a 32 KiB
    # literal prefix so every distance reaches back into the output
    lengths = sorted({v for b, x in zip(LEN_BASES, LEN_XBITS) for v in (b, min(b + (1 << x) - 1, 257))} | {258})
    distances = sorted({v for b, x in zip(DIST_BASES, DIST_XBITS) for v in (b, b + (1 << x) - 1)})
    assert (len(lengths), len(distances)) == (49, 56)
    prefix = list(random.Random(11).randbytes(32768))
    matches = [(l, d) for l in lengths for d in distances]
    ops = prefix + [l << 16 | d for l, d in matches]
    want = lz77_expand([Literal(b) for b in prefix] + [Match(l, d) for l, d in matches])
    f = _op_fields(np.array(ops, np.int64))
    plan = _DynamicPlan(*_block_stats(f, 0, len(ops))) if dynamic else None
    w = _BitWriter(bytearray(b"\x78\x01"))
    _emit_block(w, f, _Block(0, len(ops), 0, 0, 2 if dynamic else 1, plan=plan), True)
    w.align()
    stream = bytes(w.out) + adler32(want).to_bytes(4, "big")
    assert inflate(stream) == zlib.decompress(stream) == want


def test_pack_writes_values_of_every_width():
    # successive calls carry the pending bits; widths reach 64, past the
    # 48-bit op values, so values span word boundaries at every offset
    rng = random.Random(8)
    w = _BitWriter(bytearray())
    p = BitPacker()
    for _ in range(20):
        widths = [rng.randrange(65) for _ in range(rng.randrange(50))]
        vals = [rng.getrandbits(n) for n in widths]
        w.pack(np.array(vals, np.uint64), np.array(widths, np.uint64))
        for v, n in zip(vals, widths):
            p.put(v, n)
    assert_written(w, p.bits)


def test_op_fields_of_every_literal_length_and_distance():
    # every byte as a literal, then each distance 1..32768 once, its length
    # cycling through 3..258, so every length comes 128 times
    dists = range(1, WINDOW_SIZE + 1)
    lengths = [3 + d % 256 for d in dists]
    ops = list(range(256)) + [l << 16 | d for l, d in zip(lengths, dists)]
    want = [(b, 0, 0, _NO_DIST, 0, 0, 1) for b in range(256)]
    for l, d in zip(lengths, dists):
        li = symbol_index(l, LEN_BASES)
        di = symbol_index(d, DIST_BASES)
        want.append((257 + li, l - LEN_BASES[li], LEN_XBITS[li], di, d - DIST_BASES[di], DIST_XBITS[di], l))
    f = _op_fields(np.array(ops, np.int64))
    assert [a.tolist() for a in f] == [list(col) for col in zip(*want)]


def test_block_stats_match_per_op_count():
    ops = PACKER_OPS["mixed"] + PACKER_OPS["matches"]
    lit_freq = [0] * 286
    dist_freq = [0] * 30
    extra = 0
    for op in ops:
        if op < 256:
            lit_freq[op] += 1
            continue
        li = symbol_index(op >> 16, LEN_BASES)
        di = symbol_index(op & 0xFFFF, DIST_BASES)
        lit_freq[257 + li] += 1
        dist_freq[di] += 1
        extra += LEN_XBITS[li] + DIST_XBITS[di]
    lit_freq[256] += 1
    f = _op_fields(np.array(ops, np.int64))
    stats = _block_stats(f, 0, len(ops))
    assert (stats.lit_freq.tolist(), stats.dist_freq.tolist(), stats.extra) == (lit_freq, dist_freq, extra)
    assert f.cover.tolist() == [1 if op < 256 else op >> 16 for op in ops]


def split_blocks_reference(cover):
    """Per-op loop: a block ends at the first op that brings it to
    _BLOCK_INPUT bytes or more."""
    blocks = []
    op_start = byte_start = pos = 0
    for idx, c in enumerate(cover):
        pos += c
        if pos - byte_start >= _BLOCK_INPUT:
            blocks.append((op_start, idx + 1, byte_start, pos))
            op_start = idx + 1
            byte_start = pos
    if op_start < len(cover) or not blocks:
        blocks.append((op_start, len(cover), byte_start, pos))
    return blocks


@pytest.mark.parametrize(
    "cover",
    [
        [],
        [1],
        [1] * (_BLOCK_INPUT - 1),
        [1] * _BLOCK_INPUT,
        [1] * (_BLOCK_INPUT + 1),
        [258] * 1000,
        [1] * (_BLOCK_INPUT - 1) + [258] + [1] * (_BLOCK_INPUT - 2),
        [random.Random(9).choice([1, 1, 3, 40, 258]) for _ in range(20000)],
    ],
    ids=["empty", "one", "just-under", "exact", "just-over", "long-matches", "overshoot", "random"],
)
def test_split_blocks_matches_per_op_loop(cover):
    assert _split_blocks(np.array(cover, np.uint16)) == split_blocks_reference(cover)


@pytest.mark.parametrize(
    "lengths",
    [
        _FIXED_LIT_LENGTHS,
        _FIXED_DIST_LENGTHS,
        [1, 1],
        [2, 1, 3, 3],
        [0, 4, 0, 2, 4, 4, 4, 3, 3, 0],
        [0, 0, 3],
        [0] * 19,
    ],
)
def test_decode_table_matches_per_index_fill(lengths):
    # every symbol decodes, then the last two are reserved, as the fixed
    # tables give lit/len 286-287 and distances 30-31 no meaning; the
    # all-zero code is the one-entry table [None]
    meanings = [(1000 + sym, sym % 14) for sym in range(len(lengths))]
    for nsym in (len(lengths), len(lengths) - 2):
        table, max_bits = _build_decode_table(lengths, meanings[:nsym], allow_incomplete=True)
        want = [None] * (1 << max_bits)
        for sym, (code, l) in enumerate(zip(canonical_codes(lengths), lengths)):
            if l and sym < nsym:
                value, xb = meanings[sym]
                for idx in range(reversed_bits(code, l), 1 << max_bits, 1 << l):
                    want[idx] = (value, l, xb)
        assert table == want


def test_codes_from_lengths_match_canonical_codes():
    # used symbols get their canonical code bit-reversed, unused ones 0; the
    # incomplete and empty codes are those inflate accepts
    cases = [_FIXED_LIT_LENGTHS, _FIXED_DIST_LENGTHS, [0, 0, 3], [1], [0, 1], [0] * 30, [*range(1, 16), 15]]
    cases += [_limited_code_lengths(np.array(freqs, np.int64), max_bits) for freqs, max_bits in _frequency_vectors()]
    for lengths in cases:
        lengths = np.array(lengths, np.int64)
        codes = _codes_from_lengths(lengths)
        assert codes.dtype == np.uint64
        want = [reversed_bits(code, l) for code, l in zip(canonical_codes(lengths.tolist()), lengths.tolist())]
        assert codes.tolist() == want


# ---------------------------------------------------------------------------
# Dynamic-code plan: package-merge and code-length RLE against the forms that
# carry every symbol explicitly


def limited_code_lengths_reference(freqs, max_bits):
    """Package-merge over (weight, symbol tuple) items: each package carries
    its symbols, and a symbol's length is how often the chosen items hold it."""
    singles = sorted((f, (s,)) for s, f in enumerate(freqs) if f > 0)
    lengths = [0] * len(freqs)
    if not singles:
        return lengths
    if len(singles) == 1:
        lengths[singles[0][1][0]] = 1
        return lengths
    groups = singles
    for _ in range(max_bits - 1):
        packaged = [(a[0] + b[0], a[1] + b[1]) for a, b in zip(groups[::2], groups[1::2])]
        groups = sorted(packaged + singles)
    for _, syms in groups[: 2 * (len(singles) - 1)]:
        for s in syms:
            lengths[s] += 1
    return lengths


def rle_code_lengths_reference(lengths):
    """Per-symbol run scan of RFC 1951 section 3.2.7 code lengths."""
    out = []
    i = 0
    while i < len(lengths):
        v = lengths[i]
        r = 1
        while i + r < len(lengths) and lengths[i + r] == v:
            r += 1
        i += r
        if v == 0:
            while r >= 11:
                out.append((18, min(r, 138) - 11, 7))
                r -= min(r, 138)
            if r >= 3:
                out.append((17, r - 3, 3))
                r = 0
        else:
            out.append((v, 0, 0))
            r -= 1
            while r >= 3:
                out.append((16, min(r, 6) - 3, 2))
                r -= min(r, 6)
        out += [(v, 0, 0)] * r
    return out


def _frequency_vectors():
    rng = random.Random(11)
    fib = [1, 1]
    while len(fib) < 30:
        fib.append(fib[-1] + fib[-2])
    vecs = [
        ([], 15),
        ([0] * 30, 15),
        ([0, 0, 5, 0], 15),  # one symbol
        ([3, 0, 3], 15),  # two, tied
        ([1, 7], 7),
        ([1] * 286, 15),  # every symbol tied
        ([1] * 128, 7),  # ties that exactly fill 7 bits
        (fib, 15),  # Fibonacci weights: the 15-bit limit binds
        (fib[:19], 7),
        (fib[:19][::-1], 7),
    ]
    for n, max_bits in [(19, 7), (30, 15), (286, 15)] * 40:
        used = rng.randrange(1, n + 1)
        top = rng.choice([2, 3, 10, 1000, 1 << 18])  # small tops make many ties
        freqs = [0] * n
        for s in rng.sample(range(n), used):
            freqs[s] = rng.randrange(1, top)
        vecs.append((freqs, max_bits))
    # the histograms of real blocks, at both dynamic levels
    for level in (2, 3):
        f = _op_fields(_tokenize_ops(b"".join(structured_inputs()), level == 3))
        for op_s, op_e, _, _ in _split_blocks(f.cover):
            stats = _block_stats(f, op_s, op_e)
            vecs += [(stats.lit_freq.tolist(), 15), (stats.dist_freq.tolist(), 15)]
    return vecs


@pytest.mark.parametrize("freqs,max_bits", _frequency_vectors())
def test_code_lengths_match_reference(freqs, max_bits):
    got = _limited_code_lengths(np.array(freqs, np.int64), max_bits)
    assert got.tolist() == limited_code_lengths_reference(freqs, max_bits)
    assert max(got, default=0) <= max_bits


def test_code_length_rle_matches_reference():
    rng = random.Random(12)
    cases = [[0] * n for n in (1, 2, 3, 10, 11, 138, 139, 149, 150, 300)]
    cases += [[5] * n for n in (1, 2, 3, 4, 7, 8, 9, 13, 300)]
    cases += [[rng.choice([0, 0, 0, 3, 4, 8]) * (rng.random() < 0.9) for _ in range(316)] for _ in range(50)]
    cases += [[rng.choice([0, 7]) for _ in range(rng.randrange(1, 60))] * rng.randrange(1, 8) for _ in range(50)]
    for lengths in cases:
        assert _rle_code_lengths(lengths) == rle_code_lengths_reference(lengths)


# ---------------------------------------------------------------------------
# Block merging: cost-based block boundaries at levels 2-3


def word_text(seed, n):
    """Words from a small vocabulary: the same statistics everywhere."""
    rng = random.Random(seed)
    vocab = [b"kpng", b"deflate", b"huffman", b"block", b"merge", b"scanline", b"paeth", b"zlib"]
    out = bytearray()
    while len(out) < n:
        out += rng.choice(vocab) + b" "
    return bytes(out[:n])


MERGE_INPUTS = {
    "uniform": word_text(1, 4 * _BLOCK_INPUT),
    "alternating": b"".join(
        word_text(i, _BLOCK_INPUT) if i % 2 == 0 else random.Random(i).randbytes(_BLOCK_INPUT) for i in range(4)
    ),
    # a random stretch that covers a whole 64 KiB cut, which is stored
    "stored-stretch": word_text(2, _BLOCK_INPUT) + random.Random(3).randbytes(2 * _BLOCK_INPUT + 1000)
    + word_text(4, _BLOCK_INPUT),
}


# a stream whose plan holds a stored block between dynamic ones
MERGE_STREAM_SHA256 = {
    ("stored-stretch", 3): "fbd6bfceebdc22ebb954f611e556c510a95d9f95fe828da4254872ad329f38fb",
}


@pytest.mark.parametrize("level", [2, 3])
@pytest.mark.parametrize("name", sorted(MERGE_INPUTS))
def test_block_merge_costs_no_more_than_the_64k_cut(name, level):
    data = MERGE_INPUTS[name]
    f = _op_fields(_tokenize_ops(data, level == 3))
    cut = [_priced_block(*span, _block_stats(f, span[0], span[1])) for span in _split_blocks(f.cover)]
    blocks = _plan_blocks(f)
    assert len(cut) >= 4
    # the blocks partition the ops and the input in order
    assert [(b.op_start, b.byte_start) for b in blocks] == [(0, 0)] + [(b.op_end, b.byte_end) for b in blocks[:-1]]
    assert (blocks[-1].op_end, blocks[-1].byte_end) == (len(f.cover), len(data))
    assert sum(b.bits for b in blocks) <= sum(b.bits for b in cut)
    if name == "uniform":
        assert len(blocks) == 1
    if name == "stored-stretch":
        assert 0 in [b.btype for b in blocks]

    stream = deflate_compress(data, level)
    if (name, level) in MERGE_STREAM_SHA256:
        assert hashlib.sha256(stream).hexdigest() == MERGE_STREAM_SHA256[name, level]
    assert zlib.decompress(stream) == data
    assert inflate(stream) == data
    # header, the planned bits (stored ones an upper bound) and the trailer
    assert len(stream) <= 2 + -(-sum(b.bits for b in blocks) // 8) + 4


# a text stretch, a random one, then text in other words: the content changes
# at bytes 50,001 and 120,004, off both the chunk grid and the 64 KiB cut
CHANGES = (50_001, 120_004)
TEXT_RANDOM_TEXT = word_text(5, CHANGES[0]) + random.Random(9).randbytes(CHANGES[1] - CHANGES[0]) + word_text(6, 45_007)


@pytest.mark.parametrize("level", [2, 3])
def test_plan_cuts_where_the_content_changes(level):
    data = TEXT_RANDOM_TEXT
    assert all(c % _CHUNK_INPUT and c % _BLOCK_INPUT for c in CHANGES)
    f = _op_fields(_tokenize_ops(data, level == 3))
    blocks = _plan_blocks(f)
    starts = [b.byte_start for b in blocks]
    assert all(min(abs(s - c) for s in starts) <= _CHUNK_INPUT for c in CHANGES), starts
    cut = [_priced_block(*span, _block_stats(f, span[0], span[1])) for span in _split_blocks(f.cover)]
    assert sum(b.bits for b in blocks) <= sum(b.bits for b in cut)
    stream = deflate_compress(data, level)
    assert zlib.decompress(stream) == data
    assert inflate(stream) == data


@pytest.mark.parametrize("level", [2, 3])
@pytest.mark.parametrize("data", [b"", b"k", b"png"])
def test_plan_of_tiny_inputs(data, level):
    f = _op_fields(_tokenize_ops(data, level == 3))
    (block,) = _plan_blocks(f)
    assert (block.op_start, block.op_end, block.byte_start, block.byte_end) == (0, len(f.sym), 0, len(data))
    stream = deflate_compress(data, level)
    assert zlib.decompress(stream) == data
    assert inflate(stream) == data


@pytest.mark.parametrize("level", [2, 3])
def test_chunk_sums_match_per_span_count(level):
    f = _op_fields(_tokenize_ops(TEXT_RANDOM_TEXT, level == 3))
    sums = _chunk_sums(f, [0, 70_000, 70_001])
    rng = random.Random(level)
    ends = np.cumsum(f.cover, dtype=np.int64)
    assert {70_000, 70_001} <= set(sums.op.tolist())
    assert sums.byte.tolist() == [int(ends[i - 1]) if i else 0 for i in sums.op.tolist()]
    for a, b in [(0, len(sums.op) - 1)] + [sorted(rng.sample(range(len(sums.op)), 2)) for _ in range(20)]:
        stats = _block_stats(f, sums.op[a], sums.op[b])
        freq = np.zeros(316, np.int64)
        freq[sums.cols] = sums.freq[b] - sums.freq[a]
        stats.lit_freq[256] -= 1  # _block_stats counts end-of-block
        assert freq.tolist() == stats.lit_freq.tolist() + stats.dist_freq.tolist()


def test_plan_builds_a_bounded_number_of_codes(monkeypatch):
    """Exact codes are built for the spans kept, the merges tried and the
    blocks of the 64 KiB cut only: a count, not a time."""
    built = []

    class CountingPlan(_DynamicPlan):
        __slots__ = ()

        def __init__(self, *stats):
            built.append(stats)
            super().__init__(*stats)

    monkeypatch.setattr(flate, "_DynamicPlan", CountingPlan)
    f = _op_fields(_tokenize_ops(TEXT_RANDOM_TEXT, True))
    blocks = _plan_blocks(f)
    assert len(_split_blocks(f.cover)) == 3
    assert len(blocks) == 5
    # five spans kept, no merge estimated near paying, three cut blocks
    assert len(built) == 8
    assert len(built) <= 2.25 * len(TEXT_RANDOM_TEXT) / _MIN_BLOCK + 1
