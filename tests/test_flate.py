import hashlib
import random
import zlib

import pytest
from hypothesis import given, settings, strategies as st

from kpng.errors import (
    ChecksumMismatchError,
    CorruptStreamError,
    DistanceTooFarError,
    ParameterError,
    TruncatedStreamError,
    ZlibHeaderError,
)
from kpng.flate import (
    Literal,
    Match,
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


@given(st.binary(max_size=2000))
def test_checksums_match_stdlib(blob):
    assert crc32(blob) == zlib.crc32(blob)
    assert adler32(blob) == zlib.adler32(blob)


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


# Levels 1-2 are greedy; only level 3 uses the lazy-search cutoffs, so the
# greedy levels' bytes are pinned.
GREEDY_LEVEL_SHA256 = {
    1: "1c41e596b391e31aab2e8685b54546ae121bc9541eec3c0a18362065b3846d1d",
    2: "7e29bccb271500b2f5904db881f979a4e4f147fb37089c29ea814b923f615ad9",
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


def test_inflate_rejects_empty():
    with pytest.raises(TruncatedStreamError):
        inflate(b"")


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


def test_oversubscribed_code_length_code():
    p = BitPacker()
    p.put(1, 1).put(2, 2)          # final, dynamic
    p.put(0, 5).put(0, 5).put(15, 4)  # HLIT=257, HDIST=1, HCLEN=19
    for _ in range(19):
        p.put(1, 3)                # nineteen 1-bit code lengths: oversubscribed
    with pytest.raises(CorruptStreamError):
        inflate(p.to_zlib())


def _dynamic_header(codelen_lengths, hlit=257, hdist=1):
    """Start a dynamic block with the given code counts and code-length-code
    lengths (list of 19 ints in transmission order)."""
    p = BitPacker()
    p.put(1, 1).put(2, 2)
    p.put(hlit - 257, 5).put(hdist - 1, 5).put(len(codelen_lengths) - 4, 4)
    for l in codelen_lengths:
        p.put(l, 3)
    return p


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
    with pytest.raises(CorruptStreamError, match="no distance code"):
        inflate(p.to_zlib())


def test_single_distance_code_round_trips_everywhere():
    # only distance 2 is ever used: the distance tree has exactly one code
    blob = b"ab" * 600
    for level in (2, 3):
        stream = deflate_compress(blob, level)
        assert inflate(stream) == blob
        assert zlib.decompress(stream) == blob
