import hashlib
import os
import random
import tempfile
import tracemalloc
import zlib
from unittest import mock

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
    _CHUNK_INPUT,
    _CRC_LANE,
    _CRC_MIN_LANES,
    _DEAD_TRIGGER,
    _EMIT_OPS,
    _FAR_LIMIT,
    _FIND_ROUNDS,
    _FIXED_DIST_LENGTHS,
    _FIXED_LIT_LENGTHS,
    _LINK_SEGMENT,
    _MIN_BLOCK,
    _NO_DIST,
    _NSYM,
    _SYM_FIXED_BITS,
    _SYM_XB,
    MAX_MATCH,
    MIN_MATCH,
    WINDOW_SIZE,
    Literal,
    Match,
    _BitWriter,
    _Block,
    _build_decode_table,
    _Parse,
    _clear_dead,
    _received,
    _rejoin,
    _send,
    _split_point,
    _tail_piece,
    _chunk_sums,
    _cost_cuts,
    _codes_from_lengths,
    _DynamicPlan,
    _emit_block,
    _estimated_bits,
    _limited_code_lengths,
    _op_fields,
    _ops_from_matches,
    _plan_blocks,
    _priced_block,
    _rle_code_lengths,
    _run_links,
    _stored_bits_upper,
    _tokenize_ops,
    adler32,
    crc32,
    deflate_compress,
    inflate,
    lz77_expand,
    lz77_tokenize,
)
from kpng.pngcodec import encode_png, parse_chunks

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


def ends_in_a_copy():
    """Random bytes whose last 258 are a copy of their first 258."""
    rng = random.Random(6)
    copy = rng.randbytes(MAX_MATCH)
    return copy + rng.randbytes(3000) + copy


TOKENIZE_INPUTS = {
    # below 3 bytes there is no key
    **{f"length-{n}": b"aaaa"[:n] for n in range(5)},
    # 49,152 bytes of 26 sample values: 865 positions last saw their key
    # more than a window back, so runs of literals cross the window floor
    "noise-k10": kmm_transform(generate(CorpusSpec("noise", 128, 128, seed=3)), 10).samples,
    # matches of 258 bytes, whose insides are on the chains the walks read
    "long-matches": b"\x00" * 1000 + random.Random(5).randbytes(300) * 3 + b"ab" * 400 + bytes(range(256)) * 4,
    "distance-32768": repeat_at(WINDOW_SIZE),
    "distance-32769": repeat_at(WINDOW_SIZE + 1),
    # 65,600 random bytes: no position past 64,353 has a link inside its
    # window, and no match ends past 64,356, so the last literal run crosses
    # the 64 KiB _LINK_SEGMENT edge and ends at the last key; 103 positions
    # are live, none of them a first-window position with no link
    "literal-run-across-a-segment": random.Random(1).randbytes(_LINK_SEGMENT + 64),
    # the last match is 258 bytes long and ends at the last byte
    "match-at-the-end": ends_in_a_copy(),
    # 12,288 samples of k=10 noise: the lazy parse clears its dead
    # positions after the walk at 1,790; 1,791 is lone, so a literal run
    # starts where the mask was just built and goes over 1,795, which the
    # build cleared
    "noise-k10-mask-mid-run": kmm_transform(generate(CorpusSpec("noise", 64, 64, seed=1)), 10).samples,
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
    ("literal-run-across-a-segment", False): "ba918cfab8a4e2538c9625f6caf337f72c04a4ba5bea11af21fe54a34f7d5a69",
    ("literal-run-across-a-segment", True): "397c94d0c46ae8794507a5581d83f7cbe184114edc6249f03f4676eacb0395ef",
    ("long-matches", False): "7d9b1ab2341eca8aaffce6f790d152172117f8b1c70a7b8ab397e71aceae9754",
    ("long-matches", True): "7d9b1ab2341eca8aaffce6f790d152172117f8b1c70a7b8ab397e71aceae9754",
    ("match-at-the-end", False): "af18c98559b36eea09fd2644b5c701604180d503d3b11bd355a297f8d8a904b1",
    ("match-at-the-end", True): "af18c98559b36eea09fd2644b5c701604180d503d3b11bd355a297f8d8a904b1",
    ("noise-k10", False): "ce49d3338575a5f1d1e87eead3cc20643d1eaa5a355103ee00366ac3a937cc17",
    ("noise-k10", True): "4c7906d0fe5f5a54614b1301570edf6eb38e9819ab36086aa4a416d246b367f6",
    ("noise-k10-mask-mid-run", False): "c69003f18fce21191ca2a25f51a0aa351b050a6b7c9151f7bf5f906921c9b8f3",
    ("noise-k10-mask-mid-run", True): "280cd13f2b3619f5dc715046b7d832ee8ce7948e93832725e9c268ebffd8308b",
}


@pytest.mark.parametrize("name, lazy", sorted(TOKENIZE_OPS_SHA256))
def test_tokenize_ops_are_pinned(name, lazy):
    data = TOKENIZE_INPUTS[name]
    ops = _tokenize_ops(data, lazy)
    assert hashlib.sha256(ops.tobytes()).hexdigest() == TOKENIZE_OPS_SHA256[name, lazy]
    tokens = [Literal(op) if op < 256 else Match(op >> 16, op & 0xFFFF) for op in ops.tolist()]
    assert lz77_expand(tokens) == data


def recorded_matches(ops):
    """The parse's record of an op array: each match as ``start << 25 |
    op``, where ``start`` is the input position it copies to."""
    matches, pos = [], 0
    for op in ops.tolist():
        if op > 255:
            matches.append(pos << 25 | op)
            pos += op >> 16
        else:
            pos += 1
    return matches


@pytest.mark.parametrize("name, lazy", sorted(TOKENIZE_OPS_SHA256))
def test_ops_from_matches_rebuild_the_op_array(name, lazy):
    data = TOKENIZE_INPUTS[name]
    ops = _tokenize_ops(data, lazy)
    assert _ops_from_matches(data, recorded_matches(ops)).tolist() == ops.tolist()


def test_ops_from_matches_at_the_edges():
    # no match, matches only, matches back to back and one at each end
    assert _ops_from_matches(b"", []).tolist() == []
    assert _ops_from_matches(b"xyz", []).tolist() == list(b"xyz")
    run = b"a" * 520
    both = [1 << 25 | MAX_MATCH << 16 | 1, (1 + MAX_MATCH) << 25 | 3 << 16 | 1]
    assert _ops_from_matches(run[:262], both).tolist() == [97, MAX_MATCH << 16 | 1, 3 << 16 | 1]
    assert _ops_from_matches(run[:263], both).tolist() == [97, MAX_MATCH << 16 | 1, 3 << 16 | 1, 97]


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
# the hash chain links, built in numpy from one sort of the key runs


def chain_links_reference(data, width=3):
    """The links of ``width``-byte keys by a dict of each key's latest
    position, -1 once that position is more than a window back."""
    latest = {}
    prev = [-1] * len(data)
    for i in range(len(data) - width + 1):
        key = data[i : i + width]
        p = latest.get(key, -1)
        prev[i] = p if i - p <= WINDOW_SIZE else -1
        latest[key] = i
    return prev


def chain_links(data):
    """``prev`` and ``live`` of a parse from the start that linked every
    position with a key."""
    p = _Parse(data, True)
    p.link(p.limit)
    return p.prev, p.live


def windowed_links(data, width=3):
    """``chain_links``' ``prev``, or for ``width`` 4 the ``_run_links`` of
    each ``_LINK_SEGMENT`` as ``_clear_dead`` builds them, each link more
    than a window back read as -1, as a walk reads it; -1 at the positions
    with no key, whose links are not built."""
    prev = np.full(len(data), -1, np.int64)
    if width == 3:
        links, live = chain_links(data)
        prev[: len(live)] = np.asarray(links)[: len(live)]
    else:
        for a in range(0, len(data) - 3, _LINK_SEGMENT):
            b = min(a + _LINK_SEGMENT, len(data) - 3)
            prev[a:b] = _run_links(data, a, b, 4)
    return np.where(prev < np.arange(len(prev)) - WINDOW_SIZE, -1, prev).tolist()


# the key runs of a segment can end exactly at its edge, one before or one
# after it; a segment of n - 2 positions ends at n - 2
CHAIN_LENGTHS = list(range(6)) + [
    WINDOW_SIZE - 1, WINDOW_SIZE, WINDOW_SIZE + 1,
    _LINK_SEGMENT + 1, _LINK_SEGMENT + 2, _LINK_SEGMENT + 3,
    _LINK_SEGMENT + WINDOW_SIZE + 2, 2 * _LINK_SEGMENT + 2,
]


@pytest.mark.parametrize("values", [1, 2, 4, 26, 256])
@pytest.mark.parametrize("n", CHAIN_LENGTHS)
def test_chain_links_match_a_dict_reference(n, values):
    # one value makes one run of keys across every segment; two and four
    # make runs that cross segment edges; 26 and 256 keys that recur
    # inside and beyond a window
    data = bytes(random.Random(n * 257 + values).choices(range(values), k=n))
    assert windowed_links(data) == chain_links_reference(data)


@pytest.mark.parametrize("n", CHAIN_LENGTHS)
def test_4_byte_links_match_a_dict_reference(n):
    # 26 values: 4-byte keys recur both inside and beyond a window apart
    data = bytes(random.Random(n).choices(range(26), k=n))
    assert windowed_links(data, 4) == chain_links_reference(data, 4)


@pytest.mark.parametrize("name", sorted(TOKENIZE_INPUTS))
def test_chain_links_match_a_dict_reference_on_pinned_inputs(name):
    data = TOKENIZE_INPUTS[name]
    assert windowed_links(data) == chain_links_reference(data)


def test_chain_links_reach_exactly_one_window_back():
    # the marker's second copy links to its first at WINDOW_SIZE; one byte
    # farther the link is past the window, as a walk reads it; so for
    # 4-byte keys
    for width in (3, 4):
        assert windowed_links(repeat_at(WINDOW_SIZE), width)[WINDOW_SIZE] == 0
        assert windowed_links(repeat_at(WINDOW_SIZE + 1), width)[WINDOW_SIZE + 1] == -1


@pytest.mark.parametrize("n", CHAIN_LENGTHS)
def test_live_mask_marks_every_position_whose_walk_runs(n):
    # a position is live where it has a link inside its window; a position
    # in the first window with no link is lone
    data = bytes(random.Random(n).choices(range(26), k=n))
    prev, live = chain_links(data)
    limit = max(n - 2, 0)
    floor = np.maximum(np.arange(limit) - WINDOW_SIZE, 0)
    assert list(live) == (np.asarray(prev)[:limit] >= floor).astype(int).tolist()


def test_first_window_positions_with_no_link_are_lone():
    # random bytes: 32,739 first-window positions have no link and are lone,
    # so only 103 positions are live
    live = chain_links(TOKENIZE_INPUTS["literal-run-across-a-segment"])[1]
    assert live.count(1) == 103


def peak_traced_bytes(build):
    tracemalloc.start()
    try:
        build()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_chain_links_temporaries_stay_bounded():
    """Each sort's temporaries are bounded by a segment and its window,
    whatever the input's size: random bytes, where nearly every position
    ends a run of keys, hold under 6 MiB at 256 KiB and at 2 MiB, beyond
    the int32 ``prev`` and the ``live`` byte per position; the keys are
    views of the data, and only the last segment copies its tail. So does
    ``_clear_dead``'s 4-byte build of every position."""
    rng = random.Random(11)
    for data in (rng.randbytes(4 * _LINK_SEGMENT), rng.randbytes(32 * _LINK_SEGMENT)):
        links = peak_traced_bytes(lambda: chain_links(data)) - 5 * len(data)
        prev, live = chain_links(data)
        dead = peak_traced_bytes(lambda: _clear_dead(data, live, prev, 0, _FAR_LIMIT[3]))
        assert links <= 6 << 20 and dead <= 6 << 20, (len(data), links, dead)


# ---------------------------------------------------------------------------
# level 3's window search once its chain walk runs out


def copy_inside_a_long_match():
    """A random 400-byte block, its copy, 40 decoys and the block's tail from
    byte 100, and the tail's distance to the copy. The copy is coded as two
    long matches, and its byte 100 is on the hash chain behind the decoys;
    each decoy starts with the block's bytes 100-102, so 40 of them fill
    level 3's 32-link walk before it reaches the copy."""
    rng = random.Random(1)
    block = rng.randbytes(400)
    decoys = b"".join(block[100:103] + rng.randbytes(5) for _ in range(40))
    data = block + block + decoys + block[100:]
    return data, len(decoys) + 300


class RfindSpy(bytes):
    """Bytes that record each ``rfind`` call as (needle, start, end, hit)."""

    def __init__(self, data):
        self.calls = []

    def rfind(self, needle, start, end):
        hit = super().rfind(needle, start, end)
        self.calls.append((bytes(needle), start, end, hit))
        return hit


def spied_lazy_ops(data):
    spy = RfindSpy(data)
    return _tokenize_ops(spy, True), spy.calls


def check_search_rounds(data, calls):
    """Each rfind call is a position's first round or the next round of the
    same position. A first round at position i asks for the bytes at i, one
    more than the walk's best, in the window up to i - 1. A next round asks
    for one byte more than the last hit matched, and only below that hit, so
    the rounds of a position scan each window byte once at most."""
    i = prev_hit = prev_start = -1
    rounds = 0
    for needle, start, end, hit in calls:
        last = end - len(needle)  # the nearest candidate the scan reads
        if last >= i and data[last + 1 : end + 1] == needle:
            i, rounds = last + 1, 1
            assert start == max(0, i - WINDOW_SIZE)
            assert len(needle) > MIN_MATCH
        else:
            rounds += 1
            held = len(needle) - 1
            assert 0 <= prev_hit and last == prev_hit - 1 and start == prev_start
            assert needle == data[i : i + held + 1]
            assert data[prev_hit : prev_hit + held] == needle[:held] and data[prev_hit + held] != needle[held]
        assert rounds <= _FIND_ROUNDS
        assert len(needle) <= MAX_MATCH
        prev_hit, prev_start = hit, start


def k10_scanlines(kind, size, seed=1):
    img = kmm_transform(generate(CorpusSpec(kind, size, size, seed=seed)), 10)
    return inflate(b"".join(c.data for c in parse_chunks(encode_png(img)) if c.type_code == b"IDAT"))


def lossless_scanlines(kind, size, seed=1):
    img = generate(CorpusSpec(kind, size, size, seed=seed))
    return inflate(b"".join(c.data for c in parse_chunks(encode_png(img)) if c.type_code == b"IDAT"))


# inputs on which level 3's walk runs out holding a match, so it searches
_search_rng = random.Random(24)
SEARCH_INPUTS = {
    "copy-inside-a-long-match": copy_inside_a_long_match()[0],
    "flat-shapes-k10": k10_scanlines("flat-shapes", 128),
    "three-values": bytes(_search_rng.randrange(3) for _ in range(40_000)),
    "four-values": structured_inputs()[-1],
    "runs-that-grow": b"".join(bytes([k % 7]) * k for k in range(1, 300)),
}


def test_lazy_parse_finds_a_copy_inside_a_long_match():
    data, distance = copy_inside_a_long_match()
    ops, calls = spied_lazy_ops(data)
    assert ops.tolist()[-2] == MAX_MATCH << 16 | distance
    check_search_rounds(data, calls)
    # the decoys spend level 3's 32 links, so the window search found it
    assert len(data) - 300 - distance in [hit for *_, hit in calls]
    # the greedy 128-link walk passes the 40 decoys and reaches the copy
    assert _tokenize_ops(data, False).tolist()[-2] == MAX_MATCH << 16 | distance


def test_lazy_parse_copies_the_row_above_on_flat_shapes():
    # 128 rows of 385 bytes: a filter byte and 128 RGB pixels. A 256-link
    # chain walk with no window search found 18 matches at the row's
    # distance, covering 4,362 bytes; with the inside of a long match off
    # every chain, the walk and the window search found 66 covering 16,771
    data = SEARCH_INPUTS["flat-shapes-k10"]
    assert len(data) == 128 * 385
    matches = _tokenize_ops(data, True)
    matches = matches[matches > 255]
    above = matches[matches & 0xFFFF == 385] >> 16
    assert (len(above), int(above.sum())) == (71, 17_772)


@pytest.mark.parametrize("name", sorted(SEARCH_INPUTS))
def test_lazy_search_keeps_the_window_and_far_limits(name):
    data = SEARCH_INPUTS[name]
    ops, calls = spied_lazy_ops(data)
    assert calls
    check_search_rounds(data, calls)
    tokens = [Literal(op) if op < 256 else Match(op >> 16, op & 0xFFFF) for op in ops.tolist()]
    assert lz77_expand(tokens) == data
    assert far_short_matches(tokens) == []
    stream = deflate_compress(data, 3)
    assert zlib.decompress(stream) == data
    assert inflate(stream) == data


def test_only_the_lazy_parse_searches_the_window():
    # the greedy parse walks its chain only
    for data in SEARCH_INPUTS.values():
        spy = RfindSpy(data)
        _tokenize_ops(spy, False)
        assert spy.calls == []


# ---------------------------------------------------------------------------
# level 3 skips the walk at a position with no 4-byte copy in its window


def no_copy4_cleared(data, lo):
    """``live`` after ``_clear_dead`` from ``lo`` with a far limit of 0, so
    that it clears every position with no copy of its 4 bytes in its
    window."""
    prev, live = chain_links(data)
    live[:] = b"\1" * len(live)
    _clear_dead(data, live, prev, lo, 0)
    return list(live)


def no_copy4_reference(data, lo):
    """``no_copy4_cleared`` by a dict of each 4-byte key's latest position."""
    links = chain_links_reference(data, 4)
    return [int(i < lo or i == len(data) - 3 or links[i] >= 0) for i in range(max(len(data) - 2, 0))]


@pytest.mark.parametrize("lo", [0, 1, WINDOW_SIZE + 1])
@pytest.mark.parametrize(
    "n", [0, 3, 4, 5, _LINK_SEGMENT - 1, _LINK_SEGMENT + 4, _LINK_SEGMENT + WINDOW_SIZE + 4, 2 * _LINK_SEGMENT + 4]
)
def test_no_copy4_matches_a_dict_reference(n, lo):
    # 26 values: 4-byte keys recur both inside and beyond a window apart
    data = bytes(random.Random(n).choices(range(26), k=n))
    assert no_copy4_cleared(data, lo) == no_copy4_reference(data, lo)


def test_no_copy4_reaches_exactly_one_window_back():
    # the 4-byte marker's second copy sees its first at WINDOW_SIZE, not
    # one byte farther
    assert no_copy4_cleared(repeat_at(WINDOW_SIZE, 4), 0)[WINDOW_SIZE]
    assert not no_copy4_cleared(repeat_at(WINDOW_SIZE + 1, 4), 0)[WINDOW_SIZE + 1]


def test_clear_dead_keeps_positions_with_a_near_link():
    # far = _FAR_LIMIT[3] clears only the positions with no 4-byte copy
    # whose link is farther than that
    data = bytes(random.Random(3).choices(range(26), k=3 * _LINK_SEGMENT))
    prev, live = chain_links(data)
    before = list(live)
    _clear_dead(data, live, prev, 0, _FAR_LIMIT[3])
    no_copy = [not kept for kept in no_copy4_reference(data, 0)]
    far = np.arange(len(live)) - np.asarray(prev)[: len(live)] > _FAR_LIMIT[3]
    assert list(live) == [int(b and not (d and f)) for b, d, f in zip(before, no_copy, far.tolist())]


def lazy_ops_with_trigger(data, trigger):
    """Level 3's ops with the mask built after ``trigger`` fruitless walks,
    and the positions ``_clear_dead`` was called from."""
    built = []

    def spy(data, live, prev, lo, far):
        built.append(lo)
        _clear_dead(data, live, prev, lo, far)

    with mock.patch.object(flate, "_DEAD_TRIGGER", trigger), mock.patch.object(flate, "_clear_dead", spy):
        return _tokenize_ops(data, True), built


def assert_mask_keeps_the_parse(data):
    masked, _ = lazy_ops_with_trigger(data, 1)
    plain, built = lazy_ops_with_trigger(data, 1 << 62)
    assert built == []
    assert masked.tolist() == plain.tolist()


@given(st.sampled_from([2, 4, 26, 256]), st.integers(0, 6000), st.integers(0, 2**32))
@settings(max_examples=60)
def test_mask_keeps_the_parse_on_random_data(values, n, seed):
    assert_mask_keeps_the_parse(bytes(random.Random(seed).choices(range(values), k=n)))


@pytest.mark.parametrize("n", list(range(6)) + [WINDOW_SIZE - 1, WINDOW_SIZE, WINDOW_SIZE + 1,
                                              _LINK_SEGMENT - 1, _LINK_SEGMENT, _LINK_SEGMENT + 1])
def test_mask_keeps_the_parse_across_window_and_segment_edges(n):
    data = bytes(random.Random(n).choices(range(26), k=n))
    assert_mask_keeps_the_parse(data)
    if n > 5:
        assert lazy_ops_with_trigger(data, 1)[1]  # the masked path ran


@pytest.mark.parametrize("name", sorted(TOKENIZE_INPUTS))
def test_mask_keeps_the_parse_on_pinned_inputs(name):
    assert_mask_keeps_the_parse(TOKENIZE_INPUTS[name])


def test_flat_shapes_never_build_the_mask():
    # the pinned flat-shapes image at k=10: its walks that start past
    # _FAR_LIMIT[3] find nothing only a few times, far below the trigger
    img = kmm_transform(generate(CorpusSpec("flat-shapes", seed=1)), 10)
    with mock.patch.object(flate, "_clear_dead", side_effect=AssertionError("mask built")) as builder:
        encode_png(img)
    builder.assert_not_called()


def test_noise_k10_builds_the_mask_mid_run():
    # the walk at 1,790 is the trigger's last miss; 1,791 is lone, and the
    # literal run from it ends at 1,796, past 1,795, which the build cleared
    runs = []

    def spy(data, live, prev, lo, far):
        before = live.find(1, lo)
        _clear_dead(data, live, prev, lo, far)
        runs.append((lo, live[lo], before, live.find(1, lo)))

    with mock.patch.object(flate, "_clear_dead", spy):
        _tokenize_ops(TOKENIZE_INPUTS["noise-k10-mask-mid-run"], True)
    assert runs == [(1791, 0, 1795, 1796)]


def lazy_parse_peak_bytes(data, trigger):
    """The tracemalloc peak of level 3's parse: the greater of the serial
    parse's and, where the gate splits the input, of each piece of the
    two-process parse. tracemalloc does not see a forked child, so both
    pieces run in process, one after the other (``piece_peak_bytes``)."""
    with mock.patch.object(flate, "_DEAD_TRIGGER", trigger):
        with mock.patch.object(flate, "_two_cpus", return_value=False):
            serial = peak_traced_bytes(lambda: _tokenize_ops(data, True))
        with mock.patch.object(flate, "_two_cpus", return_value=True):
            mid = _split_point(_Parse(data, True))
            return max(serial, *piece_peak_bytes(data, mid)) if mid else serial


def piece_peak_bytes(data, mid):
    """The tracemalloc peaks of the two pieces of level 3's parse split at
    ``mid``, each run in process as its process runs it: the child's, from
    its links to what it writes to its pipe (a file here), and the
    parent's, from the gate's parse through reading the child's piece back
    to the op array, which must be the serial one."""
    ops = []

    def parent():
        p = _Parse(data, True)
        assert _split_point(p) == mid
        p.link(mid)
        p.run(mid)
        matches = _rejoin(p, *_received(fd))
        del p
        ops.append(_ops_from_matches(data, matches))

    with tempfile.TemporaryFile() as f:
        fd = f.fileno()
        child = peak_traced_bytes(lambda: _send(fd, *_tail_piece(data, True, mid)))
        os.lseek(fd, 0, os.SEEK_SET)
        head = peak_traced_bytes(parent)
    with mock.patch.object(flate, "_two_cpus", return_value=False):
        assert ops[0].tolist() == _tokenize_ops(data, True).tolist()
    return child, head


def test_mask_adds_at_most_2_mib_to_the_parse():
    """The mask is a byte per position, and each sort's temporaries are
    bounded by a segment and its window, whatever the input's size."""
    data = k10_scanlines("mixed", 512)
    assert lazy_ops_with_trigger(data, flate._DEAD_TRIGGER)[1]
    masked = lazy_parse_peak_bytes(data, flate._DEAD_TRIGGER)
    plain = lazy_parse_peak_bytes(data, 1 << 62)
    assert masked - plain <= 2 << 20, (masked, plain)


# level 3's peak bytes on k10_scanlines(kind, 512) when the parse stepped
# through each literal run in Python and kept every op as a Python int
# (tracemalloc, Python 3.11, numpy 2.4)
STEPPED_PARSE_PEAK_BYTES = {"flat-shapes": 5_159_942, "mixed": 7_281_436, "noise": 17_172_704}


@pytest.mark.parametrize("kind", sorted(STEPPED_PARSE_PEAK_BYTES))
def test_live_mask_adds_at_most_a_byte_per_position(kind):
    """The live mask is one byte per position; the op array is built once
    the links and the mask are freed, with temporaries the size of the op
    count, so no content peaks higher than that above the stepped parse."""
    data = k10_scanlines(kind, 512)
    peak = lazy_parse_peak_bytes(data, flate._DEAD_TRIGGER)
    assert peak <= STEPPED_PARSE_PEAK_BYTES[kind] + len(data), peak


# ---------------------------------------------------------------------------
# the two-process parse: a tail piece from mid, started cold, and a parent
# piece that parses on to the first loop state the tail passed


def two_piece_ops(data, lazy, mid):
    """Both pieces of the parse split at ``mid``, run in process: the op
    array, and the position where the parent piece re-joined the tail, or
    the end of the input if it did not."""
    tail = _tail_piece(data, lazy, mid)
    p = _Parse(data, lazy)
    p.link(mid)
    p.run(mid)
    matches = _rejoin(p, *tail)
    return _ops_from_matches(data, matches), min(p.state[0], len(data))


def piece_input(kind, n, seed):
    """``n`` bytes of ``kind``: random bytes of that many values, or runs of
    one byte, whose 258-byte matches re-align only where the runs end."""
    rng = random.Random(seed)
    if kind == "runs":
        return b"".join(bytes([rng.randrange(4)]) * rng.randrange(1, 1500) for _ in range(n // 200 + 1))[:n]
    return bytes(rng.choices(range(kind), k=n))


@given(st.sampled_from(["runs", 2, 4, 26, 256]), st.integers(0, 6000), st.integers(0, 2**32),
       st.floats(0, 1), st.sampled_from([1, 2, 3]), st.sampled_from([1, _DEAD_TRIGGER]))
@settings(max_examples=80, deadline=None)
def test_two_pieces_give_the_serial_parse(kind, n, seed, split, level, trigger):
    # at any split point, at every level, with the dead positions cleared
    # early or not, re-joined or not
    data = piece_input(kind, n, seed)
    with mock.patch.object(flate, "_DEAD_TRIGGER", trigger):
        ops, _ = two_piece_ops(data, level == 3, round(split * n))
        assert ops.tolist() == _tokenize_ops(data, level == 3).tolist()


@pytest.mark.parametrize("lazy", [False, True])
@pytest.mark.parametrize("data, mid", [
    # one byte 5,000 times: the tail's 258-byte matches start 100 bytes off
    # the serial ones, and both end at the input's end
    (b"a" * 5000, 101 + 258 * 6),
    # split at the end, the tail piece is empty
    (random.Random(2).randbytes(3000), 3000),
])
def test_two_pieces_that_never_rejoin_give_the_serial_parse(data, mid, lazy):
    ops, joined_at = two_piece_ops(data, lazy, mid)
    assert joined_at == len(data)
    assert ops.tolist() == _tokenize_ops(data, lazy).tolist()


@pytest.mark.parametrize("lazy", [False, True])
def test_two_pieces_rejoin_near_the_split(lazy):
    # lossless mixed content re-aligns a few bytes past the split
    data = lossless_scanlines("mixed", 256)
    mid = len(data) // 2
    ops, joined_at = two_piece_ops(data, lazy, mid)
    assert mid <= joined_at < mid + 300
    assert ops.tolist() == _tokenize_ops(data, lazy).tolist()


class ForkSpy:
    """``os.fork`` that records the pid of each child it starts."""

    def __init__(self):
        self.pids = []
        self.fork = os.fork

    def __call__(self):
        pid = self.fork()
        if pid:
            self.pids.append(pid)
        return pid


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture(scope="module")
def mixed_512():
    return lossless_scanlines("mixed", 512)


def test_two_process_parse_gives_the_serial_bytes(mixed_512):
    # 786,944 bytes of lossless mixed content take the fork path on two
    # CPUs, and the stream is the serial one
    spy = ForkSpy()
    with mock.patch.object(flate.os, "sched_getaffinity", return_value={0, 1}), \
            mock.patch.object(flate.os, "fork", spy):
        two = deflate_compress(mixed_512, 3)
    assert len(spy.pids) == 1
    assert_no_child_left()
    with mock.patch.object(flate.os, "sched_getaffinity", return_value={0}), \
            mock.patch.object(flate.os, "fork", side_effect=AssertionError("forked on one CPU")):
        serial = deflate_compress(mixed_512, 3)
    assert two == serial


def test_a_parent_that_raises_mid_parse_kills_and_reaps_its_child(mixed_512):
    parent = os.getpid()
    spy = ForkSpy()
    run = _Parse.run

    def failing_run(self, stop, record=None, join=None):
        if os.getpid() == parent and spy.pids:
            raise RuntimeError("the parent fails mid-parse")
        return run(self, stop, record, join)

    with mock.patch.object(flate.os, "sched_getaffinity", return_value={0, 1}), \
            mock.patch.object(flate.os, "fork", spy), mock.patch.object(_Parse, "run", failing_run), \
            pytest.raises(RuntimeError, match="mid-parse"):
        _tokenize_ops(mixed_512, True)
    assert len(spy.pids) == 1
    assert_no_child_left()
    with pytest.raises(ProcessLookupError):
        os.kill(spy.pids[0], 0)


def test_a_failed_child_leaves_the_parent_to_parse_the_rest(mixed_512):
    # the child ends before it writes its piece; the parent parses on alone
    with mock.patch.object(flate.os, "sched_getaffinity", return_value={0, 1}), \
            mock.patch.object(flate, "_tail_piece", side_effect=RuntimeError("the child fails")):
        ops = _tokenize_ops(mixed_512, True)
    assert_no_child_left()
    with mock.patch.object(flate, "_two_cpus", return_value=False):
        assert ops.tolist() == _tokenize_ops(mixed_512, True).tolist()


def test_a_parse_stops_at_the_first_state_it_shares_with_join():
    # join holds states the parse never passes, before, between and after
    # the two it does; the cursor steps over them to the first shared one
    data = lossless_scanlines("mixed", 128)
    states = []
    whole = _Parse(data, True)
    whole.link(whole.limit)
    whole.run(len(data), record=states)
    passed = states[0::2]
    join = sorted({passed[100] - 1, passed[200] + 1, passed[300], passed[400], (len(data) + 5) << 25})
    p = _Parse(data, True)
    p.link(p.limit)
    at = p.run(len(data), join=memoryview(np.array(join, np.int64)))
    assert join[at] == passed[300]
    assert p.state[0] << 25 | p.state[1] << 16 | p.state[2] == passed[300]


def test_the_gate_keeps_inputs_below_the_split_minimum_serial():
    # 196,864 bytes of lossless mixed content step often enough to split,
    # but below _SPLIT_MIN the fork costs about what the split saves
    data = lossless_scanlines("mixed", 256)
    assert len(data) < flate._SPLIT_MIN
    with mock.patch.object(flate, "_two_cpus", return_value=True):
        assert _split_point(_Parse(data, True)) is None
        with mock.patch.object(flate, "_SPLIT_MIN", len(data)):
            assert _split_point(_Parse(data, True)) is not None


@pytest.mark.parametrize("lazy", [False, True])
def test_the_gate_keeps_flat_k10_shapes_serial(lazy):
    # about 390 loop steps in the first eighth of 786,944 bytes, below one
    # per _SPLIT_STEP_BYTES; lossless mixed content takes the split
    with mock.patch.object(flate, "_two_cpus", return_value=True):
        assert _split_point(_Parse(k10_scanlines("flat-shapes", 512), lazy)) is None
        assert _split_point(_Parse(lossless_scanlines("mixed", 512), lazy)) is not None
    with mock.patch.object(flate.os, "sched_getaffinity", return_value={0, 1}), \
            mock.patch.object(flate.os, "fork", side_effect=AssertionError("forked")):
        _tokenize_ops(k10_scanlines("flat-shapes", 512), lazy)


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
    1: "c577e291d85ac215374efc81925d7bda407fb66712521f6a1d49e1a454137dd4",
    2: "85e6b5dedb80421420ce55a914f5df560dd97f35aa7cbd93e7b8f5b3c50c757c",
    3: "c7d0cebc44d49f51cc8b3a2bb3cfea8beee47e72611d9c7b2b5997b2f66be301",
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
    zeros = bytes(69_536)  # at level 1, one fixed block of 258-byte matches
    # a non-final dynamic block, then a second dynamic header to cut inside
    c = zlib.compressobj(9)
    synced = c.compress(text) + c.flush(zlib.Z_SYNC_FLUSH) + c.compress(text[::-1]) + c.flush()
    assert synced[2] & 7 == 0b100
    # a non-final fixed block, then a second fixed header, off a byte boundary
    c = zlib.compressobj(9, zlib.DEFLATED, 15, 9, zlib.Z_FIXED)
    two_fixed = c.compress(text) + c.flush(zlib.Z_BLOCK) + c.compress(text[::-1]) + c.flush()
    assert two_fixed[2] & 7 == 0b010
    corpus = (
        [deflate_compress(text, level) for level in ALL_LEVELS]
        + [zlib.compress(text, level) for level in (0, 1, 9)]
        + [deflate_compress(b"", 2), skewed, deflate_compress(zeros, 1), zlib.compress(zeros, 9), synced, two_fixed]
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


def op_histogram(f, start, end):
    """Reference histogram of ops [start, end) from the per-op arrays, in the
    planner's form: the literal/length symbols, then the matches' distance
    symbols at 286 + d, end-of-block counted once."""
    dsym = f.dsym[start:end].astype(np.int64)
    freq = np.bincount(np.concatenate((f.sym[start:end], 286 + dsym[dsym != _NO_DIST])), minlength=_NSYM)
    freq[256] += 1
    return freq


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
        plan = _DynamicPlan(op_histogram(f, start, end))
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
        plan = _DynamicPlan(op_histogram(f, 0, len(ops)))
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
    block = _Block(0, nops, 0, 0, 2, plan=_DynamicPlan(op_histogram(f, 0, nops)))
    tracemalloc.start()
    try:
        _emit_block(_BitWriter(bytearray()), f, block, True)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_emit_block_memory_does_not_grow_with_block():
    """A level 1 block spans the whole input and a merged one may. The
    packer's temporaries, a dozen uint64 per op it is given, stay bounded by
    _EMIT_OPS whatever the block; only the written stream grows, here about
    a byte per op."""
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
    plan = _DynamicPlan(op_histogram(f, 0, len(ops))) if dynamic else None
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


def test_span_histogram_matches_per_op_count():
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
    # the whole run of ops as one span of chunks, end-of-block added as
    # _priced_block adds it, and the test's own per-op histogram
    sums = _chunk_sums(f, np.cumsum(f.cover, dtype=np.int64))
    span = np.zeros(_NSYM, np.int64)
    span[sums.cols] = sums.freq[-1] - sums.freq[0]
    span[256] += 1
    for freq in (span, op_histogram(f, 0, len(ops))):
        assert (freq[:286].tolist(), freq[286:].tolist(), int(freq @ _SYM_XB)) == (lit_freq, dist_freq, extra)
    assert f.cover.tolist() == [1 if op < 256 else op >> 16 for op in ops]


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
        for block in _plan_blocks(f):
            freq = op_histogram(f, block.op_start, block.op_end)
            vecs += [(freq[:286].tolist(), 15), (freq[286:].tolist(), 15)]
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


# input bytes per block of the 64 KiB cut, which the plan is measured against
CUT_INPUT = 65536

MERGE_INPUTS = {
    "uniform": word_text(1, 4 * CUT_INPUT),
    "alternating": b"".join(
        word_text(i, CUT_INPUT) if i % 2 == 0 else random.Random(i).randbytes(CUT_INPUT) for i in range(4)
    ),
    # a random stretch that covers a whole 64 KiB cut, which is stored
    "stored-stretch": word_text(2, CUT_INPUT) + random.Random(3).randbytes(2 * CUT_INPUT + 1000)
    + word_text(4, CUT_INPUT),
}


# a stream whose plan holds a stored block between dynamic ones
MERGE_STREAM_SHA256 = {
    ("stored-stretch", 3): "dc75892f216794e6ec494ff65d8f850fdf25b02202515379c45a004405a47d6e",
}


def plan_sums(f):
    """The chunk prefix sums _plan_blocks builds."""
    return _chunk_sums(f, np.cumsum(f.cover, dtype=np.int64))


def cut_spans(cover):
    """The 64 KiB cut, by a per-op loop: a block ends at the first op that
    brings it to CUT_INPUT bytes or more. (op_start, op_end, byte_start,
    byte_end) per block."""
    blocks = []
    op_start = byte_start = pos = 0
    for idx, c in enumerate(cover):
        pos += c
        if pos - byte_start >= CUT_INPUT:
            blocks.append((op_start, idx + 1, byte_start, pos))
            op_start = idx + 1
            byte_start = pos
    if op_start < len(cover) or not blocks:
        blocks.append((op_start, len(cover), byte_start, pos))
    return blocks


def priced_cut(f):
    """The bits of each block of the 64 KiB cut: the cheapest of its
    dynamic, fixed and stored bits, from the test's per-op histogram."""
    bits = []
    for op_start, op_end, byte_start, byte_end in cut_spans(f.cover.tolist()):
        freq = op_histogram(f, op_start, op_end)
        fixed = 3 + int(freq @ _SYM_FIXED_BITS)
        bits.append(min(_DynamicPlan(freq).bits, fixed, int(_stored_bits_upper(byte_end - byte_start))))
    return bits


@pytest.mark.parametrize("level", [2, 3])
@pytest.mark.parametrize("name", sorted(MERGE_INPUTS))
def test_block_merge_costs_no_more_than_the_64k_cut(name, level):
    data = MERGE_INPUTS[name]
    f = _op_fields(_tokenize_ops(data, level == 3))
    cut = priced_cut(f)
    blocks = _plan_blocks(f)
    assert len(cut) >= 4
    # the blocks partition the ops and the input in order
    assert [(b.op_start, b.byte_start) for b in blocks] == [(0, 0)] + [(b.op_end, b.byte_end) for b in blocks[:-1]]
    assert (blocks[-1].op_end, blocks[-1].byte_end) == (len(f.cover), len(data))
    # measured, not built in: the plan places its blocks by its own estimate
    assert sum(b.bits for b in blocks) <= sum(cut)
    # built in: the plan costs no more than the whole input as one block
    sums = plan_sums(f)
    assert sum(b.bits for b in blocks) <= _priced_block(sums, 0, len(sums.op) - 1).bits
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
    assert all(c % _CHUNK_INPUT and c % CUT_INPUT for c in CHANGES)
    f = _op_fields(_tokenize_ops(data, level == 3))
    blocks = _plan_blocks(f)
    starts = [b.byte_start for b in blocks]
    assert all(min(abs(s - c) for s in starts) <= _CHUNK_INPUT for c in CHANGES), starts
    assert sum(b.bits for b in blocks) <= sum(priced_cut(f))
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
    ends = np.cumsum(f.cover, dtype=np.int64)
    sums = _chunk_sums(f, ends)
    # each chunk starts at the first op at or past a multiple of _CHUNK_INPUT
    starts = []
    grid = 0
    for i, byte in enumerate([0] + ends[:-1].tolist()):
        if byte >= grid:
            starts.append(i)
            grid = (byte // _CHUNK_INPUT + 1) * _CHUNK_INPUT
    assert sums.op.tolist() == starts + [len(ends)]
    assert sums.byte.tolist() == [int(ends[i - 1]) if i else 0 for i in sums.op.tolist()]
    rng = random.Random(level)
    for a, b in [(0, len(sums.op) - 1)] + [sorted(rng.sample(range(len(sums.op)), 2)) for _ in range(20)]:
        want = op_histogram(f, sums.op[a], sums.op[b])
        want[256] -= 1  # op_histogram counts end-of-block
        freq = np.zeros(_NSYM, np.int64)
        freq[sums.cols] = sums.freq[b] - sums.freq[a]
        assert freq.tolist() == want.tolist()


def test_plan_builds_a_bounded_number_of_codes(monkeypatch):
    """Exact codes are built for the spans kept, the merges tried and the
    whole input only, at most two per kept span: a count, not a time."""
    built = []

    class CountingPlan(_DynamicPlan):
        __slots__ = ()

        def __init__(self, freq):
            built.append(freq)
            super().__init__(freq)

    monkeypatch.setattr(flate, "_DynamicPlan", CountingPlan)
    f = _op_fields(_tokenize_ops(TEXT_RANDOM_TEXT, True))
    blocks = _plan_blocks(f)
    _, bounds = kept_spans(f)
    assert len(bounds) - 1 == len(blocks) == 5
    # five spans kept, no merge estimated near paying, and the whole span
    assert len(built) == 6
    assert len(built) <= 2 * (len(bounds) - 1) <= 2 * len(TEXT_RANDOM_TEXT) / _MIN_BLOCK


@pytest.mark.parametrize("k", [None, 10])
def test_plan_prices_each_span_once(k, monkeypatch):
    """scripts/deflate_parity.py's 64x64 flat-shapes tile at level 3 is one
    span kept, the whole input: a plan of one block does not price the
    whole input again."""
    img = generate(CorpusSpec("flat-shapes", 64, 64, seed=3))
    img = kmm_transform(img, k) if k else img
    data = inflate(b"".join(c.data for c in parse_chunks(encode_png(img)) if c.type_code == b"IDAT"))
    assert len(data) == 12_352
    f = _op_fields(_tokenize_ops(data, True))
    spans = []

    def counting(sums, a, b):
        spans.append((a, b))
        return _priced_block(sums, a, b)

    monkeypatch.setattr(flate, "_priced_block", counting)
    (block,) = _plan_blocks(f)
    nchunks = len(plan_sums(f).op) - 1
    assert spans == [(0, nchunks)]
    assert block.bits == written_bits(f, block)


def test_plan_prices_the_whole_input_once(monkeypatch):
    """With every merge priced, the level 3 plan of "uniform" tries the
    whole input as a merge and keeps its two spans apart: the whole input,
    its safety net, is not priced again."""
    monkeypatch.setattr(flate, "_MERGE_SLACK", 1 << 30)
    f = _op_fields(_tokenize_ops(MERGE_INPUTS["uniform"], True))
    spans = []

    def counting(sums, a, b):
        spans.append((a, b))
        return _priced_block(sums, a, b)

    monkeypatch.setattr(flate, "_priced_block", counting)
    blocks = _plan_blocks(f)
    nchunks = len(plan_sums(f).op) - 1
    assert len(blocks) == 2
    assert spans[-1] == (0, nchunks)
    assert len(set(spans)) == len(spans) == 3


def kept_spans(f):
    """The chunk prefix sums _plan_blocks builds, and the chunk bounds of the
    spans its split keeps, before any merge."""
    sums = plan_sums(f)
    nchunks = len(sums.op) - 1
    return sums, _cost_cuts(sums, 0, nchunks, _estimated_bits(sums, 0, nchunks)[0])[1] + [nchunks]


def written_bits(f, block):
    w = _BitWriter(bytearray())
    _emit_block(w, f, block, False)
    return 8 * len(w.out) + w.cnt


def test_plan_merges_kept_spans_when_that_pays():
    # the level 3 scanlines of a k=10 noise tile (196,864 bytes): the split
    # keeps four spans, and the second and third cost less as one block
    img = kmm_transform(generate(CorpusSpec("noise", 256, 256, seed=4)), 10)
    data = inflate(b"".join(c.data for c in parse_chunks(encode_png(img)) if c.type_code == b"IDAT"))
    assert len(data) == 196_864
    f = _op_fields(_tokenize_ops(data, True))
    sums, bounds = kept_spans(f)
    apart = [_priced_block(sums, a, b) for a, b in zip(bounds, bounds[1:])]
    blocks = _plan_blocks(f)
    assert len(bounds) - 1 == 4
    assert len(blocks) == 3
    assert sum(b.bits for b in blocks) < sum(b.bits for b in apart)
    # every block starts where a kept span does
    assert {b.op_start for b in blocks} < {b.op_start for b in apart}
    assert all(b.bits == written_bits(f, b) for b in blocks)


def test_plan_is_the_64k_cut_when_the_cut_costs_less():
    # scripts/deflate_parity.py's seed-0 "repeat at distance 32768": the split
    # stores the first 16 KiB and codes the rest, which priced exactly is 9
    # bits dearer than one dynamic block, the whole span; the input is one
    # block of the 64 KiB cut too
    rng = random.Random(0)
    for size in (0, 1, 2, 3, 700, rng.randrange(70_001), 70_000):
        rng.randbytes(size)
    block = rng.randbytes(600)
    data = block + rng.randbytes(WINDOW_SIZE - len(block)) + block
    assert len(data) == 33_368
    f = _op_fields(_tokenize_ops(data, False))
    sums, bounds = kept_spans(f)
    apart = [_priced_block(sums, a, b) for a, b in zip(bounds, bounds[1:])]
    whole = _priced_block(sums, 0, bounds[-1])
    blocks = _plan_blocks(f)
    assert [b.btype for b in apart] == [0, 2]
    assert priced_cut(f) == [whole.bits]
    assert sum(b.bits for b in apart) - whole.bits == 9
    assert [b[:6] for b in blocks] == [whole[:6]]
    assert blocks[0].bits == written_bits(f, blocks[0])


@pytest.mark.parametrize("level", [2, 3])
@pytest.mark.parametrize("name", sorted(MERGE_INPUTS))
def test_planned_bits_are_the_bits_written(name, level):
    f = _op_fields(_tokenize_ops(MERGE_INPUTS[name], level == 3))
    blocks = _plan_blocks(f)
    coded = [b for b in blocks if b.btype]
    assert coded
    assert [b.bits for b in coded] == [written_bits(f, b) for b in coded]
