"""DEFLATE compressor/decompressor with zlib framing, plus CRC-32 and Adler-32.

Implements RFC 1950/1951 from scratch: an LZ77 tokenizer over a 32 KiB
window (hash chains keyed on 3-byte prefixes), fixed and dynamic Huffman
blocks (length-limited codes via package-merge), stored blocks, and a
table-driven inflater. Output is always a zlib stream because that is what
PNG IDAT carries.

Levels: 0 stored only; 1 greedy matching + fixed codes; 2 greedy matching +
dynamic codes; 3 lazy matching + dynamic codes. Levels 2-3 fall back to
fixed or stored blocks per 64 KiB block whenever that is smaller. Each
level's search effort comes from a table modeled on zlib's
``configuration_table`` (deflate.c): levels 1-2 walk up to 128 hash-chain
links; level 3 walks up to 256, a quarter of that for the lazy search when
the pending match is already 32 bytes long (``good_length``), and stops at
a 258-byte match (``nice_length``, ``max_lazy``).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from operator import mul
from typing import NamedTuple

from .errors import (
    ChecksumMismatchError,
    CorruptStreamError,
    DistanceTooFarError,
    ParameterError,
    TruncatedStreamError,
    ZlibHeaderError,
)

WINDOW_SIZE = 32768
MIN_MATCH = 3
MAX_MATCH = 258
_BLOCK_INPUT = 65536  # input bytes per Huffman block
_STORED_MAX = 65535  # LEN is 16 bits
_INSERT_CAP = 128  # do not hash interior positions of matches longer than this

_ADLER_MOD = 65521


class CompressionLevel(IntEnum):
    STORED = 0
    FIXED = 1
    DYNAMIC = 2
    LAZY = 3


@dataclass(frozen=True, slots=True)
class Literal:
    value: int


@dataclass(frozen=True, slots=True)
class Match:
    length: int
    distance: int


Token = Literal | Match


def check_level(level) -> int:
    if isinstance(level, bool) or not isinstance(level, (int, IntEnum)):
        raise ParameterError(f"compression level must be an integer 0..3, got {level!r}")
    lv = int(level)
    if lv not in (0, 1, 2, 3):
        raise ParameterError(f"compression level must be 0..3, got {lv}")
    return lv


# ---------------------------------------------------------------------------
# Checksums


def _make_crc_table() -> list[int]:
    table = []
    for i in range(256):
        c = i
        for _ in range(8):
            c = (c >> 1) ^ 0xEDB88320 if c & 1 else c >> 1
        table.append(c)
    return table


_CRC_TABLE = _make_crc_table()


def crc32(data: bytes, value: int = 0) -> int:
    """CRC-32 (reflected 0xEDB88320, init/final XOR 0xFFFFFFFF).

    Pass a previous result as ``value`` to checksum a stream incrementally.
    """
    crc = value ^ 0xFFFFFFFF
    table = _CRC_TABLE
    for b in data:
        crc = (crc >> 8) ^ table[(crc ^ b) & 0xFF]
    return crc ^ 0xFFFFFFFF


def adler32(data: bytes, value: int = 1) -> int:
    """Adler-32: s1/s2 accumulated mod 65521, packed s2<<16 | s1.

    Pass a previous result as ``value`` for incremental use. Uses the closed
    form s2 += n*s1 + sum((n-i)*d[i]) so the byte loop runs at C speed.
    """
    s1 = value & 0xFFFF
    s2 = (value >> 16) & 0xFFFF
    n = len(data)
    if n:
        s2 = (s2 + n * s1 + sum(map(mul, data, range(n, 0, -1)))) % _ADLER_MOD
        s1 = (s1 + sum(data)) % _ADLER_MOD
    return (s2 << 16) | s1


# ---------------------------------------------------------------------------
# Symbol tables (RFC 1951 section 3.2.5)

_LENGTH_XBITS = [0] * 8 + [1] * 4 + [2] * 4 + [3] * 4 + [4] * 4 + [5] * 4  # codes 257..284
_LENGTH_BASES = []
_b = 3
for _x in _LENGTH_XBITS:
    _LENGTH_BASES.append(_b)
    _b += 1 << _x
_LENGTH_XBITS.append(0)  # code 285: length 258 exactly
_LENGTH_BASES.append(258)

_DIST_XBITS = [0, 0, 0, 0] + [x for x in range(1, 14) for _ in (0, 1)]  # codes 0..29
_DIST_BASES = []
_b = 1
for _x in _DIST_XBITS:
    _DIST_BASES.append(_b)
    _b += 1 << _x

# length -> (symbol, extra bits, base), indexed by match length 3..258
_LEN_SYM = [0] * 259
_LEN_XB = [0] * 259
_LEN_BASE = [0] * 259
for _s, (_base, _x) in enumerate(zip(_LENGTH_BASES[:-1], _LENGTH_XBITS[:-1])):
    for _l in range(_base, min(_base + (1 << _x), 259)):
        _LEN_SYM[_l] = 257 + _s
        _LEN_XB[_l] = _x
        _LEN_BASE[_l] = _base
_LEN_SYM[258], _LEN_XB[258], _LEN_BASE[258] = 285, 0, 258

# distance -> symbol, two-level lookup (exact for d<=256, 128-wide bins above)
_DIST_SYM_SMALL = [0] * 256
_DIST_SYM_LARGE = [0] * 256
for _s, (_base, _x) in enumerate(zip(_DIST_BASES, _DIST_XBITS)):
    for _d in range(_base, _base + (1 << _x)):
        if _d <= 256:
            _DIST_SYM_SMALL[_d - 1] = _s
        else:
            _DIST_SYM_LARGE[(_d - 1) >> 7] = _s

_CODELEN_ORDER = [16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15]

_FIXED_LIT_LENGTHS = [8] * 144 + [9] * 112 + [7] * 24 + [8] * 8
_FIXED_DIST_LENGTHS = [5] * 32


def _dist_symbol(d: int) -> int:
    if d <= 256:
        return _DIST_SYM_SMALL[d - 1]
    return _DIST_SYM_LARGE[(d - 1) >> 7]


# ---------------------------------------------------------------------------
# Huffman code construction


def _reverse_bits(code: int, nbits: int) -> int:
    r = 0
    for _ in range(nbits):
        r = (r << 1) | (code & 1)
        code >>= 1
    return r


def _limited_code_lengths(freqs: list[int], max_bits: int) -> list[int]:
    """Optimal length-limited code lengths (package-merge). 0 = symbol unused."""
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


def _codes_from_lengths(lengths: list[int]) -> list[tuple[int, int]]:
    """Canonical codes per RFC 1951, bit-reversed ready for LSB-first writing.

    Returns (code, nbits) per symbol; unused symbols get (0, 0).
    """
    max_bits = max(lengths, default=0)
    codes = [(0, 0)] * len(lengths)
    if max_bits == 0:
        return codes
    bl_count = [0] * (max_bits + 1)
    for l in lengths:
        if l:
            bl_count[l] += 1
    next_code = [0] * (max_bits + 1)
    code = 0
    for bits in range(1, max_bits + 1):
        code = (code + bl_count[bits - 1]) << 1
        next_code[bits] = code
    for sym, l in enumerate(lengths):
        if l:
            codes[sym] = (_reverse_bits(next_code[l], l), l)
            next_code[l] += 1
    return codes


_FIXED_LIT_CODES = _codes_from_lengths(_FIXED_LIT_LENGTHS)
_FIXED_DIST_CODES = _codes_from_lengths(_FIXED_DIST_LENGTHS)


# ---------------------------------------------------------------------------
# LZ77 tokenizer


class _Effort(NamedTuple):
    """How hard the tokenizer searches, after zlib's ``configuration_table``
    in deflate.c (lazy matching per RFC 1951 section 4)."""

    max_chain: int  # hash-chain links walked per search
    good_length: int  # a pending match this long quarters the lazy search's chain
    nice_length: int  # a match this long ends the search
    max_lazy: int  # a match this long is emitted without a lazy look; 0 = greedy


# Levels 1-2 are greedy, so good_length never applies to them. Level 3 has
# the good/nice/lazy lengths of zlib level 9 and a sixteenth of its chain.
_LEVEL_EFFORT = {
    1: _Effort(128, MAX_MATCH, MAX_MATCH, 0),
    2: _Effort(128, MAX_MATCH, MAX_MATCH, 0),
    3: _Effort(256, 32, MAX_MATCH, MAX_MATCH),
}


def _tokenize_ops(data: bytes, effort: _Effort) -> list:
    """Internal token stream: ints are literal bytes, tuples are (length, distance)."""
    max_chain, good_length, nice_length, max_lazy = effort
    n = len(data)
    ops: list = []
    append = ops.append
    if n == 0:
        return ops
    head: dict[int, int] = {}
    get = head.get
    prev = [-1] * n
    limit = n - 2  # last position with a full 3-byte prefix

    i = 0
    pend_len = 0
    pend_dist = 0
    while i < n:
        best_len = 0
        best_dist = 0
        if i < limit:
            t = (data[i] << 16) | (data[i + 1] << 8) | data[i + 2]
            j = get(t, -1)
            prev[i] = j
            head[t] = i
            max_len = n - i
            if max_len > MAX_MATCH:
                max_len = MAX_MATCH
            floor = i - WINDOW_SIZE if i > WINDOW_SIZE else 0
            # a lazy search only has to beat the pending match
            bl = pend_len or MIN_MATCH - 1
            if j >= floor and bl < max_len:
                nice = nice_length if nice_length < max_len else max_len
                bd = 0
                c = data[i + bl]
                # the match length is the count of trailing zero bytes of the
                # two windows XORed as little-endian integers
                here = int.from_bytes(data[i : i + max_len], "little")
                for _ in range(max_chain >> 2 if pend_len >= good_length else max_chain):
                    if j < floor:
                        break
                    # cheap reject: candidate must beat the current best length
                    if data[j + bl] == c:
                        x = here ^ int.from_bytes(data[j : j + max_len], "little")
                        l = ((x & -x).bit_length() - 1) >> 3 if x else max_len
                        if l > bl:
                            bl = l
                            bd = i - j
                            if l >= nice:
                                break
                            c = data[i + l]
                    j = prev[j]
                if bd:
                    best_len = bl
                    best_dist = bd

        start = i
        if pend_len:
            if best_len > pend_len:
                # the next position found a strictly longer match; demote
                # the pending one to a literal and go on from here
                append(data[i - 1])
            else:
                start, best_len, best_dist = i - 1, pend_len, pend_dist
            pend_len = 0
        if not best_len:
            append(data[i])
            i += 1
        elif start == i and best_len < max_lazy:
            # hold the match back and see whether the next position beats it
            pend_len, pend_dist = best_len, best_dist
            i += 1
        else:
            append((best_len, best_dist))
            end = start + best_len
            lo = i + 1 if best_len <= _INSERT_CAP else max(i + 1, end - 2)
            for p in range(lo, min(end, limit)):
                t = (data[p] << 16) | (data[p + 1] << 8) | data[p + 2]
                prev[p] = get(t, -1)
                head[t] = p
            i = end
    return ops


def lz77_tokenize(data: bytes, level: int | CompressionLevel = CompressionLevel.LAZY) -> list[Token]:
    """Tokenize ``data`` into literals and (length, distance) back-references.

    Expanding the result reproduces ``data`` exactly. Level 0 has no token
    stream and is rejected.
    """
    lv = check_level(level)
    if lv < 1:
        raise ParameterError("level 0 is stored-only and produces no token stream")
    ops = _tokenize_ops(bytes(data), _LEVEL_EFFORT[lv])
    return [Literal(op) if type(op) is int else Match(op[0], op[1]) for op in ops]


def _is_int_in(value, lo: int, hi: int) -> bool:
    return isinstance(value, int) and lo <= value <= hi


def lz77_expand(tokens) -> bytes:
    """Expand a token stream back into bytes, validating every token."""
    out = bytearray()
    for tok in tokens:
        if isinstance(tok, Literal):
            if not _is_int_in(tok.value, 0, 255):
                raise ParameterError(f"literal {tok.value!r} is not a byte value")
            out.append(tok.value)
        elif isinstance(tok, Match):
            if not _is_int_in(tok.length, MIN_MATCH, MAX_MATCH):
                raise ParameterError(f"match length {tok.length!r} outside [{MIN_MATCH}, {MAX_MATCH}]")
            if not _is_int_in(tok.distance, 1, WINDOW_SIZE):
                raise ParameterError(f"match distance {tok.distance!r} outside [1, {WINDOW_SIZE}]")
            _copy_match(out, tok.length, tok.distance)
        else:
            raise ParameterError(f"not a token: {tok!r}")
    return bytes(out)


def _copy_match(out: bytearray, length: int, dist: int) -> None:
    """Append ``length`` bytes starting ``dist`` back; when dist < length the
    copy overlaps the bytes it writes, repeating the last ``dist`` bytes."""
    start = len(out) - dist
    if start < 0:
        raise DistanceTooFarError(f"distance {dist} exceeds {len(out)} bytes of output")
    if dist >= length:
        out += out[start : start + length]
    else:
        out += (out[start:] * -(-length // dist))[:length]


# ---------------------------------------------------------------------------
# Compressor


class _BitWriter:
    __slots__ = ("out", "acc", "cnt")

    def __init__(self, out: bytearray):
        self.out = out
        self.acc = 0
        self.cnt = 0

    def write(self, value: int, nbits: int) -> None:
        self.acc |= value << self.cnt
        self.cnt += nbits
        while self.cnt >= 8:
            self.out.append(self.acc & 0xFF)
            self.acc >>= 8
            self.cnt -= 8

    def align(self) -> None:
        if self.cnt:
            self.out.append(self.acc & 0xFF)
            self.acc = 0
            self.cnt = 0


def _split_blocks(ops: list) -> list[tuple[int, int, int, int]]:
    """Partition the op list at ~64 KiB input boundaries.

    Returns (op_start, op_end, byte_start, byte_end) per block; a match is
    never split, so blocks may slightly overshoot the boundary.
    """
    blocks = []
    op_start = 0
    byte_start = 0
    pos = 0
    for idx, op in enumerate(ops):
        pos += 1 if type(op) is int else op[0]
        if pos - byte_start >= _BLOCK_INPUT:
            blocks.append((op_start, idx + 1, byte_start, pos))
            op_start = idx + 1
            byte_start = pos
    if op_start < len(ops) or not blocks:
        blocks.append((op_start, len(ops), byte_start, pos))
    return blocks


def _block_stats(ops: list, start: int, end: int) -> tuple[list[int], list[int], int]:
    """Symbol frequencies and total extra bits for one block (EOB included)."""
    lit_freq = [0] * 286
    dist_freq = [0] * 30
    extra = 0
    for idx in range(start, end):
        op = ops[idx]
        if type(op) is int:
            lit_freq[op] += 1
        else:
            length, dist = op
            lit_freq[_LEN_SYM[length]] += 1
            extra += _LEN_XB[length]
            ds = _dist_symbol(dist)
            dist_freq[ds] += 1
            extra += _DIST_XBITS[ds]
    lit_freq[256] += 1
    return lit_freq, dist_freq, extra


def _rle_code_lengths(lengths: list[int]) -> list[tuple[int, int, int]]:
    """Run-length encode a code-length sequence into (symbol, extra, extra_bits)."""
    out = []
    i = 0
    n = len(lengths)
    prev = -1
    while i < n:
        v = lengths[i]
        run = 1
        while i + run < n and lengths[i + run] == v:
            run += 1
        r = run
        if v == 0:
            while r >= 11:
                take = min(r, 138)
                out.append((18, take - 11, 7))
                r -= take
            if r >= 3:
                out.append((17, r - 3, 3))
                r = 0
            while r:
                out.append((0, 0, 0))
                r -= 1
        else:
            if prev != v:
                out.append((v, 0, 0))
                r -= 1
            while r >= 3:
                take = min(r, 6)
                out.append((16, take - 3, 2))
                r -= take
            while r:
                out.append((v, 0, 0))
                r -= 1
        prev = v
        i += run
    return out


def _force_two_codes(lengths: list[int]) -> None:
    """A Huffman tree with a single leaf is not decodable by strict inflaters;
    pad the length set so at least two symbols carry codes."""
    used = [s for s, l in enumerate(lengths) if l]
    if len(used) == 1:
        lengths[used[0]] = 1
        lengths[0 if used[0] != 0 else 1] = 1


class _DynamicPlan:
    __slots__ = ("lit_lengths", "dist_lengths", "hlit", "hdist", "hclen", "rle", "cl_lengths", "bits")

    def __init__(self, lit_freq: list[int], dist_freq: list[int], extra: int):
        lit_lengths = _limited_code_lengths(lit_freq, 15)
        _force_two_codes(lit_lengths)
        dist_lengths = _limited_code_lengths(dist_freq, 15)

        hlit = max(257, 1 + max((s for s, l in enumerate(lit_lengths) if l), default=0))
        hdist = max(1, 1 + max((s for s, l in enumerate(dist_lengths) if l), default=0))
        rle = _rle_code_lengths(lit_lengths[:hlit] + dist_lengths[:hdist])

        cl_freq = [0] * 19
        for sym, _, _ in rle:
            cl_freq[sym] += 1
        cl_lengths = _limited_code_lengths(cl_freq, 7)
        _force_two_codes(cl_lengths)

        hclen = 4
        for idx, sym in enumerate(_CODELEN_ORDER):
            if cl_lengths[sym]:
                hclen = max(hclen, idx + 1)

        bits = 3 + 14 + 3 * hclen
        for sym, _, xb in rle:
            bits += cl_lengths[sym] + xb
        bits += sum(f * l for f, l in zip(lit_freq, lit_lengths))
        bits += sum(f * l for f, l in zip(dist_freq, dist_lengths))
        bits += extra

        self.lit_lengths = lit_lengths
        self.dist_lengths = dist_lengths
        self.hlit = hlit
        self.hdist = hdist
        self.hclen = hclen
        self.rle = rle
        self.cl_lengths = cl_lengths
        self.bits = bits


def _fixed_bits(lit_freq: list[int], dist_freq: list[int], extra: int) -> int:
    bits = 3 + extra
    bits += sum(f * l for f, l in zip(lit_freq, _FIXED_LIT_LENGTHS))
    bits += 5 * sum(dist_freq)
    return bits


def _stored_bits_upper(nbytes: int) -> int:
    nchunks = max(1, -(-nbytes // _STORED_MAX))
    return 7 + 40 * nchunks + 8 * nbytes  # worst-case padding


def _emit_tokens(w: _BitWriter, ops: list, start: int, end: int,
                 lit_codes: list[tuple[int, int]], dist_codes: list[tuple[int, int]]) -> None:
    acc = w.acc
    cnt = w.cnt
    out = w.out
    append = out.append
    for idx in range(start, end):
        op = ops[idx]
        if type(op) is int:
            code, nb = lit_codes[op]
            acc |= code << cnt
            cnt += nb
        else:
            length, dist = op
            code, nb = lit_codes[_LEN_SYM[length]]
            acc |= code << cnt
            cnt += nb
            xb = _LEN_XB[length]
            if xb:
                acc |= (length - _LEN_BASE[length]) << cnt
                cnt += xb
            ds = _dist_symbol(dist)
            code, nb = dist_codes[ds]
            acc |= code << cnt
            cnt += nb
            xb = _DIST_XBITS[ds]
            if xb:
                acc |= (dist - _DIST_BASES[ds]) << cnt
                cnt += xb
        while cnt >= 8:
            append(acc & 0xFF)
            acc >>= 8
            cnt -= 8
    code, nb = lit_codes[256]
    acc |= code << cnt
    cnt += nb
    while cnt >= 8:
        append(acc & 0xFF)
        acc >>= 8
        cnt -= 8
    w.acc = acc
    w.cnt = cnt


def _emit_fixed_block(w: _BitWriter, ops: list, start: int, end: int, final: bool) -> None:
    w.write(1 if final else 0, 1)
    w.write(1, 2)
    _emit_tokens(w, ops, start, end, _FIXED_LIT_CODES, _FIXED_DIST_CODES)


def _emit_dynamic_block(w: _BitWriter, ops: list, start: int, end: int, final: bool,
                        plan: _DynamicPlan) -> None:
    w.write(1 if final else 0, 1)
    w.write(2, 2)
    w.write(plan.hlit - 257, 5)
    w.write(plan.hdist - 1, 5)
    w.write(plan.hclen - 4, 4)
    for sym in _CODELEN_ORDER[: plan.hclen]:
        w.write(plan.cl_lengths[sym], 3)
    cl_codes = _codes_from_lengths(plan.cl_lengths)
    for sym, xval, xbits in plan.rle:
        code, nb = cl_codes[sym]
        w.write(code, nb)
        if xbits:
            w.write(xval, xbits)
    lit_codes = _codes_from_lengths(plan.lit_lengths)
    dist_codes = _codes_from_lengths(plan.dist_lengths)
    _emit_tokens(w, ops, start, end, lit_codes, dist_codes)


def _emit_stored(w: _BitWriter, data: bytes, start: int, end: int, final: bool) -> None:
    pos = start
    while True:
        take = min(end - pos, _STORED_MAX)
        last = pos + take == end
        w.write(1 if (final and last) else 0, 1)
        w.write(0, 2)
        w.align()
        w.write(take, 16)
        w.write(take ^ 0xFFFF, 16)
        w.out += data[pos : pos + take]
        pos += take
        if last:
            break


def deflate_compress(data: bytes, level: int | CompressionLevel = CompressionLevel.LAZY) -> bytes:
    """Compress ``data`` into a zlib stream (2-byte header, DEFLATE blocks,
    big-endian Adler-32 trailer). Deterministic for a given (data, level)."""
    lv = check_level(level)
    data = bytes(data)

    out = bytearray()
    cmf = 0x78  # CM=8, CINFO=7 (32 KiB window)
    flg = lv << 6
    flg |= (31 - ((cmf << 8) | flg) % 31) % 31
    out.append(cmf)
    out.append(flg)

    w = _BitWriter(out)
    if lv == 0:
        _emit_stored(w, data, 0, len(data), True)
    else:
        ops = _tokenize_ops(data, _LEVEL_EFFORT[lv])
        blocks = _split_blocks(ops)
        last = len(blocks) - 1
        for bi, (op_s, op_e, byte_s, byte_e) in enumerate(blocks):
            final = bi == last
            if lv == 1:
                _emit_fixed_block(w, ops, op_s, op_e, final)
                continue
            lit_freq, dist_freq, extra = _block_stats(ops, op_s, op_e)
            plan = _DynamicPlan(lit_freq, dist_freq, extra)
            fixed = _fixed_bits(lit_freq, dist_freq, extra)
            stored = _stored_bits_upper(byte_e - byte_s)
            if stored < plan.bits and stored < fixed:
                _emit_stored(w, data, byte_s, byte_e, final)
            elif plan.bits < fixed:
                _emit_dynamic_block(w, ops, op_s, op_e, final, plan)
            else:
                _emit_fixed_block(w, ops, op_s, op_e, final)
    w.align()

    out += adler32(data).to_bytes(4, "big")
    return bytes(out)


# ---------------------------------------------------------------------------
# Decompressor


def _build_decode_table(lengths: list[int], allow_incomplete: bool = False):
    """Flat decode table: index = next max_bits of the stream (LSB-first),
    entry = (symbol, code length) or None. Returns (table, max_bits)."""
    max_bits = max(lengths, default=0)
    if max_bits == 0:
        return None, 0
    size = 1 << max_bits
    kraft = sum(1 << (max_bits - l) for l in lengths if l)
    if kraft > size:
        raise CorruptStreamError("oversubscribed Huffman code")
    if kraft < size and not allow_incomplete:
        raise CorruptStreamError("incomplete Huffman code")
    table: list = [None] * size
    bl_count = [0] * (max_bits + 1)
    for l in lengths:
        if l:
            bl_count[l] += 1
    next_code = [0] * (max_bits + 1)
    code = 0
    for bits in range(1, max_bits + 1):
        code = (code + bl_count[bits - 1]) << 1
        next_code[bits] = code
    for sym, l in enumerate(lengths):
        if not l:
            continue
        rev = _reverse_bits(next_code[l], l)
        next_code[l] += 1
        entry = (sym, l)
        step = 1 << l
        for idx in range(rev, size, step):
            table[idx] = entry
    return table, max_bits


_FIXED_LIT_TABLE = _build_decode_table(_FIXED_LIT_LENGTHS)
_FIXED_DIST_TABLE = _build_decode_table(_FIXED_DIST_LENGTHS)


def _read_dynamic_tables(data: bytes, pos: int, acc: int, cnt: int):
    n = len(data)

    def need(k):
        nonlocal pos, acc, cnt
        while cnt < k:
            if pos >= n:
                raise TruncatedStreamError("stream ended inside a block header")
            acc |= data[pos] << cnt
            pos += 1
            cnt += 8

    need(14)
    hlit = 257 + (acc & 31)
    hdist = 1 + ((acc >> 5) & 31)
    hclen = 4 + ((acc >> 10) & 15)
    acc >>= 14
    cnt -= 14
    if hlit > 286 or hdist > 30:
        raise CorruptStreamError(f"bad code counts HLIT={hlit} HDIST={hdist}")

    cl_lengths = [0] * 19
    for i in range(hclen):
        need(3)
        cl_lengths[_CODELEN_ORDER[i]] = acc & 7
        acc >>= 3
        cnt -= 3
    cl_table, cl_bits = _build_decode_table(cl_lengths)
    if cl_table is None:
        raise CorruptStreamError("empty code-length code")
    cl_mask = (1 << cl_bits) - 1

    lengths: list[int] = []
    total = hlit + hdist
    while len(lengths) < total:
        while cnt < cl_bits and pos < n:
            acc |= data[pos] << cnt
            pos += 1
            cnt += 8
        entry = cl_table[acc & cl_mask]
        if entry is None:
            if pos >= n and cnt < cl_bits:
                raise TruncatedStreamError("stream ended inside code lengths")
            raise CorruptStreamError("invalid code-length symbol")
        sym, l = entry
        if l > cnt:
            raise TruncatedStreamError("stream ended inside code lengths")
        acc >>= l
        cnt -= l
        if sym < 16:
            lengths.append(sym)
        elif sym == 16:
            if not lengths:
                raise CorruptStreamError("repeat with no previous code length")
            need(2)
            rep = 3 + (acc & 3)
            acc >>= 2
            cnt -= 2
            lengths.extend(lengths[-1:] * rep)
        elif sym == 17:
            need(3)
            rep = 3 + (acc & 7)
            acc >>= 3
            cnt -= 3
            lengths.extend([0] * rep)
        else:
            need(7)
            rep = 11 + (acc & 127)
            acc >>= 7
            cnt -= 7
            lengths.extend([0] * rep)
    if len(lengths) > total:
        raise CorruptStreamError("code-length run overflows the declared counts")

    lit_lengths = lengths[:hlit]
    dist_lengths = lengths[hlit:]
    if lit_lengths[256] == 0:
        raise CorruptStreamError("no end-of-block code")
    lit_table = _build_decode_table(lit_lengths)
    dist_table = _build_decode_table(dist_lengths, allow_incomplete=True)
    return lit_table, dist_table, pos, acc, cnt


def inflate(data: bytes) -> bytes:
    """Decompress a zlib stream produced by :func:`deflate_compress` or any
    conforming encoder. Verifies the Adler-32 trailer and rejects trailing
    garbage."""
    data = bytes(data)
    n = len(data)
    if n < 2:
        raise TruncatedStreamError("zlib stream shorter than its header")
    cmf = data[0]
    flg = data[1]
    if cmf & 0x0F != 8:
        raise ZlibHeaderError(f"compression method {cmf & 0x0F}, expected 8 (DEFLATE)")
    if cmf >> 4 > 7:
        raise ZlibHeaderError(f"window size exponent {cmf >> 4} exceeds 7")
    if ((cmf << 8) | flg) % 31:
        raise ZlibHeaderError("header check bits invalid")
    if flg & 0x20:
        raise ZlibHeaderError("preset dictionaries are not supported")

    out = bytearray()
    pos = 2
    acc = 0
    cnt = 0
    final = False
    while not final:
        while cnt < 3:
            if pos >= n:
                raise TruncatedStreamError("stream ended before a block header")
            acc |= data[pos] << cnt
            pos += 1
            cnt += 8
        final = bool(acc & 1)
        btype = (acc >> 1) & 3
        acc >>= 3
        cnt -= 3

        if btype == 0:
            # drop bits to the byte boundary, then push buffered bytes back
            drop = cnt & 7
            acc >>= drop
            cnt -= drop
            pos -= cnt >> 3
            acc = 0
            cnt = 0
            if pos + 4 > n:
                raise TruncatedStreamError("stream ended inside a stored-block header")
            length = data[pos] | (data[pos + 1] << 8)
            nlen = data[pos + 2] | (data[pos + 3] << 8)
            pos += 4
            if length ^ 0xFFFF != nlen:
                raise CorruptStreamError("stored-block length check failed")
            if pos + length > n:
                raise TruncatedStreamError("stream ended inside stored-block data")
            out += data[pos : pos + length]
            pos += length
            continue
        if btype == 3:
            raise CorruptStreamError("reserved block type 3")
        if btype == 1:
            lit_table, lit_bits = _FIXED_LIT_TABLE
            dist_table, dist_bits = _FIXED_DIST_TABLE
        else:
            (lit_table, lit_bits), (dist_table, dist_bits), pos, acc, cnt = _read_dynamic_tables(
                data, pos, acc, cnt
            )
        lit_mask = (1 << lit_bits) - 1
        dist_mask = (1 << dist_bits) - 1

        while True:
            while cnt < lit_bits and pos < n:
                acc |= data[pos] << cnt
                pos += 1
                cnt += 8
            entry = lit_table[acc & lit_mask]
            if entry is None:
                if pos >= n and cnt < lit_bits:
                    raise TruncatedStreamError("stream ended inside a Huffman code")
                raise CorruptStreamError("invalid literal/length code")
            sym, l = entry
            if l > cnt:
                raise TruncatedStreamError("stream ended inside a Huffman code")
            acc >>= l
            cnt -= l
            if sym < 256:
                out.append(sym)
                continue
            if sym == 256:
                break
            if sym > 285:
                raise CorruptStreamError(f"reserved length symbol {sym}")
            li = sym - 257
            xb = _LENGTH_XBITS[li]
            length = _LENGTH_BASES[li]
            if xb:
                while cnt < xb:
                    if pos >= n:
                        raise TruncatedStreamError("stream ended inside length extra bits")
                    acc |= data[pos] << cnt
                    pos += 1
                    cnt += 8
                length += acc & ((1 << xb) - 1)
                acc >>= xb
                cnt -= xb

            if dist_table is None:
                raise CorruptStreamError("length code with no distance code defined")
            while cnt < dist_bits and pos < n:
                acc |= data[pos] << cnt
                pos += 1
                cnt += 8
            entry = dist_table[acc & dist_mask]
            if entry is None:
                if pos >= n and cnt < dist_bits:
                    raise TruncatedStreamError("stream ended inside a distance code")
                raise CorruptStreamError("invalid distance code")
            dsym, l = entry
            if l > cnt:
                raise TruncatedStreamError("stream ended inside a distance code")
            acc >>= l
            cnt -= l
            if dsym > 29:
                raise CorruptStreamError(f"reserved distance symbol {dsym}")
            xb = _DIST_XBITS[dsym]
            dist = _DIST_BASES[dsym]
            if xb:
                while cnt < xb:
                    if pos >= n:
                        raise TruncatedStreamError("stream ended inside distance extra bits")
                    acc |= data[pos] << cnt
                    pos += 1
                    cnt += 8
                dist += acc & ((1 << xb) - 1)
                acc >>= xb
                cnt -= xb

            _copy_match(out, length, dist)

    # byte-align and push buffered whole bytes back before the trailer
    pos -= cnt >> 3
    if pos + 4 > n:
        raise TruncatedStreamError("stream ended before the Adler-32 trailer")
    stored_sum = int.from_bytes(data[pos : pos + 4], "big")
    pos += 4
    if pos != n:
        raise CorruptStreamError(f"{n - pos} trailing bytes after the zlib stream")
    actual = adler32(bytes(out))
    if actual != stored_sum:
        raise ChecksumMismatchError(
            f"Adler-32 mismatch: stream says {stored_sum:#010x}, payload is {actual:#010x}"
        )
    return bytes(out)
