"""DEFLATE compressor/decompressor with zlib framing, plus CRC-32 and Adler-32.

Implements RFC 1950/1951 from scratch: an LZ77 tokenizer over a 32 KiB
window (hash chains keyed on 3-byte prefixes), fixed and dynamic Huffman
blocks (length-limited codes via package-merge), stored blocks, and a
table-driven inflater with one bit reader, modeled on libdeflate's
``REFILL_BITS``: below 48 buffered bits it ORs in the next 16 bytes, zeros
past the end of the data. As in zlib's ``inflate.c``, one loop reads every
block header, a dynamic block's counts, code-length code and code lengths
included, and every symbol, so one exception handler decides whether a
stream was cut, wherever the cut falls: an error raised after more bits
than the data holds were consumed is a truncation. As in zlib's
``inftrees.c``, each decode table entry says everything about its code: its
value, its length and its extra bits. A reserved symbol or a code that is
not there is a hole in the table, which the inflater reports as an invalid
code. Output size is checked after every match and at every block end.
Output is always a zlib stream because that is what PNG IDAT carries.

Each alphabet has one table, indexed by symbol, as zlib's ``trees.c`` keeps
one per alphabet: ``_LIT_VALUE`` and ``_LIT_XB`` (a byte, end-of-block 256 or
256 + a base length, and its extra bits), ``_DIST_BASE`` and ``_DIST_XB``,
and ``_CODELEN_REPEATS``, the shortest run and extra bits of code-length
symbols 16-18. The encoder's length and distance lookups are ``np.repeat``
over each symbol's span, inflate's decode meanings are a ``zip`` of the same
arrays, and the code-length runs take their limits from the repeat table.

Every Huffman code has one form: an int64 array of code lengths (from
package-merge, or the fixed lengths) and the uint64 array of its canonical
codes, bit-reversed for LSB-first bits, that one numpy function,
``_codes_from_lengths``, builds from it. The packer, the block plan and
inflate's decode tables all read that pair.

The token stream is the parse's match array, one int64 ``start << 25 |
length << 16 | distance`` per match in input order (below); the literals
are the input bytes no match covers. The Huffman stage (``_tokens``) takes
each token's start from one ``cumsum``, a literal's symbol from the input
there and the length and distance fields from the matches alone, then
places the blocks (below), each priced from one histogram of its symbols.
One numpy packer, ``_BitWriter.pack``, writes every bit: a fixed or dynamic
block's header, its tokens at most ``_EMIT_TOKENS`` per call and its
end-of-block (``_emit_block``), a stored
block's 3-bit header (``_emit_stored``). A level 1 block spans the whole
input and a merged one may, so the cap keeps the packer's temporary arrays,
a dozen uint64 per token, the same size whatever the blocks.
``Literal``/``Match`` objects exist only at the public edge,
``lz77_tokenize`` and ``lz77_expand``.

Levels: 0 stored only; 1 fixed codes; 2 and 3 dynamic codes. Levels 1-3
run one LZ77 parse, lazy matching (RFC 1951 section 4), and differ only in
its row of budgets (``_BUDGETS``), as a zlib level is a row of its
``configuration_table`` (deflate.c): the most hash-chain links a walk takes,
4, 16 and 32, and the most window search rounds after it, 8 at level 3 and
none below. One loop writes the blocks
of every level: level 0 is one stored block, level 1 one fixed block.
Levels 2-3 place their boundaries by cost (``_plan_blocks``), after zopfli's
``ZopfliBlockSplitLZ77`` (blocksplitter.c). The tokens are cut into chunks
of 2 KiB of input, whose symbol histograms come from one ``np.bincount`` and
are summed into prefix sums, so any span of chunks has its histogram in one
subtraction: 286 literal/length counts, then 30 distance counts. Every
block the plan prices is such a span and is priced from that one histogram
(``_priced_block``): its dynamic code's bits, its fixed bits from the
per-symbol table the estimate reads too, and its stored bits. A span is
split at the point where an estimate is least, and the sides in turn,
while splitting beats not splitting: the estimate is the order-0 entropy
of the literal/length and distance symbols, plus a flat header guess and a
little per symbol, plus the exact extra bits, or the exact fixed or stored
size when smaller, computed at every split point of a span at once. The
spans kept are priced exactly, then neighbours merge left to right: the
block so far absorbs the next one whenever the chunks from its first to
the next one's last, priced as one span, cost less than the two apart.
When the plan has more than one block, the whole input is priced the same
way as one span; if it costs no more, it is the plan.
A walk takes a quarter of its links when the pending match is already 32
bytes long (``_GOOD_LENGTH``). zlib's ``longest_match`` walks its chain in
C; here the walk is a Python loop, and 32 links can end among nearer
copies of a key before they reach an older, longer one, such as the row
above a flat k=10 row. So when level 3's walk spends its whole budget and
holds a match shorter than the longest possible, it searches the window at
C speed: ``bytes.rfind`` finds the nearest earlier copy of the held
match's bytes and one more, the XOR compare measures it, and the next
round asks for one byte more than the new best, scanning only below the
last hit, for at most its row's rounds. A level 3 position thus costs at
most 32 links plus at most 8 ``rfind`` calls whose scans together cover
the window at most once. Every search stops at a 258-byte match.
Every level drops a match of length 3 farther than 256 bytes or of length
4 farther than 4096 (``_FAR_LIMIT``), after zlib's ``TOO_FAR`` in
``deflate_slow``, which drops length 3 beyond 4096: on noisy content such a
match's codes and extra bits cost more than its literals. Under level 1's
fixed codes a far length-3 match costs 19-22 bits, below its literals'
24-27, so level 1 gives up a few percent of its bytes there for one rule
at every level.

The tokenizer builds the hash chain links of the positions it parses in
numpy before it parses them (``_Parse.link``), as zlib's ``deflate.c``
keeps ``prev[]``: ``prev[i]`` is the latest earlier position with ``i``'s
3-byte key, in an int32 array, so no Python int stays alive per position.
A position whose key is the key one back links to ``i - 1``. Only the last
position of each run of equal keys goes into one ``np.sort`` of ``key <<
17 | run`` per ``_LINK_SEGMENT`` = 64 KiB of positions and the 32 KiB
window before them (``_run_links``), and each run's first position links
to the end of the run before it with its key. The keys are uint32 views of
the data; only the last segment, whose last key reads past the end, copies
its tail. The sort keys are unique, so the links do not depend on the
sort's algorithm or on where a segment starts, and the temporaries stay
near 5 MB whatever the input's size (about 2 ms per 786 KB of flat
content, 25 ms of noisy). The parse
reads ``prev`` through a ``memoryview`` and writes nothing: it keeps no
dict and inserts nothing, and the inside of every match is on its key's
chain. Beside ``prev`` it keeps ``live``, a ``bytearray`` of one byte per
position, 1 where the position's link is inside its window and 0 where
the position is lone (a first-window position with no link included),
filled from each segment's links in the same pass. A lone position
cannot match: with no match pending it starts a literal run, which ends at
the next live position, found by ``live.find`` at C speed (``memchr``), or
at the end of the input. The parse records only its matches, each as one
int ``start << 25 | length << 16 | distance``: it touches no literal, and
a pending match the next position beats records nothing. Those ints, as
one int64 array, are the token stream. Every chain candidate shares the
position's 3 bytes, and a walk visits them nearest first, so while a walk holds
nothing, a candidate farther than 256 bytes whose fourth byte differs is a
match ``_FAR_LIMIT`` drops: the walk passes over it without building the
258-byte compare.

The parse skips the walk at a dead position: one whose 4 bytes have no
earlier copy starting inside the window and whose link is farther than
``_FAR_LIMIT[3]``. The skip is exact. The chain visits only positions in
the window at or beyond the link's distance; each shares the position's
3-byte key and, with no 4-byte copy in the window, none its fourth byte,
so each is a length-3 match past the limit. With nothing pending the walk
passes every one over and holds nothing, so no window search starts and it
returns no match. With a match pending, a candidate must beat at least 3
bytes, and none is longer than 3. ``_clear_dead`` finds the dead
positions with the chain's own run sort on 4-byte keys: a position has a
4-byte copy in its window when its 4-byte link is inside the window, one
``_LINK_SEGMENT`` at a time, and it clears each dead position's byte in
``live``. It runs only after ``_DEAD_TRIGGER`` = 64 walks that started
past the limit found nothing, which flat k=10 content does not reach, so
only content that pays for the sort runs it (15-25 ms per 786 KB). From
there on a dead position is lone, so with nothing pending it joins a
literal run and with a match pending it lets the match commit, and the
parse tests ``live`` alone.

On two CPUs, a long input whose parse steps often is parsed by two
processes at once, and the matches are the serial parse's. The parse is a
function of its loop state ``(i, pend_len, pend_dist)`` alone, since the
dead positions change which walks run and not what they return. So a
forked child parses the tail from a split point ``mid``, started cold with
nothing pending, and records each loop state it passes; the parent parses
up to ``mid``, then on until its state is one the child passed, and from
there takes the child's matches. Where no state is shared, the parent
parses to the end itself, which is the serial parse. The gate
(``_split_point``) reads the input alone, past the CPU count: at least
``_SPLIT_MIN`` = 320 KiB, and one loop step or more per
``_SPLIT_STEP_BYTES`` = 128 bytes in the parse of the first eighth,
which the parent runs first. Flat k=10 content
takes about one per 250 bytes and stays serial, since its parse is short
and its 258-byte matches re-align slowly; lossless and noisy content
takes one per 15-60 bytes. The split point halves the rest of the input.
The child ends with ``os._exit`` after it writes its piece to a pipe, and
the parent reaps it, or kills and reaps it if the parent raises first
(``_forked_matches``), through a pidfd only. If the fork fails or the
child's piece is incomplete, the parent parses the rest itself.

Every integer argument (level, checksum start value, ``max_output``, token
fields) passes :func:`kpng.errors._check_int`, and the data given to
``crc32``, ``adler32``, ``lz77_tokenize``, ``deflate_compress`` and
``inflate`` passes :func:`kpng.errors._check_bytes`.
"""

from __future__ import annotations

import contextlib
import os
import signal
import sys
import warnings
from bisect import bisect_left
from dataclasses import dataclass
from enum import IntEnum
from typing import NamedTuple

import numpy as np

from .errors import (
    ChecksumMismatchError,
    CorruptStreamError,
    DistanceTooFarError,
    ParameterError,
    TruncatedStreamError,
    ZlibHeaderError,
    _check_bytes,
    _check_int,
)

WINDOW_SIZE = 32768
MIN_MATCH = 3
MAX_MATCH = 258
_STORED_MAX = 65535  # LEN is 16 bits
_EMIT_TOKENS = 1 << 16  # tokens coded per _BitWriter.pack call
# levels 2-3 place block boundaries by estimated cost (_plan_blocks)
_CHUNK_BITS = 11
_CHUNK_INPUT = 1 << _CHUNK_BITS  # input bytes per chunk, the grain of a boundary
_MIN_BLOCK = 16384  # input bytes a split leaves on each side, at least
_SPLIT_DEPTH = 16  # the most nested splits of one span of chunks
# a dynamic block's estimated bits above the order-0 entropy and extra bits:
# a flat header guess, and the bits per coded symbol a Huffman code spends
# above the entropy. On the benchmark's images measured headers average
# 584-883 bits and the excess 0.024-0.027 bits per symbol. The guess sits
# above the headers: below about 900 bits, text of one vocabulary throughout
# is split where the LZ77 window is still filling at its start
_HEADER_GUESS = 1000
_REDUNDANCY = 0.025
_MERGE_SLACK = 300  # bits: a merge is priced when estimated at most this much dearer

_ADLER_MOD = 65521
# zlib's NMAX (adler32.c): the most bytes whose weighted sum, 255 * 5552 *
# 5553 / 2 = 3,930,857,640, still fits a uint32
_ADLER_NMAX = 5552
_ADLER_WEIGHTS = np.arange(_ADLER_NMAX, 0, -1, dtype=np.uint32)
_ADLER_GROUP = 189 * _ADLER_NMAX  # whole blocks, about 1 MiB per numpy pass
_CRC_LANE = 256  # bytes per lane of the vectorized CRC-32
# the lane pass costs about 1.6 ms whatever the input (256 numpy steps)
# against 0.16 us per byte for the loop, so it starts at 16 KiB
_CRC_MIN_LANES = 64


class CompressionLevel(IntEnum):
    """DEFLATE levels. Levels 1-3 run one LZ77 parse, with the row of
    ``_BUDGETS`` named beside each: the most chain links a walk takes, and
    the most ``rfind`` rounds of the window search after a walk that spends
    them all.

    - ``STORED``: stored blocks, no parse.
    - ``FIXED``: 4 links, no window search, one fixed-code block.
    - ``DYNAMIC``: 16 links, no window search, dynamic blocks placed by cost.
    - ``LAZY``: 32 links and 8 rounds, dynamic blocks placed by cost.
    """

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
    return _check_int("compression level", level, 0, 3)


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
_CRC_TABLE_U32 = np.array(_CRC_TABLE, np.uint32)


def _make_crc_shift_tables() -> tuple[list[int], ...]:
    """Four 256-entry tables, one per register byte, whose XOR advances a
    CRC register over ``_CRC_LANE`` zero bytes. The register step is linear
    over GF(2) (the step behind zlib's ``crc32_combine``), so entry v of
    table k is the register ``v << 8k`` run through ``crc32``'s lane step
    over that many zero bytes."""
    regs = np.arange(256, dtype=np.uint32) << np.arange(0, 32, 8, dtype=np.uint32)[:, None]
    for _ in range(_CRC_LANE):
        regs = (regs >> 8) ^ _CRC_TABLE_U32[regs & 0xFF]
    return tuple(regs.tolist())


_CRC_SHIFT = _make_crc_shift_tables()


def crc32(data: bytes, value: int = 0) -> int:
    """CRC-32 (reflected 0xEDB88320, init/final XOR 0xFFFFFFFF).

    Pass a previous result as ``value`` (an int in [0, 2**32)) to checksum a
    stream incrementally. Inputs of at least ``_CRC_MIN_LANES`` lanes of
    ``_CRC_LANE`` bytes run the table step on every lane at once in numpy,
    then fold the lane registers in order, each fold shifting the running
    register over one lane of zero bytes; the tail and shorter inputs take
    the per-byte loop.
    """
    crc = _check_int("CRC-32 value", value, 0, 0xFFFFFFFF) ^ 0xFFFFFFFF
    tail = memoryview(_check_bytes("data", data))
    lanes = len(tail) // _CRC_LANE
    if lanes >= _CRC_MIN_LANES:
        cols = np.frombuffer(tail, np.uint8, lanes * _CRC_LANE).reshape(lanes, _CRC_LANE)
        regs = np.zeros(lanes, np.uint32)
        regs[0] = crc
        for j in range(_CRC_LANE):
            regs = (regs >> 8) ^ _CRC_TABLE_U32[(regs ^ cols[:, j]) & 0xFF]
        s0, s1, s2, s3 = _CRC_SHIFT
        regs = regs.tolist()
        crc = regs[0]
        for r in regs[1:]:
            crc = s0[crc & 0xFF] ^ s1[(crc >> 8) & 0xFF] ^ s2[(crc >> 16) & 0xFF] ^ s3[crc >> 24] ^ r
        tail = tail[lanes * _CRC_LANE :]
    table = _CRC_TABLE
    for b in tail.tobytes():
        crc = (crc >> 8) ^ table[(crc ^ b) & 0xFF]
    return crc ^ 0xFFFFFFFF


def adler32(data: bytes, value: int = 1) -> int:
    """Adler-32: s1/s2 accumulated mod 65521, packed s2<<16 | s1.

    Pass a previous result as ``value`` (an int in [0, 2**32)) for
    incremental use. Uses the closed form s2 += n*s1 + sum((n-i)*d[i]) over
    blocks of zlib's ``NMAX`` = 5552 bytes, where a weighted sum fits a
    uint32. The input is read in groups of whole blocks, about 1 MiB, so
    temporaries stay bounded: per group, one uint8 @ uint32 product gives
    every block's weighted sum and one uint32 row sum its byte sum; the
    blocks, then the group's tail of under 5552 bytes, fold in order, each
    block's weighted sum shifted by the bytes after it in the group.
    """
    value = _check_int("Adler-32 value", value, 0, 0xFFFFFFFF)
    # reduced as zlib reduces a start value, even for empty data
    s1 = (value & 0xFFFF) % _ADLER_MOD
    s2 = (value >> 16) % _ADLER_MOD
    d = np.frombuffer(_check_bytes("data", data), np.uint8)
    for start in range(0, d.size, _ADLER_GROUP):
        group = d[start : start + _ADLER_GROUP]
        m, r = divmod(group.size, _ADLER_NMAX)
        blocks = group[: m * _ADLER_NMAX].reshape(m, _ADLER_NMAX)
        tail = group[m * _ADLER_NMAX :]
        sums = blocks.sum(axis=1, dtype=np.uint32)
        after = np.arange(m - 1, -1, -1, dtype=np.int64) * _ADLER_NMAX + r
        weighted = (
            int((blocks @ _ADLER_WEIGHTS).sum())
            + int(sums @ after)
            + int(tail @ _ADLER_WEIGHTS[_ADLER_NMAX - r :])
        )
        s2 = (s2 + group.size * s1 + weighted) % _ADLER_MOD
        s1 = (s1 + int(sums.sum()) + int(tail.sum())) % _ADLER_MOD
    return (s2 << 16) | s1


# ---------------------------------------------------------------------------
# Alphabets (RFC 1951 sections 3.2.5 and 3.2.7), one table each by symbol


def _base_values(first: int, xb: np.ndarray) -> np.ndarray:
    """Base of each code in a run of codes that take 2^xb values each, from
    ``first`` up; in int64, since ``1 << xb`` on uint8 stays uint8."""
    span = 1 << xb.astype(np.int64)
    return first + np.cumsum(span) - span


# literal/length symbol -> value and extra bits; code 285 is length 258 alone
_LIT_XB = np.repeat(np.array([0, 1, 2, 3, 4, 5, 0], np.uint8), [265, 4, 4, 4, 4, 4, 1])
_LIT_VALUE = np.concatenate((np.arange(257), 256 + _base_values(MIN_MATCH, _LIT_XB[257:285]), [256 + MAX_MATCH]))
# distance symbol -> base and extra bits
_NDIST = 30  # distance symbols
_DIST_XB = np.repeat(np.arange(14, dtype=np.uint8), [4] + [2] * 13)
_DIST_BASE = _base_values(1, _DIST_XB)
# code-length symbols 16 (the previous length) and 17, 18 (zero) -> (shortest run, extra bits)
_CODELEN_REPEATS = ((3, 2), (3, 3), (11, 7))

# match length -> length symbol, extra bits and base; 0-2 map to end-of-block
_LEN_SYM = np.repeat(np.arange(256, 286, dtype=np.uint16), np.diff(_LIT_VALUE[256:], append=257 + MAX_MATCH))
_LEN_XB = _LIT_XB[_LEN_SYM]
_LEN_BASE = (_LIT_VALUE[_LEN_SYM] - 256).astype(np.uint16)
# distance -> distance symbol; 0, which no match has, maps to 0
_DIST_SYM = np.append(np.uint8(0), np.repeat(np.arange(_NDIST, dtype=np.uint8),
                                             np.diff(_DIST_BASE, append=WINDOW_SIZE + 1)))

# inflate's (value, extra bits) per symbol, as Python ints
_LIT_MEANINGS = list(zip(_LIT_VALUE.tolist(), _LIT_XB.tolist()))
_DIST_MEANINGS = list(zip(_DIST_BASE.tolist(), _DIST_XB.tolist()))
_CODELEN_MEANINGS = [(s, 0) for s in range(16)] + [(sym, xb) for sym, (_, xb) in enumerate(_CODELEN_REPEATS, 16)]

_CODELEN_ORDER = [16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15]

_FIXED_LIT_LENGTHS = np.repeat(np.array([8, 9, 7, 8], np.int64), [144, 112, 24, 8])
_FIXED_DIST_LENGTHS = np.full(32, 5, np.int64)


# ---------------------------------------------------------------------------
# Huffman code construction


# package-merge item key: weight << 20 | first symbol << 1 | 1 if single
_WEIGHT_MASK = -1 << 20
_FIRST_SYMBOL_MASK = 511 << 1


def _limited_code_lengths(freqs: np.ndarray, max_bits: int) -> np.ndarray:
    """Optimal length-limited code lengths (package-merge). 0 = symbol unused.

    Level 1 lists the used symbols by (weight, symbol); each later level
    merges them with the packages of consecutive pairs of the level before.
    An item is one int64 key (weight, then first symbol, then whether it is
    a single): items of equal weight never share a first symbol unless both
    are packages, and packages keep the order they were made in, so sorting
    the keys orders each level as sorting (weight, symbol tuple) pairs does.
    Each level is one numpy sort.

    The cheapest 2(n-1) items of the last level are chosen. The packages
    among a level's chosen prefix expand to the prefix of the level below
    twice their number long, and the singles in a prefix are the cheapest
    ones, so only each level's count of chosen singles is needed: a
    symbol's length is the number of levels that chose it.
    """
    syms = freqs.nonzero()[0]
    singles = freqs[syms] << 20 | syms << 1 | 1
    singles.sort()
    n = len(singles)
    lengths = np.zeros(len(freqs), np.int64)
    if n < 2:
        lengths[syms] = 1
        return lengths
    levels = [singles]
    for _ in range(max_bits - 1):
        prev = levels[-1]
        first = prev[: len(prev) - 1 : 2]
        level = np.concatenate(((first + prev[1::2]) & _WEIGHT_MASK | first & _FIRST_SYMBOL_MASK, singles))
        level.sort()
        if len(level) == len(prev) and (level == prev).all():
            break  # every later level is this list again
        levels.append(level)
    levels += [levels[-1]] * (max_bits - len(levels))
    chose = [0] * (n + 1)  # chose[c]: levels whose chosen prefix holds c singles
    take = 2 * (n - 1)
    keys = singles.tolist()
    for level in reversed(levels):
        c = bisect_left(keys, int(level[take])) if take < len(level) else n
        chose[c] += 1
        take = 2 * (take - c)
    # the single of rank r is chosen by every level that chose more than r
    lengths[singles >> 1 & 511] = np.cumsum(chose[:0:-1])[::-1]
    return lengths


# a code of length l takes 2^(15 - l) of the 15-bit code space; no code, none
_CODE_SPAN = np.array([0] + [1 << (15 - l) for l in range(1, 16)], np.int64)
# every 15-bit value, its bits reversed
_REVERSE_15 = sum((np.arange(1 << 15, dtype=np.uint64) >> b & 1) << 14 - b for b in range(15))


def _codes_from_lengths(lengths: np.ndarray) -> np.ndarray:
    """Canonical codes (RFC 1951 section 3.2.2) of an int64 array of code
    lengths, bit-reversed for LSB-first writing, as a uint64 array; a symbol
    of length 0 gets 0.

    In (length, symbol) order, each code read as a 15-bit fraction is the
    sum of the spans ``2^(15 - l)`` of the codes before it, and reversing
    its 15 bits leaves its own l bits at the bottom, already reversed. The
    lengths must satisfy the Kraft inequality, spans summing to at most
    ``2^15``: on an oversubscribed code the sum runs past the reversal table
    and the lookup raises ``IndexError``, so a decoder checks it first.
    """
    order = np.argsort(lengths, kind="stable")
    span = _CODE_SPAN[lengths[order]]
    codes = np.empty(len(lengths), np.uint64)
    codes[order] = _REVERSE_15[np.cumsum(span) - span]
    return codes


def _code_arrays(lengths: np.ndarray, nsym: int) -> tuple[np.ndarray, np.ndarray]:
    """(codes, nbits) as uint64 arrays for symbols 0..nsym-1."""
    return _codes_from_lengths(lengths)[:nsym], lengths[:nsym].astype(np.uint64)


_FIXED_LIT_CODES = _code_arrays(_FIXED_LIT_LENGTHS, 286)
_FIXED_DIST_CODES = _code_arrays(_FIXED_DIST_LENGTHS, _NDIST)


# ---------------------------------------------------------------------------
# LZ77 tokenizer


class _Budget(NamedTuple):
    """One level's row of the parse, as a level is a row of zlib's
    ``configuration_table`` (deflate.c)."""

    chain: int  # the most hash-chain links a walk takes
    rounds: int  # the most rfind rounds of the window search after a walk that spends them all


# each level's row, by level: a smaller row gives up bytes for time, and
# only level 3 searches the window (CHANGES.md has the measurements)
_BUDGETS = {1: _Budget(4, 0), 2: _Budget(16, 0), 3: _Budget(32, 8)}
# a pending match this long quarters the lazy search's chain (zlib level 9's
# good_length in deflate.c ``configuration_table``)
_GOOD_LENGTH = 32
# the farthest distance at which the parse takes a match of length 3 or 4,
# indexed by length. zlib's ``TOO_FAR`` drops only length 3 beyond 4096;
# these limits give smaller output on noisy k=10 content (CHANGES.md has
# the measurements, under "Level 3 drops short far matches")
_FAR_LIMIT = (0, 0, 0, 256, 4096)
# the parse clears its dead positions from ``live`` (``_clear_dead``)
# after this many walks that started past ``_FAR_LIMIT[3]`` and found nothing
_DEAD_TRIGGER = 64
# positions per pass of the link build (``_run_links``); each pass also
# reads the window before them
_LINK_SEGMENT = 65536
_LINK_RUN_BITS = (_LINK_SEGMENT + WINDOW_SIZE - 1).bit_length()
# the two-process parse (``_split_point``): an input shorter than this
# parses serially, and so does one whose parse of its first eighth takes
# fewer than one loop step per _SPLIT_STEP_BYTES bytes. Level 3 on prefixes
# of noisy k=10 content, the cheapest to parse that splits, tokenized in
# 0.98-1.09x the serial time at 256 KiB and 0.77-0.94x at 320 KiB (seed 7,
# a 90 MB process on 2 vCPUs); lossless content paid from 64 KiB
_SPLIT_MIN = 5 << 16
_SPLIT_STEP_BYTES = 128


def _keys(data: bytes, s: int, b: int) -> np.ndarray:
    """The 4 bytes at each position from ``s`` to ``b - 1`` as little-endian
    uint32s, a view of ``data``; where the last keys read past its end, a
    copy of the tail from ``s`` with zeros after it."""
    if b + 3 > len(data):
        return np.ndarray((b - s,), "<u4", data[s:] + bytes(b + 3 - len(data)), 0, (1,))
    return np.ndarray((b - s,), "<u4", data, s, (1,))


def _run_links(data: bytes, a: int, b: int, width: int) -> np.ndarray:
    """The links of positions ``a`` to ``b - 1``, each to the latest earlier
    position with its ``width``-byte key, the low ``width`` bytes of its
    little-endian uint32 (``_keys``); -1 where there is none from ``a -
    WINDOW_SIZE`` on. A link more than a window back may read as a position.

    A position whose key is the key one position back links to ``i - 1``.
    Only the last position of each run of equal keys is sorted: one
    ``np.sort`` of ``key << _LINK_RUN_BITS | run`` over the positions and
    the window before them puts the runs of each key together in order, and
    each run's first position links to the last position of the run before
    it there. The sort keys are unique, so the links do not depend on the
    sort's algorithm, and the temporaries are a few arrays of the segment
    and its window."""
    s = max(a - WINDOW_SIZE, 0)
    k = _keys(data, s, b) & ((1 << 8 * width) - 1)
    ends = np.append(np.flatnonzero(k[1:] != k[:-1]), b - s - 1)  # each run's last offset
    v = k[ends].astype(np.uint64)
    del k  # freed before the links are built
    v <<= _LINK_RUN_BITS
    v |= np.arange(len(ends), dtype=np.uint64)
    v.sort()
    run = (v & ((1 << _LINK_RUN_BITS) - 1)).astype(np.intp)
    v >>= _LINK_RUN_BITS
    # back[r]: the last position of the run before run r with its key, or -1
    back = np.full(len(ends), -1, np.int64)
    back[run[1:]] = np.where(v[1:] == v[:-1], ends[run[:-1]] + s, -1)
    link = np.arange(s - 1, b - 1, dtype=np.int32 if b < 1 << 31 else np.int64)  # each links to the one before
    link[ends[:-1] + 1] = back[1:]  # but a run's first to the run before it with its key
    return link[a - s :]


def _in_window(link: np.ndarray, a: int) -> np.ndarray:
    """Where the link of each position ``i`` from ``a`` on is inside its
    window: at or past ``max(i - WINDOW_SIZE, 0)``, so -1 never is."""
    floor = np.arange(a - WINDOW_SIZE, a - WINDOW_SIZE + len(link), dtype=link.dtype)
    np.maximum(floor, 0, out=floor)
    return link >= floor


def _clear_dead(data: bytes, live: bytearray, prev: memoryview, lo: int, far: int) -> None:
    """Clears ``live`` at each dead position from ``lo`` to its end: one
    whose 4 bytes have no copy starting in its window and whose link is
    farther than ``far``. The copies are one ``_run_links`` of 4-byte keys
    per ``_LINK_SEGMENT`` positions; a position without 4 bytes stays as it
    is."""
    mask = np.frombuffer(live, bool)
    links = np.asarray(prev)
    end = min(len(live), len(data) - 3)
    for a in range(lo, end, _LINK_SEGMENT):
        b = min(a + _LINK_SEGMENT, end)
        dead = ~_in_window(_run_links(data, a, b, 4), a)
        dead &= np.arange(a, b) - links[a:b] > far
        mask[a:b][dead] = False


class _Parse:
    """One piece of the LZ77 parse: its loop state ``(i, pend_len,
    pend_dist)``, the matches it recorded, its loop steps, and the hash
    chain links it has built, from a window before its start on.

    ``prev[i]`` links position ``i`` to the latest earlier position with its
    3-byte key, the hash chain of zlib's ``deflate.c`` ``prev[]``; -1 where
    there is none. A link more than a window back may read -1 instead: a
    walk stops at either, below its floor. ``live[i]`` is 1 where a chain
    walk from position ``i`` may run, its link at or past ``max(i -
    WINDOW_SIZE, 0)``, and 0 where the position is lone. ``live`` grows by
    a byte per position as the links are built, so its length is how far
    they reach. A piece that starts at ``start`` reads no position before
    ``start - WINDOW_SIZE``: their links are never built and their ``live``
    bytes stay 0."""

    def __init__(self, data: bytes, budget: _Budget, start: int = 0):
        n = len(data)
        self.data, self.budget = data, budget
        self.limit = max(n - 2, 0)  # positions below this have a full 3-byte key
        self.links = np.empty(n, np.int32 if n < 1 << 31 else np.int64)  # read only where built
        self.prev = memoryview(self.links)
        self.live = bytearray(min(max(start - WINDOW_SIZE, 0), self.limit))
        self.dead = False  # whether the links built from now on clear their dead positions
        self.state = (start, 0, 0)
        self.matches: list[int] = []  # start << 25 | length << 16 | distance
        self.steps = 0  # loop iterations run
        self.misses = 0  # walks that started past far3 and found nothing

    def link(self, to: int) -> None:
        """Builds the links of every position up to ``to`` at least, one
        ``_run_links`` of 3-byte keys per ``_LINK_SEGMENT`` positions; once
        the parse clears dead positions, one ``_clear_dead`` clears those
        among them."""
        lo = len(self.live)
        for a in range(lo, min(to, self.limit), _LINK_SEGMENT):
            b = min(a + _LINK_SEGMENT, self.limit)
            self.links[a:b] = link = _run_links(self.data, a, b, 3)
            self.live += memoryview(_in_window(link, a))
        if self.dead:
            _clear_dead(self.data, self.live, self.prev, lo, _FAR_LIMIT[3])

    def run(self, stop: int, record: list[int] | None = None, join: memoryview | None = None) -> int | None:
        """Parses on from ``state`` until the position reaches ``stop``, and
        builds the next segment's links wherever the links run out.

        ``record`` gets each loop state the parse passes, packed as ``i <<
        25 | pend_len << 16 | pend_dist``, then the count of matches
        recorded before it. With ``join``, such states in increasing order,
        the last past every state the parse reaches, the parse stops at the
        first state it holds and returns that state's index there; otherwise
        it returns None. A parse's states increase, since every loop step
        advances ``i``, so one cursor walks ``join`` alongside."""
        data, live, prev = self.data, self.live, self.prev
        matches = self.matches
        append = matches.append
        max_chain, rounds = self.budget
        good_length = _GOOD_LENGTH
        far3 = _FAR_LIMIT[3]  # the farthest length-3 match taken
        far4 = _FAR_LIMIT[4]
        n = len(data)
        limit = self.limit
        trigger = _DEAD_TRIGGER
        misses = self.misses  # equals trigger once at most
        steps = self.steps
        i, pend_len, pend_dist = self.state
        at = None
        cur = 0  # the first state in join not below the parse's
        while True:
            end = stop if len(live) == limit else min(stop, len(live))
            while i < end:
                if record is not None:
                    record += i << 25 | pend_len << 16 | pend_dist, len(matches)
                elif join is not None:
                    state = i << 25 | pend_len << 16 | pend_dist
                    while join[cur] < state:
                        cur += 1
                    if join[cur] == state:
                        at = cur
                        break
                steps += 1
                best_len = 0
                best_dist = 0
                if i < limit:
                    if not live[i]:
                        # a lone position, or a dead one: every candidate is a
                        # length-3 match past far3 and no copy of its 4 bytes is
                        # in the window, so the walk would find nothing
                        if not pend_len:
                            # a literal, and so is every position before the
                            # next live one; past the last, every one to end
                            i = live.find(1, i + 1, end)
                            if i < 0:
                                i = end
                            continue
                    else:
                        j = prev[i]
                        far = i - j > far3
                        floor = i - WINDOW_SIZE if i > WINDOW_SIZE else 0
                        max_len = n - i
                        if max_len > MAX_MATCH:
                            max_len = MAX_MATCH
                        # a lazy search only has to beat the pending match
                        bl = pend_len or MIN_MATCH - 1
                        if bl < max_len:
                            bd = 0
                            c = data[i + bl]
                            here = None
                            for _ in range(max_chain >> 2 if pend_len >= good_length else max_chain):
                                if j < floor:
                                    break
                                # cheap reject: candidate must beat the current best length
                                if data[j + bl] == c:
                                    if bl == 2 and i - j > far3 and (max_len < 4 or data[j + 3] != data[i + 3]):
                                        # nothing is held and this is a length-3
                                        # match too far to keep. Every later
                                        # candidate is farther and must be 4 long
                                        # anyway, so passing it over leaves the
                                        # walk's result as it was
                                        j = prev[j]
                                        continue
                                    # the match length is the count of trailing
                                    # zero bytes of the two windows XORed as
                                    # little-endian integers
                                    if here is None:
                                        here = int.from_bytes(data[i : i + max_len], "little")
                                    x = here ^ int.from_bytes(data[j : j + max_len], "little")
                                    l = ((x & -x).bit_length() - 1) >> 3 if x else max_len
                                    if l > bl:
                                        bl = l
                                        bd = i - j
                                        if l >= max_len:
                                            break
                                        c = data[i + l]
                                j = prev[j]
                            else:
                                if rounds and bd:
                                    # the budget ran out holding a match: each
                                    # round finds the nearest copy one byte
                                    # longer, below the last hit, so the rounds
                                    # scan the window once
                                    top = i + bl
                                    for _ in range(rounds):
                                        if bl >= max_len:
                                            break
                                        j = data.rfind(data[i : i + bl + 1], floor, top)
                                        if j < 0:
                                            break
                                        x = here ^ int.from_bytes(data[j : j + max_len], "little")
                                        bl = ((x & -x).bit_length() - 1) >> 3 if x else max_len
                                        bd = i - j
                                        top = j + bl
                            # no length-3 test: far ones were passed over, and a
                            # held match is only ever lengthened
                            if bd and (bl > 4 or bd <= far4):
                                best_len = bl
                                best_dist = bd
                            elif far and not bd:
                                misses += 1
                                if misses == trigger:
                                    self.dead = True
                                    _clear_dead(data, live, prev, i + 1, far3)

                start = i
                if pend_len:
                    # unless the next position found a strictly longer match,
                    # which demotes the pending one to a literal, the pending
                    # one commits
                    if best_len <= pend_len:
                        start, best_len, best_dist = i - 1, pend_len, pend_dist
                    pend_len = 0
                if not best_len:
                    i += 1
                elif start == i and best_len < MAX_MATCH:
                    # hold the match back and see whether the next position beats it
                    pend_len, pend_dist = best_len, best_dist
                    i += 1
                else:
                    append(start << 25 | best_len << 16 | best_dist)
                    i = start + best_len
            if at is not None or i >= stop:
                break
            self.link(len(live) + 1)
        self.state = (i, pend_len, pend_dist)
        self.misses, self.steps = misses, steps
        return at


def _two_cpus() -> bool:
    """Whether this process may fork and run on two CPUs at least."""
    return hasattr(os, "fork") and hasattr(os, "sched_getaffinity") and len(os.sched_getaffinity(0)) > 1


def _split_point(p: _Parse) -> int | None:
    """Where the two-process parse splits the input of ``p``, a parse not yet
    started, or None if it parses serially: on one CPU, below
    ``_SPLIT_MIN`` bytes, and where the parse of the first eighth of the
    input, which ``p`` runs, took fewer than one loop step per
    ``_SPLIT_STEP_BYTES``. Past that eighth, the split point halves the rest."""
    n = len(p.data)
    if n < _SPLIT_MIN or not _two_cpus():
        return None
    gate = n >> 3
    p.link(gate)
    p.run(gate)
    if p.steps * _SPLIT_STEP_BYTES < gate:
        return None
    return (n + gate) >> 1


def _tail_piece(data: bytes, budget: _Budget, mid: int) -> tuple[np.ndarray, np.ndarray]:
    """The parse of ``data`` from ``mid`` on, started cold with nothing
    pending: its matches, and each loop state it passed beside the count of
    matches recorded before it, as int64 arrays (``_Parse.run``'s
    ``record``). The states are in the order passed, so they are sorted."""
    p = _Parse(data, budget, mid)
    p.link(p.limit)
    states: list[int] = []
    p.run(len(data), record=states)
    return np.array(p.matches, np.int64), np.array(states, np.int64).reshape(-1, 2)


def _rejoin(p: _Parse, tail: np.ndarray, states: np.ndarray) -> np.ndarray:
    """The matches of ``p`` parsed on to the first loop state that the tail
    piece passed, then the tail's matches from that state on; or those of
    ``p`` parsed to the end of the input, if it passes no such state."""
    # read in place: a Python int per state would add tens of bytes each
    at = p.run(len(p.data), join=memoryview(np.append(states[:, 0], 1 << 62)))
    head = np.array(p.matches, np.int64)
    return head if at is None else np.concatenate((head, tail[states[at, 1] :]))


def _send(fd: int, tail: np.ndarray, states: np.ndarray) -> None:
    """Writes the tail piece to the pipe ``fd`` as int64s: the count of its
    matches and of its states, its matches, then the states, each beside
    its count of matches."""
    head = np.array([len(tail), len(states)], np.int64)
    view = memoryview(b"".join((head.tobytes(), tail.tobytes(), states.tobytes())))
    while view:
        view = view[os.write(fd, view) :]


def _received(fd: int) -> tuple[np.ndarray, np.ndarray] | None:
    """The tail piece that ``_send`` wrote to the pipe ``fd``, read to its
    end; None if what was written is not all there."""
    chunks = []
    while chunk := os.read(fd, 1 << 20):
        chunks.append(chunk)
    raw = b"".join(chunks)
    if len(raw) < 16 or len(raw) % 8:
        return None
    v = np.frombuffer(raw, np.int64)
    m, s = int(v[0]), int(v[1])
    if len(v) != 2 + m + 2 * s:
        return None
    return v[2 : 2 + m], v[2 + m :].reshape(-1, 2)


# from Python 3.12 on, os.fork warns in a process with more than one OS
# thread, and numpy's BLAS pool is one
_FORK_WARNING = r"This process .*is multi-threaded, use of fork\(\) may lead to deadlocks"


def _forked_matches(p: _Parse, mid: int) -> np.ndarray:
    """The matches of ``p``'s input, its tail piece from ``mid`` on parsed in
    a forked child while ``p`` parses up to ``mid``, then ``_rejoin``.

    The child runs only the tail piece: numpy sorts and comparisons, byte
    compares and ``rfind``, no BLAS call and no lock another thread may
    hold. It writes its piece to a pipe and ends with ``os._exit``, so no
    exit handler, buffered file or test hook of the parent runs in it. The
    parent reads the pipe to its end and reaps the child; if it raises
    first, it kills and reaps the child before the exception leaves. If the
    fork fails or the piece is incomplete, the parent parses the rest
    itself. A host that ignores SIGCHLD or reaps every child may reap this
    one first; ``waitpid`` then raises ``ChildProcessError``, and a complete
    piece stands. The kill goes through a pidfd, which never names a process
    that took the pid after a reap; without one, nothing is sent."""
    no_piece = np.zeros(0, np.int64), np.zeros((0, 2), np.int64)
    r, w = os.pipe()
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", _FORK_WARNING, DeprecationWarning)
            pid = os.fork()
    except BaseException as exc:
        os.close(r)
        os.close(w)
        if not isinstance(exc, OSError):
            raise
        return _rejoin(p, *no_piece)  # no process to spare
    if not pid:
        code = 1
        try:
            os.close(r)
            _send(w, *_tail_piece(p.data, p.budget, mid))
            code = 0
        finally:
            os._exit(code)
    os.close(w)
    pidfd = None
    try:
        with contextlib.suppress(AttributeError, OSError):  # no pidfd on this host
            pidfd = os.pidfd_open(pid)
        p.link(mid)
        p.run(mid)
        tail = _received(r)
        try:
            if os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]):
                tail = None
        except ChildProcessError:
            pass  # reaped elsewhere: only the piece tells whether it finished
        pid = 0
    finally:
        os.close(r)
        if pid:
            if pidfd is not None:
                with contextlib.suppress(ProcessLookupError):
                    signal.pidfd_send_signal(pidfd, signal.SIGKILL)
            with contextlib.suppress(ChildProcessError):
                os.waitpid(pid, 0)
        if pidfd is not None:
            os.close(pidfd)
    return _rejoin(p, *(no_piece if tail is None else tail))


def _tokenize_ops(data: bytes, budget: _Budget) -> np.ndarray:
    """The token stream of ``data``: the parse's matches as one int64 array,
    each ``start << 25 | length << 16 | distance`` in input order; every
    input byte that no match covers is a literal. Matching is lazy (RFC
    1951 section 4) at every level; ``budget`` is the level's row of
    ``_BUDGETS``. A walk takes at most ``budget.chain`` links (a quarter of
    them past a pending match of ``_GOOD_LENGTH``); a walk that spends them
    all holding a match shorter than the longest possible goes on with at
    most ``budget.rounds`` rounds of ``rfind`` over the window, each for the
    bytes at ``i`` one longer than the best so far and each below the last
    hit, so together they scan each window byte once at most. It drops a
    match of length 3 farther than 256 bytes or of length 4 farther than
    4096 (``_FAR_LIMIT``, after zlib's ``TOO_FAR``), so the position is a
    literal or lets the pending match commit. Length 3 is checked in the
    walk and length 4 after it.

    The module docstring tells how the walks read the chain links and the
    ``live`` mask, how the parse skips dead positions, and how it is split
    between two processes (``_split_point``, ``_forked_matches``): the
    matches are the same however many CPUs there are."""
    p = _Parse(data, budget)
    mid = _split_point(p)
    if mid is not None:
        return _forked_matches(p, mid)
    p.link(p.limit)
    p.run(len(data))
    return np.array(p.matches, np.int64)


def lz77_tokenize(data: bytes, level: int | CompressionLevel = CompressionLevel.LAZY) -> list[Token]:
    """Tokenize ``data`` into literals and (length, distance) back-references.

    Expanding the result reproduces ``data`` exactly. Level 0 has no token
    stream and is rejected.
    """
    lv = check_level(level)
    if lv < 1:
        raise ParameterError("level 0 is stored-only and produces no token stream")
    data = _check_bytes("data", data)
    tokens: list[Token] = []
    pos = 0
    for m in _tokenize_ops(data, _BUDGETS[lv]).tolist():
        tokens += map(Literal, data[pos : m >> 25])
        tokens.append(Match(m >> 16 & 0x1FF, m & 0xFFFF))
        pos = (m >> 25) + (m >> 16 & 0x1FF)
    return tokens + list(map(Literal, data[pos:]))


def lz77_expand(tokens) -> bytes:
    """Expand a token stream back into bytes, validating every token."""
    out = bytearray()
    for tok in tokens:
        if isinstance(tok, Literal):
            out.append(_check_int("literal", tok.value, 0, 255))
        elif isinstance(tok, Match):
            length = _check_int("match length", tok.length, MIN_MATCH, MAX_MATCH)
            _copy_match(out, length, _check_int("match distance", tok.distance, 1, WINDOW_SIZE))
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


def _uint64(*vals: int) -> np.ndarray:
    return np.array(vals, np.uint64)


class _BitWriter:
    """LSB-first bits (RFC 1951 3.1.1): whole bytes in ``out``, ``cnt`` < 8 more in ``acc``."""

    __slots__ = ("out", "acc", "cnt")

    def __init__(self, out: bytearray):
        self.out = out
        self.acc = 0
        self.cnt = 0

    def pack(self, vals: np.ndarray, nbits: np.ndarray) -> None:
        """Write each uint64 value's low ``nbits`` bits (at most 64), in order.

        The pending bits are value 0. The values are ORed into little-endian
        64-bit words at offsets taken by cumsum; a value that crosses a word
        boundary spills its high bits into the next word.
        """
        vals = np.concatenate((_uint64(self.acc), vals))
        nbits = np.concatenate((_uint64(self.cnt), nbits))
        ends = np.cumsum(nbits)
        total = int(ends[-1])
        offs = ends - nbits
        word = (offs >> np.uint64(6)).astype(np.intp)
        shift = offs & np.uint64(63)
        lo = vals << shift
        hi = (vals >> np.uint64(1)) >> (np.uint64(63) - shift)
        # index of the first value in each word; value 0 starts word 0
        firsts = np.concatenate(([0], np.flatnonzero(np.diff(word)) + 1))
        idx = word[firsts]
        words = np.zeros(idx[-1] + 2, "<u8")
        words[idx] = np.bitwise_or.reduceat(lo, firsts)
        words[idx + 1] |= np.bitwise_or.reduceat(hi, firsts)
        buf = words.view(np.uint8)
        nbytes = total >> 3
        self.out += buf[:nbytes].tobytes()
        self.cnt = total & 7
        self.acc = int(buf[nbytes]) if self.cnt else 0

    def align(self) -> None:
        if self.cnt:
            self.out.append(self.acc & 0xFF)
            self.acc = 0
            self.cnt = 0


class _Tokens(NamedTuple):
    """The token stream of a parse's match array, in the fields the Huffman
    stage reads (RFC 1951 section 3.2.5). A literal is an input byte that no
    match covers, its symbol the byte; only the matches have length and
    distance fields, one entry per match."""

    start: np.ndarray  # int64, each token's first input byte, then the input size
    sym: np.ndarray  # uint16, each token's literal byte or length symbol 257..285
    at: np.ndarray  # int64, each match's token index, ascending
    len_xv: np.ndarray  # length extra-bit value
    len_xb: np.ndarray  # length extra-bit count
    dsym: np.ndarray  # distance symbol 0..29
    dist_xv: np.ndarray
    dist_xb: np.ndarray


def _tokens(data: bytes, matches: np.ndarray) -> _Tokens:
    """The token stream of ``data`` parsed into the match array ``matches``.
    A token advances the input by 1 and a match by its length, so one
    cumulative sum gives every token's start. A match's token index is its
    start, less what the matches before it cover beyond one token each."""
    length = matches >> 16 & 0x1FF
    dist = matches & 0xFFFF
    at = (matches >> 25) - (np.cumsum(length) - length) + np.arange(len(matches))
    start = np.ones(len(data) - int(length.sum()) + len(matches) + 1, np.int64)
    start[0] = 0
    start[at + 1] = length
    np.cumsum(start, out=start)
    sym = np.frombuffer(data, np.uint8)[start[:-1]].astype(np.uint16)
    sym[at] = _LEN_SYM[length]
    dsym = _DIST_SYM[dist]
    return _Tokens(start, sym, at, (length - _LEN_BASE[length]).astype(np.uint16), _LEN_XB[length],
                   dsym, (dist - _DIST_BASE[dsym]).astype(np.uint16), _DIST_XB[dsym])


def _rle_code_lengths(lengths) -> list[tuple[int, int, int]]:
    """Run-length encode a code-length sequence, an int array or list, into
    (symbol, extra, extra_bits): zeros as 18s, then a 17; another length as
    itself, then 16s. A repeat covers runs from its shortest in
    ``_CODELEN_REPEATS`` to shortest + 2^xb - 1. The runs are found in numpy."""
    (lo16, xb16), (lo17, xb17), (lo18, xb18) = _CODELEN_REPEATS
    hi16, hi17, hi18 = lo16 + (1 << xb16) - 1, lo17 + (1 << xb17) - 1, lo18 + (1 << xb18) - 1
    lengths = np.asarray(lengths, np.int64)
    starts = np.flatnonzero(np.diff(lengths, prepend=-1))
    out = []
    for v, r in zip(lengths[starts].tolist(), np.diff(starts, append=len(lengths)).tolist()):
        if v == 0:
            while r >= lo18:
                take = min(r, hi18)
                out.append((18, take - lo18, xb18))
                r -= take
            while r >= lo17:
                take = min(r, hi17)
                out.append((17, take - lo17, xb17))
                r -= take
        else:
            # runs are maximal, so the previous length always differs
            out.append((v, 0, 0))
            r -= 1
            while r >= lo16:
                take = min(r, hi16)
                out.append((16, take - lo16, xb16))
                r -= take
        out += [(v, 0, 0)] * r
    return out


def _force_two_codes(lengths: np.ndarray) -> None:
    """A Huffman tree with a single leaf is not decodable by strict inflaters;
    pad the length set so at least two symbols carry codes."""
    used = lengths.nonzero()[0]
    if len(used) == 1:
        lengths[used[0]] = 1
        lengths[0 if used[0] != 0 else 1] = 1


_CODELEN_RANK = np.argsort(_CODELEN_ORDER)  # code-length symbol -> header position

# a block's histogram: 286 literal/length symbols, then 30 distance symbols
_NSYM = 286 + _NDIST
# per symbol: its extra bits, and its fixed code's bits plus the extra bits
_SYM_XB = np.concatenate((_LIT_XB[:286], _DIST_XB)).astype(np.int64)
_SYM_FIXED_BITS = np.concatenate((_FIXED_LIT_LENGTHS[:286], _FIXED_DIST_LENGTHS[:_NDIST])) + _SYM_XB


class _DynamicPlan:
    """The dynamic code of a block whose ``_NSYM`` histogram, end-of-block
    counted once, is ``freq``, and the bits of the block coded with it."""

    __slots__ = ("lit_lengths", "dist_lengths", "hlit", "hdist", "hclen", "rle", "cl_lengths", "bits")

    def __init__(self, freq: np.ndarray):
        lit_freq, dist_freq = freq[:286], freq[286:]
        lit_lengths = _limited_code_lengths(lit_freq, 15)
        _force_two_codes(lit_lengths)
        dist_lengths = _limited_code_lengths(dist_freq, 15)

        # a symbol has a code exactly when it occurs; the padding that
        # _force_two_codes may add is below 257
        dist_used = dist_freq.nonzero()[0]
        hlit = max(257, int(lit_freq.nonzero()[0][-1]) + 1)
        hdist = int(dist_used[-1]) + 1 if len(dist_used) else 1
        rle = _rle_code_lengths(np.concatenate((lit_lengths[:hlit], dist_lengths[:hdist])))

        rle_syms, _, rle_xb = zip(*rle)
        cl_freq = np.bincount(rle_syms, minlength=19)
        cl_lengths = _limited_code_lengths(cl_freq, 7)
        _force_two_codes(cl_lengths)
        hclen = max(4, int(_CODELEN_RANK[cl_lengths.nonzero()[0]].max()) + 1)

        bits = 3 + 14 + 3 * hclen + sum(rle_xb) + int(cl_freq @ cl_lengths)
        bits += int(lit_freq @ lit_lengths) + int(dist_freq @ dist_lengths) + int(freq @ _SYM_XB)

        self.lit_lengths = lit_lengths
        self.dist_lengths = dist_lengths
        self.hlit = hlit
        self.hdist = hdist
        self.hclen = hclen
        self.rle = rle
        self.cl_lengths = cl_lengths
        self.bits = bits


def _stored_bits_upper(nbytes):
    """Stored bits of ``nbytes`` input bytes, a numpy int or int array."""
    nchunks = np.maximum(1, -(-nbytes // _STORED_MAX))
    return 7 + 40 * nchunks + 8 * nbytes  # worst-case padding


class _Block(NamedTuple):
    """Tokens [tok_start, tok_end), covering input bytes [byte_start, byte_end),
    written as BTYPE ``btype`` (0 stored, 1 fixed, 2 dynamic). A block from
    ``_priced_block`` also holds its dynamic codes and the size of its
    cheapest coding, which ``btype`` names."""

    tok_start: int
    tok_end: int
    byte_start: int
    byte_end: int
    btype: int
    bits: int = 0
    plan: _DynamicPlan | None = None


class _ChunkSums(NamedTuple):
    """Prefix sums over chunks of tokens, row k summing the chunks before
    chunk k; chunk k holds the tokens that start in input bytes ``k <<
    _CHUNK_BITS`` up to ``k + 1 << _CHUNK_BITS``. Only occurring symbols have a column."""

    tok: np.ndarray  # int64, first token of each chunk, then the token count
    byte: np.ndarray  # int64, first input byte of each chunk, then the input size
    cols: np.ndarray  # the _NSYM symbols that occur, ascending
    freq: np.ndarray  # int64 (chunks + 1, len(cols)) symbol counts, end-of-block not counted
    xlogx: np.ndarray  # float64, c * log2(c) for every count c a column reaches


def _chunk_sums(t: _Tokens) -> _ChunkSums:
    """The chunk prefix sums of the tokens ``t``. A match is shorter than a
    chunk, so only a last stretch of input, inside the last match, holds no token start."""
    n = len(t.sym)
    key = t.start[:n] >> _CHUNK_BITS  # each token's chunk
    nchunks = int(key[-1]) + 1 if n else 1
    # one bincount: a literal/length symbol s counts at column s of its
    # chunk's row, a match's distance symbol d at column 286 + d
    key *= _NSYM
    dist = key[t.at] + 286 + t.dsym
    key += t.sym
    hist = np.bincount(np.concatenate((key, dist)), minlength=nchunks * _NSYM).reshape(nchunks, _NSYM)
    cols = np.flatnonzero(hist.any(axis=0))
    freq = np.zeros((nchunks + 1, len(cols)), np.int64)
    np.cumsum(hist[:, cols], axis=0, out=freq[1:])
    c = np.arange(freq[-1].max(initial=0) + 1)
    tok = np.append(np.searchsorted(t.start[:n], np.arange(nchunks) << _CHUNK_BITS), n)
    return _ChunkSums(tok, t.start[tok], cols, freq, c * np.log2(np.maximum(c, 1)))


def _priced_block(sums: _ChunkSums, a: int, b: int) -> _Block:
    """Chunks [a, b) as a block, priced exactly as dynamic, fixed and stored
    from the span's histogram, and coded the cheapest way."""
    freq = np.zeros(_NSYM, np.int64)
    freq[sums.cols] = sums.freq[b] - sums.freq[a]
    freq[256] = 1  # one end-of-block
    plan = _DynamicPlan(freq)
    fixed = 3 + int(freq @ _SYM_FIXED_BITS)
    byte_start, byte_end = int(sums.byte[a]), int(sums.byte[b])
    stored = int(_stored_bits_upper(byte_end - byte_start))
    if stored < plan.bits and stored < fixed:
        btype, bits = 0, stored
    elif plan.bits < fixed:
        btype, bits = 2, plan.bits
    else:
        btype, bits = 1, fixed
    return _Block(int(sums.tok[a]), int(sums.tok[b]), byte_start, byte_end, btype, bits, plan)


def _estimated_bits(sums: _ChunkSums, a, b) -> np.ndarray:
    """Estimated bits of each span of chunks [a, b), ints or int arrays: the
    cheapest of stored, fixed, and dynamic priced as the order-0 entropy of
    its literal/length and distance symbols plus ``_REDUNDANCY`` per symbol
    and ``_HEADER_GUESS``. Extra bits, stored and fixed sizes are exact."""
    counts = np.atleast_2d(sums.freq[b] - sums.freq[a])
    nlit = int(np.searchsorted(sums.cols, 286))
    xlogx = sums.xlogx[counts]
    nl = counts[:, :nlit].sum(axis=1) + 1  # end-of-block
    nd = counts[:, nlit:].sum(axis=1)
    entropy = (nl * np.log2(nl) - xlogx[:, :nlit].sum(axis=1)
               + nd * np.log2(np.maximum(nd, 1)) - xlogx[:, nlit:].sum(axis=1))
    dynamic = entropy + _REDUNDANCY * (nl + nd) + _HEADER_GUESS + counts @ _SYM_XB[sums.cols]
    fixed = 3 + 7 + counts @ _SYM_FIXED_BITS[sums.cols]  # header and end-of-block
    return np.minimum(np.minimum(dynamic, fixed), _stored_bits_upper(sums.byte[b] - sums.byte[a]))


def _cost_cuts(sums: _ChunkSums, a: int, b: int, whole: float, depth: int = 0,
               look: bool = True) -> tuple[float, list[int]]:
    """The least estimated bits of chunks [a, b) as blocks, and the chunks
    where those blocks start, by a recursive split after zopfli's
    ``ZopfliBlockSplitLZ77``. A span is cut at its point of least estimated
    cost, among those that leave ``_MIN_BLOCK`` input bytes on each side,
    and both sides are split in turn, at most ``_SPLIT_DEPTH`` cuts deep.
    The cut stays where the sides' blocks are estimated below ``whole``, the
    span's own estimate. A cut that does not pay by itself is looked past
    one level (``look``): a span cut in three, such as a stored stretch
    between two coded ends, can pay where no cut in two does. Every split
    point of a span is estimated at once."""
    byte = sums.byte
    mid = np.arange(a + 1, b)
    mid = mid[(byte[mid] - byte[a] >= _MIN_BLOCK) & (byte[b] - byte[mid] >= _MIN_BLOCK)]
    if not len(mid) or depth == _SPLIT_DEPTH:
        return whole, [a]
    left = _estimated_bits(sums, a, mid)
    right = _estimated_bits(sums, mid, b)
    i = int(np.argmin(left + right))
    pays = left[i] + right[i] < whole
    if not (pays or look):
        return whole, [a]
    s = int(mid[i])
    left_bits, left_cuts = _cost_cuts(sums, a, s, left[i], depth + 1, pays)
    right_bits, right_cuts = _cost_cuts(sums, s, b, right[i], depth + 1, pays)
    if left_bits + right_bits < whole:
        return left_bits + right_bits, left_cuts + right_cuts
    return whole, [a]


def _plan_blocks(t: _Tokens) -> list[_Block]:
    """Block boundaries for levels 2-3, placed by cost (RFC 1951 leaves them
    to the compressor).

    The tokens' starts give the chunks (``_chunk_sums``), cut at every
    ``_CHUNK_INPUT`` bytes of input. ``_cost_cuts`` splits the
    chunks where the estimate says a new code pays. Every block is then a
    span of chunks, priced exactly by ``_priced_block`` from the span's
    histogram. Neighbours merge left to right: the block so far absorbs the
    next span whenever the chunks from its first to the span's last, priced
    as one span, cost less than the two apart. A merge is priced only when
    the estimate puts the span and the one before it together within
    ``_MERGE_SLACK`` bits of the two apart. When more than one block is
    left, the whole input is priced as one span too, and when it costs no
    more it is the plan, so the plan never costs more than one block.

    The exact codes built (``_DynamicPlan``, the bulk of the time) are one
    per kept span, one per merge tried and one for the whole input: at most
    two per kept span, and a split leaves at least ``_MIN_BLOCK`` bytes on
    each side. Each span is priced once, also where the whole input was a
    merge tried."""
    sums = _chunk_sums(t)
    nchunks = len(sums.tok) - 1
    bounds = np.array(_cost_cuts(sums, 0, nchunks, _estimated_bits(sums, 0, nchunks)[0])[1] + [nchunks])
    apart = _estimated_bits(sums, bounds[:-1], bounds[1:])
    worth = _estimated_bits(sums, bounds[:-2], bounds[2:]) < apart[:-1] + apart[1:] + _MERGE_SLACK
    priced: dict[tuple[int, int], _Block] = {}  # each span of chunks priced once

    def price(a: int, b: int) -> _Block:
        if (a, b) not in priced:
            priced[a, b] = _priced_block(sums, a, b)
        return priced[a, b]

    blocks: list[_Block] = []
    first = 0  # the first chunk of blocks[-1]
    for i, (a, b) in enumerate(zip(bounds.tolist(), bounds[1:].tolist())):
        nxt = price(a, b)
        if i and worth[i - 1]:
            merged = price(first, b)
            if merged.bits < blocks[-1].bits + nxt.bits:
                blocks[-1] = merged
                continue
        blocks.append(nxt)
        first = a
    if len(blocks) > 1:
        whole = price(0, nchunks)
        if whole.bits <= sum(b.bits for b in blocks):
            return [whole]
    return blocks


def _emit_block(w: _BitWriter, t: _Tokens, block: _Block, final: bool) -> None:
    """A fixed or dynamic block: its header, its tokens in ``pack`` calls of
    at most ``_EMIT_TOKENS`` tokens, and its end-of-block.

    A dynamic header (RFC 1951 section 3.2.7) is BFINAL|BTYPE, HLIT, HDIST,
    HCLEN, the HCLEN code-length code lengths, then one value per code-length
    run: its code, then its extra bits. Each token's code, and a match's
    extra bits, distance code and distance extra bits above it, join into
    one value of at most 15 + 5 + 15 + 13 = 48 bits."""
    if block.btype == 1:
        head, head_nb = _uint64(final | 1 << 1), _uint64(3)
        (lit_code, lit_nb), (dist_code, dist_nb) = _FIXED_LIT_CODES, _FIXED_DIST_CODES
    else:
        plan = block.plan
        lit_code, lit_nb = _code_arrays(plan.lit_lengths, 286)
        dist_code, dist_nb = _code_arrays(plan.dist_lengths, _NDIST)
        cl_code, cl_nb = _code_arrays(plan.cl_lengths, 19)
        rle_sym, rle_xv, rle_xb = np.array(plan.rle, np.uint64).T
        head = np.concatenate((
            _uint64(final | 2 << 1, plan.hlit - 257, plan.hdist - 1, plan.hclen - 4),
            cl_nb[_CODELEN_ORDER[: plan.hclen]],
            cl_code[rle_sym] | rle_xv << cl_nb[rle_sym],
        ))
        head_nb = np.concatenate((_uint64(3, 5, 5, 4, *[3] * plan.hclen), cl_nb[rle_sym] + rle_xb))

    w.pack(head, head_nb)
    for start in range(block.tok_start, block.tok_end, _EMIT_TOKENS):
        stop = min(start + _EMIT_TOKENS, block.tok_end)
        sym = t.sym[start:stop]
        v = lit_code[sym]
        nb = lit_nb[sym]
        m = slice(*np.searchsorted(t.at, (start, stop)))  # the matches among them
        k = t.at[m] - start
        dsym = t.dsym[m]
        mb = nb[k]
        mv = v[k] | t.len_xv[m] << mb
        mb += t.len_xb[m]
        mv |= dist_code[dsym] << mb
        mb += dist_nb[dsym]
        v[k] = mv | t.dist_xv[m] << mb
        nb[k] = mb + t.dist_xb[m]
        w.pack(v, nb)
    w.pack(lit_code[256:257], lit_nb[256:257])


def _emit_stored(w: _BitWriter, data: bytes, start: int, end: int, final: bool) -> None:
    """Input bytes [start, end) as stored blocks; no bytes make one empty block."""
    for pos in range(start, max(end, start + 1), _STORED_MAX):
        take = min(end - pos, _STORED_MAX)
        w.pack(_uint64(final and pos + take == end), _uint64(3))  # BTYPE 00
        w.align()
        w.out += (take | (take ^ 0xFFFF) << 16).to_bytes(4, "little") + data[pos : pos + take]


def deflate_compress(data: bytes, level: int | CompressionLevel = CompressionLevel.LAZY) -> bytes:
    """Compress ``data`` into a zlib stream (2-byte header, DEFLATE blocks,
    big-endian Adler-32 trailer). Deterministic for a given (data, level)."""
    lv = check_level(level)
    data = _check_bytes("data", data)

    out = bytearray()
    cmf = 0x78  # CM=8, CINFO=7 (32 KiB window)
    flg = lv << 6
    flg |= (31 - ((cmf << 8) | flg) % 31) % 31
    out.append(cmf)
    out.append(flg)

    if lv == 0:
        t, blocks = None, [_Block(0, 0, 0, len(data), 0)]
    else:
        t = _tokens(data, _tokenize_ops(data, _BUDGETS[lv]))
        blocks = _plan_blocks(t) if lv > 1 else [_Block(0, len(t.sym), 0, len(data), 1)]
    w = _BitWriter(out)
    for i, block in enumerate(blocks):
        final = i == len(blocks) - 1
        if block.btype == 0:
            _emit_stored(w, data, block.byte_start, block.byte_end, final)
        else:
            _emit_block(w, t, block, final)
    w.align()

    out += adler32(data).to_bytes(4, "big")
    return bytes(out)


# ---------------------------------------------------------------------------
# Decompressor


def _build_decode_table(lengths: list[int] | np.ndarray, meanings: list[tuple[int, int]],
                        allow_incomplete: bool = False):
    """Flat decode table: index = next max_bits of the stream (LSB-first),
    entry = (value, code length, extra bits) for every symbol that has a
    code and a meaning, ``meanings[sym]`` = (value, extra bits). Every other
    index is None, a hole: a symbol past ``len(meanings)`` (the fixed codes'
    reserved 286-287 and 30-31), or no code at all in an incomplete or empty
    code. All-zero lengths give ``[None]`` with max_bits 0. Returns
    (table, max_bits)."""
    lengths = np.asarray(lengths, np.int64)
    # the Kraft check comes first: _codes_from_lengths needs a code that fits
    kraft = int(_CODE_SPAN[lengths].sum())
    if kraft > 1 << 15:
        raise CorruptStreamError("oversubscribed Huffman code")
    if kraft < 1 << 15 and not allow_incomplete:
        raise CorruptStreamError("incomplete Huffman code")
    lens = lengths.tolist()
    max_bits = max(lens, default=0)
    size = 1 << max_bits
    table: list = [None] * size
    # codes come from every length: a reserved symbol still takes its code
    for (value, xb), rev, l in zip(meanings, _codes_from_lengths(lengths).tolist(), lens):
        if l:
            table[rev :: 1 << l] = [(value, l, xb)] * (size >> l)
    return table, max_bits


_FIXED_LIT_TABLE = _build_decode_table(_FIXED_LIT_LENGTHS, _LIT_MEANINGS)
_FIXED_DIST_TABLE = _build_decode_table(_FIXED_DIST_LENGTHS, _DIST_MEANINGS)


def _refill(data: bytes, pos: int, acc: int, cnt: int) -> tuple[int, int, int]:
    """The bit reader's one refill, for the headers and the symbol loop:
    ``acc`` holds ``cnt`` bits, first bit lowest (RFC 1951 section 3.1.1).
    Below 48 bits, a length/distance pair (15 + 5 + 15 + 13), the next 16
    bytes go in above them, zeros past the end of ``data``. A refill that
    starts more than 6 bytes past the end raises: more than ``8 * len(data)``
    bits were consumed. So at most 22 zero bytes are read past the data."""
    if cnt < 48:
        if pos > len(data) + 6:
            raise TruncatedStreamError("stream ended inside a block")
        acc |= int.from_bytes(data[pos : pos + 16], "little") << cnt
        pos += 16
        cnt += 128
    return pos, acc, cnt


def inflate(data: bytes, max_output: int | None = None) -> bytes:
    """Decompress a zlib stream produced by :func:`deflate_compress` or any
    conforming encoder. Verifies the Adler-32 trailer and rejects trailing
    garbage.

    The block loop reads every block header, a dynamic block's code lengths
    included, and every symbol through one bit reader (:func:`_refill`),
    which reads zeros past the end of the data. One exception handler around
    the block loop judges a cut stream, in a header or in the data: a
    :class:`CorruptStreamError` or :class:`DistanceTooFarError` raised once
    the bits consumed, ``8 * pos - cnt``, exceed ``8 * len(data)`` becomes
    :class:`TruncatedStreamError`. A block that ends past the end is caught
    at the next header, which reads as a stored block that fails its length
    check, or at the trailer; the refill bound stops the reader at most 22
    zero bytes past the data. Each decode table entry carries its code's
    value and extra bits. A code the tables do not map (a hole) is invalid
    and raises :class:`CorruptStreamError` with zlib's message: "invalid
    literal/length code" or "invalid distance code". That covers the fixed
    codes' reserved symbols and a match in a block with no distance code.

    ``max_output`` is None or an int >= 0; anything else raises
    :class:`ParameterError`. When set, raises :class:`CorruptStreamError`
    once the output passes that many bytes. The size is checked after every
    match and at every block end rather than per literal, so the output
    held at that point exceeds the limit by at most 258 bytes plus 8 bytes
    per input byte, counting the at most 22 zero bytes read past the data.
    """
    limit = sys.maxsize if max_output is None else _check_int("max_output", max_output, 0)
    data = _check_bytes("data", data)
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
    end = 8 * n  # bits in data
    pos = 2
    acc = 0
    cnt = 0
    final = False
    try:
        while not final:
            pos, acc, cnt = _refill(data, pos, acc, cnt)
            final = acc & 1
            btype = acc >> 1 & 3
            acc >>= 3
            cnt -= 3

            if btype == 0:
                # push the buffered whole bytes back; the bits short of a byte pad
                pos -= cnt >> 3
                acc = cnt = 0
                length = int.from_bytes(data[pos : pos + 2], "little")
                nlen = int.from_bytes(data[pos + 2 : pos + 4], "little")
                pos += 4
                if length ^ 0xFFFF != nlen:
                    raise CorruptStreamError("stored-block length check failed")
                pos += length
                out += data[pos - length : pos]
            elif btype == 3:
                raise CorruptStreamError("reserved block type 3")
            else:
                if btype == 1:
                    lit_table, lit_bits = _FIXED_LIT_TABLE
                    dist_table, dist_bits = _FIXED_DIST_TABLE
                else:
                    # dynamic block header (RFC 1951 section 3.2.7)
                    pos, acc, cnt = _refill(data, pos, acc, cnt)
                    hlit = 257 + (acc & 31)
                    hdist = 1 + (acc >> 5 & 31)
                    hclen = 4 + (acc >> 10 & 15)
                    acc >>= 14
                    cnt -= 14
                    if hlit > 286 or hdist > 30:
                        raise CorruptStreamError(f"bad code counts HLIT={hlit} HDIST={hdist}")

                    cl_lengths = [0] * 19
                    for i in range(hclen):
                        pos, acc, cnt = _refill(data, pos, acc, cnt)
                        cl_lengths[_CODELEN_ORDER[i]] = acc & 7
                        acc >>= 3
                        cnt -= 3
                    # a complete code: every table entry is a symbol
                    cl_table, cl_bits = _build_decode_table(cl_lengths, _CODELEN_MEANINGS)
                    cl_mask = (1 << cl_bits) - 1

                    lengths: list[int] = []
                    total = hlit + hdist
                    while len(lengths) < total:
                        pos, acc, cnt = _refill(data, pos, acc, cnt)
                        sym, l, xb = cl_table[acc & cl_mask]
                        acc >>= l
                        cnt -= l
                        if sym < 16:
                            lengths.append(sym)
                            continue
                        run = _CODELEN_REPEATS[sym - 16][0] + (acc & ((1 << xb) - 1))
                        acc >>= xb
                        cnt -= xb
                        if sym > 16:
                            lengths += [0] * run
                        elif lengths:
                            lengths += lengths[-1:] * run
                        else:
                            raise CorruptStreamError("repeat with no previous code length")
                    if len(lengths) > total:
                        raise CorruptStreamError("code-length run overflows the declared counts")

                    lit_lengths = lengths[:hlit]
                    dist_lengths = lengths[hlit:]
                    if lit_lengths[256] == 0:
                        raise CorruptStreamError("no end-of-block code")
                    # zlib (inftrees.c) takes an incomplete code only when it is a
                    # single 1-bit code (end-of-block's, or a lone distance code)
                    # or, for distances, no code at all
                    lit_table, lit_bits = _build_decode_table(
                        lit_lengths, _LIT_MEANINGS, allow_incomplete=max(lit_lengths) == 1
                    )
                    dist_table, dist_bits = _build_decode_table(
                        dist_lengths, _DIST_MEANINGS, allow_incomplete=max(dist_lengths) <= 1
                    )
                lit_mask = (1 << lit_bits) - 1
                dist_mask = (1 << dist_bits) - 1

                while True:
                    if cnt < 48:
                        pos, acc, cnt = _refill(data, pos, acc, cnt)
                    entry = lit_table[acc & lit_mask]
                    if entry is None:
                        raise CorruptStreamError("invalid literal/length code")
                    value, l, xb = entry
                    acc >>= l
                    cnt -= l
                    if value < 256:
                        out.append(value)
                        continue
                    if value == 256:
                        break
                    length = value - 256
                    if xb:
                        length += acc & ((1 << xb) - 1)
                        acc >>= xb
                        cnt -= xb

                    entry = dist_table[acc & dist_mask]
                    if entry is None:
                        raise CorruptStreamError("invalid distance code")
                    dist, l, xb = entry
                    acc >>= l
                    cnt -= l
                    if xb:
                        dist += acc & ((1 << xb) - 1)
                        acc >>= xb
                        cnt -= xb
                    _copy_match(out, length, dist)
                    if len(out) > limit:
                        raise CorruptStreamError(f"inflated data exceeds {limit} bytes")
            if len(out) > limit:
                raise CorruptStreamError(f"inflated data exceeds {limit} bytes")
    except (CorruptStreamError, DistanceTooFarError):
        if 8 * pos - cnt > end:
            raise TruncatedStreamError("stream ended inside a block") from None
        raise

    # byte-align and push buffered whole bytes back before the trailer
    pos -= cnt >> 3
    if pos + 4 > n:
        raise TruncatedStreamError("stream ended before the Adler-32 trailer")
    stored_sum = int.from_bytes(data[pos : pos + 4], "big")
    pos += 4
    if pos != n:
        raise CorruptStreamError(f"{n - pos} trailing bytes after the zlib stream")
    out = bytes(out)
    actual = adler32(out)
    if actual != stored_sum:
        raise ChecksumMismatchError(
            f"Adler-32 mismatch: stream says {stored_sum:#010x}, payload is {actual:#010x}"
        )
    return out
