"""Every public integer parameter follows one rule.

Python ints, ``IntEnum`` members and numpy integer scalars are accepted and
give the same result; ``bool``, ``np.bool_``, floats, strings and None raise
``ParameterError`` (None is left out where it selects a default). Where a
byte string belongs, a value ``bytes()`` does not convert, or an integer
it would read as that many zero bytes, raises ``ParameterError``.
"""

import numpy as np
import pytest

from kpng.bmpcodec import decode_bmp, encode_bmp
from kpng.corpus import CorpusSpec, generate
from kpng.errors import ParameterError
from kpng.flate import Literal, Match, adler32, crc32, deflate_compress, inflate, lz77_expand, lz77_tokenize
from kpng.kmodulus import kmm_pixel, kmm_transform
from kpng.pngcodec import EncodeOptions, apply_filter, choose_filter, decode_png, encode_png, unfilter
from kpng.raster import RasterImage

IMG = RasterImage(4, 2, 3, bytes(range(0, 240, 10)))
ROW = bytes([5, 9, 200, 17, 60, 3])
PRIOR = bytes([1, 2, 3, 4, 5, 6])
TEXT = b"abcabcabcabc"
STREAM = deflate_compress(TEXT, 2)


def _corpus(**fields):
    spec = CorpusSpec("mixed", **{"width": 8, "height": 8, **fields})
    return spec, generate(spec)


# entry point -> (call with the integer under test, a valid value)
INT_PARAMS = {
    "RasterImage.width": (lambda x: RasterImage(x, 1, 1, b"ab"), 2),
    "RasterImage.height": (lambda x: RasterImage(1, x, 1, b"ab"), 2),
    "RasterImage.channels": (lambda x: RasterImage(2, 1, x, b"abcdef"), 3),
    "CorpusSpec.width": (lambda x: _corpus(width=x), 6),
    "CorpusSpec.height": (lambda x: _corpus(height=x), 6),
    "CorpusSpec.colors": (lambda x: _corpus(colors=x), 4),
    "CorpusSpec.seed": (lambda x: _corpus(seed=x), 5),
    "kmm_pixel.v": (lambda x: kmm_pixel(x, 10), 15),
    "kmm_pixel.k": (lambda x: kmm_pixel(15, x), 10),
    "kmm_transform.k": (lambda x: kmm_transform(IMG, x), 10),
    "EncodeOptions.level": (lambda x: encode_png(IMG, EncodeOptions(level=x)), 2),
    "EncodeOptions.filter_strategy": (lambda x: encode_png(IMG, EncodeOptions(filter_strategy=x)), 4),
    "lz77_tokenize.level": (lambda x: lz77_tokenize(TEXT, x), 3),
    "deflate_compress.level": (lambda x: deflate_compress(TEXT, x), 1),
    "inflate.max_output": (lambda x: inflate(STREAM, max_output=x), len(TEXT)),
    "crc32.value": (lambda x: crc32(TEXT, x), 123456),
    "adler32.value": (lambda x: adler32(TEXT, x), 123456),
    "lz77_expand.Literal.value": (lambda x: lz77_expand([Literal(x)]), 7),
    "lz77_expand.Match.length": (lambda x: lz77_expand([Literal(1), Match(x, 1)]), 4),
    "lz77_expand.Match.distance": (lambda x: lz77_expand([Literal(1), Literal(2), Match(3, x)]), 2),
    "apply_filter.ftype": (lambda x: apply_filter(ROW, PRIOR, x, 3), 4),
    "apply_filter.bytes_per_pixel": (lambda x: apply_filter(ROW, PRIOR, 4, x), 3),
    "choose_filter.bytes_per_pixel": (lambda x: choose_filter(ROW, PRIOR, x), 3),
    "unfilter.ftype": (lambda x: unfilter(ROW, PRIOR, x, 3), 3),
    "unfilter.bytes_per_pixel": (lambda x: unfilter(ROW, PRIOR, 4, x), 3),
}
NONE_IS_DEFAULT = {"EncodeOptions.filter_strategy", "inflate.max_output"}
NOT_INTEGERS = [True, np.True_, 2.5, "3", None]
REFUSALS = [
    (name, bad)
    for name in sorted(INT_PARAMS)
    for bad in NOT_INTEGERS
    if not (bad is None and name in NONE_IS_DEFAULT)
]


@pytest.mark.parametrize("name, bad", REFUSALS, ids=[f"{name}-{bad!r}" for name, bad in REFUSALS])
def test_non_integer_refused(name, bad):
    call, _ = INT_PARAMS[name]
    with pytest.raises(ParameterError):
        call(bad)


@pytest.mark.parametrize("name", sorted(INT_PARAMS))
def test_numpy_integer_same_as_int(name):
    call, good = INT_PARAMS[name]
    expected = call(good)
    got = call(np.int64(good))
    # repr also tells a stored numpy scalar from the plain int
    assert got == expected
    assert repr(got) == repr(expected)


# entry point -> (call with the byte string under test, a valid byte string)
BYTES_PARAMS = {
    "RasterImage.samples": (lambda x: RasterImage(5, 1, 1, x), bytes(range(5))),
    "lz77_tokenize.data": (lz77_tokenize, TEXT),
    "deflate_compress.data": (deflate_compress, TEXT),
    "inflate.data": (inflate, STREAM),
    "decode_png.data": (decode_png, encode_png(IMG)),
    "decode_bmp.data": (decode_bmp, encode_bmp(IMG)),
}
# an integer would read as that many zero bytes; the rest do not convert
NOT_BYTES = [5, True, np.int64(3), "abc", None, 1.5, [300]]


@pytest.mark.parametrize("name", sorted(BYTES_PARAMS))
@pytest.mark.parametrize("bad", NOT_BYTES, ids=repr)
def test_non_bytes_refused(name, bad):
    call, _ = BYTES_PARAMS[name]
    with pytest.raises(ParameterError):
        call(bad)


@pytest.mark.parametrize("name", sorted(BYTES_PARAMS))
def test_list_of_ints_same_as_bytes(name):
    call, good = BYTES_PARAMS[name]
    assert call(list(good)) == call(good)
