"""Exception hierarchy shared across the toolkit.

Every error raised on purpose derives from :class:`KpngError` so callers
(notably the CLI) can catch one base class.

Every integer parameter of the package (k, a sample value, the compression
level, a filter type, bytes per pixel, image dimensions, a checksum start
value, a token field) passes one check, :func:`_check_int`: a Python int, an
``IntEnum`` member or a numpy integer scalar in range is taken as a plain
int; ``bool``, ``np.bool_``, floats, strings and None raise
:class:`ParameterError`. Every byte-string argument (image samples, data
to compress, a stream or file to decode) passes :func:`_check_bytes`: what
``bytes()`` does not convert raises :class:`ParameterError`, and so does an
integer, which it would read as that many zero bytes.
"""

import operator


class KpngError(Exception):
    """Base class for all toolkit errors."""


class ParameterError(KpngError):
    """An argument is outside its documented range (k, level, filter type)."""


def _check_int(name: str, value, lo: int, hi: int | None = None) -> int:
    """``value`` as a plain int in [lo, hi], or in [lo, inf) when ``hi`` is None."""
    # a bool is an int to operator.index, but never a count or a code here
    if isinstance(value, bool):
        raise ParameterError(f"{name} must be an integer, got {value!r}")
    try:
        v = operator.index(value)
    except TypeError:
        raise ParameterError(f"{name} must be an integer, got {value!r}") from None
    if v < lo or (hi is not None and v > hi):
        bound = f">= {lo}" if hi is None else f"in [{lo}, {hi}]"
        raise ParameterError(f"{name} must be {bound}, got {v}")
    return v


def _check_bytes(name: str, value) -> bytes:
    """``bytes(value)``, or :class:`ParameterError` for a value it does not
    convert and for an int, bool or numpy integer, which it would read as
    that many zero bytes."""
    try:
        operator.index(value)
    except TypeError:
        try:
            return bytes(value)
        except (TypeError, ValueError) as exc:
            raise ParameterError(f"{name} are not 8-bit values: {exc}") from None
    raise ParameterError(f"{name} must be a byte string, got {value!r}")


class DimensionMismatchError(KpngError):
    """Two images that must share a shape do not."""


class FlateError(KpngError):
    """Base class for compressed-stream errors."""


class ZlibHeaderError(FlateError):
    """The 2-byte zlib header is malformed or requests an unsupported feature."""


class CorruptStreamError(FlateError):
    """The DEFLATE payload is not decodable (bad block type, bad Huffman data, ...)."""


class DistanceTooFarError(FlateError):
    """A back-reference points before the start of the output."""


class ChecksumMismatchError(FlateError):
    """The Adler-32 trailer does not match the decompressed payload."""


class TruncatedStreamError(FlateError):
    """The stream ended before decoding finished."""


class FormatError(KpngError):
    """Base class for image container errors."""


class PngFormatError(FormatError):
    """Structurally invalid PNG data."""


class PngCrcError(PngFormatError):
    """A chunk CRC does not match its contents."""


class BmpFormatError(FormatError):
    """Structurally invalid BMP data."""


class UnsupportedImageError(FormatError):
    """Well-formed file, but uses a feature outside the supported subset."""
