"""Uncompressed 24-bit BMP reader/writer (Windows DIB, BITMAPINFOHEADER only).

BMP is the uncompressed baseline every compression ratio is measured
against. Rows are 4-byte aligned, stored bottom-up (or top-down when the
height field is negative) in BGR order; this module converts to and from
the toolkit's top-down RGB layout.
"""

from __future__ import annotations

import struct

import numpy as np

from .errors import BmpFormatError, UnsupportedImageError, _check_bytes
from .raster import RasterImage

_FILE_HEADER = struct.Struct("<2sIHHI")  # magic, file size, reserved x2, pixel offset
_INFO_HEADER = struct.Struct("<IiiHHIIiiII")
_HEADERS_SIZE = 54  # 14-byte file header + 40-byte info header
_PPM_72DPI = 2835


def _stride(width: int) -> int:
    return (width * 3 + 3) & ~3


def encode_bmp(img: RasterImage) -> bytes:
    """Write a bottom-up 24-bit BMP; grayscale images become equal RGB triples."""
    arr = img.to_array()
    if img.channels == 1:
        arr = np.repeat(arr, 3, axis=2)
    h, w = img.height, img.width
    stride = _stride(w)
    file_size = _HEADERS_SIZE + stride * h

    rows = np.zeros((h, stride), dtype=np.uint8)
    rows[:, : w * 3] = arr[::-1, :, ::-1].reshape(h, w * 3)  # flip rows, RGB -> BGR

    out = bytearray()
    out += _FILE_HEADER.pack(b"BM", file_size, 0, 0, _HEADERS_SIZE)
    out += _INFO_HEADER.pack(40, w, h, 1, 24, 0, stride * h, _PPM_72DPI, _PPM_72DPI, 0, 0)
    out += rows.tobytes()
    return bytes(out)


def decode_bmp(data: bytes) -> RasterImage:
    """Read a 24-bit uncompressed BMP into a 3-channel top-down image."""
    data = _check_bytes("data", data)
    if len(data) < _HEADERS_SIZE:
        raise BmpFormatError(f"file is {len(data)} bytes, smaller than the BMP headers")
    magic, _file_size, _r1, _r2, pixel_offset = _FILE_HEADER.unpack_from(data, 0)
    if magic != b"BM":
        raise BmpFormatError(f"bad magic {magic!r}, expected b'BM'")
    header_size = struct.unpack_from("<I", data, 14)[0]
    if header_size != 40:
        raise UnsupportedImageError(
            f"DIB header size {header_size} not supported (only the 40-byte BITMAPINFOHEADER)"
        )
    (_, width, height, _planes, bpp, compression, _size_img, _xppm, _yppm, _clr_used,
     _clr_imp) = _INFO_HEADER.unpack_from(data, 14)
    if bpp != 24:
        raise UnsupportedImageError(f"{bpp} bits per pixel not supported (only 24)")
    if compression != 0:
        raise UnsupportedImageError(f"compression type {compression} not supported (only BI_RGB)")
    if width <= 0:
        raise BmpFormatError(f"invalid width {width}")
    if height == 0:
        raise BmpFormatError("invalid height 0")
    top_down = height < 0
    h = -height if top_down else height
    stride = _stride(width)

    end = pixel_offset + stride * h
    if pixel_offset < _HEADERS_SIZE or end > len(data):
        raise BmpFormatError(
            f"pixel data [{pixel_offset}, {end}) does not fit in {len(data)} bytes"
        )

    rows = np.frombuffer(data, np.uint8, count=stride * h, offset=pixel_offset)
    arr = rows.reshape(h, stride)[:, : width * 3].reshape(h, width, 3)[:, :, ::-1]
    if not top_down:
        arr = arr[::-1]
    return RasterImage(width=width, height=h, channels=3, samples=np.ascontiguousarray(arr).tobytes())
