"""Benchmark harness: per-image file sizes, compression ratios, and quality.

Each corpus row compares three byte counts for the same image: the
uncompressed BMP baseline, a straight PNG re-encode, and the PNG of the
k-quantized image (the "k-PNG"). Compression ratios divide the BMP size by
each PNG size, using whole-file byte counts including headers. An image
smaller than the 11x11 SSIM window still gets its row, with SSIM as NaN.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, fields
from pathlib import Path

from . import bmpcodec, corpus, kmodulus, metrics, pngcodec
from .errors import KpngError, ParameterError
from .pngcodec import EncodeOptions
from .raster import RasterImage


@dataclass(frozen=True)
class BenchRecord:
    """One corpus row of the size/ratio/quality table."""

    name: str
    width: int
    height: int
    bmp_size: int
    png_size: int
    png_cr: float
    kpng_size: int
    kpng_cr: float
    mse: float
    psnr: float
    ssim: float

    def to_csv_row(self) -> list[str]:
        return [str(getattr(self, f.name)) for f in fields(self)]

    @classmethod
    def from_csv_row(cls, row: list[str]) -> "BenchRecord":
        if len(row) != len(CSV_FIELDS):
            raise ParameterError(f"expected {len(CSV_FIELDS)} CSV fields, got {len(row)}")
        kwargs = {}
        for f, raw in zip(fields(cls), row):
            try:
                kwargs[f.name] = raw if f.type == "str" else (int(raw) if f.type == "int" else float(raw))
            except ValueError:
                raise ParameterError(f"CSV field {f.name} is not {f.type}: {raw!r}") from None
        return cls(**kwargs)


CSV_FIELDS = [f.name for f in fields(BenchRecord)]


def sanitize_name(name: str) -> str:
    return "".join(c if c.isalnum() or c in "._-" else "-" for c in name)


def measure(name: str, img: RasterImage, bmp_size: int, k: int = kmodulus.DEFAULT_K,
            options: EncodeOptions | None = None) -> BenchRecord:
    """Benchmark one image: encode both PNG variants at identical options."""
    opts = options or EncodeOptions()
    png_size = len(pngcodec.encode_png(img, opts))
    kimg = kmodulus.kmm_transform(img, k)
    kpng_size = len(pngcodec.encode_png(kimg, opts))
    if min(img.width, img.height) < metrics.SSIM_WINDOW:
        report = metrics.QualityReport(mse=metrics.mse(img, kimg), psnr=metrics.psnr(img, kimg), ssim=math.nan)
    else:
        report = metrics.compare(img, kimg)
    return BenchRecord(
        name=sanitize_name(name),
        width=img.width,
        height=img.height,
        bmp_size=bmp_size,
        png_size=png_size,
        png_cr=bmp_size / png_size,
        kpng_size=kpng_size,
        kpng_cr=bmp_size / kpng_size,
        mse=report.mse,
        psnr=report.psnr,
        ssim=report.ssim,
    )


def run_synthetic(k: int = kmodulus.DEFAULT_K, options: EncodeOptions | None = None,
                  specs=corpus.DEFAULT_BENCH_CORPUS) -> list[BenchRecord]:
    """Benchmark the pinned synthetic corpus. Rows sorted by name."""
    records = []
    for name, spec in specs:
        img = corpus.generate(spec)
        bmp_size = len(bmpcodec.encode_bmp(img))
        records.append(measure(name, img, bmp_size, k, options))
    records.sort(key=lambda r: r.name)
    return records


def run_directory(path: str | Path, k: int = kmodulus.DEFAULT_K,
                  options: EncodeOptions | None = None) -> tuple[list[BenchRecord], list[tuple[str, str]]]:
    """Benchmark every regular file in a directory whose suffix is ``.bmp``
    in any case, in name order.

    Per-file failures are collected, not raised; returns (records, failures).
    """
    root = Path(path)
    if not root.is_dir():
        raise ParameterError(f"{root} is not a directory")
    records = []
    failures = []
    bmps = sorted(p for p in root.iterdir() if p.suffix.lower() == ".bmp" and p.is_file())
    for p in bmps:
        try:
            data = p.read_bytes()
            img = bmpcodec.decode_bmp(data)
            records.append(measure(p.stem, img, len(data), k, options))
        except (KpngError, OSError) as exc:
            failures.append((p.name, str(exc)))
    records.sort(key=lambda r: r.name)
    return records, failures


def write_csv(records: list[BenchRecord], path: str | Path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_FIELDS)
        for r in records:
            writer.writerow(r.to_csv_row())


def read_csv(path: str | Path) -> list[BenchRecord]:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != CSV_FIELDS:
            raise ParameterError(f"unexpected CSV header {header}")
        return [BenchRecord.from_csv_row(row) for row in reader]


def _kb(nbytes: int) -> str:
    return f"{nbytes / 1024:.1f} KB"


def fmt4(x: float) -> str:
    """A metric value at 4 decimals, or ``inf`` or ``nan``."""
    return f"{x:.4f}"


def markdown_table(records: list[BenchRecord]) -> str:
    """Size/ratio/quality table with a mean-CR summary row."""
    header = [
        "name", "dims", "bmp", "png", "png CR", "k-png", "k-png CR", "mse", "psnr", "ssim",
    ]
    rows = [
        [
            r.name,
            f"{r.width}x{r.height}",
            f"{r.bmp_size} ({_kb(r.bmp_size)})",
            f"{r.png_size} ({_kb(r.png_size)})",
            f"{r.png_cr:.1f}",
            f"{r.kpng_size} ({_kb(r.kpng_size)})",
            f"{r.kpng_cr:.1f}",
            fmt4(r.mse),
            fmt4(r.psnr),
            fmt4(r.ssim),
        ]
        for r in records
    ]
    if records:
        mean_png = sum(r.png_cr for r in records) / len(records)
        mean_kpng = sum(r.kpng_cr for r in records) / len(records)
        rows.append(["mean", "", "", "", f"{mean_png:.1f}", "", f"{mean_kpng:.1f}", "", "", ""])
    widths = [max([len(header[i])] + [len(row[i]) for row in rows]) for i in range(len(header))]
    out = io.StringIO()
    out.write("| " + " | ".join(h.ljust(w) for h, w in zip(header, widths)) + " |\n")
    out.write("|" + "|".join("-" * (w + 2) for w in widths) + "|\n")
    for row in rows:
        out.write("| " + " | ".join(c.ljust(w) for c, w in zip(row, widths)) + " |\n")
    return out.getvalue()
