"""Command-line surface: convert, metrics, bench, synth."""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from . import bench as bench_mod
from . import bmpcodec, corpus, kmodulus, metrics, pngcodec
from .bench import fmt4
from .errors import KpngError, ParameterError, UnsupportedImageError, _check_int
from .pngcodec import EncodeOptions, FilterType
from .raster import RasterImage

_FILTER_NAMES = {t.name.lower(): t for t in FilterType} | {"adaptive": None}


def load_image(path: str | Path) -> tuple[RasterImage, int]:
    """Read a BMP or PNG file; returns (image, on-disk byte count)."""
    data = Path(path).read_bytes()
    if data[:2] == b"BM":
        return bmpcodec.decode_bmp(data), len(data)
    if data[:8] == pngcodec.SIGNATURE:
        return pngcodec.decode_png(data), len(data)
    raise UnsupportedImageError(f"{path}: neither a BMP nor a PNG file")


def _options(args) -> EncodeOptions:
    return EncodeOptions(level=args.level, filter_strategy=_FILTER_NAMES[args.filter])


def _add_encode_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--level", type=int, default=3, help="compression level 0..3 (default 3)")
    p.add_argument(
        "--filter",
        choices=sorted(_FILTER_NAMES),
        default="adaptive",
        help="scanline filter strategy (default adaptive)",
    )


def cmd_convert(args) -> int:
    k = None if args.k is None else kmodulus.check_k(args.k)
    img, in_size = load_image(args.input)
    if k is not None:
        img = kmodulus.kmm_transform(img, k)
    out = pngcodec.encode_png(img, _options(args))
    Path(args.output).write_bytes(out)
    print(f"input:  {args.input} ({in_size} bytes)")
    print(f"output: {args.output} ({len(out)} bytes)")
    print(f"compression ratio: {in_size / len(out):.1f}")
    return 0


def cmd_metrics(args) -> int:
    a, _ = load_image(args.a)
    b, _ = load_image(args.b)
    report = metrics.compare(a, b)
    print("metric  value")
    print(f"mse     {fmt4(report.mse)}")
    print(f"psnr    {fmt4(report.psnr)}")
    print(f"ssim    {fmt4(report.ssim)}")
    print(f"metrics: mse={fmt4(report.mse)} psnr={fmt4(report.psnr)} ssim={fmt4(report.ssim)}")
    return 0


def cmd_bench(args) -> int:
    k = kmodulus.check_k(args.k)
    options = _options(args)
    # refused before the corpus is encoded, which takes seconds
    if not Path(args.out).parent.is_dir():
        print(f"error: --out {args.out}: no directory {Path(args.out).parent}", file=sys.stderr)
        return 1
    if args.synthetic:
        records = bench_mod.run_synthetic(k, options)
        failures = []
    else:
        records, failures = bench_mod.run_directory(args.dir, k, options)
    for name, reason in failures:
        print(f"warning: skipped {name}: {reason}", file=sys.stderr)
    if not records:
        print("error: no usable images in the corpus", file=sys.stderr)
        return 1
    bench_mod.write_csv(records, args.out)
    print(bench_mod.markdown_table(records), end="")
    print(f"wrote {args.out} ({len(records)} rows)")
    return 0


def cmd_synth(args) -> int:
    try:
        w, h = (int(v) for v in args.size.lower().split("x"))
    except ValueError:
        raise ParameterError(f"--size must look like 512x512, got {args.size!r}")
    _check_int("--count", args.count, 1)
    # the first spec checks every field before the directory is made
    first = corpus.CorpusSpec(args.kind, w, h, args.colors, args.seed)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for i in range(args.count):
        spec = dataclasses.replace(first, seed=args.seed + i)
        img = corpus.generate(spec)
        name = f"{args.kind}-s{spec.seed:03d}-{w}x{h}.bmp"
        (out_dir / name).write_bytes(bmpcodec.encode_bmp(img))
        print(f"wrote {out_dir / name}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kpng",
        description="Quantize-to-multiples-of-k PNG pipeline, quality metrics, and benchmarks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("convert", help="re-encode a BMP/PNG as PNG, optionally quantizing first")
    p.add_argument("input")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--k", type=int, default=None,
                   help=f"quantization step {kmodulus.K_MIN}..{kmodulus.K_MAX}; omit for a straight re-encode")
    _add_encode_flags(p)
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("metrics", help="MSE / PSNR / SSIM between two same-size images")
    p.add_argument("a")
    p.add_argument("b")
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser("bench", help="size/ratio/quality table over a BMP corpus")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--synthetic", action="store_true", help="use the built-in synthetic corpus")
    src.add_argument("--dir", help="directory of .bmp files")
    p.add_argument("--k", type=int, default=kmodulus.DEFAULT_K)
    p.add_argument("--out", required=True, help="CSV report path")
    _add_encode_flags(p)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("synth", help="generate deterministic synthetic BMP images")
    p.add_argument("--kind", choices=corpus.GENERATOR_KINDS, required=True)
    p.add_argument("--size", default="512x512", help="WxH (default 512x512)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--colors", type=int, default=8, help="palette size for shape images (2..8)")
    p.add_argument("--count", type=int, default=1, help="number of images (seed, seed+1, ...)")
    p.add_argument("-o", "--out", required=True, help="output directory")
    p.set_defaults(func=cmd_synth)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (KpngError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
