#!/usr/bin/env python3
"""Sweep the quantization step k over its full range on one synthetic image.

Shows the size/quality trade-off that motivates the default k=10: compressed
size falls as k grows while PSNR/SSIM degrade. Run on the shapes generator
(where the scheme shines) or on the gradient generator to see the banding
failure mode drag SSIM down. The vs_zlib9 column is the IDAT size over
zlib -9 on the same scanlines (kpng's inflate recovers them): how far the
codec's DEFLATE is from the reference compressor on identical input.

    python scripts/k_sweep.py --kind flat-shapes --seed 1
"""

import argparse
import zlib

from kpng.bmpcodec import encode_bmp
from kpng.corpus import GENERATOR_KINDS, CorpusSpec, generate
from kpng.flate import inflate
from kpng.kmodulus import K_MAX, K_MIN, kmm_transform
from kpng.metrics import compare
from kpng.pngcodec import encode_png, parse_chunks


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--kind", choices=GENERATOR_KINDS, default="flat-shapes")
    parser.add_argument("--size", type=int, default=256)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()

    spec = CorpusSpec(args.kind, args.size, args.size, seed=args.seed)
    img = generate(spec)
    bmp_size = len(encode_bmp(img))

    print(f"{args.kind} {args.size}x{args.size} seed={args.seed}, bmp {bmp_size} bytes")
    print(f"{'k':>3} {'size':>9} {'CR':>7} {'vs_zlib9':>8} {'mse':>9} {'psnr':>8} {'ssim':>7}")
    for k in range(K_MIN, K_MAX + 1):
        kimg = kmm_transform(img, k)
        png = encode_png(kimg)
        idat = b"".join(c.data for c in parse_chunks(png) if c.type_code == b"IDAT")
        vs_zlib9 = len(idat) / len(zlib.compress(inflate(idat), 9))
        r = compare(img, kimg)
        print(f"{k:>3} {len(png):>9} {bmp_size / len(png):>7.1f} {vs_zlib9:>8.3f} "
              f"{r.mse:>9.4f} {r.psnr:>8.4f} {r.ssim:>7.4f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
