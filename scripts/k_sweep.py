#!/usr/bin/env python3
"""Sweep the quantization step k over its full range on one synthetic image.

Shows the size/quality trade-off that motivates the default k=10: compressed
size falls as k grows while PSNR/SSIM degrade. Run on the shapes generator
(where the scheme shines) or on the gradient generator to see the banding
failure mode drag SSIM down.

    python scripts/k_sweep.py --kind flat-shapes --seed 1
"""

import argparse

from kpng.bmpcodec import encode_bmp
from kpng.corpus import GENERATOR_KINDS, CorpusSpec, generate
from kpng.kmodulus import K_MAX, K_MIN, kmm_transform
from kpng.metrics import compare
from kpng.pngcodec import encode_png


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
    print(f"{'k':>3} {'size':>9} {'CR':>7} {'mse':>9} {'psnr':>8} {'ssim':>7}")
    for k in range(K_MIN, K_MAX + 1):
        kimg = kmm_transform(img, k)
        size = len(encode_png(kimg))
        r = compare(img, kimg)
        print(f"{k:>3} {size:>9} {bmp_size / size:>7.1f} {r.mse:>9.4f} {r.psnr:>8.4f} {r.ssim:>7.4f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
