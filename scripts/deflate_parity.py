#!/usr/bin/env python3
"""Byte parity: does ``kpng.flate.deflate_compress`` write the same bytes as
another ``flate.py`` does?

Loads the ``flate.py`` at PATH as a module of the kpng package (as
``inflate_parity.py`` does), then compresses one corpus at levels 0-3 with
both and compares the streams. The corpus:

- the IDAT scanlines ``encode_png`` writes for 64x64 ``kpng.corpus`` tiles
  of every generator kind (flat-shapes, gradient, noise, mixed), plain and
  at k=10;
- random inputs of 0 to 70 KB;
- a block repeated at distance 32768, the window's edge, and at 32769,
  one byte past it;
- runs that make 258-byte matches far longer than ``_INSERT_CAP``.

``--seed`` picks the tiles and the random bytes. ``--bench-seed S`` adds the
benchmark's inputs: the filtered scanlines of three 512x512 images of every
workload, as ``kpngbench/workloads.py``'s ``set_up(workload, S, count=3)``
makes them (the module is imported, nothing under ``kpngbench/`` is
written). Prints how many (input, level) pairs gave the same bytes and how
many differ, and the first that differs. Exits 1 when any differ.

    git show HEAD~1:src/kpng/flate.py > /tmp/parent_flate.py
    python scripts/deflate_parity.py --against /tmp/parent_flate.py
    python scripts/deflate_parity.py --against /tmp/parent_flate.py --bench-seed 7
"""

import argparse
import random
import sys
from pathlib import Path

from inflate_parity import load_flate
from kpng.corpus import GENERATOR_KINDS, CorpusSpec, generate
from kpng.flate import _INSERT_CAP, WINDOW_SIZE, deflate_compress, inflate
from kpng.kmodulus import kmm_transform
from kpng.pngcodec import encode_png, parse_chunks

LEVELS = (0, 1, 2, 3)


def scanlines(img) -> bytes:
    return inflate(b"".join(c.data for c in parse_chunks(encode_png(img)) if c.type_code == b"IDAT"))


def corpus(seed: int) -> list[tuple[str, bytes]]:
    rng = random.Random(seed)
    inputs = []
    for kind in GENERATOR_KINDS:
        img = generate(CorpusSpec(kind, 64, 64, seed=seed))
        inputs += [(f"{kind} tile", scanlines(img)), (f"{kind} tile k=10", scanlines(kmm_transform(img, 10)))]
    for size in (0, 1, 2, 3, 700, rng.randrange(70_001), 70_000):
        inputs.append((f"random {size} B", rng.randbytes(size)))
    block = rng.randbytes(600)
    for dist in (WINDOW_SIZE, WINDOW_SIZE + 1):
        inputs.append((f"repeat at distance {dist}", block + rng.randbytes(dist - len(block)) + block))
    # runs of one byte and of a short period, each far past _INSERT_CAP
    runs = b"".join(bytes([rng.randrange(256)]) * rng.randrange(_INSERT_CAP, 4000)
                    + rng.randbytes(rng.randrange(1, 8)) * rng.randrange(40, 400) for _ in range(12))
    inputs.append(("258-byte matches", runs))
    return inputs


def bench_inputs(seed: int) -> list[tuple[str, bytes]]:
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "kpngbench"))
    sys.dont_write_bytecode = True  # leave no __pycache__ in kpngbench/
    import workloads

    inputs = []
    for name, workload in workloads.WORKLOADS.items():
        items, _ = workloads.set_up(workload, seed, count=3)
        inputs += [(f"{name} {item.name}", item.filtered) for item in items]
    return inputs


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--against", required=True, metavar="PATH", help="the flate.py to compare with")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--bench-seed", type=int, metavar="S", help="add the benchmark's inputs at seed S")
    args = parser.parse_args()

    other = load_flate(args.against).deflate_compress
    same = 0
    differ = []
    inputs = corpus(args.seed)
    if args.bench_seed is not None:
        inputs += bench_inputs(args.bench_seed)
    for name, data in inputs:
        for level in LEVELS:
            if deflate_compress(data, level) == other(data, level):
                same += 1
            else:
                differ.append((name, level))

    bench = "" if args.bench_seed is None else f", bench seed {args.bench_seed}"
    print(f"inputs {len(inputs)}, levels {LEVELS[0]}-{LEVELS[-1]}, seed {args.seed}{bench}")
    print(f"same {same}")
    print(f"differ {len(differ)}")
    if differ:
        name, level = differ[0]
        print(f"  first: {name} at level {level}")
    return 1 if differ else 0


if __name__ == "__main__":
    raise SystemExit(main())
