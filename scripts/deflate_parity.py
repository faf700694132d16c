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
- runs of 128 to 4,000 bytes that make chains of 258-byte matches, whose
  insides are on the chains that later walks read;
- the scanlines of a 256x256 noise tile at k=10, on which every level
  links its 4-byte keys, clears its dead positions from the live mask and
  skips their walks;
- 65,600 random bytes, the same at every ``--seed``, whose last literal
  run crosses the 64 KiB segment edge of the chain links and the live mask
  and ends at the input's end;
- the scanlines of a 512x512 mixed image, the same at every ``--seed``,
  786,944 bytes that every level cuts into a head and a tail piece at
  442,656, parsed apart as pigz compresses its pieces; against a
  ``flate.py`` that parsed them as one piece, level 3 comes out 2 bytes
  larger.

``--seed`` picks the tiles and the random bytes. ``--bench-seed S`` adds the
benchmark's inputs: the filtered scanlines of three 512x512 images of every
workload, as ``kpngbench/workloads.py``'s ``set_up(workload, S, count=3)``
makes them (the module is imported, nothing under ``kpngbench/`` is
written). Prints how many (input, level) pairs gave the same bytes and how
many differ, and the first that differs. Exits 1 when any differ.

``--sizes`` checks a change that moves bytes on purpose at levels 2-3. It
prints, per level, the total stream bytes on both sides, how many inputs
differ and how many came out larger than the other side's, then every
input that fails: one that differs at levels 0-1, or one that comes out
larger at levels 2-3, with its size over the other side's. Exits 1 when
any input fails. Level 1's bytes moved once on purpose, when levels 1-2
took level 3's parse with smaller budgets (4 and 16 chain links, no window
search): against a ``flate.py`` from before that change, ``--sizes``
exits 1 on level 1 alone.

    git show HEAD~1:src/kpng/flate.py > /tmp/parent_flate.py
    python scripts/deflate_parity.py --against /tmp/parent_flate.py
    python scripts/deflate_parity.py --against /tmp/parent_flate.py --bench-seed 7
    python scripts/deflate_parity.py --against /tmp/parent_flate.py --sizes --bench-seed 7
"""

import argparse
import random
import sys
from pathlib import Path

from inflate_parity import load_flate
from kpng.corpus import GENERATOR_KINDS, CorpusSpec, generate
from kpng.flate import _LINK_SEGMENT, WINDOW_SIZE, deflate_compress, inflate
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
    # runs of one byte and of a short period, each 128 bytes or longer
    runs = b"".join(bytes([rng.randrange(256)]) * rng.randrange(128, 4000)
                    + rng.randbytes(rng.randrange(1, 8)) * rng.randrange(40, 400) for _ in range(12))
    inputs.append(("258-byte matches", runs))
    noise = kmm_transform(generate(CorpusSpec("noise", 256, 256, seed=seed)), 10)
    inputs.append(("noise 256x256 k=10", scanlines(noise)))
    # the same bytes at every seed: no position past 64,353 has a link inside its window
    inputs.append(("literal run across a segment", random.Random(1).randbytes(_LINK_SEGMENT + 64)))
    # the same bytes at every seed: the gate of the two-process parse passes at every level
    inputs.append(("mixed 512x512, two processes", scanlines(generate(CorpusSpec("mixed", 512, 512, seed=1)))))
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
    parser.add_argument("--sizes", action="store_true",
                        help="compare sizes: same bytes at levels 0-1, no larger stream at levels 2-3")
    args = parser.parse_args()

    other = load_flate(args.against).deflate_compress
    inputs = corpus(args.seed)
    if args.bench_seed is not None:
        inputs += bench_inputs(args.bench_seed)
    # (input, level, this side's bytes, the other side's, whether they are the same)
    results = []
    for name, data in inputs:
        for level in LEVELS:
            ours, theirs = deflate_compress(data, level), other(data, level)
            results.append((name, level, len(ours), len(theirs), ours == theirs))

    bench = "" if args.bench_seed is None else f", bench seed {args.bench_seed}"
    print(f"inputs {len(inputs)}, levels {LEVELS[0]}-{LEVELS[-1]}, seed {args.seed}{bench}")
    if not args.sizes:
        differ = [(name, level) for name, level, _, _, same in results if not same]
        print(f"same {len(results) - len(differ)}")
        print(f"differ {len(differ)}")
        if differ:
            print("  first: {} at level {}".format(*differ[0]))
        return 1 if differ else 0

    failed = []
    for level in LEVELS:
        rows = [r for r in results if r[1] == level]
        differ = [r for r in rows if not r[4]]
        larger = [r for r in rows if r[2] > r[3]]
        print(f"level {level}: bytes {sum(r[2] for r in rows)} here, {sum(r[3] for r in rows)} there, "
              f"{len(differ)} differ, {len(larger)} larger")
        failed += [f"{name} at level {level} differs" for name, *_ in differ] if level < 2 else [
            f"{name} at level {level} is larger: {ours} / {theirs} = {ours / theirs:.4f}"
            for name, _, ours, theirs, _ in larger]
    for line in failed:
        print(f"  {line}")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
