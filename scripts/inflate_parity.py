#!/usr/bin/env python3
"""Mutant parity: does ``kpng.flate.inflate`` judge broken streams as another
``flate.py`` does?

Loads the ``flate.py`` at PATH as a module of the kpng package (its relative
imports resolve against the installed kpng), then mutates a fixed corpus of
zlib streams: ``deflate_compress`` levels 0-3 and ``zlib`` levels 1 and 9 on
one input of text, noise and zeros, and one ``zlib`` stream with sync flushes
between text and noise. A mutant flips a byte, cuts the stream short or
inserts a byte. Each mutant goes through both inflaters; the outcome is the
bytes returned or the exception's class and message. Prints how many
mutants gave the same outcome, how many the same exception class with
another message (each pair of messages counted), and how many differ (the
first few shown). Exits 1 when any differ.

    git show HEAD~1:src/kpng/flate.py > /tmp/parent_flate.py
    python scripts/inflate_parity.py --against /tmp/parent_flate.py --mutants 5000
"""

import argparse
import importlib.util
import random
import sys
import zlib
from collections import Counter

from kpng.flate import deflate_compress, inflate


def load_flate(path: str):
    spec = importlib.util.spec_from_file_location("kpng._parity_flate", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def corpus() -> list[bytes]:
    rng = random.Random(2013)
    text = b"".join(b"scanline %d of a k-PNG, " % (i % 23) for i in range(200))
    noise = rng.randbytes(3000)
    data = text + noise + bytes(2000) + text[::-1]
    c = zlib.compressobj(9)
    synced = b"".join(c.compress(part) + c.flush(zlib.Z_SYNC_FLUSH) for part in (text[:700], noise[:300], text))
    return (
        [deflate_compress(data, level) for level in (0, 1, 2, 3)]
        + [zlib.compress(data, level) for level in (1, 9)]
        + [synced + c.flush()]
    )


def mutate(stream: bytes, rng: random.Random) -> bytes:
    kind = rng.randrange(3)
    pos = rng.randrange(len(stream))
    if kind == 0:
        return stream[:pos] + bytes([stream[pos] ^ rng.randrange(1, 256)]) + stream[pos + 1 :]
    if kind == 1:
        return stream[:pos]
    return stream[:pos] + bytes([rng.randrange(256)]) + stream[pos:]


def outcome(inflater, stream: bytes):
    try:
        return inflater(stream)
    except Exception as exc:
        return type(exc), str(exc)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--against", required=True, metavar="PATH", help="the flate.py to compare with")
    parser.add_argument("--mutants", type=int, default=5000)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    other = load_flate(args.against).inflate
    streams = corpus()
    if any(not inflate(s) == other(s) == zlib.decompress(s) for s in streams):
        sys.exit("error: the corpus itself does not inflate to zlib's bytes on both sides")
    rng = random.Random(args.seed)
    same = 0
    messages: Counter = Counter()
    differ = []
    for i in range(args.mutants):
        mutant = mutate(streams[i % len(streams)], rng)
        ours, theirs = outcome(inflate, mutant), outcome(other, mutant)
        if ours == theirs:
            same += 1
        elif isinstance(ours, tuple) and isinstance(theirs, tuple) and ours[0] is theirs[0]:
            messages[ours[0].__name__, theirs[1], ours[1]] += 1
        else:
            differ.append((i, theirs, ours))

    print(f"streams {len(streams)}, mutants {args.mutants}, seed {args.seed}")
    print(f"same {same}")
    print(f"same class, other message {sum(messages.values())}")
    for (name, theirs, ours), count in sorted(messages.items()):
        print(f"  {name}: {theirs!r} -> {ours!r}: {count}")
    print(f"differ {len(differ)}")
    for i, theirs, ours in differ[:10]:
        print(f"  mutant {i}: {str(theirs)[:80]} -> {str(ours)[:80]}")
    return 1 if differ else 0


if __name__ == "__main__":
    raise SystemExit(main())
