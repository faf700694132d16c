"""kpng benchmark: closed-loop encode/decode/quality runs on generated images.

Run from the root of a kpng checkout:

    python3 kpngbench/run.py --workload kpng-cartoon --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` is a separate
run that records spans around every layer call and reports the per-layer
metrics (spans go to ``.bench_out/``). Human-readable lines come first;
the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code is 0
only when every output passed its checks.

End-to-end times are scaled to the host's speed as sampled around each
step (see ``workloads.CAL_REF_S``); the raw times are printed beside them.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

# (name, unit, better, bound): the metrics BENCHMARK.json lists as end_to_end
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("encode_s.p50", "s", "lower", 0.2),
    ("encode_mbps", "MB/s", "higher", 0.24),
    ("decode_s.p50", "s", "lower", 0.2),
    ("decode_mbps", "MB/s", "higher", 0.24),
    ("image_s.p50", "s", "lower", 0.2),
    ("cr_mean", "ratio", "higher", 0.1),
    ("size_vs_zlib9", "ratio", "lower", 0.05),
    ("peak_rss_mb", "MB", "lower", 0.1),
]


def import_checkout_kpng():
    """Put this checkout's ``src`` first on the path; refuse to fall back on
    any other installed kpng."""
    if not (SRC / "kpng" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'kpng'} is missing; run from the root of a kpng checkout")
    sys.path.insert(0, str(SRC))
    import kpng

    if Path(kpng.__file__).resolve().parent != (SRC / "kpng").resolve():
        sys.exit(f"error: imported kpng from {kpng.__file__}, not from {SRC}")


def tail(values: list[float]) -> tuple[int, float] | None:
    """Highest percentile (of 99, 95, 90, 75, 50) with at least ten samples
    above it, nearest-rank; None when there are fewer than twenty samples."""
    xs = sorted(values)
    n = len(xs)
    for q in (99, 95, 90, 75, 50):
        rank = -(-q * n // 100)  # ceil
        if n - rank >= 10:
            return q, xs[rank - 1]
    return None


def machine() -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": git_commit(),
    }


def git_commit() -> str:
    """HEAD of the checkout read from .git, or "unknown" outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def end_to_end(workload, items, res, setup_s: float) -> tuple[dict, list[str]]:
    """The bounded metrics, plus report-only lines for the metrics that apply
    to some workloads only or cannot be measured at this sample count.
    Times are scaled to the host's speed (see workloads.CAL_REF_S)."""
    outs = [res.outcomes[it.name] for it in items]
    m = {
        "setup_s": setup_s,
        "encode_s.p50": statistics.median(res.encode_s),
        "encode_mbps": res.raw_bytes / sum(res.encode_s) / 1e6,
        "decode_s.p50": statistics.median(res.decode_s),
        "decode_mbps": res.raw_bytes / sum(res.decode_s) / 1e6,
        "image_s.p50": statistics.median(res.image_s),
        "cr_mean": statistics.fmean(it.bmp_bytes / len(o.png) for it, o in zip(items, outs)),
        "size_vs_zlib9": statistics.fmean(o.idat_bytes / it.zlib9_bytes for it, o in zip(items, outs)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    extra = []
    for name, values in (("encode_s", res.encode_s), ("decode_s", res.decode_s)):
        t = tail(values)
        if t:
            extra.append(f"{name}.tail {t[1]:.6f} s (p{t[0]}, n={len(values)})")
        else:
            extra.append(f"{name}.tail n/a (n={len(values)}; a tail needs 20 samples)")
    if workload.k:
        extra.append(f"quality_s.p50 {statistics.median(res.quality_s):.6f} s")
        extra.append(f"psnr_db.mean {statistics.fmean(o.psnr for o in outs):.6f} dB")
        extra.append(f"ssim.mean {statistics.fmean(o.ssim for o in outs):.6f} 1")
    extra.append(f"failed_frac {res.failed / res.attempted:.6f} 1")
    extra.append("unscaled " + ", ".join(
        f"{name}_s.p50 {statistics.median(values):.6f} s" for name, values in res.unscaled.items()
    ))
    return m, extra


def main(argv: list[str] | None = None, images: int | None = None) -> int:
    """Run one workload; ``images`` trims its image set (for tests)."""
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    import_checkout_kpng()
    from tracing import LAYER_MAP, LAYER_METRICS, Tracer, layer_metrics
    from workloads import SETUP_REPEATS, WORKLOADS, Stopwatch, run_loop, run_traced, set_up

    if args.workload not in WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; expected one of {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    tracer = Tracer() if args.trace else None

    def setup():
        if tracer is None:
            return set_up(workload, args.seed, images)
        tracer.image = "setup"
        with tracer.span("setup"):
            return set_up(workload, args.seed, images, tracer)

    setup_times = []
    digests = set()
    for _ in range(SETUP_REPEATS):
        watch = Stopwatch()
        items, digest = watch.step("setup", setup)
        setup_times.append(watch.scaled["setup"])
        digests.add(digest)
    if len(digests) != 1:
        sys.exit("error: set-up generated different inputs for the same seed")

    info = machine()
    print(f"workload {workload.name}: {workload.why}")
    print(f"inputs seed={args.seed} images={len(items)} sha256={digest}")
    print("machine " + " ".join(f"{key}={val}" for key, val in info.items()))

    if tracer:
        res = run_traced(workload, items, args.seconds, tracer)
        metrics = {}
        if res.encode_s:
            values = layer_metrics(tracer, len(res.encode_s), len(items) * SETUP_REPEATS,
                                   res.encode_s, res.decode_s)
            units = {name: unit for name, unit, _ in LAYER_METRICS}
            metrics = {name: {"value": values[name], "unit": units[name]} for name, _, _ in LAYER_METRICS}
            for name, spec in metrics.items():
                print(f"{name:34s} {spec['value']:.6g} {spec['unit']}")
            for layer, moves in LAYER_MAP.items():
                print(f"map {layer} -> {moves}")
        OUT_DIR.mkdir(exist_ok=True)
        out = OUT_DIR / f"trace-{workload.name}-seed{args.seed}.json"
        out.write_text(json.dumps({"workload": workload.name, "seed": args.seed,
                                   "inputs_sha256": digest, "machine": info,
                                   "counts": tracer.counts, "spans": tracer.dump()}))
        print(f"spans {len(tracer.spans)} written to {out.relative_to(ROOT)}")
    else:
        res = run_loop(workload, items, args.seconds)
        metrics = {}
        if res.failed == 0:
            values, extra = end_to_end(workload, items, res, statistics.median(setup_times))
            for name, unit, _, _ in END_TO_END:
                metrics[name] = {"value": values[name], "unit": unit}
                print(f"{name:16s} {values[name]:.6f} {unit}")
            for line in extra:
                print(line)
    for err in res.errors:
        print(f"FAILED {err}")
    correct = res.failed == 0 and bool(metrics)
    print(json.dumps({"correct": correct, "attempted": res.attempted,
                      "failed": res.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
