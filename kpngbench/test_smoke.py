"""Smoke tests of the benchmark itself (not of kpng).

Run from the repository root:  python3 -m pytest -q kpngbench
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

run.import_checkout_kpng()

import tracing  # noqa: E402
import workloads  # noqa: E402
from kpng.raster import RasterImage  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def _main(capsys, *args, images=1) -> tuple[int, str, dict]:
    rc = run.main(list(args), images=images)
    out = capsys.readouterr().out
    return rc, out, json.loads(out.strip().splitlines()[-1])


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert list(spec) == ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]
    assert spec["command"] == ["python3", "kpngbench/run.py"]
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (w.name, w.why) for w in workloads.WORKLOADS.values()
    ]
    assert [tuple(m.values()) for m in spec["end_to_end"]] == run.END_TO_END
    assert [tuple(m.values()) for m in spec["per_layer"]] == tracing.LAYER_METRICS


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_every_metric_is_printed_with_its_unit(capsys, workload, trace):
    rc, out, result = _main(capsys, "--workload", workload, "--seed", "3", "--seconds", "0",
                            "--trace", str(trace))
    assert rc == 0 and result["correct"] and result["failed"] == 0
    declared = (
        [(name, unit) for name, unit, _, _ in run.END_TO_END] if trace == 0
        else [(name, unit) for name, unit, _ in tracing.LAYER_METRICS]
    )
    assert [(name, m["unit"]) for name, m in result["metrics"].items()] == declared
    for name, unit in declared:
        assert re.search(rf"^{re.escape(name)} +\S+ {re.escape(unit)}$", out, re.M), name
    if trace == 0:
        assert "failed_frac 0.000000" in out
        assert ("ssim.mean" in out) == (workloads.WORKLOADS[workload].k is not None)


def test_same_seed_repeats_inputs_and_sizes_and_another_seed_does_not(capsys):
    def digest_and_cr(seed):
        rc, out, result = _main(capsys, "--workload", "kpng-cartoon", "--seed", str(seed),
                                "--seconds", "0", images=2)
        assert rc == 0
        return re.search(r"sha256=(\w+)", out).group(1), result["metrics"]["cr_mean"]["value"]

    first = digest_and_cr(5)
    assert digest_and_cr(5) == first
    assert digest_and_cr(6)[0] != first[0]


def test_a_wrong_output_fails_the_run(capsys, monkeypatch):
    real = workloads.decode_png

    def off_by_one(png):
        img = real(png)
        return RasterImage(img.width, img.height, img.channels,
                           bytes([img.samples[0] ^ 1]) + img.samples[1:])

    monkeypatch.setattr(workloads, "decode_png", off_by_one)
    rc, out, result = _main(capsys, "--workload", "kpng-cartoon", "--seed", "1", "--seconds", "0")
    assert rc == 1 and not result["correct"] and result["failed"] == result["attempted"] == 1
    assert "decode_png did not return the encoded samples" in out


def test_tail_needs_ten_samples_beyond_it():
    assert run.tail([1.0] * 19) is None
    assert run.tail([float(i) for i in range(20)]) == (50, 9.0)
    assert run.tail([float(i) for i in range(100)]) == (90, 89.0)


def test_without_the_program_it_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "kpngbench", tmp_path / "kpngbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "kpngbench/run.py", "--workload", "kpng-cartoon", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
