"""Smoke tests for the experiment scripts under scripts/."""

import os
import re
import subprocess
import sys
from pathlib import Path
from unittest import mock

import kpng
import kpng.flate
from kpng.kmodulus import K_MAX, K_MIN

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _run(script: str, *args: str) -> subprocess.CompletedProcess:
    src = str(Path(kpng.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, str(SCRIPTS / script), *args], env=env,
                          capture_output=True, text=True, timeout=120)


def test_k_sweep_prints_one_row_per_k():
    out = _run("k_sweep.py", "--size", "32")
    assert out.returncode == 0, out.stderr
    rows = [line.split() for line in out.stdout.splitlines()[2:]]
    assert [int(row[0]) for row in rows] == list(range(K_MIN, K_MAX + 1))
    assert all(len(row) == 7 for row in rows)


def test_inflate_parity_against_itself_finds_no_difference():
    out = _run("inflate_parity.py", "--against", kpng.flate.__file__, "--mutants", "200", "--seed", "3")
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[1:] == ["same 200", "same class, other message 0", "differ 0"]


def test_deflate_parity_against_itself_finds_no_difference():
    out = _run("deflate_parity.py", "--against", kpng.flate.__file__, "--seed", "3")
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    assert lines[0] == "inputs 21, levels 0-3, seed 3"
    assert lines[1:] == ["same 84", "differ 0"]


def test_deflate_parity_sizes_against_itself_passes():
    out = _run("deflate_parity.py", "--against", kpng.flate.__file__, "--seed", "3", "--sizes")
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    assert lines[0] == "inputs 21, levels 0-3, seed 3"
    assert len(lines) == 5
    for level, line in enumerate(lines[1:]):
        m = re.fullmatch(rf"level {level}: bytes (\d+) here, (\d+) there, 0 differ, 0 larger", line)
        assert m and m[1] == m[2], line


def test_deflate_parity_sizes_fails_on_a_larger_stream(tmp_path):
    # the other side writes the same streams one byte shorter at levels 2-3
    other = tmp_path / "flate.py"
    other.write_text("from kpng.flate import deflate_compress as ours\n\n\n"
                     "def deflate_compress(data, level):\n"
                     "    return ours(data, level) if level < 2 else ours(data, level)[:-1]\n")
    out = _run("deflate_parity.py", "--against", str(other), "--seed", "3", "--sizes")
    assert out.returncode == 1, out.stderr
    lines = out.stdout.splitlines()
    assert lines[1].endswith(", 0 differ, 0 larger") and lines[2].endswith(", 0 differ, 0 larger")
    assert lines[3].endswith(", 21 differ, 21 larger") and lines[4].endswith(", 21 differ, 21 larger")
    # every larger input is listed, with its size over the other side's
    listed = lines[5:]
    assert len(listed) == 42
    for line, level in zip(listed, [2] * 21 + [3] * 21):
        m = re.fullmatch(rf"  (.+) at level {level} is larger: (\d+) / (\d+) = (\d\.\d{{4}})", line)
        assert m and int(m[2]) == int(m[3]) + 1 and m[4] == f"{int(m[2]) / int(m[3]):.4f}", line
    assert [line.split(" at level")[0] for line in listed[:21]] == [line.split(" at level")[0] for line in listed[21:]]


def test_deflate_parity_corpus_builds_the_lazy_parse_mask():
    # --against covers level 3's masked path without the benchmark's inputs
    sys.path.insert(0, str(SCRIPTS))
    try:
        import deflate_parity
    finally:
        sys.path.remove(str(SCRIPTS))
    data = dict(deflate_parity.corpus(3))["noise 256x256 k=10"]
    with mock.patch.object(kpng.flate, "_clear_dead", wraps=kpng.flate._clear_dead) as builder:
        kpng.flate._tokenize_ops(data, True)
    builder.assert_called_once()


def test_deflate_parity_corpus_has_a_literal_run_across_a_segment():
    # the last literal run crosses the 64 KiB segment edge of the chain
    # links and the live mask: no position past it is live
    sys.path.insert(0, str(SCRIPTS))
    try:
        import deflate_parity
    finally:
        sys.path.remove(str(SCRIPTS))
    data = dict(deflate_parity.corpus(3))["literal run across a segment"]
    assert len(data) == kpng.flate._LINK_SEGMENT + 64
    p = kpng.flate._Parse(data, True)
    p.link(p.limit)
    live = p.live
    assert live.rfind(1) < kpng.flate._LINK_SEGMENT


def test_deflate_parity_corpus_takes_the_two_process_parse():
    # --against covers the parse split between two processes at every level
    sys.path.insert(0, str(SCRIPTS))
    try:
        import deflate_parity
    finally:
        sys.path.remove(str(SCRIPTS))
    data = dict(deflate_parity.corpus(3))["mixed 512x512, two processes"]
    with mock.patch.object(kpng.flate, "_two_cpus", return_value=True):
        for lazy in (False, True):
            assert kpng.flate._split_point(kpng.flate._Parse(data, lazy)) is not None
