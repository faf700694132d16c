import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import kpng
from kpng import decode_bmp, decode_png, encode_bmp
from kpng.bench import read_csv
from kpng.cli import main
from kpng.corpus import CorpusSpec, generate

from conftest import random_image


@pytest.fixture()
def shapes_bmp(tmp_path):
    img = generate(CorpusSpec("flat-shapes", 96, 96, seed=2))
    path = tmp_path / "shapes.bmp"
    path.write_bytes(encode_bmp(img))
    return path


def test_convert_quantized_is_smaller(tmp_path, shapes_bmp, capsys):
    plain = tmp_path / "plain.png"
    quant = tmp_path / "quant.png"
    assert main(["convert", str(shapes_bmp), "-o", str(plain)]) == 0
    assert main(["convert", "--k", "10", str(shapes_bmp), "-o", str(quant)]) == 0
    out = capsys.readouterr().out
    assert "compression ratio:" in out
    assert quant.stat().st_size < plain.stat().st_size


def test_convert_is_idempotent_through_the_container(tmp_path, shapes_bmp):
    once = tmp_path / "once.png"
    twice = tmp_path / "twice.png"
    assert main(["convert", "--k", "10", str(shapes_bmp), "-o", str(once)]) == 0
    assert main(["convert", "--k", "10", str(once), "-o", str(twice)]) == 0
    assert decode_png(once.read_bytes()) == decode_png(twice.read_bytes())


def test_convert_noise_at_k10_clears_dead_positions(tmp_path, capsys):
    # the 128x128 noise image of the CI console round trip: level 3's parse
    # clears its dead positions once, after the walk at 3,067
    assert main(["synth", "--kind", "noise", "--size", "128x128", "--seed", "1", "-o", str(tmp_path)]) == 0
    with mock.patch.object(kpng.flate, "_clear_dead", wraps=kpng.flate._clear_dead) as clear:
        assert main(["convert", str(tmp_path / "noise-s001-128x128.bmp"), "-o", str(tmp_path / "k10-noise.png"),
                     "--k", "10"]) == 0
    clear.assert_called_once()
    assert clear.call_args.args[3] == 3068


@pytest.mark.parametrize("bad_k", ["1", "26"])
def test_convert_rejects_bad_k(tmp_path, shapes_bmp, capsys, bad_k):
    code = main(["convert", "--k", bad_k, str(shapes_bmp), "-o", str(tmp_path / "x.png")])
    assert code != 0
    assert "error:" in capsys.readouterr().err


def test_convert_unreadable_input(tmp_path, capsys):
    bad = tmp_path / "junk.bin"
    bad.write_bytes(b"not an image")
    assert main(["convert", str(bad), "-o", str(tmp_path / "x.png")]) != 0
    assert "error:" in capsys.readouterr().err


def test_convert_missing_input(tmp_path, capsys):
    assert main(["convert", str(tmp_path / "nope.bmp"), "-o", str(tmp_path / "x.png")]) != 0
    assert "error:" in capsys.readouterr().err


def test_metrics_identical_files(tmp_path, shapes_bmp, capsys):
    assert main(["metrics", str(shapes_bmp), str(shapes_bmp)]) == 0
    out = capsys.readouterr().out
    assert "mse     0.0000" in out
    assert "psnr    inf" in out
    assert "ssim    1.0000" in out
    assert "metrics: mse=0.0000 psnr=inf ssim=1.0000" in out


def test_metrics_quantized_psnr_in_range(tmp_path, capsys):
    img = random_image(np.random.default_rng(0), 64, 64, 3)
    a = tmp_path / "a.bmp"
    a.write_bytes(encode_bmp(img))
    out_png = tmp_path / "b.png"
    assert main(["convert", "--k", "10", str(a), "-o", str(out_png)]) == 0
    capsys.readouterr()
    assert main(["metrics", str(a), str(out_png)]) == 0
    out = capsys.readouterr().out
    psnr_value = float(out.split("psnr=")[1].split()[0])
    assert 34.15 <= psnr_value <= 46.5


def test_metrics_image_smaller_than_the_ssim_window(tmp_path, capsys):
    # 8x8 is below the 11x11 SSIM window: SSIM prints nan, as kpng bench does
    a = tmp_path / "tiny.bmp"
    a.write_bytes(encode_bmp(random_image(np.random.default_rng(8), 8, 8, 3)))
    out_png = tmp_path / "tiny.png"
    assert main(["convert", "--k", "10", str(a), "-o", str(out_png)]) == 0
    capsys.readouterr()
    assert main(["metrics", str(a), str(out_png)]) == 0
    captured = capsys.readouterr()
    assert "ssim    nan" in captured.out
    assert captured.err == ""


def test_metrics_shape_mismatch(tmp_path, capsys):
    rng = np.random.default_rng(1)
    a = tmp_path / "a.bmp"
    b = tmp_path / "b.bmp"
    a.write_bytes(encode_bmp(random_image(rng, 16, 16, 3)))
    b.write_bytes(encode_bmp(random_image(rng, 17, 16, 3)))
    assert main(["metrics", str(a), str(b)]) != 0
    assert "error:" in capsys.readouterr().err


def test_bench_directory(tmp_path, capsys):
    corpus_dir = tmp_path / "corpus"
    corpus_dir.mkdir()
    for seed in (1, 2):
        img = generate(CorpusSpec("flat-shapes", 64, 64, seed=seed))
        (corpus_dir / f"img-{seed}.bmp").write_bytes(encode_bmp(img))
    report = tmp_path / "report.csv"
    assert main(["bench", "--dir", str(corpus_dir), "--out", str(report)]) == 0
    out = capsys.readouterr().out
    assert "| name" in out and "| mean" in out
    records = read_csv(report)
    assert [r.name for r in records] == ["img-1", "img-2"]
    assert all(r.kpng_size <= r.png_size for r in records)


def test_bench_empty_directory(tmp_path, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main(["bench", "--dir", str(empty), "--out", str(tmp_path / "r.csv")]) != 0
    assert "no usable images" in capsys.readouterr().err


def test_bench_reports_per_file_failures(tmp_path, capsys):
    corpus_dir = tmp_path / "corpus"
    corpus_dir.mkdir()
    img = generate(CorpusSpec("flat-shapes", 48, 48, seed=4))
    (corpus_dir / "good.bmp").write_bytes(encode_bmp(img))
    (corpus_dir / "bad.bmp").write_bytes(b"BM broken")
    report = tmp_path / "report.csv"
    assert main(["bench", "--dir", str(corpus_dir), "--out", str(report)]) == 0
    captured = capsys.readouterr()
    assert "skipped bad.bmp" in captured.err
    assert len(read_csv(report)) == 1


def test_bench_rejects_bad_k(tmp_path, capsys):
    assert main(["bench", "--dir", str(tmp_path), "--k", "1", "--out", str(tmp_path / "r.csv")]) != 0
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("source", [["--synthetic"], ["--dir", "."]], ids=["synthetic", "dir"])
def test_bench_refuses_a_missing_out_directory_before_it_encodes(tmp_path, capsys, monkeypatch, source):
    calls = []
    monkeypatch.setattr(kpng.bench, "run_synthetic", lambda *a: calls.append(a))
    monkeypatch.setattr(kpng.bench, "run_directory", lambda *a: calls.append(a))
    assert main(["bench", *source, "--out", str(tmp_path / "nodir" / "r.csv")]) == 1
    assert "error:" in capsys.readouterr().err
    assert calls == []
    assert not (tmp_path / "nodir").exists()


def test_synth_deterministic(tmp_path):
    d1 = tmp_path / "one"
    d2 = tmp_path / "two"
    args = ["synth", "--kind", "flat-shapes", "--size", "32x32", "--seed", "9"]
    assert main(args + ["-o", str(d1)]) == 0
    assert main(args + ["-o", str(d2)]) == 0
    f1 = sorted(d1.glob("*.bmp"))
    f2 = sorted(d2.glob("*.bmp"))
    assert len(f1) == len(f2) == 1
    assert f1[0].read_bytes() == f2[0].read_bytes()


def test_synth_color_budget_and_count(tmp_path):
    out = tmp_path / "imgs"
    assert main(["synth", "--kind", "flat-shapes", "--size", "40x40", "--seed", "1",
                 "--count", "3", "-o", str(out)]) == 0
    files = sorted(out.glob("*.bmp"))
    assert len(files) == 3
    for f in files:
        img = decode_bmp(f.read_bytes())
        assert len(np.unique(img.to_array().reshape(-1, 3), axis=0)) <= 8


def test_synth_gradient_ramp(tmp_path):
    out = tmp_path / "g"
    assert main(["synth", "--kind", "gradient", "--size", "256x8", "-o", str(out)]) == 0
    img = decode_bmp(next(out.glob("*.bmp")).read_bytes())
    arr = img.to_array()
    assert arr[0, 0, 0] == 0 and arr[0, -1, 0] == 255


def test_synth_bad_size(tmp_path, capsys):
    assert main(["synth", "--kind", "noise", "--size", "huge", "-o", str(tmp_path / "x")]) != 0
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("count", [0, -2])
def test_synth_rejects_count_below_one(tmp_path, capsys, count):
    out = tmp_path / "none"
    assert main(["synth", "--kind", "noise", "--size", "8x8", "--count", str(count),
                 "-o", str(out)]) == 1
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flags", [["--size", "0x5"], ["--colors", "1"]])
def test_synth_bad_spec_writes_nothing(tmp_path, capsys, flags):
    out = tmp_path / "none"
    assert main(["synth", "--kind", "noise", *flags, "-o", str(out)]) == 1
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


def _python_m_kpng(*args: str) -> subprocess.CompletedProcess:
    """``python -m kpng ARGS`` in a new process, with this kpng on its path."""
    src = str(Path(kpng.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-m", "kpng", *args], env=env,
                          capture_output=True, text=True, timeout=120)


def test_python_m_kpng_writes_an_image(tmp_path):
    done = _python_m_kpng("synth", "--kind", "noise", "--size", "16x16", "-o", str(tmp_path))
    assert done.returncode == 0, done.stderr
    [bmp] = tmp_path.iterdir()
    img = decode_bmp(bmp.read_bytes())
    assert (img.width, img.height) == (16, 16)
    assert done.stdout == f"wrote {bmp}\n"


def test_python_m_kpng_reports_an_error_without_a_traceback(tmp_path):
    done = _python_m_kpng("synth", "--kind", "noise", "--size", "huge", "-o", str(tmp_path / "x"))
    assert done.returncode == 1
    assert done.stderr.startswith("error: ")
    assert "Traceback" not in done.stderr
    assert not (tmp_path / "x").exists()
