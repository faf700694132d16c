import dataclasses
import math

import numpy as np
import pytest

from kpng import RasterImage, encode_bmp
from kpng.bench import (
    CSV_FIELDS,
    BenchRecord,
    markdown_table,
    measure,
    read_csv,
    run_directory,
    sanitize_name,
    write_csv,
)
from kpng.corpus import CorpusSpec, generate
from kpng.errors import ParameterError

from conftest import random_image


@pytest.fixture(scope="module")
def small_records():
    specs = [
        ("tiny-shapes", CorpusSpec("flat-shapes", 48, 48, seed=2)),
        ("tiny-noise", CorpusSpec("noise", 48, 48, seed=3)),
    ]
    records = []
    for name, spec in specs:
        img = generate(spec)
        records.append(measure(name, img, len(encode_bmp(img))))
    return records


def test_cr_fields_are_consistent(small_records):
    for r in small_records:
        assert r.png_cr == pytest.approx(r.bmp_size / r.png_size)
        assert r.kpng_cr == pytest.approx(r.bmp_size / r.kpng_size)


def test_csv_round_trip_exact(tmp_path, small_records):
    path = tmp_path / "report.csv"
    write_csv(small_records, path)
    back = read_csv(path)
    assert back == small_records


def test_csv_round_trip_with_infinite_psnr(tmp_path):
    flat = RasterImage.from_array(np.full((16, 16, 3), 120, np.uint8))  # multiples of 10
    rec = measure("already-quantized", flat, len(encode_bmp(flat)))
    assert rec.psnr == math.inf and rec.mse == 0.0
    path = tmp_path / "inf.csv"
    write_csv([rec], path)
    assert read_csv(path) == [rec]


def test_csv_header_checked(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("nope,nope\n1,2\n")
    with pytest.raises(ParameterError):
        read_csv(path)


@pytest.mark.parametrize("field, bad", [("width", "x"), ("width", "1.5"), ("psnr", "high")])
def test_csv_field_values_checked(tmp_path, small_records, field, bad):
    path = tmp_path / "report.csv"
    write_csv(small_records[:1], path)
    header, row = (line.split(",") for line in path.read_text().splitlines())
    row[header.index(field)] = bad
    path.write_text(",".join(header) + "\n" + ",".join(row) + "\n")
    with pytest.raises(ParameterError, match=field):
        read_csv(path)


def test_markdown_table_format(small_records):
    table = markdown_table(small_records)
    lines = table.strip().splitlines()
    assert lines[0].startswith("| name")
    assert lines[1].startswith("|-")
    assert lines[-1].startswith("| mean")
    # one-decimal CR columns
    row = lines[2]
    cells = [c.strip() for c in row.strip("|").split("|")]
    assert cells[0] == "tiny-noise" or cells[0] == "tiny-shapes"
    float(cells[4])  # png CR parses
    assert "." in cells[4] and len(cells[4].split(".")[1]) == 1



def test_markdown_table_of_no_records_is_its_header():
    lines = markdown_table([]).splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("| name | dims |") and lines[0].endswith("| ssim |")
    assert set(lines[1]) == {"|", "-"}


def test_sanitize_name():
    assert sanitize_name("a b,c|d") == "a-b-c-d"
    assert sanitize_name("img_01.v2-x") == "img_01.v2-x"


def test_run_directory_collects_failures(tmp_path):
    rng = np.random.default_rng(0)
    for i in range(2):
        img = random_image(rng, 24, 16, 3)
        (tmp_path / f"ok-{i}.bmp").write_bytes(encode_bmp(img))
    (tmp_path / "broken.bmp").write_bytes(b"BMnot really a bitmap")
    records, failures = run_directory(tmp_path)
    assert [r.name for r in records] == ["ok-0", "ok-1"]
    assert len(failures) == 1 and failures[0][0] == "broken.bmp"


def test_run_directory_takes_bmp_files_in_any_case(tmp_path):
    rng = np.random.default_rng(2)
    for name in ("a.bmp", "B.BMP", "c.Bmp"):
        (tmp_path / name).write_bytes(encode_bmp(random_image(rng, 16, 16, 3)))
    (tmp_path / "notes.txt").write_text("not an image")
    (tmp_path / "d.bmp").mkdir()  # not a regular file: neither a record nor a failure
    records, failures = run_directory(tmp_path)
    assert [r.name for r in records] == ["B", "a", "c"]
    assert failures == []


def test_run_directory_empty(tmp_path):
    records, failures = run_directory(tmp_path)
    assert records == [] and failures == []


def test_run_directory_requires_directory(tmp_path):
    with pytest.raises(ParameterError):
        run_directory(tmp_path / "missing")


def test_records_sorted_by_name(tmp_path):
    rng = np.random.default_rng(1)
    for name in ("zz", "aa", "mm"):
        img = random_image(rng, 16, 16, 3)
        (tmp_path / f"{name}.bmp").write_bytes(encode_bmp(img))
    records, _ = run_directory(tmp_path)
    assert [r.name for r in records] == ["aa", "mm", "zz"]


def test_csv_fields_match_dataclass(small_records):
    row = small_records[0].to_csv_row()
    assert len(row) == len(CSV_FIELDS)
    rebuilt = BenchRecord.from_csv_row(row)
    assert rebuilt == small_records[0]


def test_image_smaller_than_the_ssim_window_gets_a_row(tmp_path):
    img = random_image(np.random.default_rng(8), 8, 8, 3)
    bmp = encode_bmp(img)
    (tmp_path / "tiny.bmp").write_bytes(bmp)
    records, failures = run_directory(tmp_path)
    assert failures == []
    (rec,) = records
    assert (rec.name, rec.width, rec.height, rec.bmp_size) == ("tiny", 8, 8, len(bmp))
    assert rec.png_cr == pytest.approx(rec.bmp_size / rec.png_size)
    assert rec.kpng_cr == pytest.approx(rec.bmp_size / rec.kpng_size)
    assert 0 < rec.mse < 26 and math.isfinite(rec.psnr)  # k=10 moves a sample at most 5
    assert math.isnan(rec.ssim)

    path = tmp_path / "tiny.csv"
    write_csv(records, path)
    (back,) = read_csv(path)
    assert math.isnan(back.ssim)
    assert dataclasses.replace(back, ssim=0.0) == dataclasses.replace(rec, ssim=0.0)

    row = markdown_table(records).splitlines()[2]
    cells = [c.strip() for c in row.strip("|").split("|")]
    assert cells[0] == "tiny" and cells[1] == "8x8"
    assert cells[7:] == [f"{rec.mse:.4f}", f"{rec.psnr:.4f}", "nan"]
