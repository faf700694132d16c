import hashlib

import numpy as np
import pytest

from kpng import encode_bmp
from kpng.corpus import DEFAULT_BENCH_CORPUS, CorpusSpec, generate
from kpng.errors import ParameterError

# determinism anchors for the pinned benchmark corpus (criterion: identical
# bytes across runs)
SHAPES_01_BMP_SHA256 = "c7f17f924437bd00283f71a59c173e4e2be501ad68938e6d747a26648c78f1de"


def distinct_colors(img) -> int:
    return len(np.unique(img.to_array().reshape(-1, 3), axis=0))


def test_same_spec_same_bytes():
    for kind in ("flat-shapes", "gradient", "noise", "mixed"):
        spec = CorpusSpec(kind, 40, 30, seed=5)
        assert generate(spec).samples == generate(spec).samples


def test_pinned_corpus_hash_stable():
    img = generate(CorpusSpec("flat-shapes", seed=1))
    assert hashlib.sha256(encode_bmp(img)).hexdigest() == SHAPES_01_BMP_SHA256


def test_different_seeds_differ():
    a = generate(CorpusSpec("flat-shapes", 64, 64, seed=1))
    b = generate(CorpusSpec("flat-shapes", 64, 64, seed=2))
    assert a.samples != b.samples


def test_flat_shapes_color_budget():
    for seed in range(1, 9):
        img = generate(CorpusSpec("flat-shapes", 128, 128, seed=seed))
        assert distinct_colors(img) <= 8
    img = generate(CorpusSpec("flat-shapes", 128, 128, colors=4, seed=3))
    assert distinct_colors(img) <= 4


def test_gradient_is_horizontal_ramp():
    img = generate(CorpusSpec("gradient", 512, 16))
    arr = img.to_array()
    expected = np.round(np.arange(512) * 255.0 / 511).astype(np.uint8)
    assert (arr[0, :, 0] == expected).all()
    assert arr.min() == 0 and arr.max() == 255
    # rows identical, channels equal
    assert (arr == arr[0:1, :, :]).all()
    assert (arr[:, :, 0] == arr[:, :, 1]).all() and (arr[:, :, 1] == arr[:, :, 2]).all()


def test_noise_uses_full_range():
    img = generate(CorpusSpec("noise", 64, 64, seed=0))
    arr = np.frombuffer(img.samples, np.uint8)
    assert len(np.unique(arr)) > 200


def test_mixed_has_flat_and_noisy_parts():
    img = generate(CorpusSpec("mixed", 64, 64, seed=0))
    arr = img.to_array()
    top = arr[: 64 * 3 // 5]
    assert len(np.unique(top.reshape(-1, 3), axis=0)) <= 8
    bottom_right = arr[64 * 3 // 5 :, 32:]
    assert len(np.unique(bottom_right)) > 100


def test_spec_validation():
    with pytest.raises(ParameterError):
        CorpusSpec("spirals")
    with pytest.raises(ParameterError):
        CorpusSpec("noise", 0, 4)
    with pytest.raises(ParameterError):
        CorpusSpec("flat-shapes", colors=1)
    with pytest.raises(ParameterError):
        CorpusSpec("flat-shapes", colors=9)
    with pytest.raises(ParameterError):
        CorpusSpec("noise", seed=-1)  # random.Random(-1) would alias seed 1


def test_default_corpus_composition():
    names = [name for name, _ in DEFAULT_BENCH_CORPUS]
    assert len(names) == len(set(names))
    kinds = {spec.kind for _, spec in DEFAULT_BENCH_CORPUS}
    assert kinds == {"flat-shapes", "gradient", "noise", "mixed"}
    assert sum(spec.kind == "flat-shapes" for _, spec in DEFAULT_BENCH_CORPUS) >= 6
    assert all(spec.width == 512 and spec.height == 512 for _, spec in DEFAULT_BENCH_CORPUS)
