"""Synthetic dataset generation, the DVDS format, batching, and file writes."""

import hashlib
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from divreg.config import SIZE_LIMIT, ConfigError
from divreg.data import (Dataset, DatasetFormatError, GeneratorConfig, batches,
                         class_template, generate, load_dataset,
                         nearest_template, save_dataset, write_atomic)


def test_generator_config_defaults_and_validation():
    cfg = GeneratorConfig()
    assert (cfg.class_count, cfg.samples_per_class) == (8, 100)
    assert cfg.noise_sigma == 0.05
    for field, value in [("class_count", 1), ("class_count", SIZE_LIMIT + 1),
                         ("samples_per_class", 0), ("noise_sigma", -0.1),
                         ("occlusion_prob", 1.5), ("occlusion_size", 32), ("seed", -1)]:
        with pytest.raises(ConfigError, match=f"config field '{field}': must be"):
            GeneratorConfig(**{field: value})


def test_generator_config_from_dict_rejects_unknown():
    cfg = GeneratorConfig.from_dict({"class_count": 4, "seed": 3})
    assert cfg.class_count == 4 and cfg.seed == 3
    with pytest.raises(ConfigError, match="'image_size': unknown field"):
        GeneratorConfig.from_dict({"image_size": 64})


def test_dataset_validation():
    imgs = np.zeros((4, 1, 8, 8))
    labels = np.zeros(4, dtype=np.int64)
    Dataset(imgs, labels, 2)
    with pytest.raises(ValueError):
        Dataset(np.zeros((4, 2, 8, 8)), labels, 2)
    with pytest.raises(ValueError):
        Dataset(imgs, labels[:3], 2)
    with pytest.raises(ValueError):
        Dataset(imgs + 2.0, labels, 2)
    with pytest.raises(ValueError):
        Dataset(imgs * np.nan, labels, 2)
    with pytest.raises(ValueError):
        Dataset(imgs, labels + 5, 2)


@pytest.mark.parametrize("value, message", [
    (float("nan"), "non-finite"), (float("inf"), "non-finite"), (float("-inf"), "non-finite"),
    (-1e-9, r"lie in \[0, 1\]"), (1.0 + 1e-9, r"lie in \[0, 1\]")])
def test_dataset_rejects_one_bad_pixel(value, message):
    """One pixel anywhere is enough, and a non-finite pixel is named as
    such even beside an out-of-range one."""
    imgs = np.full((3, 1, 4, 4), 0.5)
    labels = np.zeros(3, dtype=np.int64)
    imgs[1, 0, 2, 3] = value
    with pytest.raises(ValueError, match=message):
        Dataset(imgs, labels, 2)
    imgs[2, 0, 0, 0] = 7.0
    with pytest.raises(ValueError, match=message):
        Dataset(imgs, labels, 2)


def test_class_template_deterministic_bumps():
    t0 = class_template(0)
    assert t0.shape == (1, 32, 32)
    np.testing.assert_array_equal(t0, np.zeros((1, 32, 32)))  # zero bumps
    t3 = class_template(3)
    assert t3.max() > 0.5
    assert 0.0 <= t3.min() and t3.max() <= 1.0
    np.testing.assert_array_equal(t3, class_template(3))
    assert not np.array_equal(t3, class_template(4))


def test_generate_split_and_shapes():
    train, test = generate(GeneratorConfig())
    assert len(train) == 640 and len(test) == 160  # 80/20 of 8*100
    assert train.image_shape == (1, 32, 32)
    assert train.class_count == 8
    np.testing.assert_array_equal(np.bincount(train.labels), [80] * 8)
    np.testing.assert_array_equal(np.bincount(test.labels), [20] * 8)
    assert train.images.min() >= 0.0 and train.images.max() <= 1.0


def test_generate_deterministic_and_seed_sensitive():
    a_train, _ = generate(GeneratorConfig(samples_per_class=10))
    b_train, _ = generate(GeneratorConfig(samples_per_class=10))
    np.testing.assert_array_equal(a_train.images, b_train.images)
    c_train, _ = generate(GeneratorConfig(samples_per_class=10, seed=1))
    assert not np.array_equal(a_train.images, c_train.images)


def test_generate_quantized_to_float32_grid():
    train, _ = generate(GeneratorConfig(samples_per_class=5))
    np.testing.assert_array_equal(train.images,
                                  train.images.astype(np.float32).astype(np.float64))


# sha256 of the float64 bytes of the train and test images of
# generate(GeneratorConfig(class_count=3, samples_per_class=10, seed=7)),
# recorded when datasets held every image as float64
_SPLIT_DIGESTS = ("98a43b8b2ecbba0b1d84842e7ae72c913ff41c515f479e43342bca4b739da6c4",
                  "b02a287b87aa9de65cef2473c66a5403eced07f96c59ae75ec5989d31eacca0c")


def test_images_held_as_float32_widen_to_the_float64_values(tmp_path):
    splits = generate(GeneratorConfig(class_count=3, samples_per_class=10, seed=7))
    save_dataset(splits[1], tmp_path / "test.dvds")
    loaded = load_dataset(tmp_path / "test.dvds")
    for ds, digest in zip((*splits, loaded), (*_SPLIT_DIGESTS, _SPLIT_DIGESTS[1])):
        assert ds.images.dtype == np.float32
        assert hashlib.sha256(ds.images.astype(np.float64).tobytes()).hexdigest() == digest
    # any other dtype is held as float64
    for dtype in (np.float64, np.float16, np.uint8):
        images = np.zeros((2, 1, 4, 4), dtype=dtype)
        assert Dataset(images, np.zeros(2, dtype=np.int64), 1).images.dtype == np.float64


def test_generate_noise_free_matches_template():
    cfg = GeneratorConfig(samples_per_class=5, noise_sigma=0.0, occlusion_prob=0.0)
    train, _ = generate(cfg)
    t1 = class_template(1).astype(np.float32).astype(np.float64)
    np.testing.assert_array_equal(train.images[train.labels == 1][0], t1)


def test_generate_occlusion_zeroes_square():
    cfg = GeneratorConfig(class_count=2, samples_per_class=5, noise_sigma=0.0,
                          occlusion_prob=1.0, occlusion_size=8)
    train, _ = generate(cfg)
    imgs = train.images[train.labels == 1]
    # every image carries a zeroed 8x8 block
    for img in imgs:
        assert (img == 0.0).sum() >= 64


@pytest.mark.parametrize("seed", [5, 11])
def test_occluded_twins_differ_only_inside_one_zeroed_square(seed):
    # occlusion on or off draws the same numbers, so each image has a twin
    # that differs only where its occlusion square zeroed it
    base = dict(class_count=8, samples_per_class=20, occlusion_size=10, seed=seed)
    clear = generate(GeneratorConfig(occlusion_prob=0.0, **base))
    occluded = generate(GeneratorConfig(occlusion_prob=1.0, **base))
    changed = 0
    for a, b in zip(clear, occluded):
        np.testing.assert_array_equal(a.labels, b.labels)
        for x, y in zip(a.images[:, 0], b.images[:, 0]):
            rows, cols = np.nonzero(x != y)
            if rows.size == 0:
                continue
            changed += 1
            assert rows.max() - rows.min() < 10 and cols.max() - cols.min() < 10
            assert (y[rows, cols] == 0.0).all()
    assert changed > 0.9 * 8 * 20


def test_nearest_template_separates_defaults():
    train, test = generate(GeneratorConfig(samples_per_class=10))
    preds = nearest_template(test.images, 8)
    assert (preds == test.labels).mean() == 1.0


def test_dataset_roundtrip_bitwise(tmp_path):
    train, _ = generate(GeneratorConfig(class_count=3, samples_per_class=7))
    path = tmp_path / "d.dvds"
    save_dataset(train, path)
    loaded = load_dataset(path)
    np.testing.assert_array_equal(loaded.images, train.images)
    np.testing.assert_array_equal(loaded.labels, train.labels)
    assert loaded.class_count == 3


def test_write_atomic_replaces_the_file_whole(tmp_path, monkeypatch):
    path = tmp_path / "out.txt"
    write_atomic(path, "first\n")
    write_atomic(path, b"second\n")
    assert path.read_bytes() == b"second\n"
    assert os.listdir(tmp_path) == ["out.txt"]

    def no_replace(src, dst):
        raise PermissionError("replace refused")

    monkeypatch.setattr(os, "replace", no_replace)
    with pytest.raises(PermissionError):
        write_atomic(path, b"third\n")
    assert path.read_bytes() == b"second\n"
    assert os.listdir(tmp_path) == ["out.txt"]


def test_dataset_save_load_save_identical_bytes(tmp_path):
    train, _ = generate(GeneratorConfig(class_count=2, samples_per_class=4))
    p1, p2 = tmp_path / "a.dvds", tmp_path / "b.dvds"
    save_dataset(train, p1)
    save_dataset(load_dataset(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_dataset_format_errors(tmp_path):
    train, _ = generate(GeneratorConfig(class_count=2, samples_per_class=4))
    path = tmp_path / "d.dvds"
    save_dataset(train, path)
    raw = path.read_bytes()
    bad = tmp_path / "bad.dvds"

    bad.write_bytes(raw[:10])
    with pytest.raises(DatasetFormatError, match="truncated"):
        load_dataset(bad)

    bad.write_bytes(b"NOPE" + raw[4:])
    with pytest.raises(DatasetFormatError, match="magic"):
        load_dataset(bad)

    version = bytearray(raw)
    version[4] = 9
    bad.write_bytes(bytes(version))
    with pytest.raises(DatasetFormatError, match="version"):
        load_dataset(bad)

    bad.write_bytes(raw[:-4])
    with pytest.raises(DatasetFormatError, match="truncated"):
        load_dataset(bad)

    bad.write_bytes(raw + b"\x00")
    with pytest.raises(DatasetFormatError, match="trailing"):
        load_dataset(bad)

    for offset in (8, 16, 20):  # class count, height, width past the size limit
        oversized = bytearray(raw)
        oversized[offset:offset + 4] = (SIZE_LIMIT + 1).to_bytes(4, "little")
        bad.write_bytes(bytes(oversized))
        with pytest.raises(DatasetFormatError, match="implausible header"):
            load_dataset(bad)

    relabeled = bytearray(raw)
    relabeled[24:28] = (99).to_bytes(4, "little")  # first label out of range
    bad.write_bytes(bytes(relabeled))
    with pytest.raises(DatasetFormatError, match="label"):
        load_dataset(bad)

    pixel = 24 + 4 * len(train)  # first float32 pixel, after header and labels
    for value in (2.0, float("nan")):
        mutated = bytearray(raw)
        mutated[pixel:pixel + 4] = np.float32(value).tobytes()
        bad.write_bytes(bytes(mutated))
        with pytest.raises(DatasetFormatError, match="image"):
            load_dataset(bad)


def test_batches_cover_dataset_in_order():
    ds_train, _ = generate(GeneratorConfig(class_count=2, samples_per_class=10))
    got = [yb for _, yb in batches(ds_train, 6, shuffle_seed=None)]
    sizes = [len(y) for y in got]
    assert sizes == [6, 6, 4]  # short final batch
    np.testing.assert_array_equal(np.concatenate(got), ds_train.labels)


def test_batches_shuffle_is_seeded():
    ds_train, _ = generate(GeneratorConfig(class_count=2, samples_per_class=10))
    seed = np.random.SeedSequence([1, 2])
    a = np.concatenate([y for _, y in batches(ds_train, 4, shuffle_seed=seed)])
    b = np.concatenate([y for _, y in
                        batches(ds_train, 4, shuffle_seed=np.random.SeedSequence([1, 2]))])
    np.testing.assert_array_equal(a, b)
    c = np.concatenate([y for _, y in
                        batches(ds_train, 4, shuffle_seed=np.random.SeedSequence([1, 3]))])
    assert not np.array_equal(a, c)
    assert sorted(a) == sorted(c)  # same multiset either way


def test_batches_validation():
    ds_train, _ = generate(GeneratorConfig(class_count=2, samples_per_class=5))
    with pytest.raises(ValueError):
        list(batches(ds_train, 0))
    with pytest.raises(ValueError):
        list(batches(ds_train, len(ds_train) + 1))
    empty = Dataset(np.zeros((0, 1, 4, 4)), np.zeros(0, dtype=np.int64), 2)
    assert list(batches(empty, 4)) == []


@st.composite
def random_datasets(draw):
    n = draw(st.integers(1, 12))
    h = draw(st.integers(2, 10))
    w = draw(st.integers(2, 10))
    classes = draw(st.integers(2, 5))
    seed = draw(st.integers(0, 2 ** 31))
    rng = np.random.default_rng(seed)
    images = rng.uniform(0.0, 1.0, size=(n, 1, h, w)).astype(np.float32).astype(np.float64)
    labels = rng.integers(0, classes, size=n).astype(np.int64)
    return Dataset(images, labels, classes)


@settings(max_examples=40, deadline=None)
@given(random_datasets())
def test_dataset_roundtrip_property(tmp_path_factory, ds):
    path = tmp_path_factory.mktemp("dvds") / "r.dvds"
    save_dataset(ds, path)
    loaded = load_dataset(path)
    np.testing.assert_array_equal(loaded.images, ds.images)
    np.testing.assert_array_equal(loaded.labels, ds.labels)
