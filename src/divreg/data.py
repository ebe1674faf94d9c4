"""Synthetic expression-like images plus an on-disk format and batching.

Class k's template is k Gaussian bumps at class-fixed random positions
(class 0 is blank); samples add Gaussian pixel noise and, with some
probability, a zeroed occlusion square, then clamp to [0,1]. Every 5th
sample per class goes to the test split (80/20 round-robin). Images are
quantized through float32 at generation so the in-memory dataset and the
32-bit file format hold identical values, and both hold them as float32:
all arithmetic is float64, and a batch is widened (exactly) only when it
becomes a `Tensor`.

File format, magic "DVDS": header (magic, version, class count, sample
count, height, width; u32 little-endian), then labels as u32, then
images as float32, both little-endian. Round trips are bit exact.

Every output file of the package is written by `write_atomic`.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import (SAMPLE_LIMIT, SIZE_LIMIT, ConfigError, check_allowed, in_range,
                     parse_fields)

IMAGE_SIZE = 32
DATASET_MAGIC = b"DVDS"
DATASET_VERSION = 1
_HEADER_FMT = "<4sIIIII"
_HEADER_SIZE = struct.calcsize(_HEADER_FMT)
_TEMPLATE_SALT = 0x7E3D


class DatasetFormatError(ValueError):
    """Raised for malformed, truncated, or out-of-range dataset files."""


@dataclass(frozen=True)
class GeneratorConfig:
    class_count: int = in_range(8, 2, SIZE_LIMIT)
    samples_per_class: int = in_range(100, 1)
    noise_sigma: float = in_range(0.05, 0)
    occlusion_prob: float = in_range(0.3, 0, 1)
    occlusion_size: int = in_range(8, 0, IMAGE_SIZE, hi_open=True)
    seed: int = in_range(0, 0, 2 ** 64, hi_open=True)

    def __post_init__(self):
        check_allowed(self)
        if self.class_count * self.samples_per_class > SAMPLE_LIMIT:
            raise ConfigError("samples_per_class",
                              f"must be <= {SAMPLE_LIMIT // self.class_count} for "
                              f"{self.class_count} classes ({SAMPLE_LIMIT} images in all), "
                              f"got {self.samples_per_class}")

    @classmethod
    def from_dict(cls, doc: dict) -> "GeneratorConfig":
        """Parse a JSON document (`config.parse_fields`)."""
        return cls(**parse_fields(cls, doc))


class Dataset:
    """Image/label arrays with validated invariants. float32 images stay
    float32, half the bytes of their float64 widening; images of any other
    dtype are held as float64."""

    def __init__(self, images: np.ndarray, labels: np.ndarray, class_count: int):
        images = np.asarray(images)
        if images.dtype != np.float32:
            images = images.astype(np.float64, copy=False)
        labels = np.asarray(labels, dtype=np.int64)
        if images.ndim != 4 or images.shape[1] != 1:
            raise ValueError(f"images must have shape (n,1,H,W), got {images.shape}")
        if labels.ndim != 1 or labels.shape[0] != images.shape[0]:
            raise ValueError(
                f"labels shape {labels.shape} does not match {images.shape[0]} images")
        if images.size:
            # a NaN or an infinity anywhere makes the min or the max non-finite
            lo, hi = images.min(), images.max()
            if not (np.isfinite(lo) and np.isfinite(hi)):
                raise ValueError("images contain non-finite values")
            if lo < 0.0 or hi > 1.0:
                raise ValueError("image values must lie in [0, 1]")
        if class_count < 1:
            raise ValueError(f"class_count must be >= 1, got {class_count}")
        if labels.size and (labels.min() < 0 or labels.max() >= class_count):
            raise ValueError(f"labels must lie in [0, {class_count})")
        self.images = images
        self.labels = labels
        self.class_count = class_count

    def __len__(self) -> int:
        return self.images.shape[0]

    @property
    def image_shape(self) -> tuple[int, int, int]:
        return self.images.shape[1:]


def class_template(class_index: int) -> np.ndarray:
    """Deterministic (1, IMAGE_SIZE, IMAGE_SIZE) template: class_index
    Gaussian bumps at positions fixed by (salt, class); class 0 is blank."""
    rng = np.random.default_rng(np.random.SeedSequence([_TEMPLATE_SALT, class_index]))
    yy, xx = np.mgrid[0:IMAGE_SIZE, 0:IMAGE_SIZE].astype(np.float64)
    img = np.zeros((IMAGE_SIZE, IMAGE_SIZE))
    for _ in range(class_index):
        cy = rng.uniform(4, IMAGE_SIZE - 4)
        cx = rng.uniform(4, IMAGE_SIZE - 4)
        img += 0.9 * np.exp(-((yy - cy) ** 2 + (xx - cx) ** 2) / (2 * 2.5 ** 2))
    return np.clip(img, 0.0, 1.0)[None, :, :]


def generate(config: GeneratorConfig) -> tuple[Dataset, Dataset]:
    """Deterministic (train, test) split; every 5th sample per class is
    held out for test. Each image is written straight into its split."""
    rng = np.random.default_rng(np.random.SeedSequence([config.seed]))
    size, s, k_count = IMAGE_SIZE, config.occlusion_size, config.class_count
    n_test = config.samples_per_class // 5
    splits = [np.empty((k_count, n, 1, size, size), dtype=np.float32)
              for n in (config.samples_per_class - n_test, n_test)]
    for k in range(k_count):
        template = class_template(k)
        filled = [0, 0]
        for i in range(config.samples_per_class):
            img = template + rng.normal(0.0, config.noise_sigma, (1, size, size)) \
                if config.noise_sigma > 0 else template.copy()
            occlude = rng.random() < config.occlusion_prob
            y0 = int(rng.integers(0, size - s + 1)) if s else 0
            x0 = int(rng.integers(0, size - s + 1)) if s else 0
            if occlude and s:
                img[:, y0:y0 + s, x0:x0 + s] = 0.0
            held_out = int(i % 5 == 4)
            splits[held_out][k, filled[held_out]] = np.clip(img, 0.0, 1.0)
            filled[held_out] += 1
    return tuple(Dataset(images.reshape(-1, 1, size, size),
                         np.repeat(np.arange(k_count), images.shape[1]), k_count)
                 for images in splits)


def nearest_template(images: np.ndarray, class_count: int) -> np.ndarray:
    """Baseline classifier: nearest class template by squared distance."""
    templates = np.stack([class_template(k) for k in range(class_count)])
    flat = images.reshape(images.shape[0], -1)
    tflat = templates.reshape(class_count, -1)
    d2 = ((flat[:, None, :] - tflat[None, :, :]) ** 2).sum(axis=2)
    return d2.argmin(axis=1)


def write_atomic(path, data) -> None:
    """Write ``data`` (bytes, or text as UTF-8) to ``path``, making its
    directory if missing: into a temp file in that directory, then moved
    over ``path`` with `os.replace`. So ``path`` holds its old bytes or all
    of the new ones, and a write that fails part-way leaves the old file
    and no temp file."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.urandom(6).hex()}.tmp")
    try:
        with open(tmp, "xb") as fh:
            fh.write(data.encode() if isinstance(data, str) else data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def save_dataset(dataset: Dataset, path) -> None:
    n = len(dataset)
    _, h, w = dataset.image_shape
    chunks = [struct.pack(_HEADER_FMT, DATASET_MAGIC, DATASET_VERSION,
                          dataset.class_count, n, h, w)]
    chunks.append(dataset.labels.astype("<u4").tobytes())
    chunks.append(dataset.images.astype("<f4", copy=False).tobytes())
    write_atomic(path, b"".join(chunks))


def load_dataset(path) -> Dataset:
    """Read a DVDS file; its images stay float32, read-only views of the
    file's bytes. A bad header or length, or contents `Dataset` rejects (a
    label out of range, a pixel outside [0, 1]), raise DatasetFormatError."""
    buf = Path(path).read_bytes()
    if len(buf) < _HEADER_SIZE:
        raise DatasetFormatError(
            f"truncated dataset: {len(buf)} bytes is shorter than the header")
    magic, version, class_count, n, h, w = struct.unpack_from(_HEADER_FMT, buf, 0)
    if magic != DATASET_MAGIC:
        raise DatasetFormatError(f"bad magic {magic!r}, expected {DATASET_MAGIC!r}")
    if version != DATASET_VERSION:
        raise DatasetFormatError(f"unsupported dataset version {version}")
    if not (1 <= class_count <= SIZE_LIMIT and 1 <= h <= SIZE_LIMIT and 1 <= w <= SIZE_LIMIT):
        raise DatasetFormatError(
            f"implausible header: class_count={class_count}, size={h}x{w}")
    expected = _HEADER_SIZE + 4 * n + 4 * n * h * w
    if len(buf) < expected:
        raise DatasetFormatError(
            f"truncated dataset: {len(buf)} bytes, header promises {expected}")
    if len(buf) > expected:
        raise DatasetFormatError(f"{len(buf) - expected} trailing bytes after image data")
    labels = np.frombuffer(buf, dtype="<u4", count=n, offset=_HEADER_SIZE).astype(np.int64)
    images = np.frombuffer(buf, dtype="<f4", count=n * h * w,
                           offset=_HEADER_SIZE + 4 * n).reshape(n, 1, h, w)
    try:
        return Dataset(images, labels, class_count)
    except ValueError as e:
        raise DatasetFormatError(f"invalid dataset contents: {e}") from e


def batches(dataset: Dataset, batch_size: int, shuffle_seed=None):
    """Partition a (seeded) permutation of the dataset into batches; the
    final batch may be short. shuffle_seed None keeps dataset order."""
    n = len(dataset)
    if n == 0:
        return
    if not 1 <= batch_size <= n:
        raise ValueError(f"batch_size must be in [1, {n}], got {batch_size}")
    if shuffle_seed is None:
        order = np.arange(n)
    else:
        order = np.random.default_rng(shuffle_seed).permutation(n)
    for start in range(0, n, batch_size):
        idx = order[start:start + batch_size]
        yield dataset.images[idx], dataset.labels[idx]
