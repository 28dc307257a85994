"""Synthetic ImageNet-like dataset.

The paper evaluates on ImageNet with pretrained Caffe models; neither is
available offline, so this module builds the closest synthetic
equivalent that exercises the same code paths: a multi-class image
classification task whose accuracy is real (a fitted classifier head
achieves well above chance) and degrades smoothly and monotonically as
numerical noise is injected — the property the paper's sigma binary
search (Sec. V-C) depends on.

Each class has a smooth random "prototype" image; samples are the
prototype plus smooth structured noise plus per-sample contrast and
brightness jitter, scaled to a mean-subtracted-pixel-like dynamic range
(matching the paper's measured ``max|X_1|`` of order 10**2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Tuple

import numpy as np

from ..config import DEFAULT_SEED
from ..errors import ReproError


def gaussian_smooth(x: np.ndarray, sigma: float) -> np.ndarray:
    """Gaussian smoothing along the last two axes, one after the other.

    Bit for bit what ``scipy.ndimage.gaussian_filter`` computes with
    ``sigma`` on the last two axes (0 elsewhere) and its defaults
    (``truncate=4.0``, ``reflect`` border), so the data never needs
    scipy.  Per axis it builds scipy's normalised kernel of radius
    ``int(4.0 * sigma + 0.5)`` and keeps scipy's summation order for a
    symmetric kernel: the center times ``w[0]`` first, then
    ``(x[-j] + x[+j]) * w[j]`` from the outermost pair ``j = radius``
    inward.  ``reflect`` mirrors about the edge with the edge sample
    repeated (``d c b a | a b c d``), and the mirror repeats with
    period ``2 * length`` on lines shorter than the radius.
    """
    out = np.array(x, dtype=np.float64)
    if sigma <= 1e-15:
        return out
    radius = int(4.0 * float(sigma) + 0.5)
    offsets = np.arange(-radius, radius + 1)
    weights = np.exp(-0.5 / (sigma * sigma) * offsets**2)
    weights = weights / weights.sum()
    pair = np.empty_like(out)
    for axis in (x.ndim - 2, x.ndim - 1):
        length = out.shape[axis]
        index = np.arange(-radius, length + radius) % (2 * length)
        index = np.where(index >= length, 2 * length - 1 - index, index)
        # The smoothed axis first, so a shift is a slice of the leading axis.
        padded = np.moveaxis(np.take(out, index, axis=axis), axis, 0)
        target = np.moveaxis(out, axis, 0)
        pair_view = np.moveaxis(pair, axis, 0)
        np.multiply(padded[radius : radius + length], weights[radius], out=target)
        for j in range(radius, 0, -1):
            np.add(
                padded[radius - j : radius - j + length],
                padded[radius + j : radius + j + length],
                out=pair_view,
            )
            pair_view *= weights[radius - j]
            target += pair_view
        del padded  # freed before the next axis pads its own copy
    return out


@dataclass
class Dataset:
    """A labelled batch of images."""

    images: np.ndarray
    labels: np.ndarray
    num_classes: int

    def __post_init__(self) -> None:
        if self.images.shape[0] != self.labels.shape[0]:
            raise ReproError(
                f"images ({self.images.shape[0]}) and labels "
                f"({self.labels.shape[0]}) disagree on sample count"
            )

    def __len__(self) -> int:
        return int(self.images.shape[0])

    def subset(self, count: int) -> "Dataset":
        """First ``count`` samples (the generator already shuffles)."""
        count = min(count, len(self))
        return Dataset(self.images[:count], self.labels[:count], self.num_classes)

    def batches(self, batch_size: int) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        for start in range(0, len(self), batch_size):
            yield (
                self.images[start : start + batch_size],
                self.labels[start : start + batch_size],
            )


class SyntheticImageNet:
    """Deterministic generator of an ImageNet-like classification task.

    Parameters
    ----------
    num_classes:
        Number of classes (ImageNet has 1000; the default keeps the
        substrate fast while preserving a non-trivial task).
    image_shape:
        Per-image ``(C, H, W)``.
    noise:
        Ratio of structured-noise std to prototype std.  Larger values
        make the task harder (lower clean accuracy, more headroom for
        noise-induced degradation).
    value_scale:
        Std of pixel values; chosen so dynamic ranges resemble
        mean-subtracted 8-bit pixels (order 10**2).
    smoothness:
        Gaussian-filter sigma for prototypes and structured noise.
    """

    def __init__(
        self,
        num_classes: int = 16,
        image_shape: Tuple[int, int, int] = (3, 32, 32),
        noise: float = 0.55,
        value_scale: float = 60.0,
        smoothness: float = 2.0,
        seed: int = DEFAULT_SEED,
    ):
        if num_classes < 2:
            raise ReproError("need at least two classes")
        if len(image_shape) != 3:
            raise ReproError(f"image_shape must be (C, H, W); got {image_shape}")
        self.num_classes = num_classes
        self.image_shape = tuple(image_shape)
        self.noise = noise
        self.value_scale = value_scale
        self.smoothness = smoothness
        self.seed = seed
        self._prototypes = self._make_prototypes()

    def _smooth_field(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """Unit-std smooth random fields of shape (count, C, H, W)."""
        raw = rng.standard_normal((count,) + self.image_shape)
        smooth = gaussian_smooth(raw, self.smoothness)
        std = smooth.std(axis=(1, 2, 3), keepdims=True)
        return smooth / np.maximum(std, 1e-12)

    def _make_prototypes(self) -> np.ndarray:
        rng = np.random.default_rng(self.seed)
        return self._smooth_field(rng, self.num_classes)

    @property
    def prototypes(self) -> np.ndarray:
        """Class prototype images, shape ``(num_classes, C, H, W)``."""
        return self._prototypes

    def sample(self, count: int, seed: int = 0) -> Dataset:
        """Draw ``count`` labelled images (deterministic per seed)."""
        rng = np.random.default_rng((self.seed, seed, count))
        labels = rng.integers(0, self.num_classes, size=count)
        structured = self._smooth_field(rng, count)
        images = self._prototypes[labels] + self.noise * structured
        contrast = 1.0 + 0.15 * rng.standard_normal((count, 1, 1, 1))
        brightness = 0.1 * rng.standard_normal((count, 1, 1, 1))
        images = self.value_scale * (contrast * images + brightness)
        return Dataset(images.astype(np.float64), labels, self.num_classes)

    def train_test(
        self, train_count: int, test_count: int
    ) -> Tuple[Dataset, Dataset]:
        """Disjoint train/test splits (different seeds)."""
        return self.sample(train_count, seed=1), self.sample(test_count, seed=2)
