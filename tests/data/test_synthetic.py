"""Unit tests for the synthetic ImageNet stand-in."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import Dataset, SyntheticImageNet
from repro.data import synthetic
from repro.data.synthetic import gaussian_smooth
from repro.errors import ReproError

try:  # scipy is a test-only dependency: the oracle for the smoothing
    from scipy import ndimage
except ImportError:  # pragma: no cover - exercised without scipy
    ndimage = None


class TestDataset:
    def test_length(self):
        ds = Dataset(np.zeros((5, 3, 4, 4)), np.zeros(5, dtype=int), 4)
        assert len(ds) == 5

    def test_rejects_count_mismatch(self):
        with pytest.raises(ReproError):
            Dataset(np.zeros((5, 3, 4, 4)), np.zeros(4, dtype=int), 4)

    def test_subset(self):
        ds = Dataset(np.arange(20.0).reshape(5, 4), np.arange(5), 5)
        sub = ds.subset(2)
        assert len(sub) == 2
        np.testing.assert_array_equal(sub.labels, [0, 1])

    def test_subset_caps_at_length(self):
        ds = Dataset(np.zeros((3, 4)), np.zeros(3, dtype=int), 2)
        assert len(ds.subset(100)) == 3

    def test_batches_cover_everything(self):
        ds = Dataset(np.arange(28.0).reshape(7, 4), np.arange(7), 7)
        chunks = list(ds.batches(3))
        assert [len(lbl) for __, lbl in chunks] == [3, 3, 1]
        np.testing.assert_array_equal(
            np.concatenate([lbl for __, lbl in chunks]), ds.labels
        )


class TestSyntheticImageNet:
    def test_deterministic_per_seed(self):
        a = SyntheticImageNet(seed=3).sample(8, seed=1)
        b = SyntheticImageNet(seed=3).sample(8, seed=1)
        np.testing.assert_array_equal(a.images, b.images)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_different_seeds_differ(self):
        a = SyntheticImageNet(seed=3).sample(8, seed=1)
        b = SyntheticImageNet(seed=4).sample(8, seed=1)
        assert not np.allclose(a.images, b.images)

    def test_shapes_and_label_range(self):
        src = SyntheticImageNet(num_classes=5, image_shape=(3, 16, 16))
        ds = src.sample(10)
        assert ds.images.shape == (10, 3, 16, 16)
        assert ds.labels.min() >= 0 and ds.labels.max() < 5

    def test_value_scale_sets_dynamic_range(self):
        """Pixel std should be of order value_scale (paper-realistic)."""
        src = SyntheticImageNet(value_scale=60.0)
        ds = src.sample(32)
        assert 30 < ds.images.std() < 120

    def test_train_test_disjoint(self):
        src = SyntheticImageNet()
        train, test = src.train_test(16, 16)
        assert not np.allclose(train.images, test.images)

    def test_prototypes_shape(self):
        src = SyntheticImageNet(num_classes=7, image_shape=(3, 8, 8))
        assert src.prototypes.shape == (7, 3, 8, 8)

    def test_noise_controls_difficulty(self):
        """Higher noise -> samples further from their prototype."""
        lo = SyntheticImageNet(noise=0.1, seed=5)
        hi = SyntheticImageNet(noise=2.0, seed=5)
        ds_lo = lo.sample(16, seed=1)
        ds_hi = hi.sample(16, seed=1)

        def mean_prototype_distance(src, ds):
            protos = src.prototypes[ds.labels] * src.value_scale
            return np.abs(ds.images - protos).mean()

        assert mean_prototype_distance(hi, ds_hi) > mean_prototype_distance(
            lo, ds_lo
        )

    def test_rejects_single_class(self):
        with pytest.raises(ReproError):
            SyntheticImageNet(num_classes=1)

    def test_rejects_bad_shape(self):
        with pytest.raises(ReproError):
            SyntheticImageNet(image_shape=(3, 16))


@pytest.mark.skipif(ndimage is None, reason="scipy is not installed")
class TestGaussianSmooth:
    """The numpy smoothing is scipy's ``gaussian_filter``, bit for bit."""

    @settings(max_examples=80, deadline=None)
    @given(
        n=st.integers(1, 3),
        c=st.integers(1, 3),
        h=st.integers(1, 20),
        w=st.integers(1, 20),
        sigma=st.sampled_from([0.0, 0.3, 1.0, 2.0, 2.5, 3.7]),
        seed=st.integers(0, 2**16),
    )
    def test_matches_scipy(self, n, c, h, w, sigma, seed):
        # Radii up to 15 against lines as short as 1 sample: the
        # reflection repeats there.
        x = np.random.default_rng(seed).standard_normal((n, c, h, w))
        want = ndimage.gaussian_filter(x, sigma=(0, 0, sigma, sigma))
        assert gaussian_smooth(x, sigma).tobytes() == want.tobytes()

    def test_leaves_input_alone(self):
        x = np.random.default_rng(1).standard_normal((2, 3, 8, 8))
        before = x.copy()
        gaussian_smooth(x, 2.0)
        assert x.tobytes() == before.tobytes()

    def test_dataset_bytes_match_scipy_smoothing(self, monkeypatch):
        # The zoo's default sizes: 16 classes of (3, 32, 32) images.
        fresh = SyntheticImageNet().train_test(64, 32)

        def scipy_smooth(x, sigma):
            return ndimage.gaussian_filter(x, sigma=(0, 0, sigma, sigma))

        monkeypatch.setattr(synthetic, "gaussian_smooth", scipy_smooth)
        via_scipy = SyntheticImageNet().train_test(64, 32)
        for got, want in zip(fresh, via_scipy):
            assert got.images.tobytes() == want.images.tobytes()
            assert got.labels.tobytes() == want.labels.tobytes()
