import numpy as np
import pytest

from pnpfusion.errors import ConfigError
from pnpfusion.patches import ImageGeometry
from pnpfusion.scenes import (
    PAIR_KERNELS,
    HsSceneSpec,
    PairSceneSpec,
    generate_hs_scene,
    generate_pair_scene,
    make_kernel,
    synthetic_image,
)
from pnpfusion.sharpen import make_decimation_mask
from tests.conftest import clean_observations


def hs_spec(**overrides):
    base = dict(
        geometry=ImageGeometry(12, 12),
        n_bands_hs=6,
        n_bands_ms=2,
        n_subspace_true=2,
        decimation=2,
        snr_h_db=50.0,
        snr_m_db=50.0,
        seed=0,
    )
    base.update(overrides)
    return HsSceneSpec(**base)


class TestHsGenerator:
    def test_realized_snr_exact(self):
        for snr in (30.0, 50.0):
            scene = generate_hs_scene(hs_spec(snr_h_db=snr, snr_m_db=snr))
            clean_h, clean_m = clean_observations(scene.z, scene)
            for clean, observed in ((clean_h, scene.y_h), (clean_m, scene.y_m)):
                noise = observed - clean
                realized = 10 * np.log10(np.mean(clean**2) / np.mean(noise**2))
                assert realized == pytest.approx(snr, abs=0.1)

    def test_bit_reproducible(self):
        a = generate_hs_scene(hs_spec(seed=5))
        b = generate_hs_scene(hs_spec(seed=5))
        assert np.array_equal(a.z, b.z)
        assert np.array_equal(a.y_h, b.y_h)
        assert np.array_equal(a.y_m, b.y_m)

    def test_different_seeds_differ(self):
        a = generate_hs_scene(hs_spec(seed=1))
        b = generate_hs_scene(hs_spec(seed=2))
        assert not np.array_equal(a.y_h, b.y_h)

    def test_structure(self):
        scene = generate_hs_scene(hs_spec())
        np.testing.assert_array_equal(
            scene.mask, make_decimation_mask(scene.geometry, 2)
        )
        assert scene.y_h.shape == (6, 36)
        assert scene.y_m.shape == (2, 144)
        np.testing.assert_allclose(scene.r.sum(axis=1), 1.0, atol=1e-12)
        assert scene.r.min() >= 0
        # ground truth has positive band means (metrics-friendly)
        assert scene.z.mean(axis=1).min() > 0

    def test_band_30db_structure_mirror(self):
        scene = generate_hs_scene(hs_spec(snr_m_db=30.0))
        clean_m = clean_observations(scene.z, scene)[1]
        noise = scene.y_m - clean_m
        realized = 10 * np.log10(np.mean(clean_m**2) / np.mean(noise**2))
        assert realized == pytest.approx(30.0, abs=0.1)

    def test_subspace_too_large_raises(self):
        with pytest.raises(ConfigError):
            generate_hs_scene(hs_spec(n_subspace_true=7))

    # the boundary table spoils every count and every SNR with NaN and +inf
    @pytest.mark.parametrize("field,value", [("snr_m_db", -np.inf)])
    def test_spec_refuses_bad_values(self, field, value):
        with pytest.raises(ConfigError):
            hs_spec(**{field: value})


class TestKernels:
    @pytest.mark.parametrize("kernel_id,shape", [
        ("gauss8", (8, 8)),
        ("box9", (9, 9)),
        ("motion15", (15, 15)),
    ])
    def test_shipped_kernels_normalized(self, kernel_id, shape):
        k = make_kernel(kernel_id)
        assert k.shape == shape
        assert k.sum() == pytest.approx(1.0, abs=1e-12)
        assert k.min() >= 0

    @pytest.mark.parametrize("kernel_id", PAIR_KERNELS)
    def test_every_listed_kernel_sums_to_one(self, kernel_id):
        assert make_kernel(kernel_id).sum() == pytest.approx(1.0, abs=1e-12)

    def test_unknown_kernel_raises(self):
        with pytest.raises(ConfigError):
            make_kernel("nope")

    def test_unknown_kernel_message_lists_delta(self):
        with pytest.raises(ConfigError, match="delta"):
            make_kernel("nope")


class TestPairGenerator:
    def test_noiseless_delta_is_truth(self):
        spec = PairSceneSpec(
            geometry=ImageGeometry(16, 16),
            kernel_id="delta",
            sigma_n=0.0,
            sigma_b=0.0,
            seed=0,
        )
        scene = generate_pair_scene(spec)
        np.testing.assert_allclose(scene.y_b, scene.truth, atol=1e-12)
        np.testing.assert_array_equal(scene.y_n, scene.truth)

    def test_measured_noise_std_within_one_percent(self):
        spec = PairSceneSpec(
            geometry=ImageGeometry(32, 32),
            kernel_id="gauss8",
            sigma_n=25 / 255,
            sigma_b=2 / 255,
            seed=3,
        )
        scene = generate_pair_scene(spec)
        measured = np.std(scene.y_n - scene.truth)
        assert abs(measured - 25 / 255) <= 0.01 * 25 / 255

    def test_bit_reproducible(self):
        spec = PairSceneSpec(
            geometry=ImageGeometry(16, 16),
            kernel_id="box9",
            sigma_n=0.1,
            sigma_b=0.01,
            seed=9,
        )
        a = generate_pair_scene(spec)
        b = generate_pair_scene(spec)
        assert np.array_equal(a.y_b, b.y_b)
        assert np.array_equal(a.y_n, b.y_n)

    # the boundary table spoils the seed, and each sigma with NaN and inf
    @pytest.mark.parametrize("field,value", [
        ("sigma_n", -0.1), ("sigma_b", -1.0), ("kernel_id", 3), ("kernel_id", "nope"),
    ])
    def test_spec_refuses_bad_values(self, field, value):
        # a negative sigma_n was once recorded as is, and an unknown kernel
        # accepted until the scene was generated
        base = dict(geometry=ImageGeometry(16, 16), kernel_id="gauss8",
                    sigma_n=0.1, sigma_b=0.01)
        with pytest.raises(ConfigError):
            PairSceneSpec(**{**base, field: value})

    def test_synthetic_image_range_and_determinism(self):
        geom = ImageGeometry(24, 20)
        img = synthetic_image(geom)
        assert img.min() >= 0.0 and img.max() <= 1.0
        assert np.array_equal(img, synthetic_image(geom))
        assert img.std() > 0.05  # has actual structure
