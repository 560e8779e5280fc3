import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pnpfusion.errors import DimensionError, MetricError
from pnpfusion.metrics import ergas, psnr, psnr_per_band, sam


@pytest.mark.parametrize(
    "metric",
    [psnr, psnr_per_band, lambda r, e: ergas(r, e, 4.0)],
    ids=["psnr", "psnr_per_band", "ergas"],
)
@pytest.mark.parametrize("shape", [(0,), (0, 5), (3, 0)])
def test_empty_input_raises(metric, shape):
    # psnr and ergas once reached numpy's "Mean of empty slice" and gave NaN
    with pytest.raises(MetricError):
        metric(np.ones(shape), np.ones(shape))


class TestPsnr:
    def test_identical_is_infinite(self):
        x = np.arange(12.0).reshape(3, 4)
        assert psnr(x, x, peak=255.0) == float("inf")

    def test_constant_offset_on_255_scale(self):
        rng = np.random.default_rng(0)
        ref = rng.uniform(0, 254, size=100)
        est = ref + 1.0
        assert psnr(ref, est, peak=255.0) == pytest.approx(
            10 * np.log10(255.0**2), rel=1e-12
        )

    def test_matches_direct_mse_accumulation(self):
        rng = np.random.default_rng(1)
        ref = rng.standard_normal((3, 50))
        est = rng.standard_normal((3, 50))
        got = psnr(ref, est, peak=2.0)
        per_band = []
        for b in range(3):
            acc = 0.0
            for i in range(50):
                acc += (ref[b, i] - est[b, i]) ** 2
            per_band.append(10 * np.log10(4.0 / (acc / 50)))
        assert got == pytest.approx(sum(per_band) / 3, rel=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            psnr(np.zeros(3), np.zeros(4))

    def test_per_band_rejects_negative_peak(self):
        x = np.zeros((2, 5))
        with pytest.raises(MetricError):
            psnr_per_band(x, x + 0.1, peak=-1.0)


class TestErgas:
    def test_perfect_estimate_zero(self):
        x = np.ones((2, 10)) + np.arange(10)
        assert ergas(x, x, 4.0) == 0.0

    @settings(max_examples=25, deadline=None)
    @given(scale=st.floats(0.1, 10.0), seed=st.integers(0, 999))
    def test_degree_one_homogeneity_in_residual(self, scale, seed):
        rng = np.random.default_rng(seed)
        ref = rng.uniform(1.0, 2.0, size=(3, 20))
        err = rng.standard_normal((3, 20))
        base = ergas(ref, ref + err, 2.0)
        scaled = ergas(ref, ref + scale * err, 2.0)
        assert scaled == pytest.approx(scale * base, rel=1e-9)

    def test_matches_direct_formula(self):
        rng = np.random.default_rng(2)
        ref = rng.uniform(0.5, 2.0, size=(4, 30))
        est = ref + 0.1 * rng.standard_normal((4, 30))
        d = 3.0
        total = 0.0
        for b in range(4):
            mse = np.mean((ref[b] - est[b]) ** 2)
            total += mse / np.mean(ref[b]) ** 2
        expected = 100.0 * d * np.sqrt(total / 4)
        assert ergas(ref, est, d) == pytest.approx(expected, rel=1e-12)

    def test_zero_band_mean_raises(self):
        ref = np.zeros((1, 4))
        with pytest.raises(MetricError):
            ergas(ref, ref + 1, 1.0)

    @pytest.mark.parametrize("ratio", [-1.0])  # NaN, inf: tests/test_boundaries.py
    def test_nonpositive_resolution_ratio_raises(self, ratio):
        ref = np.ones((2, 4))
        with pytest.raises(MetricError):
            ergas(ref, ref + 0.1, ratio)


class TestSam:
    def test_identical_zero_degrees(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(0.1, 1.0, size=(5, 20))
        assert sam(x, x) == pytest.approx(0.0, abs=1e-9)

    def test_positive_scaling_invariance(self):
        rng = np.random.default_rng(4)
        ref = rng.uniform(0.1, 1.0, size=(4, 15))
        scales = rng.uniform(0.5, 3.0, size=15)
        assert sam(ref, ref * scales) == pytest.approx(0.0, abs=1e-9)

    def test_matches_direct_formula(self):
        rng = np.random.default_rng(5)
        ref = rng.uniform(0.1, 1.0, size=(3, 25))
        est = rng.uniform(0.1, 1.0, size=(3, 25))
        acc = 0.0
        for i in range(25):
            cosine = ref[:, i] @ est[:, i]
            cosine /= np.linalg.norm(ref[:, i]) * np.linalg.norm(est[:, i])
            acc += np.degrees(np.arccos(np.clip(cosine, -1, 1)))
        assert sam(ref, est) == pytest.approx(acc / 25, rel=1e-12)

    def test_parallel_orthogonal_antiparallel(self):
        r = np.array([[1.0], [2.0], [3.0]])
        assert sam(r, 0.7 * r) == pytest.approx(0.0, abs=1e-9)
        orthogonal = np.array([[3.0], [0.0], [-1.0]])
        assert sam(r, orthogonal) == pytest.approx(90.0, abs=1e-9)
        assert sam(r, -0.7 * r) == pytest.approx(180.0, abs=1e-9)

    def test_one_dimensional_pair_is_one_spectrum(self):
        assert sam(np.array([1.0, 0.0]), np.array([1.0, 1.0])) == pytest.approx(
            45.0, abs=1e-9
        )

    def test_zero_spectra_excluded_with_warning(self, caplog):
        import logging

        ref = np.array([[1.0, 0.0], [1.0, 0.0]])
        est = np.array([[1.0, 1.0], [1.0, 1.0]])
        with caplog.at_level(logging.WARNING):
            value = sam(ref, est)
        assert value == pytest.approx(0.0, abs=1e-9)
        assert any("excluded" in r.message for r in caplog.records)

    def test_all_zero_raises(self):
        with pytest.raises(MetricError):
            sam(np.zeros((2, 3)), np.ones((2, 3)))


@pytest.mark.parametrize(
    "metric",
    [
        psnr,
        psnr_per_band,
        lambda ref, est: ergas(ref, est, 4.0),
        sam,
    ],
    ids=["psnr", "psnr_per_band", "ergas", "sam"],
)
def test_inputs_with_more_than_two_dimensions_raise(metric):
    # a (2, 3, 4) pair once gave PSNR 40 dB and SAM 0.718 degrees
    rng = np.random.default_rng(0)
    ref = rng.uniform(0.5, 1.0, size=(2, 3, 4))
    with pytest.raises(DimensionError):
        metric(ref, ref + 0.01)


@pytest.mark.parametrize(
    "metric",
    [
        psnr,
        psnr_per_band,
        lambda ref, est: ergas(ref, est, 4.0),
        sam,
    ],
    ids=["psnr", "psnr_per_band", "ergas", "sam"],
)
@pytest.mark.parametrize(
    "spoil",
    [("estimate", np.nan), ("reference", np.nan), ("estimate", np.inf)],
    ids=["nan-estimate", "nan-reference", "inf-estimate"],
)
def test_non_finite_inputs_raise(metric, spoil):
    # with one NaN entry psnr and ergas once returned nan, psnr_per_band
    # [nan, inf, inf], and sam 0.0 after dropping the pixel as a zero spectrum
    side, value = spoil
    inputs = {"reference": np.ones((3, 4)), "estimate": np.ones((3, 4))}
    inputs[side][1, 2] = value
    with pytest.raises(MetricError):
        metric(inputs["reference"], inputs["estimate"])
