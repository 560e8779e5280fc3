from dataclasses import replace

import numpy as np
import pytest

from pnpfusion.denoiser import (
    EXPLICIT_W_CAP,
    DataTerm,
    ExplicitW,
    LinearDenoiser,
    build_explicit_w,
    component_filters,
    denoise_image_fixed,
    eval_phi,
    wiener_filter,
)
from pnpfusion.errors import ConfigError, DimensionError, SizeError
from pnpfusion.fftops import symbol_products
from pnpfusion.gmm import GmmModel, posterior
from pnpfusion.patches import ImageGeometry, extract_patches, remove_means
from tests.conftest import mirror_defect, mmse_map, train_random_denoiser


def identity_term(target):
    return DataTerm(
        apply=lambda x: x.ravel(),
        adjoint=lambda r: r.reshape(target.shape),
        target=target.ravel(),
        shape=target.shape,
    )


def prox(y, w):
    """The prox of phi at y: the minimizer of 0.5||x - y||^2 + phi(x)."""
    return identity_term(y).minimizer(1.0, w)


def random_psd(rng, dim, scale=1.0):
    a = rng.standard_normal((dim, dim))
    return scale * a @ a.T / dim


class TestWienerFilter:
    def test_identity_covariance_half(self):
        np.testing.assert_allclose(wiener_filter(np.eye(3), 1.0), 0.5 * np.eye(3))

    def test_zero_covariance_zero(self):
        np.testing.assert_allclose(wiener_filter(np.zeros((4, 4)), 0.5), 0.0)

    def test_eigenvalues_are_shrunk_spectrum(self):
        rng = np.random.default_rng(0)
        cov = random_psd(rng, 5)
        sigma2 = 0.3
        f = wiener_filter(cov, sigma2)
        cov_vals = np.linalg.eigvalsh(cov)
        expected = np.sort(cov_vals / (cov_vals + sigma2))
        np.testing.assert_allclose(np.sort(np.linalg.eigvalsh(f)), expected, atol=1e-12)
        np.testing.assert_allclose(f, f.T, atol=1e-14)
        assert np.linalg.eigvalsh(f).max() < 1.0


def random_denoiser(geometry, side, k, seed, sigma2=0.15, pure_linear=False):
    """Random PSD covariances and random simplex weights, no training."""
    rng = np.random.default_rng(seed)
    model = GmmModel(
        alphas=np.full(k, 1 / k),
        covariances=np.stack([random_psd(rng, side * side) for _ in range(k)]),
    )
    weights = rng.dirichlet(np.ones(k), size=geometry.n).T
    return LinearDenoiser(
        model=model,
        weights=weights,
        noise_variance=sigma2,
        geometry=geometry,
        pure_linear=pure_linear,
    )


def dense_reference(den):
    """The literal ``(1/n_p) sum_i P_i^T M_i P_i``, filters from inverses.

    ``M_i = F_i`` in pure-linear mode and ``(I - J) F_i (I - J) + J`` with
    ``J = 11^T/n_p`` (filter the zero-mean part, pass the mean) otherwise.
    """
    h, w = den.geometry.height, den.geometry.width
    n, side = den.geometry.n, den.model.patch_side
    n_p = side * side
    eye = np.eye(n_p)
    centre = eye - 1 / n_p
    filters = [
        c @ np.linalg.inv(c + den.noise_variance * eye)
        for c in den.model.covariances
    ]
    out = np.zeros((n, n))
    for i in range(n):
        row, col = i % h, i // h
        p = np.zeros((n_p, n))
        for k in range(n_p):
            p[k, (row + k % side) % h + ((col + k // side) % w) * h] = 1.0
        f = sum(b * g for b, g in zip(den.weights[:, i], filters))
        m = f if den.pure_linear else centre @ f @ centre + 1 / n_p
        out += p.T @ m @ p
    return out / n_p


def zero_mean_posterior(y, den):
    """``beta_ji`` proportional to ``alpha_j N(y_i - mean(y_i); 0, C_j + s2 I)``,
    by dense solves, with patch i gathered as ``P_i`` in :func:`dense_reference`."""
    h, w = den.geometry.height, den.geometry.width
    side = den.model.patch_side
    n_p = side * side
    rows, cols = np.arange(den.geometry.n) % h, np.arange(den.geometry.n) // h
    k = np.arange(n_p)
    patches = y[(rows[:, None] + k % side) % h + ((cols[:, None] + k // side) % w) * h]
    patches -= patches.mean(axis=1, keepdims=True)
    log_densities = []
    for alpha, c in zip(den.model.alphas, den.model.covariances):
        cov = c + den.noise_variance * np.eye(n_p)
        quadratic = np.sum(patches * np.linalg.solve(cov, patches.T).T, axis=1)
        log_densities.append(
            np.log(alpha) - 0.5 * (np.linalg.slogdet(cov)[1] + quadratic)
        )
    beta = np.exp(np.array(log_densities) - np.max(log_densities, axis=0))
    return beta / beta.sum(axis=0)


def shift_average(matrix, geometry):
    """``(1/n) sum_t S_t W S_t^T`` over every cyclic shift t of the grid."""
    h, w = geometry.height, geometry.width
    pixels = np.arange(geometry.n).reshape(w, h)  # [col, row] is pixel col*h + row
    total = np.zeros_like(matrix)
    for dc in range(w):
        for dr in range(h):
            moved = np.roll(pixels, (dc, dr), axis=(0, 1)).reshape(-1)
            total += matrix[np.ix_(moved, moved)]
    return total / geometry.n


class TestOperator:
    @pytest.mark.parametrize(
        "case,error",
        [
            ("nan", ConfigError),
            ("3,-2", ConfigError),
            ("1.5", ConfigError),
            ("1-d", DimensionError),
            ("K+1 rows", DimensionError),
            ("n-1 columns", DimensionError),
            ("list", ConfigError),
        ],
    )
    def test_rejects_malformed_weights(self, case, error):
        # off the simplex, beta gave W NaN pixels or eigenvalues above 1
        den = random_denoiser(ImageGeometry(8, 8), 2, 2, seed=0)
        k, n = den.weights.shape
        nan = den.weights.copy()
        nan[0, 5] = np.nan
        weights = {
            "nan": nan,
            "3,-2": np.repeat([[3.0], [-2.0]], n, axis=1),
            "1.5": np.full((k, n), 1.5),
            "1-d": den.weights[0],
            "K+1 rows": np.full((k + 1, n), 1 / (k + 1)),
            "n-1 columns": np.full((k, n - 1), 1 / k),
            # once leaked AttributeError from reading weights.shape
            "list": np.full((k, n), 1.5).tolist(),
        }[case]
        with pytest.raises(error):
            replace(den, weights=weights)

    @pytest.mark.parametrize("pure_linear", [True, False])
    @pytest.mark.parametrize("height,width,side", [(12, 12, 3), (5, 7, 4), (8, 8, 8)])
    def test_matches_dense_reference(self, height, width, side, pure_linear):
        # 5x7 with side 4 and 8x8 with side 8 have displacements that wrap
        # onto the same pixel, so the operator has to merge them
        den = random_denoiser(
            ImageGeometry(height, width), side, 3, seed=height * width + side,
            pure_linear=pure_linear,
        )
        np.testing.assert_allclose(
            build_explicit_w(den).matrix, dense_reference(den), rtol=0, atol=1e-12
        )

    @pytest.mark.parametrize(
        "height,width,side", [(12, 12, 3), (5, 7, 4), (8, 8, 8), (3, 4, 3)]
    )
    def test_apply_matches_dense_reference(self, height, width, side):
        # every grid but 12x12 is narrower than 2s-1 in some direction, so
        # displacements wrap onto the same pixel and their entries add up
        den = random_denoiser(ImageGeometry(height, width), side, 3, seed=side)
        reference = dense_reference(den)
        stack = np.random.default_rng(side).standard_normal((3, den.geometry.n))
        np.testing.assert_allclose(
            denoise_image_fixed(stack[0], den), reference @ stack[0],
            rtol=0, atol=1e-12,
        )
        np.testing.assert_allclose(
            denoise_image_fixed(stack, den), stack @ reference.T, rtol=0, atol=1e-12
        )

    @pytest.mark.parametrize("pure_linear", [True, False])
    @pytest.mark.parametrize(
        "height,width,side", [(12, 12, 3), (5, 7, 4), (8, 8, 8), (3, 4, 3)]
    )
    def test_every_coefficient_equals_its_mirror(self, height, width, side, pure_linear):
        den = random_denoiser(
            ImageGeometry(height, width), side, 3, seed=height * width + side,
            pure_linear=pure_linear,
        )
        assert mirror_defect(den) == 0.0

    def test_trained_operator_equals_its_mirror(self):
        den = train_random_denoiser(
            ImageGeometry(64, 64), 6, 8, seed=11, pure_linear=False
        )
        assert mirror_defect(den) == 0.0

    @pytest.mark.parametrize("height,width,side", [(12, 12, 3), (5, 7, 4)])
    def test_circulant_symbol_is_the_shift_average(self, height, width, side):
        # 5x7 is narrower than 2s-1 = 7 rows, so displacements wrap
        geometry = ImageGeometry(height, width)
        den = random_denoiser(geometry, side, 3, seed=side)
        average = shift_average(build_explicit_w(den).matrix, geometry)
        symbol = den.circulant_symbol
        np.testing.assert_allclose(
            np.sort(symbol.ravel()), np.linalg.eigvalsh(average), rtol=0, atol=1e-12
        )
        x = np.random.default_rng(side).standard_normal(geometry.n)
        np.testing.assert_allclose(
            symbol_products(x, symbol), average @ x, rtol=0, atol=1e-12
        )

    @pytest.mark.parametrize("shape", [(2, 35), (1, 2, 36), (36, 2)])
    def test_misshapen_stack_raises(self, shape):
        den = random_denoiser(ImageGeometry(6, 6), 2, 2, seed=3)
        with pytest.raises(DimensionError):
            denoise_image_fixed(np.zeros(shape), den)

    @pytest.mark.parametrize("pure_linear", [True, False])
    def test_zero_in_zero_out(self, pure_linear):
        den = random_denoiser(
            ImageGeometry(6, 5), 2, 2, seed=1, pure_linear=pure_linear
        )
        np.testing.assert_array_equal(denoise_image_fixed(np.zeros(30), den), 0.0)

    def test_scalar_shrinkage(self):
        # C = cI makes every patch filter c/(c+s2) I, and so W
        c, sigma2 = 0.8, 0.2
        geom = ImageGeometry(4, 5)
        den = LinearDenoiser(
            model=GmmModel(alphas=np.array([1.0]), covariances=(c * np.eye(4))[None]),
            weights=np.ones((1, geom.n)),
            noise_variance=sigma2,
            geometry=geom,
            pure_linear=True,
        )
        np.testing.assert_allclose(
            build_explicit_w(den).matrix, (c / (c + sigma2)) * np.eye(geom.n), rtol=1e-12
        )

    def test_filters_built_once(self, monkeypatch):
        import pnpfusion.denoiser as denoiser_module

        calls = []

        def counting_filters(*args):
            calls.append(args)
            return component_filters(*args)

        monkeypatch.setattr(denoiser_module, "component_filters", counting_filters)
        den = random_denoiser(ImageGeometry(6, 6), 2, 2, seed=2)
        y = np.random.default_rng(2).standard_normal(den.geometry.n)
        for _ in range(3):
            denoise_image_fixed(y, den)
        assert len(calls) == 1

    def test_wrong_length_band_raises(self):
        den = random_denoiser(ImageGeometry(6, 6), 2, 2, seed=3)
        with pytest.raises(DimensionError):
            denoise_image_fixed(np.zeros(35), den)


class TestImageDenoise:
    def test_constant_image_preserved_practical(self, small_denoiser):
        den = LinearDenoiser(
            model=small_denoiser.model,
            weights=small_denoiser.weights,
            noise_variance=small_denoiser.noise_variance,
            geometry=small_denoiser.geometry,
            pure_linear=False,
        )
        x = np.full(den.geometry.n, 2.5)
        np.testing.assert_allclose(denoise_image_fixed(x, den), x, rtol=1e-10)

    def test_pure_linear_equals_explicit_matrix(self, small_denoiser):
        w = build_explicit_w(small_denoiser)
        rng = np.random.default_rng(3)
        for _ in range(5):
            y = rng.standard_normal(small_denoiser.geometry.n)
            np.testing.assert_allclose(
                denoise_image_fixed(y, small_denoiser),
                w.matrix @ y,
                rtol=1e-10,
                atol=1e-12,
            )

    def test_mmse_equals_fixed_for_single_component(self):
        den = train_random_denoiser(
            ImageGeometry(8, 8), 2, 1, seed=11, pure_linear=False
        )
        rng = np.random.default_rng(4)
        y = rng.standard_normal(den.geometry.n)
        fixed = denoise_image_fixed(y, den)
        mmse = mmse_map(y, den.model, den.noise_variance, den.geometry)
        np.testing.assert_allclose(fixed, mmse, rtol=1e-10)
        # one component: the posterior weight of every patch is 1
        np.testing.assert_allclose(mmse, dense_reference(den) @ y, rtol=1e-10)

    def test_mmse_equals_fixed_for_an_untrained_single_component(self):
        # a random covariance does not annihilate the constant patch, so the
        # MMSE path must filter with the same (I - J) F (I - J) as W
        den = random_denoiser(ImageGeometry(8, 8), 2, 1, seed=3)
        y = np.random.default_rng(4).standard_normal(den.geometry.n)
        fixed = denoise_image_fixed(y, den)
        mmse = mmse_map(y, den.model, den.noise_variance, den.geometry)
        np.testing.assert_allclose(fixed, mmse, rtol=1e-10)
        # one component: the posterior weight of every patch is 1
        np.testing.assert_allclose(mmse, dense_reference(den) @ y, rtol=1e-10)

    @pytest.mark.parametrize("trained", [False, True], ids=["random", "trained"])
    def test_mmse_is_the_dense_map_at_the_input_posterior(self, trained):
        geom = ImageGeometry(7, 6)
        if trained:
            den = train_random_denoiser(geom, 3, 3, seed=12, pure_linear=False)
        else:
            den = random_denoiser(geom, 3, 3, seed=5)
        y = np.random.default_rng(6).standard_normal(geom.n)
        beta = zero_mean_posterior(y, den)
        assert beta.max(axis=0).min() < 0.9  # mixed weights, so they matter
        reference = dense_reference(replace(den, weights=beta))
        mmse = mmse_map(y, den.model, den.noise_variance, geom)
        np.testing.assert_allclose(mmse, reference @ y, rtol=1e-10)

    def test_mmse_on_a_stack_freezes_the_band_mean_posterior(self, small_denoiser):
        # one operator for the stack, with each pixel's posterior averaged
        # over the bands, as train_scene_denoiser freezes it
        den = small_denoiser
        bands = np.random.default_rng(8).standard_normal((2, den.geometry.n))
        band_betas = [zero_mean_posterior(band, den) for band in bands]
        assert np.abs(band_betas[0] - band_betas[1]).max() > 0.1
        beta = (band_betas[0] + band_betas[1]) / 2
        frozen = replace(den, weights=beta, pure_linear=False)
        mmse = mmse_map(bands, den.model, den.noise_variance, den.geometry)
        assert mmse.shape == bands.shape
        np.testing.assert_allclose(
            mmse, denoise_image_fixed(bands, frozen), rtol=1e-10, atol=1e-12
        )

    def test_mmse_on_one_band_is_unchanged_by_the_band_mean(self, small_denoiser):
        # the mean over one band is that band's posterior, bit for bit
        den, geom = small_denoiser, small_denoiser.geometry
        y = np.random.default_rng(9).standard_normal(geom.n)
        patch_set = remove_means(extract_patches(y, geom, den.model.patch_side))
        beta = posterior(patch_set, den.model, den.noise_variance)[0]
        direct = LinearDenoiser(den.model, beta, den.noise_variance, geom)
        np.testing.assert_array_equal(
            mmse_map(y, den.model, den.noise_variance, geom),
            denoise_image_fixed(y, direct),
        )

    def test_mmse_on_a_non_finite_image_reports_the_patches(self, small_denoiser):
        # once refused as "beta must be >= 0", from the NaN posterior
        y = np.zeros(small_denoiser.geometry.n)
        y[7] = np.nan
        with pytest.raises(ConfigError, match="patches must be finite"):
            mmse_map(y, small_denoiser.model, 0.05, small_denoiser.geometry)

    def test_denoising_improves_psnr_at_sigma_25(self):
        from pnpfusion.metrics import psnr
        from pnpfusion.gmm import EmConfig, train_em
        from pnpfusion.scenes import synthetic_image

        geom = ImageGeometry(32, 32)
        clean = synthetic_image(geom)
        sigma = 25.0 / 255.0
        rng = np.random.default_rng(5)
        noisy = clean + sigma * rng.standard_normal(geom.n)
        # scene-trained: model and weights from the clean image
        ps = remove_means(extract_patches(clean, geom, 6))
        model, beta, _ = train_em(
            ps, EmConfig(n_components=8, noise_variance=0.0, max_iters=10, seed=0)
        )
        den = LinearDenoiser(
            model=model, weights=beta, noise_variance=sigma**2, geometry=geom
        )
        out = denoise_image_fixed(noisy, den)
        assert psnr(clean, out, 1.0) > psnr(clean, noisy, 1.0)


class TestExplicitW:
    def test_trivial_one_pixel_patches(self):
        geom = ImageGeometry(3, 3)
        c = 0.7
        model = GmmModel(alphas=np.array([1.0]), covariances=np.array([[[c]]]))
        weights = np.ones((1, 9))
        den = LinearDenoiser(
            model=model,
            weights=weights,
            noise_variance=0.3,
            geometry=geom,
            pure_linear=True,
        )
        w = build_explicit_w(den)
        np.testing.assert_allclose(w.matrix, (c / (c + 0.3)) * np.eye(9), rtol=1e-12)

    @pytest.mark.parametrize("k", [1, 3])
    def test_lemma2_spectrum(self, k):
        den = train_random_denoiser(ImageGeometry(16, 16), 4, k, seed=20 + k)
        w = build_explicit_w(den)
        assert np.abs(w.matrix - w.matrix.T).max() <= 1e-10
        assert w.eigenvalues.min() >= -1e-9
        assert w.eigenvalues.max() < 1.0 - 1e-9

    @pytest.mark.parametrize("seed", [40, 41])
    def test_practical_spectrum_of_an_untrained_model(self, seed):
        # random covariances do not annihilate the constant patch, so only
        # the symmetric M_i makes W symmetric here
        den = random_denoiser(ImageGeometry(9, 8), 3, 3, seed=seed)
        w = build_explicit_w(den)
        ones = np.ones(den.geometry.n)
        assert np.abs(w.matrix - w.matrix.T).max() <= 1e-14
        np.testing.assert_allclose(w.matrix @ ones, ones, rtol=0, atol=1e-14)
        assert w.eigenvalues[0] == pytest.approx(1.0, abs=1e-12)
        top = w.basis[:, 0] * np.sign(w.basis[0, 0])
        np.testing.assert_allclose(top, ones / np.sqrt(ones.size), atol=1e-10)
        assert w.eigenvalues[1] < 1.0 - 1e-3
        assert w.eigenvalues.min() >= -1e-14

    def test_reuses_the_cached_operator(self, monkeypatch):
        import pnpfusion.denoiser as denoiser_module

        calls = []

        def counting_filters(*args):
            calls.append(args)
            return component_filters(*args)

        monkeypatch.setattr(denoiser_module, "component_filters", counting_filters)
        den = random_denoiser(ImageGeometry(6, 6), 2, 2, seed=4, pure_linear=True)
        w = build_explicit_w(den)
        y = np.random.default_rng(4).standard_normal(den.geometry.n)
        np.testing.assert_allclose(
            denoise_image_fixed(y, den), w.matrix @ y, rtol=1e-12
        )
        assert len(calls) == 1

    def test_operator_vs_matrix_on_many_vectors(self, small_denoiser):
        w = build_explicit_w(small_denoiser)
        rng = np.random.default_rng(6)
        ys = rng.standard_normal((100, small_denoiser.geometry.n))
        for y in ys[:10]:
            np.testing.assert_allclose(
                denoise_image_fixed(y, small_denoiser), w.matrix @ y, rtol=1e-10
            )
        # batch check for the rest through the matrix path
        np.testing.assert_allclose(
            (w.matrix @ ys.T).T,
            np.stack([denoise_image_fixed(y, small_denoiser) for y in ys]),
            rtol=1e-10,
        )

    def test_size_cap(self, small_denoiser):
        # 65 x 65 = 4225 pixels, just above EXPLICIT_W_CAP; the check comes
        # before the operator is built
        geom = ImageGeometry(65, 65)
        k = small_denoiser.model.n_components
        den = LinearDenoiser(
            model=small_denoiser.model,
            weights=np.full((k, geom.n), 1.0 / k),
            noise_variance=0.05,
            geometry=geom,
        )
        assert geom.n > EXPLICIT_W_CAP
        with pytest.raises(SizeError):
            build_explicit_w(den)


class TestPhiAndProx:
    def test_phi_zero_at_origin(self, small_denoiser):
        w = build_explicit_w(small_denoiser)
        assert eval_phi(np.zeros(w.matrix.shape[0]), w) == 0.0

    def test_phi_on_eigenvector(self, small_denoiser):
        w = build_explicit_w(small_denoiser)
        t = 1.7
        for k in (0, w.rank // 2, w.rank - 1):
            lam = w.nonzero_eigenvalues[k]
            val = eval_phi(t * w.basis[:, k], w)
            np.testing.assert_allclose(val, 0.5 * t**2 * (1 / lam - 1), rtol=1e-9)

    def test_phi_infinite_off_subspace(self, small_denoiser):
        w = build_explicit_w(small_denoiser)
        n = w.matrix.shape[0]
        if w.rank == n:
            pytest.skip("W is full rank for this model")
        # build a unit vector orthogonal to span(W)
        rng = np.random.default_rng(7)
        x = rng.standard_normal(n)
        x -= w.basis @ (w.basis.T @ x)
        x /= np.linalg.norm(x)
        assert eval_phi(x, w) == float("inf")

    def test_prox_on_eigenvector(self, small_denoiser):
        w = build_explicit_w(small_denoiser)
        q0 = w.basis[:, 0]
        np.testing.assert_allclose(
            prox(q0, w), w.nonzero_eigenvalues[0] * q0, rtol=1e-10
        )

    def test_prox_annihilates_orthogonal_complement(self, small_denoiser):
        w = build_explicit_w(small_denoiser)
        n = w.matrix.shape[0]
        if w.rank == n:
            pytest.skip("W is full rank for this model")
        rng = np.random.default_rng(8)
        x = rng.standard_normal(n)
        x -= w.basis @ (w.basis.T @ x)
        np.testing.assert_allclose(prox(x, w), 0.0, atol=1e-10)

    def test_theorem2_identity_two_paths(self):
        # denoise_image_fixed (the stencil) vs the prox problem solved densely
        for seed in (30, 31, 32):
            den = train_random_denoiser(ImageGeometry(16, 16), 4, 3, seed=seed)
            w = build_explicit_w(den)
            rng = np.random.default_rng(seed)
            for _ in range(20):
                y = rng.standard_normal(den.geometry.n)
                lhs = denoise_image_fixed(y, den)
                rhs = prox(y, w)
                assert np.linalg.norm(lhs - rhs) <= 1e-8 * np.linalg.norm(y)

    def test_nonexpansive(self, small_denoiser):
        w = build_explicit_w(small_denoiser)
        rng = np.random.default_rng(9)
        n = w.matrix.shape[0]
        xs = rng.standard_normal((200, n))
        ys = rng.standard_normal((200, n))
        lhs = np.linalg.norm((xs - ys) @ w.matrix.T, axis=1)
        rhs = np.linalg.norm(xs - ys, axis=1)
        assert np.all(lhs <= rhs * (1 + 1e-12))

    def test_phi_convexity_witness(self, small_denoiser):
        w = build_explicit_w(small_denoiser)
        rng = np.random.default_rng(10)
        for _ in range(50):
            x1 = w.basis @ rng.standard_normal(w.rank)
            x2 = w.basis @ rng.standard_normal(w.rank)
            t = rng.uniform()
            lhs = eval_phi(t * x1 + (1 - t) * x2, w)
            rhs = t * eval_phi(x1, w) + (1 - t) * eval_phi(x2, w)
            assert lhs <= rhs + 1e-9


class TestDataTerm:
    def test_identity_map_minimizer_is_the_denoiser(self, small_denoiser):
        # argmin 0.5||x - y||^2 + phi(x) is the prox of phi, i.e. W y, per row
        w = build_explicit_w(small_denoiser)
        y = np.random.default_rng(11).standard_normal((2, w.matrix.shape[0]))
        x = identity_term(y).minimizer(1.0, w)
        np.testing.assert_allclose(x, y @ w.matrix.T, rtol=1e-9, atol=1e-12)

    def test_objective_adds_phi_per_row(self, small_denoiser):
        w = build_explicit_w(small_denoiser)
        rng = np.random.default_rng(12)
        x = rng.standard_normal((2, w.rank)) @ w.basis.T
        y = rng.standard_normal(x.shape)
        expected = 0.5 * np.sum((x - y) ** 2) + 0.3 * (
            eval_phi(x[0], w) + eval_phi(x[1], w)
        )
        objective = identity_term(y).objective(x, 0.3, w)
        assert objective == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize(
        "shape", [(EXPLICIT_W_CAP + 1,), (2, EXPLICIT_W_CAP // 2 + 1)]
    )
    def test_minimizer_size_cap(self, shape):
        with pytest.raises(SizeError):
            identity_term(np.zeros(shape)).minimizer(0.0)

    def test_regularized_without_w_raises(self):
        term = identity_term(np.ones(4))
        with pytest.raises(ConfigError):
            term.minimizer(0.5)
        with pytest.raises(ConfigError):
            term.objective(np.ones(4), 0.5)

    @pytest.mark.parametrize("with_w", [False, True], ids=["no_w", "w"])
    @pytest.mark.parametrize("weight", [-1.0])  # NaN, inf: tests/test_boundaries.py
    def test_bad_reg_weight_raises(self, weight, with_w):
        # a NaN or negative weight once gave the bare data fit and the
        # unregularized x; inf went into sqrt(inf * weights)
        w = ExplicitW(
            matrix=np.diag([0.9, 0.5]), eigenvalues=np.array([0.9, 0.5]),
            basis=np.eye(2),
        ) if with_w else None
        term = identity_term(np.array([1.0, 3.0]))
        with pytest.raises(ConfigError):
            term.objective(np.ones(2), weight, w)
        with pytest.raises(ConfigError):
            term.minimizer(weight, w)

    def test_w_of_another_grid_raises(self):
        # a 9x9 denoiser's W on a 16x16 term once leaked numpy's ValueError
        # from the matmul in objective and the reshape in minimizer
        w = build_explicit_w(train_random_denoiser(ImageGeometry(9, 9), 3, 2, seed=3))
        term = identity_term(np.zeros(16 * 16))
        with pytest.raises(DimensionError):
            term.objective(np.zeros(16 * 16), 0.1, w)
        with pytest.raises(DimensionError):
            term.minimizer(0.1, w)

    @pytest.mark.parametrize("shape", [(80,), (82,), (2, 81)])
    def test_phi_of_a_wrong_length_x_raises(self, shape):
        w = build_explicit_w(train_random_denoiser(ImageGeometry(9, 9), 3, 2, seed=3))
        with pytest.raises(DimensionError):
            eval_phi(np.zeros(shape), w)


class TestRoundedTopEigenvalue:
    # the constant image's eigenvalue 1 can round to 1 + 2 ulp, which made
    # 1/lambda - 1 slightly negative: phi < 0 and a NaN penalty
    top = 1.0 + 4e-16
    w = ExplicitW(
        matrix=np.diag([top, 0.5]), eigenvalues=np.array([top, 0.5]), basis=np.eye(2)
    )

    def test_phi_gives_the_top_direction_zero_weight(self):
        assert self.top > 1.0
        assert eval_phi(np.array([3.0, 0.0]), self.w) == 0.0
        assert eval_phi(np.array([3.0, 2.0]), self.w) == pytest.approx(2.0)

    def test_minimizer_is_finite(self):
        # 0.5||x - y||^2 + 0.5 phi(x): x_0 = y_0 and x_1 = y_1 / 1.5
        x = identity_term(np.array([1.0, 3.0])).minimizer(0.5, self.w)
        np.testing.assert_allclose(x, [1.0, 2.0], rtol=1e-12)

