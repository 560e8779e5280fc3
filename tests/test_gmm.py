import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import eigh as scipy_eigh

from pnpfusion import gmm
from pnpfusion.denoiser import component_filters
from pnpfusion.errors import ConfigError, DimensionError, PnpError
from pnpfusion.gmm import (
    _CHUNK,
    EmConfig,
    GmmModel,
    _component_log_densities,
    _logsumexp,
    _weighted_second_moments,
    eigt,
    m_step,
    posterior,
    train_em,
)
from pnpfusion.patches import ImageGeometry, PatchSet


def make_patch_set(patches):
    patches = np.asarray(patches, dtype=float)
    n = patches.shape[0]
    side = int(round(np.sqrt(patches.shape[1])))
    # synthetic holder: geometry only needs a consistent pixel count
    geom = ImageGeometry(n, 1)
    return PatchSet(patches=patches, patch_side=side, source_geometry=geom)


def random_model(rng, k, n_p):
    covs = []
    for _ in range(k):
        a = rng.standard_normal((n_p, n_p))
        covs.append(a @ a.T / n_p)
    alphas = rng.uniform(0.2, 1.0, size=k)
    return GmmModel(
        alphas=alphas / alphas.sum(),
        covariances=np.stack(covs),
        patch_side=int(round(np.sqrt(n_p))),
    )


def dense_log_gaussian(y, cov):
    """Brute-force zero-mean Gaussian log-density with explicit det/inv."""
    n_p = y.shape[0]
    sign, logdet = np.linalg.slogdet(cov)
    assert sign > 0
    return -0.5 * (n_p * np.log(2 * np.pi) + logdet + y @ np.linalg.inv(cov) @ y)


class TestEigt:
    def test_identity_fixed(self):
        np.testing.assert_allclose(eigt(np.eye(3))[0], np.eye(3), atol=1e-14)

    def test_analytic_diagonal(self):
        np.testing.assert_allclose(
            eigt(np.diag([2.0, -1.0]))[0], np.diag([2.0, 0.0]), atol=1e-14
        )

    def test_nearest_psd_in_frobenius(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((6, 6))
        a = 0.5 * (a + a.T)
        # oracle: independent eigensolver, clip negatives
        vals, vecs = scipy_eigh(a)
        oracle = (vecs * np.maximum(vals, 0.0)) @ vecs.T
        np.testing.assert_allclose(eigt(a)[0], oracle, atol=1e-10)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000), dim=st.integers(1, 6))
    def test_psd_and_idempotent(self, seed, dim):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((dim, dim))
        out = eigt(a)[0]
        assert np.linalg.eigvalsh(out).min() >= -1e-10
        np.testing.assert_allclose(eigt(out)[0], out, atol=1e-10)

    def test_stack_equals_per_matrix(self):
        rng = np.random.default_rng(20)
        stack = rng.standard_normal((5, 6, 6))
        out, vals, vecs = eigt(stack)
        for j, matrix in enumerate(stack):
            single = eigt(matrix)
            np.testing.assert_allclose(out[j], single[0], rtol=0, atol=1e-13)
            np.testing.assert_allclose(vals[j], single[1], rtol=0, atol=1e-13)

    def test_spectrum_rebuilds_the_projection(self):
        rng = np.random.default_rng(21)
        stack = rng.standard_normal((3, 5, 5))
        out, vals, vecs = eigt(stack)
        assert vals.min() >= 0
        np.testing.assert_allclose(
            np.einsum("kij,kj,klj->kil", vecs, vals, vecs), out, atol=1e-13
        )


def low_rank_patches(rng, n, n_p, rank, sigma2):
    """Patches from a rank-`rank` signal plus white noise of variance sigma2."""
    basis = rng.standard_normal((rank, n_p))
    signal = rng.standard_normal((n, rank)) @ basis
    return signal + np.sqrt(sigma2) * rng.standard_normal((n, n_p))


def oracle_log_densities(y, model, sigma2):
    """log alpha_j + the brute-force density of every patch, shape (K, N)."""
    eye = np.eye(model.patch_dim)
    return np.array(
        [
            [
                np.log(model.alphas[j])
                + dense_log_gaussian(row, model.covariances[j] + sigma2 * eye)
                for row in y
            ]
            for j in range(model.n_components)
        ]
    )


def per_component_log_densities(y, model, sigma2):
    """One eigh and one full projection per component (the unbatched form)."""
    out = []
    for alpha, cov in zip(model.alphas, model.covariances):
        vals, vecs = np.linalg.eigh(cov)
        vals = np.maximum(vals, 0.0) + sigma2
        vals = np.maximum(vals, 1e-12 * max(vals.max(), 1.0))
        proj = y @ vecs
        maha = (proj**2 / vals).sum(axis=1)
        out.append(
            np.log(alpha)
            - 0.5 * (y.shape[1] * np.log(2 * np.pi) + np.log(vals).sum() + maha)
        )
    return np.array(out)


class TestLogDensities:
    def test_after_an_m_step_matches_the_oracle(self):
        # rank-3 signal in 9 dimensions: the M-step leaves rank-deficient
        # covariances, so the rank-restricted form is the one exercised
        rng = np.random.default_rng(22)
        sigma2 = 0.05
        y = low_rank_patches(rng, 400, 9, 3, sigma2)
        beta = rng.dirichlet(np.ones(3), size=400).T
        model = m_step(make_patch_set(y), beta, sigma2)
        assert np.all((model.spectrum[0] == 0).sum(axis=1) >= 3)
        got = _component_log_densities(make_patch_set(y[:40]), model, sigma2)
        np.testing.assert_allclose(
            got, oracle_log_densities(y[:40], model, sigma2), rtol=1e-10
        )

    def test_full_rank_model_without_noise_matches_the_oracle(self):
        rng = np.random.default_rng(23)
        model = random_model(rng, 3, 4)  # a model's patches are square
        y = rng.standard_normal((30, 4))
        got = _component_log_densities(make_patch_set(y), model, 0.0)
        np.testing.assert_allclose(got, oracle_log_densities(y, model, 0.0), rtol=1e-10)

    def test_zero_covariance_without_noise_floors_and_matches(self, caplog):
        rng = np.random.default_rng(24)
        model = GmmModel(
            alphas=np.array([1.0]), covariances=np.zeros((1, 4, 4)), patch_side=2
        )
        y = rng.standard_normal((10, 4))
        with caplog.at_level(logging.WARNING):
            got = _component_log_densities(make_patch_set(y), model, 0.0)
        assert any("flooring" in r.message for r in caplog.records)
        floored = GmmModel(
            alphas=model.alphas, covariances=1e-12 * np.eye(4)[None], patch_side=2
        )
        np.testing.assert_allclose(got, oracle_log_densities(y, floored, 0.0), rtol=1e-10)

    @pytest.mark.parametrize("n", [_CHUNK - 1, _CHUNK, _CHUNK + 1])
    @pytest.mark.parametrize("rank_deficient", [True, False])
    def test_chunk_boundaries_match_per_component(self, n, rank_deficient):
        # a rank-deficient trained model with noise (rank-restricted form),
        # and a full-rank model without noise (all directions kept)
        rng = np.random.default_rng(n)
        y = low_rank_patches(rng, n, 4, 2, 0.05)
        if rank_deficient:
            beta = rng.dirichlet(np.ones(3), size=n).T
            model = m_step(make_patch_set(y), beta, 0.05)
            sigma2 = 0.05
        else:
            model = random_model(rng, 3, 4)
            sigma2 = 0.0
        got = _component_log_densities(make_patch_set(y), model, sigma2)
        np.testing.assert_allclose(
            got, per_component_log_densities(y, model, sigma2), rtol=1e-10
        )


class TestLogSumExp:
    def test_matches_the_direct_sum(self):
        a = np.random.default_rng(0).standard_normal((5, 7))
        np.testing.assert_allclose(
            _logsumexp(a), np.log(np.exp(a).sum(axis=0)), rtol=1e-14
        )

    def test_shift_keeps_large_magnitudes_finite(self):
        a = np.array([[-1000.0, 1000.0], [-1000.0 + np.log(3.0), 1000.0]])
        np.testing.assert_allclose(
            _logsumexp(a), [-1000.0 + np.log(4.0), 1000.0 + np.log(2.0)], rtol=1e-15
        )

    def test_infinite_columns(self):
        a = np.array([[-np.inf, -np.inf, np.inf], [-np.inf, 0.0, 1.0]])
        with np.errstate(all="raise"):
            out = _logsumexp(a)
        np.testing.assert_array_equal(out, [-np.inf, 0.0, np.inf])


class TestEStep:
    def test_single_component_all_ones(self):
        rng = np.random.default_rng(0)
        ps = make_patch_set(rng.standard_normal((10, 4)))
        model = random_model(rng, 1, 4)
        beta = posterior(ps, model, 0.1)[0]
        np.testing.assert_allclose(beta, 1.0)

    def test_identical_covariances_give_alphas(self):
        rng = np.random.default_rng(2)
        cov = np.eye(4) * 0.5
        model = GmmModel(
            alphas=np.array([0.3, 0.7]),
            covariances=np.stack([cov, cov]),
            patch_side=2,
        )
        ps = make_patch_set(rng.standard_normal((12, 4)))
        beta = posterior(ps, model, 0.2)[0]
        np.testing.assert_allclose(beta[0], 0.3, rtol=1e-12)
        np.testing.assert_allclose(beta[1], 0.7, rtol=1e-12)

    def test_matches_dense_density_oracle(self):
        rng = np.random.default_rng(3)
        model = random_model(rng, 2, 4)
        ps = make_patch_set(rng.standard_normal((10, 4)))
        sigma2 = 0.3
        beta = posterior(ps, model, sigma2)[0]
        for i in range(10):
            raw = np.array(
                [
                    np.log(model.alphas[j])
                    + dense_log_gaussian(
                        ps.patches[i], model.covariances[j] + sigma2 * np.eye(4)
                    )
                    for j in range(2)
                ]
            )
            expected = np.exp(raw - raw.max())
            expected /= expected.sum()
            np.testing.assert_allclose(beta[:, i], expected, rtol=1e-10)

    def test_singular_covariance_regularized_not_crash(self, caplog):
        ps = make_patch_set(np.zeros((5, 4)))
        model = GmmModel(
            alphas=np.array([1.0]),
            covariances=np.zeros((1, 4, 4)),
            patch_side=2,
        )
        with caplog.at_level(logging.WARNING):
            beta = posterior(ps, model, 0.0)[0]
        np.testing.assert_allclose(beta, 1.0)
        assert any("flooring" in r.message for r in caplog.records)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 5000), k=st.integers(1, 4))
    def test_columns_on_simplex(self, seed, k):
        rng = np.random.default_rng(seed)
        model = random_model(rng, k, 4)
        ps = make_patch_set(rng.standard_normal((8, 4)))
        beta = posterior(ps, model, 0.05)[0]
        assert beta.min() >= 0
        np.testing.assert_allclose(beta.sum(axis=0), 1.0, atol=1e-9)


class TestMStep:
    def test_noiseless_single_component_is_sample_moment(self):
        rng = np.random.default_rng(4)
        y = rng.standard_normal((50, 4))
        ps = make_patch_set(y)
        weights = np.ones((1, 50))
        model = m_step(ps, weights, 0.0)
        np.testing.assert_allclose(model.alphas, [1.0])
        np.testing.assert_allclose(
            model.covariances[0], y.T @ y / 50, atol=1e-12
        )

    def test_pure_noise_covariance_thresholded_near_zero(self):
        rng = np.random.default_rng(5)
        sigma2 = 0.25
        y = rng.standard_normal((10_000, 4)) * np.sqrt(sigma2)
        ps = make_patch_set(y)
        model = m_step(ps, np.ones((1, 10_000)), sigma2)
        assert np.linalg.norm(model.covariances[0]) <= 0.1 * sigma2 * 4

    def test_uniform_weights_give_equal_covariances(self):
        rng = np.random.default_rng(6)
        y = rng.standard_normal((30, 4))
        ps = make_patch_set(y)
        model = m_step(ps, np.full((2, 30), 0.5), 0.1)
        np.testing.assert_allclose(
            model.covariances[0], model.covariances[1], atol=1e-12
        )

    def test_empty_component_rescued(self, caplog):
        rng = np.random.default_rng(7)
        y = rng.standard_normal((20, 4))
        ps = make_patch_set(y)
        beta = np.zeros((2, 20))
        beta[0] = 1.0
        with caplog.at_level(logging.WARNING):
            model = m_step(ps, beta, 0.0)
        assert any("reinitializing" in r.message for r in caplog.records)
        assert model.n_components == 2
        assert np.all(model.alphas > 0)
        np.testing.assert_allclose(model.alphas.sum(), 1.0)

    @pytest.mark.parametrize(
        "case,error",
        [("1-d", DimensionError), ("nan", ConfigError), ("off-simplex", ConfigError)],
    )
    def test_rejects_malformed_weights(self, case, error):
        # these once leaked IndexError and LinAlgError, and beta = 2 everywhere
        # silently halved the covariance
        y = np.random.default_rng(9).standard_normal((9, 4))
        beta = {
            "1-d": np.ones(9),
            "nan": np.full((2, 9), np.nan),
            "off-simplex": np.full((1, 9), 2.0),
        }[case]
        with pytest.raises(error):
            m_step(make_patch_set(y), beta, 0.1)

    def test_m_step_covariances_eigt_idempotent(self):
        rng = np.random.default_rng(8)
        y = rng.standard_normal((40, 4))
        beta = rng.dirichlet(np.ones(3), size=40).T
        model = m_step(make_patch_set(y), beta, 0.3)
        for cov in model.covariances:
            np.testing.assert_allclose(eigt(cov)[0], cov, atol=1e-11)


    @pytest.mark.parametrize("n", [_CHUNK - 1, _CHUNK, _CHUNK + 1])
    def test_batched_second_moments_match_per_component(self, n):
        rng = np.random.default_rng(n)
        y = rng.standard_normal((n, 9))
        beta = rng.dirichlet(np.ones(4), size=n).T
        got = _weighted_second_moments(make_patch_set(y), beta)
        for j in range(4):
            expected = (y.T * beta[j]) @ y
            scale = np.abs(expected).max()
            np.testing.assert_allclose(got[j], expected, rtol=0, atol=1e-12 * scale)

    def test_most_patches_but_least_energy_is_summed_directly(self):
        # component 0 claims most patches, but they are small: component 1
        # holds the largest energy and is the one left to Y^T Y minus the rest
        rng = np.random.default_rng(31)
        n, few = _CHUNK + 1, 20
        y = rng.standard_normal((n, 9))
        y[few:] *= 1e-3
        beta = np.zeros((3, n))
        beta[1:, :few] = rng.dirichlet([20.0, 1.0], size=few).T
        beta[:, few:] = rng.dirichlet([20.0, 1.0, 1.0], size=n - few).T
        patch_set = make_patch_set(y)
        assert np.argmax(beta.sum(axis=1)) == 0
        assert np.argmax(beta @ patch_set.squared_norms) == 1
        got = _weighted_second_moments(patch_set, beta)
        for j in range(3):
            expected = (y.T * beta[j]) @ y
            scale = np.abs(expected).max()
            np.testing.assert_allclose(got[j], expected, rtol=0, atol=1e-12 * scale)

    def test_single_component_is_the_gram_matrix(self):
        rng = np.random.default_rng(32)
        y = rng.standard_normal((_CHUNK + 1, 9))
        patch_set = make_patch_set(y)
        got = _weighted_second_moments(patch_set, np.ones((1, y.shape[0])))
        np.testing.assert_array_equal(got[0], patch_set.gram)
        expected = y.T @ y
        np.testing.assert_allclose(
            got[0], expected, rtol=0, atol=1e-12 * np.abs(expected).max()
        )

    def test_live_moments_beside_a_reseeded_component(self):
        rng = np.random.default_rng(33)
        n, sigma2 = _CHUNK + 1, 0.1
        y = rng.standard_normal((n, 4))
        beta = np.zeros((3, n))
        beta[1:] = rng.dirichlet([1.0, 3.0], size=n).T  # component 0 is dead
        patch_set = make_patch_set(y)
        got = _weighted_second_moments(patch_set, beta)
        for j in range(3):
            expected = (y.T * beta[j]) @ y
            scale = max(np.abs(expected).max(), 1.0)
            np.testing.assert_allclose(got[j], expected, rtol=0, atol=1e-12 * scale)
        model = m_step(patch_set, beta, sigma2)
        for j in (1, 2):
            live = (y.T * beta[j]) @ y / beta[j].sum() - sigma2 * np.eye(4)
            np.testing.assert_allclose(
                model.covariances[j], eigt(live)[0], rtol=0,
                atol=1e-12 * np.abs(live).max(),
            )
        # the dead component is re-seeded, not left empty
        assert np.trace(model.covariances[0]) > 0
        assert model.alphas[0] > 0

    def test_rescued_component_is_seeded_from_the_least_claimed_patch(self):
        rng = np.random.default_rng(25)
        y = rng.standard_normal((_CHUNK + 1, 4))
        beta = np.zeros((3, y.shape[0]))
        beta[0, ::2] = 1.0
        beta[2, 1::2] = 1.0
        sigma2 = 0.1
        model = m_step(make_patch_set(y), beta, sigma2)
        live = y[::2].T @ y[::2] / y[::2].shape[0]
        np.testing.assert_allclose(
            model.covariances[0], eigt(live - sigma2 * np.eye(4))[0], atol=1e-12
        )
        # every patch is fully claimed: the tie goes to the largest norm
        worst = np.argmax(np.einsum("ij,ij->i", y, y))
        seed = np.outer(y[worst], y[worst])
        seed += (np.trace(seed) / 4 * 1e-6 + 1e-12) * np.eye(4)
        np.testing.assert_allclose(
            model.covariances[1], eigt(seed - sigma2 * np.eye(4))[0], atol=1e-12
        )
        assert model.alphas[1] > 0
        np.testing.assert_allclose(model.alphas.sum(), 1.0)


class TestCarriedSpectrum:
    @staticmethod
    def count_eigh(monkeypatch):
        calls = []
        eigh = np.linalg.eigh

        def counting(a, *args, **kwargs):
            calls.append(np.shape(a))
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting)
        return calls

    @pytest.mark.parametrize("k", [2, 5])
    def test_one_eigh_per_m_step_plus_one(self, monkeypatch, k):
        rng = np.random.default_rng(26)
        ps = make_patch_set(low_rank_patches(rng, 120, 9, 4, 0.02))
        m_steps = []
        real_m_step = gmm.m_step

        def counting_m_step(*args):
            m_steps.append(1)
            return real_m_step(*args)

        monkeypatch.setattr(gmm, "m_step", counting_m_step)
        eighs = self.count_eigh(monkeypatch)
        model, _, _ = train_em(
            ps, EmConfig(n_components=k, noise_variance=0.02, max_iters=6, seed=0)
        )
        assert len(m_steps) >= 1
        assert len(eighs) == 1 + len(m_steps)
        assert all(shape == (k, 9, 9) for shape in eighs)
        component_filters(model, 0.1)
        assert len(eighs) == 1 + len(m_steps)

    def test_hand_built_model_factors_once(self, monkeypatch):
        rng = np.random.default_rng(27)
        model = random_model(rng, 4, 4)
        ps = make_patch_set(rng.standard_normal((10, 4)))
        eighs = self.count_eigh(monkeypatch)
        posterior(ps, model, 0.1)
        posterior(ps, model, 0.1)
        component_filters(model, 0.1)
        assert eighs == [(4, 4, 4)]


class TestTrainEm:
    def test_single_gaussian_recovery(self):
        rng = np.random.default_rng(9)
        root = rng.standard_normal((4, 4)) * 0.7
        true_cov = root @ root.T
        y = rng.multivariate_normal(np.zeros(4), true_cov, size=800)
        ps = make_patch_set(y)
        model, beta, _ = train_em(
            ps, EmConfig(n_components=1, noise_variance=0.0, max_iters=20, seed=0)
        )
        sample_moment = y.T @ y / y.shape[0]
        err = np.linalg.norm(model.covariances[0] - sample_moment)
        assert err <= 0.1 * np.linalg.norm(sample_moment)
        np.testing.assert_allclose(beta, 1.0)

    def test_two_separated_clusters_recovered(self):
        rng = np.random.default_rng(10)
        big = rng.standard_normal((150, 4)) * 1.0
        small = rng.standard_normal((150, 4)) * 0.1
        y = np.vstack([big, small])
        labels = np.repeat([0, 1], 150)
        ps = make_patch_set(y)
        model, beta, _ = train_em(
            ps, EmConfig(n_components=2, noise_variance=0.0, max_iters=40, seed=1)
        )
        hard = beta.argmax(axis=0)
        accuracy = max(np.mean(hard == labels), np.mean(hard == 1 - labels))
        assert accuracy >= 0.95

    def test_loglik_nondecreasing_within_slack(self):
        rng = np.random.default_rng(11)
        y = np.vstack(
            [rng.standard_normal((100, 9)), 0.2 * rng.standard_normal((100, 9))]
        )
        ps = make_patch_set(y)
        _, _, trace = train_em(
            ps,
            EmConfig(
                n_components=3,
                noise_variance=0.01,
                max_iters=50,
                loglik_rel_tol=1e-12,
                seed=2,
            ),
        )
        assert len(trace) > 3
        for prev, cur in zip(trace, trace[1:]):
            assert cur >= prev - 1e-8 * abs(prev)

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(12)
        y = rng.standard_normal((60, 4))
        ps = make_patch_set(y)
        cfg = EmConfig(n_components=3, noise_variance=0.05, max_iters=10, seed=5)
        m1, b1, t1 = train_em(ps, cfg)
        m2, b2, t2 = train_em(ps, cfg)
        assert np.array_equal(m1.covariances, m2.covariances)
        assert np.array_equal(m1.alphas, m2.alphas)
        assert np.array_equal(b1, b2)
        assert t1 == t2

    def test_paper_operating_point_trains(self):
        # K = 20 components on 8x8 patches
        from pnpfusion.patches import extract_patches, remove_means
        from pnpfusion.scenes import smooth_field

        geom = ImageGeometry(32, 32)
        rng = np.random.default_rng(13)
        img = smooth_field(geom, rng) + 0.1 * rng.standard_normal(geom.n)
        ps = remove_means(extract_patches(img, geom, 8))
        model, beta, _ = train_em(
            ps, EmConfig(n_components=20, noise_variance=1e-4, max_iters=8, seed=0)
        )
        assert model.n_components == 20
        assert model.patch_dim == 64
        np.testing.assert_allclose(model.alphas.sum(), 1.0, atol=1e-12)
        assert beta.min() >= 0
        np.testing.assert_allclose(beta.sum(axis=0), 1.0, atol=1e-9)
        for cov in model.covariances:
            assert np.linalg.eigvalsh(cov).min() >= -1e-10

    def test_fewer_patches_than_components_raises(self):
        ps = make_patch_set(np.zeros((2, 4)))
        with pytest.raises(ConfigError):
            train_em(ps, EmConfig(n_components=3, noise_variance=0.0))

    def test_loglik_agrees_with_trace(self):
        rng = np.random.default_rng(14)
        y = rng.standard_normal((50, 4))
        ps = make_patch_set(y)
        cfg = EmConfig(n_components=2, noise_variance=0.1, max_iters=6, seed=3)
        model, beta, trace = train_em(ps, cfg)
        # trace entries are loglik values of successive models, ending with
        # the returned one after the budget of M-steps
        assert len(trace) == cfg.max_iters + 1
        assert float(posterior(ps, model, 0.1)[1].sum()) == trace[-1]
        assert float(posterior(ps, model, 0.1)[1].sum()) >= trace[0]
        np.testing.assert_array_equal(beta, posterior(ps, model, 0.1)[0])

    def test_patch_norms_and_gram_computed_once(self, monkeypatch):
        calls = []
        for name in ("squared_norms", "gram"):
            prop = PatchSet.__dict__[name]

            def counting(patch_set, compute=prop.func, name=name):
                calls.append(name)
                return compute(patch_set)

            monkeypatch.setattr(prop, "func", counting)
        y = np.random.default_rng(34).standard_normal((_CHUNK + 1, 4))
        cfg = EmConfig(
            n_components=3, noise_variance=0.1, max_iters=5, loglik_rel_tol=1e-12
        )
        _, _, trace = train_em(make_patch_set(y), cfg)
        assert len(trace) == cfg.max_iters + 1
        assert sorted(calls) == ["gram", "squared_norms"]



@pytest.mark.parametrize(
    "field", ["noise_variance", "loglik_rel_tol", "n_components", "max_iters"]
)
def test_em_config_rejects_nan(field):
    settings_ = {"n_components": 2, "noise_variance": 0.1, field: float("nan")}
    with pytest.raises(ConfigError):
        EmConfig(**settings_)


@pytest.mark.parametrize("field", ["noise_variance", "loglik_rel_tol"])
def test_em_config_rejects_inf(field):
    # an infinite loglik_rel_tol once stopped EM after one M-step
    settings_ = {"n_components": 2, "noise_variance": 0.1, field: float("inf")}
    with pytest.raises(ConfigError):
        EmConfig(**settings_)


def test_em_config_rejects_fractional_components():
    with pytest.raises(ConfigError):
        EmConfig(n_components=2.5, noise_variance=0.1)


def test_train_em_rejects_non_finite_patches():
    geom = ImageGeometry(4, 4)
    patches = np.random.default_rng(0).standard_normal((geom.n, 4))
    patches[3, 1] = np.nan
    with pytest.raises(ConfigError):
        train_em(PatchSet(patches, 2, geom), EmConfig(2, noise_variance=0.1))


@pytest.mark.parametrize("noise_variance", [np.nan, np.inf, -0.1])
@pytest.mark.parametrize("step", ["posterior", "m_step"])
def test_e_and_m_steps_reject_bad_noise_variance(step, noise_variance):
    # posterior once returned NaN responsibilities and m_step leaked LinAlgError
    rng = np.random.default_rng(10)
    patches = make_patch_set(rng.standard_normal((9, 4)))
    with pytest.raises(ConfigError):
        if step == "posterior":
            posterior(patches, random_model(rng, 2, 4), noise_variance)
        else:
            m_step(patches, np.full((2, 9), 0.5), noise_variance)


@pytest.mark.parametrize(
    "alphas,covariances,patch_side",
    [
        # side 2 with 3x3 covariances once mapped a constant image 1 to 1.505
        ([1.0], np.eye(9)[None], 2),
        # side 3 with 2x2 covariances once leaked IndexError from the stencil
        ([1.0], np.eye(4)[None], 3),
        ([0.5, 0.5], np.eye(4)[None], 2),
        ([[1.0]], np.eye(4)[None], 2),
    ],
    ids=["3x3 at side 2", "2x2 at side 3", "K mismatch", "2-d alphas"],
)
def test_gmm_model_rejects_shapes_its_patch_side_lacks(alphas, covariances, patch_side):
    with pytest.raises(DimensionError):
        GmmModel(alphas=alphas, covariances=covariances, patch_side=patch_side)


def test_train_em_rejects_patches_wider_than_their_side():
    # 9-pixel rows labelled as side-2 patches: the initial model is refused
    rows = np.random.default_rng(11).standard_normal((16, 9))
    with pytest.raises(DimensionError):
        train_em(PatchSet(rows, 2, ImageGeometry(4, 4)), EmConfig(2, noise_variance=0.1))


def test_gmm_model_rejects_an_empty_mixture():
    with pytest.raises(ConfigError):
        GmmModel(alphas=np.zeros(0), covariances=np.zeros((0, 4, 4)), patch_side=2)


def test_gmm_model_rejects_a_negative_patch_side():
    # side -2 squares to the 4 of 2x2 covariances, so the shape check passed
    with pytest.raises(ConfigError):
        GmmModel(alphas=[1.0], covariances=np.eye(4)[None], patch_side=-2)


def test_m_step_rejects_zero_patches():
    # once leaked numpy's "zero-size array to reduction operation" ValueError
    patches = PatchSet(np.zeros((0, 4)), 2, ImageGeometry(2, 2))
    with pytest.raises(DimensionError):
        m_step(patches, np.zeros((2, 0)), 0.1)


def test_posterior_on_an_empty_mixture_raises_a_typed_error():
    # the K = 0 model was accepted, and posterior leaked numpy's ValueError
    patches = make_patch_set(np.random.default_rng(12).standard_normal((9, 4)))
    with pytest.raises(PnpError):
        posterior(
            patches,
            GmmModel(alphas=np.zeros(0), covariances=np.zeros((0, 4, 4)), patch_side=2),
            0.1,
        )


def two_scale_model(rng, ratio, noise_variance):
    """Two rank-8 components in 16 dimensions: component 0 with max(v)/s_j
    equal to ``ratio``, component 1 with 1 + 1e-2 / noise_variance."""
    covariances = []
    for top in (ratio - 1.0, 1e-2 / noise_variance):
        q = np.linalg.qr(rng.standard_normal((16, 16)))[0]
        lam = np.zeros(16)
        lam[:8] = noise_variance * top * np.logspace(0, -3, 8)
        covariances.append((q * lam) @ q.T)
    return GmmModel(
        alphas=np.array([0.5, 0.5]), covariances=np.stack(covariances), patch_side=4
    )


class TestMixedPrecisionEm:
    sigma2 = 0.02

    def patch_set(self):
        rng = np.random.default_rng(40)
        return make_patch_set(low_rank_patches(rng, _CHUNK + 44, 9, 4, self.sigma2))

    def config(self, max_iters, tol=1e-12):
        return EmConfig(
            n_components=3,
            noise_variance=self.sigma2,
            max_iters=max_iters,
            loglik_rel_tol=tol,
            seed=1,
        )

    def test_returns_float64(self):
        model, beta, trace = train_em(self.patch_set(), self.config(10))
        arrays = (model.alphas, model.covariances, *model.spectrum, beta)
        assert all(a.dtype == np.float64 for a in arrays)
        assert all(type(value) is float for value in trace)

    @pytest.mark.parametrize("stop", ["budget", "tolerance"])
    def test_ends_on_float64_posterior(self, stop):
        ps = self.patch_set()
        cfg = self.config(10) if stop == "budget" else self.config(40, tol=1e-4)
        model, beta, trace = train_em(ps, cfg)
        if stop == "budget":
            assert len(trace) == cfg.max_iters + 1
        else:  # the stall came during the float32 phase
            assert len(trace) - 1 < cfg.max_iters - gmm._F64_FINISH
        want_beta, col_logsum = posterior(ps, model, self.sigma2)
        assert trace[-1] == float(col_logsum.sum())
        np.testing.assert_array_equal(beta, want_beta)

    @pytest.mark.parametrize("max_iters", range(1, gmm._F64_FINISH + 1))
    def test_short_budget_is_the_float64_loop(self, max_iters):
        ps, cfg = self.patch_set(), self.config(max_iters)
        model, trace = gmm._init_model(ps, cfg), []
        for m_steps in range(max_iters + 1):
            beta, col_logsum = posterior(ps, model, self.sigma2)
            trace.append(float(col_logsum.sum()))
            if m_steps == max_iters:
                break
            model = m_step(ps, beta, self.sigma2)
        got_model, got_beta, got_trace = train_em(ps, cfg)
        np.testing.assert_array_equal(got_model.alphas, model.alphas)
        np.testing.assert_array_equal(got_model.covariances, model.covariances)
        np.testing.assert_array_equal(got_beta, beta)
        assert got_trace == trace

    def test_float32_stall_refuted_in_float64_goes_on_in_float64(self, monkeypatch):
        # every float32 E-step reports the same log-likelihood, so the second
        # one looks stalled; the float64 check refutes it
        real = gmm._component_log_densities
        in32 = []

        def constant_in_float32(patches, model, noise_variance, rows32=None):
            in32.append(rows32 is not None)
            if rows32 is not None:
                return np.zeros((model.n_components, patches.count))
            return real(patches, model, noise_variance)

        monkeypatch.setattr(gmm, "_component_log_densities", constant_in_float32)
        ps, cfg = self.patch_set(), self.config(8)
        model, beta, trace = train_em(ps, cfg)
        assert in32 == [True, True] + [False] * (len(in32) - 2)
        assert len(trace) == cfg.max_iters + 1
        # the second entry is the float64 value, not the stalled float32 one
        assert trace[0] == pytest.approx(ps.count * np.log(3))
        assert trace[1] != pytest.approx(trace[0])
        monkeypatch.undo()
        assert trace[-1] == float(posterior(ps, model, self.sigma2)[1].sum())

    def test_float32_m_step_is_close_to_float64(self):
        ps = self.patch_set()
        beta = posterior(ps, train_em(ps, self.config(3))[0], self.sigma2)[0]
        want = m_step(ps, beta, self.sigma2).covariances
        got = m_step(gmm._float32_patches(ps), beta, self.sigma2).covariances
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-6 * np.abs(want).max())

    def test_large_ratio_component_is_projected_in_float64(self):
        # the rank-restricted form loses log10(max v / s_j) digits, all of
        # float32's at 1e5; the other component is projected in float32
        rng = np.random.default_rng(41)
        sigma2 = 1e-5
        model = two_scale_model(rng, 1e5, sigma2)
        lam = model.spectrum[0]
        ratios = (lam.max(axis=1) + sigma2) / sigma2
        assert ratios[0] > 1e4 > ratios[1]
        y = rng.multivariate_normal(np.zeros(16), model.covariances[0], size=300)
        y += np.sqrt(sigma2) * rng.standard_normal(y.shape)
        ps = make_patch_set(y)
        want = _component_log_densities(ps, model, sigma2)
        got = _component_log_densities(ps, model, sigma2, y.astype(np.float32))
        np.testing.assert_allclose(got[0], want[0], rtol=1e-6)
        assert not np.array_equal(got[1], want[1])


@pytest.mark.parametrize(
    "alphas,bad_covariance",
    [
        pytest.param([np.nan, 1.0], False, id="nan-weight"),
        pytest.param([-0.5, 1.5], False, id="negative-weight"),
        pytest.param([np.inf, 1.0], False, id="inf-weight"),
        pytest.param([0.5, 0.5], True, id="nan-covariance"),
    ],
)
def test_gmm_model_rejects_non_finite_or_negative_values(alphas, bad_covariance):
    # posterior once returned non-finite beta for each of these models
    covariances = np.stack([np.eye(16), 2 * np.eye(16)])
    if bad_covariance:
        covariances[1, 3, 5] = np.nan
    with pytest.raises(ConfigError):
        GmmModel(alphas=np.array(alphas), covariances=covariances, patch_side=4)


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("step", ["posterior", "m_step", "train_em"])
def test_e_and_m_steps_reject_non_finite_patches(step, value):
    # posterior once returned non-finite beta and m_step leaked LinAlgError
    rng = np.random.default_rng(13)
    rows = rng.standard_normal((9, 4))
    rows[4, 2] = value
    patches = make_patch_set(rows)
    with pytest.raises(ConfigError, match="patches must be finite"):
        if step == "posterior":
            posterior(patches, random_model(rng, 2, 4), 0.1)
        elif step == "m_step":
            m_step(patches, np.full((2, 9), 0.5), 0.1)
        else:
            train_em(patches, EmConfig(2, noise_variance=0.1))


def test_the_finite_patch_check_reads_only_the_cached_norms():
    # EM calls it in every M-step, so it must cost O(N), not scan the
    # (N, n_p) rows: a row changed after its norm was cached goes unseen
    patches = make_patch_set(np.random.default_rng(14).standard_normal((9, 4)))
    assert np.all(np.isfinite(patches.squared_norms))  # fills the cache
    patches.patches[4, 2] = np.nan
    gmm.check_finite_patches(patches)
