import importlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pnpfusion.admm import preconditioner_symbol
from pnpfusion.errors import ConfigError, DimensionError
from pnpfusion.fftops import (
    CyclicBlur,
    apply_blur,
    blur_rows,
    solve_x_update_hs,
    solve_x_update_pair,
    symbol_products,
)
from pnpfusion.patches import ImageGeometry
from pnpfusion.scenes import make_kernel

fftops = importlib.import_module("pnpfusion.fftops")


def dense_blur_matrix_oracle(psf, geometry):
    """Independent circulant construction by explicit index arithmetic.

    Column p holds the kernel centered at pixel p with periodic wrapping,
    matching the centered-delta convention.
    """
    h, w = geometry.height, geometry.width
    kh, kw = psf.shape
    ch, cw = kh // 2, kw // 2
    n = h * w
    b = np.zeros((n, n))
    for pc in range(w):
        for pr in range(h):
            p = pc * h + pr
            for a in range(kh):
                for bb in range(kw):
                    rq = (pr + a - ch) % h
                    cq = (pc + bb - cw) % w
                    b[cq * h + rq, p] += psf[a, bb]
    return b


def random_kernel(rng, kh, kw):
    k = rng.uniform(0.1, 1.0, size=(kh, kw))
    return k / k.sum()


class TestApplyBlur:
    def test_delta_kernel_is_identity(self):
        geom = ImageGeometry(5, 4)
        blur = CyclicBlur(np.ones((1, 1)), geom)
        rng = np.random.default_rng(0)
        x = rng.standard_normal(geom.n)
        np.testing.assert_allclose(apply_blur(x, blur), x, atol=1e-12)

    def test_box_blur_of_delta_is_wrapped_box(self):
        geom = ImageGeometry(4, 4)
        kernel = np.full((3, 3), 1.0 / 9.0)
        blur = CyclicBlur(kernel, geom)
        delta = np.zeros(geom.n)
        delta[0] = 1.0  # pixel (0, 0)
        out = geom.to_grid(apply_blur(delta, blur))
        expected = np.zeros((4, 4))
        for dr in (-1, 0, 1):
            for dc in (-1, 0, 1):
                expected[dr % 4, dc % 4] += 1.0 / 9.0
        np.testing.assert_allclose(out, expected, atol=1e-12)

    @pytest.mark.parametrize(
        "grid, extent",
        [
            ((7, 7), (3, 3)),
            ((3, 12), (3, 3)),
            ((3, 12), (2, 4)),
            ((3, 12), (1, 4)),
            ((12, 3), (3, 3)),
            ((12, 3), (4, 2)),
        ],
        ids=lambda shape: "x".join(map(str, shape)),
    )
    def test_centered_delta_reproduces_centered_kernel(self, grid, extent):
        # every blur lives on its own grid: a transfer built for another grid
        # once blurred a 3x12 image wrongly, and raised nothing
        geom = ImageGeometry(*grid)
        kernel = random_kernel(np.random.default_rng(1), *extent)
        blur = CyclicBlur(kernel, geom)
        assert blur.transfer.shape == grid
        (r, c), (kh, kw) = (grid[0] // 2, grid[1] // 2), extent
        delta = np.zeros(grid)
        delta[r, c] = 1.0
        expected = np.zeros(grid)
        top, left = r - kh // 2, c - kw // 2
        expected[top : top + kh, left : left + kw] = kernel
        out = geom.to_grid(apply_blur(geom.from_grid(delta), blur))
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_adjoint_inner_product(self):
        geom = ImageGeometry(6, 5)
        rng = np.random.default_rng(2)
        blur = CyclicBlur(random_kernel(rng, 3, 4), geom)
        for _ in range(5):
            x = rng.standard_normal(geom.n)
            y = rng.standard_normal(geom.n)
            lhs = apply_blur(x, blur) @ y
            rhs = x @ apply_blur(y, blur, adjoint=True)
            np.testing.assert_allclose(lhs, rhs, rtol=1e-10)

    def test_matches_dense_oracle(self):
        geom = ImageGeometry(5, 6)
        rng = np.random.default_rng(3)
        kernel = random_kernel(rng, 3, 3)
        blur = CyclicBlur(kernel, geom)
        b = dense_blur_matrix_oracle(kernel, geom)
        x = rng.standard_normal(geom.n)
        np.testing.assert_allclose(apply_blur(x, blur), b @ x, atol=1e-10)
        np.testing.assert_allclose(
            apply_blur(x, blur, adjoint=True), b.T @ x, atol=1e-10
        )

    def test_blur_rows_matches_per_row(self):
        geom = ImageGeometry(4, 5)
        rng = np.random.default_rng(4)
        blur = CyclicBlur(random_kernel(rng, 2, 3), geom)
        x = rng.standard_normal((3, geom.n))
        out = blur_rows(x, blur)
        for i in range(3):
            np.testing.assert_allclose(out[i], apply_blur(x[i], blur), atol=1e-12)

    def test_parseval_energy(self):
        geom = ImageGeometry(8, 8)
        rng = np.random.default_rng(5)
        blur = CyclicBlur(random_kernel(rng, 3, 3), geom)
        x = rng.standard_normal(geom.n)
        bx = apply_blur(x, blur)
        xhat = np.fft.fft2(geom.to_grid(x))
        energy = np.sum(np.abs(blur.transfer * xhat) ** 2) / geom.n
        np.testing.assert_allclose(np.sum(bx**2), energy, rtol=1e-10)

    @pytest.mark.parametrize(
        "grid, extent",
        [((2, 5), (3, 3)), ((3, 12), (4, 1))],
        ids=lambda shape: "x".join(map(str, shape)),
    )
    def test_kernel_larger_than_image_raises(self, grid, extent):
        with pytest.raises(DimensionError):
            CyclicBlur(np.ones(extent) / np.prod(extent), ImageGeometry(*grid))

    @pytest.mark.parametrize("shape", [(0, 0), (0, 3), (3, 0)])
    def test_kernel_with_a_zero_extent_raises(self, shape):
        # once accepted, giving an all-zero transfer
        with pytest.raises(DimensionError):
            CyclicBlur(np.zeros(shape), ImageGeometry(4, 4))

    def test_nan_kernel_raises(self):
        psf = np.ones((3, 3)) / 9
        psf[1, 2] = np.nan
        with pytest.raises(ConfigError):
            CyclicBlur(psf, ImageGeometry(4, 4))


GEOMETRIES = [(2, 2), (3, 3), (4, 4), (5, 7), (7, 5), (8, 8), (16, 16), (16, 9), (1, 8)]


class TestSymbolProducts:
    @pytest.mark.parametrize("shape", GEOMETRIES)
    def test_matches_the_dense_circulants(self, shape):
        # B^T B + c I has the real, even symbol |b_hat|^2 + c; the random,
        # non-symmetric kernel's B and B^T have the complex, Hermitian symbols
        # b_hat and conj(b_hat)
        geom = ImageGeometry(*shape)
        rng = np.random.default_rng(shape[0] * 10 + shape[1])
        kernel = random_kernel(rng, min(3, geom.height), min(3, geom.width))
        transfer = CyclicBlur(kernel, geom).transfer
        power = CyclicBlur(kernel, geom).power_spectrum
        b = dense_blur_matrix_oracle(kernel, geom)
        x = rng.standard_normal(geom.n)
        np.testing.assert_allclose(symbol_products(x, transfer), b @ x, atol=1e-12)
        np.testing.assert_allclose(
            symbol_products(x, np.conj(transfer)), b.T @ x, atol=1e-12
        )
        normal = b.T @ b
        np.testing.assert_allclose(symbol_products(x, power), normal @ x, atol=1e-12)
        both = symbol_products(x, np.stack([power + 0.5, 1 / (power + 0.5)]))
        assert both.shape == (2, geom.n)
        np.testing.assert_allclose(both[0], normal @ x + 0.5 * x, atol=1e-12)
        np.testing.assert_allclose(
            both[1], np.linalg.solve(normal + 0.5 * np.eye(geom.n), x), atol=1e-10
        )

    def test_stack_meets_its_own_symbols(self):
        geom = ImageGeometry(5, 6)
        rng = np.random.default_rng(8)
        power = CyclicBlur(random_kernel(rng, 3, 3), geom).power_spectrum
        symbols = np.stack([power + 0.1, 2 * power, power**2])
        bands = rng.standard_normal((3, geom.n))
        got = symbol_products(bands, symbols)
        for band, symbol, row in zip(bands, symbols, got):
            np.testing.assert_array_equal(row, symbol_products(band, symbol))

    def test_refuses_a_symbol_that_is_not_hermitian(self):
        # only the half that rfft2 covers is read: this real, uneven symbol
        # once gave a band 0.99 from the circulant product's real part; a
        # transfer and its conjugate pass in test_matches_the_dense_circulants
        symbol = np.random.default_rng(0).standard_normal((4, 4)) + 0j
        with pytest.raises(ConfigError, match="Hermitian"):
            symbol_products(np.ones(16), symbol)

    def test_the_preconditioner_symbols_are_hermitian(self, small_denoiser):
        # built as solve_hs builds them: one rotated band per data weight,
        # one stack of bands per component
        power = CyclicBlur(make_kernel("box9"), small_denoiser.geometry).power_spectrum
        normal = power + np.array([0.05, 0.4])[:, None, None]
        symbols = small_denoiser.component_circulants[0]
        inverse = preconditioner_symbol(normal, symbols[:, None], 0.02)
        bands = np.ones((2, small_denoiser.geometry.n))
        np.testing.assert_allclose(
            symbol_products(bands, inverse), bands * inverse[..., :1, 0], rtol=1e-12
        )

    @pytest.mark.parametrize("group_bytes", [1, 3 * 2 * 6 * 4 * 16, 1 << 20])
    def test_a_mixture_sums_its_circulants_in_any_grouping(
        self, monkeypatch, group_bytes
    ):
        # one component per group, three (the last group holds two) and all
        # five: each group's spectra join the same frequency-domain sum
        geometry = ImageGeometry(6, 7)  # 6 x 4 half spectra per band
        rng = np.random.default_rng(8)
        band = rng.standard_normal((2, geometry.n))
        weights = rng.dirichlet(np.ones(5), size=geometry.n).T
        kernels = rng.standard_normal((5, 2, 6, 7))
        symbols = np.abs(np.fft.fft2(kernels)) ** 2  # real and even
        expected = sum(symbol_products(w * band, s) for w, s in zip(weights, symbols))
        monkeypatch.setattr(fftops, "_GROUP_BYTES", group_bytes)
        np.testing.assert_allclose(
            fftops._mixture_products(band, weights, symbols), expected,
            rtol=0, atol=1e-12,
        )

    @pytest.mark.parametrize("symbols", [np.ones(8), np.float64(1.0)])
    def test_symbols_below_two_dimensions_raise(self, symbols):
        # a 1-D stack once leaked TypeError from ImageGeometry(*shape[-2:])
        with pytest.raises(DimensionError):
            symbol_products(np.ones(8), symbols)


class TestSpectralSolves:
    @pytest.mark.parametrize("shape", GEOMETRIES)
    def test_hs_solve_matches_dense(self, shape):
        geom = ImageGeometry(*shape)
        rng = np.random.default_rng(shape[0] * 100 + shape[1])
        kh = min(3, geom.height)
        kw = min(3, geom.width)
        kernel = random_kernel(rng, kh, kw)
        blur = CyclicBlur(kernel, geom)
        b = dense_blur_matrix_oracle(kernel, geom)
        rhs = rng.standard_normal((2, geom.n))
        out = solve_x_update_hs(rhs, blur)
        # rows transform with B, so right-multiplication uses B^T:
        # X (B B^T + 2I) = rhs with row convention -> dense (B B^T + 2I)^T acting
        # on row vectors; build it explicitly from the row-action matrices.
        b_row = b.T  # right-multiplying a row by "B" applies b to the row
        normal = b_row @ b_row.T + 2 * np.eye(geom.n)
        expected = np.linalg.solve(normal.T, rhs.T).T
        np.testing.assert_allclose(out, expected, rtol=1e-9, atol=1e-11)
        # residual check through the operator itself
        back = blur_rows(blur_rows(out, blur), blur, adjoint=True) + 2 * out
        np.testing.assert_allclose(back, rhs, rtol=1e-9, atol=1e-11)

    def test_hs_solve_delta_kernel(self):
        geom = ImageGeometry(4, 4)
        blur = CyclicBlur(np.ones((1, 1)), geom)
        rng = np.random.default_rng(6)
        rhs = rng.standard_normal((3, geom.n))
        np.testing.assert_allclose(solve_x_update_hs(rhs, blur), rhs / 3.0, atol=1e-12)

    @pytest.mark.parametrize("shape", GEOMETRIES)
    def test_pair_solve_matches_dense(self, shape):
        geom = ImageGeometry(*shape)
        rng = np.random.default_rng(shape[0] * 7 + shape[1])
        kernel = random_kernel(rng, min(3, geom.height), min(2, geom.width))
        blur = CyclicBlur(kernel, geom)
        b = dense_blur_matrix_oracle(kernel, geom)
        lam, rho = 0.4, 0.9
        rhs = rng.standard_normal(geom.n)
        out = solve_x_update_pair(rhs, blur, lam, rho)
        expected = np.linalg.solve(b.T @ b + (lam + rho) * np.eye(geom.n), rhs)
        np.testing.assert_allclose(out, expected, rtol=1e-9, atol=1e-11)
        residual = (
            apply_blur(apply_blur(out, blur), blur, adjoint=True)
            + (lam + rho) * out
        )
        np.testing.assert_allclose(residual, rhs, rtol=1e-9, atol=1e-11)

    def test_pair_solve_delta_lambda_zero(self):
        geom = ImageGeometry(3, 3)
        blur = CyclicBlur(np.ones((1, 1)), geom)
        rhs = np.arange(9.0)
        np.testing.assert_allclose(
            solve_x_update_pair(rhs, blur, 0.0, 0.5), rhs / 1.5, atol=1e-12
        )

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 1000))
    def test_btb_equals_bbt_spectrum(self, seed):
        # B^T B and B B^T share the power spectrum for cyclic B
        geom = ImageGeometry(4, 4)
        rng = np.random.default_rng(seed)
        blur = CyclicBlur(random_kernel(rng, 3, 3), geom)
        x = rng.standard_normal(geom.n)
        ab = apply_blur(apply_blur(x, blur), blur, adjoint=True)
        ba = apply_blur(apply_blur(x, blur, adjoint=True), blur)
        np.testing.assert_allclose(ab, ba, atol=1e-10)



ONE_BAND_OPERATORS = {
    "blur": lambda x, blur: blur_rows(x, blur),
    "adjoint": lambda x, blur: blur_rows(x, blur, adjoint=True),
    "hs_solve": solve_x_update_hs,
    "pair_solve": lambda x, blur: solve_x_update_pair(x, blur, 0.4, 0.9),
}


@pytest.mark.parametrize("shape", [(5, 7), (1, 8)])
@pytest.mark.parametrize("name", ONE_BAND_OPERATORS)
def test_one_band_equals_one_row_stack(name, shape):
    geom = ImageGeometry(*shape)
    rng = np.random.default_rng(8)
    blur = CyclicBlur(random_kernel(rng, 1, min(3, geom.width)), geom)
    op = ONE_BAND_OPERATORS[name]
    band = rng.standard_normal(geom.n)
    out = op(band, blur)
    assert out.shape == (geom.n,)
    np.testing.assert_array_equal(out, op(band[None, :], blur)[0])


def test_stack_of_stacks_matches_rows():
    geom = ImageGeometry(4, 6)
    rng = np.random.default_rng(9)
    blur = CyclicBlur(random_kernel(rng, 3, 3), geom)
    x = rng.standard_normal((2, 3, geom.n))
    np.testing.assert_array_equal(
        blur_rows(x, blur), blur_rows(x.reshape(6, geom.n), blur).reshape(x.shape)
    )


def test_wrong_pixel_count_raises():
    geom = ImageGeometry(4, 4)
    blur = CyclicBlur(np.ones((1, 1)), geom)
    with pytest.raises(DimensionError):
        blur_rows(np.zeros((2, geom.n + 1)), blur)
    with pytest.raises(DimensionError):
        solve_x_update_hs(np.zeros(geom.n - 1), blur)


@pytest.mark.parametrize(
    "lam,rho",
    [
        (-0.1, 1.0),
        (0.0, 0.0),
        (float("nan"), 1.0),
        (0.0, float("nan")),
        (float("inf"), 1.0),
        (0.0, float("inf")),
    ],
)
def test_pair_solve_rejects_bad_weights(lam, rho):
    # an infinite lam or rho once returned all zeros
    geom = ImageGeometry(3, 3)
    blur = CyclicBlur(np.ones((1, 1)), geom)
    with pytest.raises(ConfigError):
        solve_x_update_pair(np.zeros(geom.n), blur, lam, rho)
