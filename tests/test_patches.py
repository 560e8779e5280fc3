import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pnpfusion.errors import DimensionError, StateError
from pnpfusion.patches import (
    ImageGeometry,
    PatchSet,
    assemble_patches,
    extract_patches,
    remove_means,
    restore_means,
)


def brute_force_patch_matrices(geometry, side):
    """Independent oracle: the binary extraction matrices P_i, built by
    looping over anchor and offset coordinates with modular arithmetic."""
    h, w = geometry.height, geometry.width
    n = h * w
    n_p = side * side
    mats = []
    for c in range(w):
        for r in range(h):
            p = np.zeros((n_p, n))
            for dc in range(side):
                for dr in range(side):
                    k = dc * side + dr
                    pixel = ((c + dc) % w) * h + (r + dr) % h
                    p[k, pixel] = 1.0
            mats.append(p)
    return mats


def test_one_by_one_patches_are_pixels():
    geom = ImageGeometry(3, 4)
    x = np.arange(geom.n, dtype=float)
    ps = extract_patches(x, geom, 1)
    assert ps.count == geom.n
    np.testing.assert_array_equal(ps.patches[:, 0], x)


def test_two_by_two_on_three_by_three_wraps():
    geom = ImageGeometry(3, 3)
    x = np.arange(9, dtype=float)
    ps = extract_patches(x, geom, 2)
    assert ps.count == 9
    # bottom-right anchor: pixel 8 = (row 2, col 2); patch covers
    # (2,2), (0,2), (2,0), (0,0) in column-major patch order
    np.testing.assert_array_equal(ps.patches[8], [8.0, 6.0, 2.0, 0.0])


@pytest.mark.parametrize("shape,side", [((4, 4), 2), ((3, 5), 3), ((5, 3), 2)])
def test_extraction_matches_brute_force_matrices(shape, side):
    geom = ImageGeometry(*shape)
    rng = np.random.default_rng(0)
    x = rng.standard_normal(geom.n)
    ps = extract_patches(x, geom, side)
    for i, p in enumerate(brute_force_patch_matrices(geom, side)):
        np.testing.assert_allclose(ps.patches[i], p @ x, atol=0)


def test_covering_count_is_np_identity():
    geom = ImageGeometry(4, 4)
    total = sum(p.T @ p for p in brute_force_patch_matrices(geom, 2))
    np.testing.assert_allclose(total, 4.0 * np.eye(16), atol=0)


@pytest.mark.parametrize("shape", [(3, 3), (4, 4), (8, 8)])
@pytest.mark.parametrize("side", [1, 2, 3])
def test_assemble_inverts_extract(shape, side):
    geom = ImageGeometry(*shape)
    rng = np.random.default_rng(shape[0] * 10 + side)
    x = rng.standard_normal(geom.n)
    back = assemble_patches(extract_patches(x, geom, side))
    np.testing.assert_allclose(back, x, rtol=1e-12, atol=1e-12)


def test_assemble_matches_brute_force_average():
    geom = ImageGeometry(4, 4)
    rng = np.random.default_rng(3)
    raw = rng.standard_normal((16, 4))
    ps = PatchSet(patches=raw, source_geometry=geom)
    mats = brute_force_patch_matrices(geom, 2)
    expected = sum(p.T @ raw[i] for i, p in enumerate(mats)) / 4.0
    np.testing.assert_allclose(assemble_patches(ps), expected, rtol=1e-13)


@pytest.mark.parametrize("width", [0, 5])
def test_rows_whose_width_is_not_a_square_raise(width):
    # the side is the root of the row width; 9-pixel rows labelled as side-2
    # patches were once accepted and refused only by EM's first model
    with pytest.raises(DimensionError):
        PatchSet(np.zeros((16, width)), ImageGeometry(4, 4))


def test_assemble_zero_is_zero():
    geom = ImageGeometry(5, 4)
    ps = PatchSet(patches=np.zeros((20, 4)), source_geometry=geom)
    assert not assemble_patches(ps).any()


@settings(max_examples=30, deadline=None)
@given(
    h=st.integers(2, 6),
    w=st.integers(2, 6),
    side=st.integers(1, 2),
    seed=st.integers(0, 1000),
)
def test_extract_assemble_linearity(h, w, side, seed):
    geom = ImageGeometry(h, w)
    rng = np.random.default_rng(seed)
    x, y = rng.standard_normal((2, geom.n))
    a, b = rng.standard_normal(2)
    combined = extract_patches(a * x + b * y, geom, side).patches
    separate = (
        a * extract_patches(x, geom, side).patches
        + b * extract_patches(y, geom, side).patches
    )
    np.testing.assert_allclose(combined, separate, rtol=1e-12, atol=1e-12)


def test_patch_side_too_large_raises():
    with pytest.raises(DimensionError):
        extract_patches(np.zeros(6), ImageGeometry(2, 3), 3)


def test_wrong_band_length_raises():
    # a wrong pixel count as a band, a stack or a grid, and a 3-D stack
    for shape in [(5,), (2, 5), (2, 3), (1, 2, 6)]:
        with pytest.raises(DimensionError):
            extract_patches(np.zeros(shape), ImageGeometry(2, 3), 1)


@pytest.mark.parametrize("shape,side", [((4, 4), 2), ((3, 5), 3), ((6, 6), 1)])
@pytest.mark.parametrize("bands", [1, 3])
def test_stack_rows_are_the_bands_patches_band_major(shape, side, bands):
    geom = ImageGeometry(*shape)
    stack = np.random.default_rng(bands).standard_normal((bands, geom.n))
    ps = extract_patches(stack, geom, side)
    per_band = [extract_patches(band, geom, side).patches for band in stack]
    assert ps.count == bands * geom.n
    assert np.array_equal(ps.patches, np.vstack(per_band))


def test_remove_means_arithmetic():
    geom = ImageGeometry(2, 2)
    ps = PatchSet(
        patches=np.array([[1.0, 2.0, 3.0, 4.0]] * 4),
        source_geometry=geom,
    )
    out = remove_means(ps)
    np.testing.assert_allclose(out.patches[0], [-1.5, -0.5, 0.5, 1.5])
    np.testing.assert_allclose(out.means, 2.5)


def test_constant_patch_removes_to_zero():
    geom = ImageGeometry(2, 2)
    ps = extract_patches(np.full(4, 3.25), geom, 2)
    out = remove_means(ps)
    assert not out.patches.any()
    np.testing.assert_allclose(out.means, 3.25)


def test_mean_round_trip_exact():
    geom = ImageGeometry(8, 8)
    rng = np.random.default_rng(9)
    x = rng.standard_normal(geom.n)
    ps = extract_patches(x, geom, 3)
    back = restore_means(remove_means(ps))
    np.testing.assert_allclose(back.patches, ps.patches, rtol=1e-12)
    assert back.means is None


def test_restore_zero_means_is_identity():
    geom = ImageGeometry(2, 2)
    ps = PatchSet(
        patches=np.zeros((4, 4)),
        source_geometry=geom,
        means=np.array([1.0, -2.0, 0.5, 0.0]),
    )
    out = restore_means(ps)
    np.testing.assert_allclose(out.patches, np.outer(ps.means, np.ones(4)))


def test_double_remove_raises():
    geom = ImageGeometry(2, 2)
    ps = remove_means(extract_patches(np.arange(4.0), geom, 1))
    with pytest.raises(StateError):
        remove_means(ps)


def test_restore_without_means_raises():
    geom = ImageGeometry(2, 2)
    ps = extract_patches(np.arange(4.0), geom, 1)
    with pytest.raises(StateError):
        restore_means(ps)


class TestGridLayout:
    @pytest.mark.parametrize("shape", [(4, 5), (5, 4), (1, 8), (6, 1)])
    def test_stack_matches_per_band_column_major_reshape(self, shape):
        geom = ImageGeometry(*shape)
        stack = np.random.default_rng(0).standard_normal((3, geom.n))
        grids = geom.to_grid(stack)
        assert grids.shape == (3, *shape)
        for band, grid in zip(stack, grids):
            np.testing.assert_array_equal(grid, band.reshape(shape, order="F"))
            np.testing.assert_array_equal(geom.to_grid(band), grid)
            np.testing.assert_array_equal(geom.from_grid(grid), band)
        np.testing.assert_array_equal(geom.from_grid(grids), stack)
        deep = stack.reshape(3, 1, geom.n)
        np.testing.assert_array_equal(geom.from_grid(geom.to_grid(deep)), deep)

    def test_mismatched_axes_raise(self):
        geom = ImageGeometry(3, 4)
        for bad in (np.zeros(()), np.zeros(11), np.zeros((2, 13))):
            with pytest.raises(DimensionError):
                geom.to_grid(bad)
        for bad in (np.zeros(12), np.zeros((2, 4, 3)), np.zeros((3, 5))):
            with pytest.raises(DimensionError):
                geom.from_grid(bad)

