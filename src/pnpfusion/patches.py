"""Patch extraction and assembly with unit stride and periodic boundaries.

Conventions used throughout the package:

* pixels of an ``height x width`` grid are indexed column-major, i.e. pixel
  ``i`` sits at ``(row, col) = (i % height, i // height)``;
* a band is a length-n pixel vector and several bands are a ``(..., n)``
  stack; :class:`ImageGeometry` is the one place that converts such stacks
  to and from ``(..., height, width)`` grids;
* patch ``i`` is the ``patch_side x patch_side`` window whose top-left corner
  is pixel ``i``, wrapping periodically at the image borders;
* patches are vectorized column-major as well.

With unit stride and periodic boundaries there is exactly one patch per pixel
and every pixel belongs to exactly ``patch_side**2`` patches, so straight
averaging of put-back patches is the exact least-squares patch recombination.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    ConfigError, DimensionError, StateError, as_array, is_count, require_instance
)


@dataclass(frozen=True)
class ImageGeometry:
    """Spatial extent of one image band."""

    height: int
    width: int

    def __post_init__(self):
        if not (is_count(self.height) and is_count(self.width)):
            raise DimensionError(
                f"geometry must be positive integers, got {self.height}x{self.width}"
            )

    @property
    def n(self) -> int:
        """Pixel count of one band."""
        return self.height * self.width

    def to_grid(self, bands: np.ndarray) -> np.ndarray:
        """View a ``(..., n)`` stack of pixel vectors as ``(..., height, width)``
        grids."""
        if bands.ndim < 1 or bands.shape[-1] != self.n:
            raise DimensionError(
                f"expected bands of {self.n} pixels, got shape {bands.shape}"
            )
        grid = bands.reshape(bands.shape[:-1] + (self.width, self.height))
        return grid.swapaxes(-1, -2)

    def from_grid(self, grid: np.ndarray) -> np.ndarray:
        """Flatten ``(..., height, width)`` grids back to ``(..., n)`` pixel
        vectors."""
        if grid.ndim < 2 or grid.shape[-2:] != (self.height, self.width):
            raise DimensionError(
                f"expected {self.height}x{self.width} grids, got shape {grid.shape}"
            )
        return grid.swapaxes(-1, -2).reshape(grid.shape[:-2] + (self.n,))


@dataclass(frozen=True)
class PatchSet:
    """All overlapping patches of a band, or of a stack band-major, one per row.

    ``means`` is None until :func:`remove_means` stores the per-patch means.
    """

    patches: np.ndarray  # (N, n_p)
    patch_side: int
    source_geometry: ImageGeometry
    means: np.ndarray | None = None

    def __post_init__(self):
        # an empty or non-finite set is refused where it is used
        rows = as_array(self.patches, "patches", 2, finite=False, empty=True)
        object.__setattr__(self, "patches", rows)

    @property
    def count(self) -> int:
        return self.patches.shape[0]

    @property
    def patch_dim(self) -> int:
        return self.patch_side * self.patch_side

    @cached_property
    def squared_norms(self) -> np.ndarray:
        """``||y_i||^2`` of every patch row, shape (N,), computed once."""
        return np.einsum("ij,ij->i", self.patches, self.patches)

    @cached_property
    def gram(self) -> np.ndarray:
        """``Y^T Y`` over the patch rows, shape (n_p, n_p), computed once."""
        return self.patches.T @ self.patches


def patch_index_map(geometry: ImageGeometry, patch_side: int) -> np.ndarray:
    """Pixel indices covered by each patch: an (n, n_p) integer matrix.

    Row ``i`` lists, in column-major patch order, the pixel indices of the
    patch anchored at pixel ``i``.
    """
    h, w = geometry.height, geometry.width
    if not is_count(patch_side):
        raise DimensionError(f"patch side must be a positive integer, got {patch_side}")
    if patch_side > h or patch_side > w:
        raise DimensionError(
            f"patch side {patch_side} exceeds image dimensions {h}x{w}"
        )
    offsets = np.arange(patch_side)
    # offset k = dc*patch_side + dr of anchor c*h + r covers (r + dr, c + dc)
    cols = (np.arange(w)[:, None] + offsets) % w * h
    rows = (np.arange(h)[:, None] + offsets) % h
    return (cols[:, None, :, None] + rows[None, :, None, :]).reshape(h * w, -1)


def extract_patches(
    image_band: np.ndarray, geometry: ImageGeometry, patch_side: int
) -> PatchSet:
    """Every unit-stride patch of a band, or of a ``(k, n)`` stack band-major
    (row ``b n + i`` is band b's patch at pixel i), wrapping periodically."""
    bands = as_array(image_band, "image_band", (1, 2), finite=False)
    if bands.shape[-1] != geometry.n:
        raise DimensionError(
            f"bands have shape {bands.shape}, geometry expects {geometry.n} pixels"
        )
    idx = patch_index_map(geometry, patch_side)
    # np.take, because bands[..., idx] gathers several times slower
    patches = np.take(bands, idx, axis=-1).reshape(-1, idx.shape[1])
    patch_set = PatchSet(patches, patch_side, geometry)
    check_finite_patches(patch_set)  # remove_means reads the same cached norms
    return patch_set


def assemble_patches(patch_set: PatchSet) -> np.ndarray:
    """Recombine patches by straight averaging of put-back patches.

    Computes ``(1/n_p) * sum_i P_i^T patch_i`` which is the exact least-squares
    solution of the patch recombination problem.
    """
    geometry = patch_set.source_geometry
    n = geometry.n
    n_p = patch_set.patch_dim
    if patch_set.patches.shape != (n, n_p):
        raise DimensionError(
            f"patch matrix shape {patch_set.patches.shape} inconsistent with "
            f"geometry n={n}, patch dim {n_p}"
        )
    idx = patch_index_map(geometry, patch_set.patch_side)
    out = np.zeros(n)
    # For a fixed patch-local offset k, the map i -> idx[i, k] is a bijection
    # on pixels, so each column scatter below is collision-free and the
    # accumulation order is fixed.
    for k in range(n_p):
        out[idx[:, k]] += patch_set.patches[:, k]
    return out / n_p


def check_finite_patches(patches: PatchSet) -> None:
    """Raise :class:`ConfigError` unless ``patches`` is a :class:`PatchSet`
    of finite rows, and :class:`DimensionError` if it has none.

    A NaN or infinite entry makes its row's squared norm NaN or infinite, so
    the test reads the cached :attr:`PatchSet.squared_norms`, O(N), and never
    scans the (N, n_p) rows again. A finite row whose squared norm overflows
    is refused as well: EM could not use it either.
    """
    require_instance(patches, PatchSet, "patches")
    if not patches.count:
        raise DimensionError("the patch set is empty")
    if not np.all(np.isfinite(patches.squared_norms)):
        raise ConfigError("patches must be finite")


def remove_means(patch_set: PatchSet) -> PatchSet:
    """Subtract each patch's mean, storing the means for later restoration."""
    check_finite_patches(patch_set)
    if patch_set.means is not None:
        raise StateError("patch means already removed")
    means = patch_set.patches.mean(axis=1)
    return PatchSet(
        patches=patch_set.patches - means[:, None],
        patch_side=patch_set.patch_side,
        source_geometry=patch_set.source_geometry,
        means=means,
    )


def restore_means(patch_set: PatchSet) -> PatchSet:
    """Add the stored per-patch means back onto the patch rows."""
    if patch_set.means is None:
        raise StateError("no stored patch means to restore")
    return PatchSet(
        patches=patch_set.patches + patch_set.means[:, None],
        patch_side=patch_set.patch_side,
        source_geometry=patch_set.source_geometry,
        means=None,
    )
