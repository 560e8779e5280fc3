"""File formats: image cubes, serialized models, text matrices, PGM images.

Containers (all little-endian):

* ``PNPCUBE1``: magic ``PNPCUBE1``, u32 bands, u32 height, u32 width, f32
  samples band-major, row-major within each band.
* ``PNPGMM1``: magic ``PNPGMM1``, u32 K, u32 n_p, f64 alphas[K], f64
  covariances[K][n_p][n_p], u64 N, f64 beta[K][N]. Round-trips bit-exactly.
* Matrices, masks and PSF kernels: plain text with a one-line
  ``<TAG> rows cols`` header (tags such as ``R``, ``MASK``, ``PSF``), then
  rows*cols finite reals, row-major.
* P5 PGM: binary portable graymap, 8- or 16-bit (16-bit samples big-endian
  per the PGM convention), mapped to floats in [0, 1].

The binary readers require the exact length their header announces: a cut
file and one with trailing bytes both raise :class:`FormatError`.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, FormatError
from .gmm import GmmModel, PatchWeights
from .patches import ImageGeometry

CUBE_MAGIC = b"PNPCUBE1"
GMM_MAGIC = b"PNPGMM1"
# Asymmetry and negative eigenvalues a stored covariance may show, relative
# to its largest entry: round-off of the eigenvalue projection stays far below.
PSD_RTOL = 1e-9


@dataclass(frozen=True)
class ImageCube:
    """bands x pixels matrix with its grid geometry (pixels column-major)."""

    data: np.ndarray
    geometry: ImageGeometry

    def __post_init__(self):
        if self.data.shape != (self.geometry.bands, self.geometry.n):
            raise DimensionError(
                f"cube data {self.data.shape} does not match geometry "
                f"{self.geometry.bands}x{self.geometry.n}"
            )

    @classmethod
    def from_matrix(cls, data: np.ndarray, height: int, width: int) -> "ImageCube":
        data = np.atleast_2d(np.asarray(data, dtype=float))
        return cls(
            data=data,
            geometry=ImageGeometry(height=height, width=width, bands=data.shape[0]),
        )


def write_cube(path, cube: ImageCube) -> None:
    geom = cube.geometry
    with open(path, "wb") as fh:
        fh.write(CUBE_MAGIC)
        fh.write(struct.pack("<III", geom.bands, geom.height, geom.width))
        fh.write(geom.to_grid(cube.data).astype("<f4").tobytes(order="C"))


def read_cube(path) -> ImageCube:
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[: len(CUBE_MAGIC)] != CUBE_MAGIC:
        raise FormatError(f"{path}: not a PNPCUBE1 file")
    if len(blob) < len(CUBE_MAGIC) + 12:
        raise FormatError(f"{path}: truncated cube header")
    bands, height, width = struct.unpack_from("<III", blob, len(CUBE_MAGIC))
    if min(bands, height, width) == 0:
        raise FormatError(f"{path}: empty cube {bands}x{height}x{width}")
    offset = len(CUBE_MAGIC) + 12
    expected = bands * height * width
    if len(blob) != offset + 4 * expected:
        raise FormatError(f"{path}: cube payload is not {expected} samples")
    samples = np.frombuffer(blob, dtype="<f4", count=expected, offset=offset)
    if not np.all(np.isfinite(samples)):
        raise FormatError(f"{path}: non-finite cube samples")
    geometry = ImageGeometry(height=height, width=width, bands=bands)
    grids = samples.reshape(bands, height, width).astype(float)
    return ImageCube(data=geometry.from_grid(grids), geometry=geometry)


def write_gmm(path, model: GmmModel, weights: PatchWeights) -> None:
    k = model.n_components
    n_p = model.patch_dim
    with open(path, "wb") as fh:
        fh.write(GMM_MAGIC)
        fh.write(struct.pack("<II", k, n_p))
        fh.write(np.ascontiguousarray(model.alphas, dtype="<f8").tobytes())
        fh.write(np.ascontiguousarray(model.covariances, dtype="<f8").tobytes())
        fh.write(struct.pack("<Q", weights.count))
        fh.write(np.ascontiguousarray(weights.beta, dtype="<f8").tobytes())


def read_gmm(path) -> tuple[GmmModel, PatchWeights]:
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[: len(GMM_MAGIC)] != GMM_MAGIC:
        raise FormatError(f"{path}: not a PNPGMM1 file")
    offset = len(GMM_MAGIC)
    if len(blob) < offset + 8:
        raise FormatError(f"{path}: truncated GMM header")
    k, n_p = struct.unpack_from("<II", blob, offset)
    offset += 8
    if k == 0 or n_p == 0:
        raise FormatError(f"{path}: empty model with K={k}, n_p={n_p}")
    side = int(round(np.sqrt(n_p)))
    if side * side != n_p:
        raise FormatError(f"{path}: patch dim {n_p} is not a square")
    if len(blob) < offset + 8 * k * (1 + n_p * n_p) + 8:
        raise FormatError(f"{path}: truncated GMM parameters")
    alphas = np.frombuffer(blob, dtype="<f8", count=k, offset=offset).copy()
    offset += 8 * k
    covs = (
        np.frombuffer(blob, dtype="<f8", count=k * n_p * n_p, offset=offset)
        .reshape(k, n_p, n_p)
        .copy()
    )
    offset += 8 * k * n_p * n_p
    (count,) = struct.unpack_from("<Q", blob, offset)
    offset += 8
    if len(blob) != offset + 8 * k * count:
        raise FormatError(f"{path}: GMM weights are not {k}x{count} values")
    beta = (
        np.frombuffer(blob, dtype="<f8", count=k * count, offset=offset)
        .reshape(k, count)
        .copy()
    )
    for name, values in (("mixture weights", alphas), ("patch weights", beta)):
        if not np.all(np.isfinite(values) & (values >= 0)):
            raise FormatError(f"{path}: {name} must be finite and nonnegative")
    for j, cov in enumerate(covs):
        if not _symmetric_psd(cov):
            raise FormatError(f"{path}: covariance {j} is not symmetric PSD")
    model = GmmModel(alphas=alphas, covariances=covs, patch_side=side)
    return model, PatchWeights(beta=beta)


def _symmetric_psd(cov: np.ndarray) -> bool:
    """Symmetric and PSD up to PSD_RTOL, relative to the largest entry."""
    scale = np.abs(cov).max()  # NaN if any entry is
    if scale == 0:
        return True
    if not np.isfinite(scale):
        return False
    unit = cov / scale  # keeps the eigenvalue solver clear of overflow
    return (
        np.abs(unit - unit.T).max() <= PSD_RTOL
        and np.linalg.eigvalsh(unit)[0] >= -PSD_RTOL
    )


def write_text_matrix(path, tag: str, matrix: np.ndarray) -> None:
    matrix = np.atleast_2d(np.asarray(matrix, dtype=float))
    with open(path, "w") as fh:
        fh.write(f"{tag} {matrix.shape[0]} {matrix.shape[1]}\n")
        for row in matrix:
            fh.write(" ".join(repr(float(v)) for v in row) + "\n")


def read_text_matrix(path, tag: str) -> np.ndarray:
    with open(path, "rb") as fh:
        tokens = fh.read().split()
    if len(tokens) < 3 or tokens[0] != tag.encode():
        raise FormatError(f"{path}: expected a '{tag}' header")
    try:
        rows, cols = int(tokens[1]), int(tokens[2])
        values = [float(v) for v in tokens[3:]]
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from None
    if rows < 1 or cols < 1 or len(values) != rows * cols:
        raise FormatError(
            f"{path}: expected {rows}x{cols} values, found {len(values)}"
        )
    matrix = np.array(values).reshape(rows, cols)
    if not np.all(np.isfinite(matrix)):
        raise FormatError(f"{path}: non-finite matrix values")
    return matrix


def write_mask(path, mask: np.ndarray, geometry: ImageGeometry) -> None:
    """Store a pixel mask as its 0/1 spatial grid."""
    if mask.ndim != 1:
        raise DimensionError(f"a mask is one band, got shape {mask.shape}")
    write_text_matrix(path, "MASK", geometry.to_grid(mask.astype(float)))


def read_mask(path, geometry: ImageGeometry | None = None):
    """Load a mask; returns ``(mask_vector, geometry)``."""
    grid = read_text_matrix(path, "MASK")
    if not np.all((grid == 0) | (grid == 1)):
        raise FormatError(f"{path}: mask entries must be 0 or 1")
    geom = geometry or ImageGeometry(height=grid.shape[0], width=grid.shape[1])
    if grid.shape != (geom.height, geom.width):
        raise DimensionError(f"mask grid {grid.shape} does not match geometry")
    return geom.from_grid(grid).astype(int), geom


def write_pgm(path, image: np.ndarray, geometry: ImageGeometry, bits: int = 8) -> None:
    """Write a [0, 1] grayscale band as a binary P5 graymap."""
    if bits not in (8, 16):
        raise FormatError("PGM depth must be 8 or 16 bits")
    maxval = (1 << bits) - 1
    image = np.asarray(image, dtype=float)
    if image.ndim != 1:
        raise DimensionError(f"a graymap is one band, got shape {image.shape}")
    grid = geometry.to_grid(image)
    scaled = np.round(np.clip(grid, 0.0, 1.0) * maxval)
    with open(path, "wb") as fh:
        fh.write(f"P5\n{geometry.width} {geometry.height}\n{maxval}\n".encode())
        if bits == 8:
            fh.write(scaled.astype(np.uint8).tobytes(order="C"))
        else:
            fh.write(scaled.astype(">u2").tobytes(order="C"))


def read_pgm(path) -> tuple[np.ndarray, ImageGeometry]:
    """Read a binary P5 graymap to a [0, 1] pixel vector plus geometry."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if not blob.startswith(b"P5"):
        raise FormatError(f"{path}: not a binary P5 graymap")
    # header: magic, width, height, maxval; '#' comments allowed
    tokens = []
    pos = 2
    while len(tokens) < 3:
        while pos < len(blob) and blob[pos : pos + 1].isspace():
            pos += 1
        if pos < len(blob) and blob[pos : pos + 1] == b"#":
            while pos < len(blob) and blob[pos : pos + 1] != b"\n":
                pos += 1
            continue
        start = pos
        while pos < len(blob) and not blob[pos : pos + 1].isspace():
            pos += 1
        if not blob[start:pos].isdigit():
            raise FormatError(f"{path}: malformed or truncated P5 header")
        tokens.append(blob[start:pos])
    pos += 1  # single whitespace after maxval
    width, height, maxval = (int(t) for t in tokens)
    if not 1 <= maxval <= 65535:
        raise FormatError(f"{path}: maxval {maxval} outside 1..65535")
    if width == 0 or height == 0:
        raise FormatError(f"{path}: empty {width}x{height} image")
    geometry = ImageGeometry(height=height, width=width)
    count = width * height
    dtype = np.dtype(np.uint8 if maxval < 256 else ">u2")
    if len(blob) != pos + count * dtype.itemsize:
        raise FormatError(f"{path}: pixel payload is not {width}x{height} samples")
    raw = np.frombuffer(blob, dtype=dtype, count=count, offset=pos)
    if raw.max() > maxval:
        raise FormatError(f"{path}: sample above maxval {maxval}")
    grid = raw.reshape(height, width).astype(float) / maxval
    return geometry.from_grid(grid), geometry


def write_metrics_csv(path_or_file, report) -> None:
    """CSV: per-band psnr rows, then ergas and sam summary lines."""

    def _emit(fh):
        fh.write("band,psnr_db\n")
        for b, value in enumerate(report.psnr_per_band):
            fh.write(f"{b},{float(value)!r}\n")
        fh.write(f"ergas,{float(report.ergas)!r}\n")
        fh.write(f"sam_deg,{float(report.sam_degrees)!r}\n")

    if hasattr(path_or_file, "write"):
        _emit(path_or_file)
    else:
        with open(path_or_file, "w") as fh:
            _emit(fh)


def write_manifest(path, entries: dict) -> None:
    """key=value UTF-8 text file (same syntax the CLI --config flag accepts)."""
    with open(path, "w", encoding="utf-8") as fh:
        for key, value in entries.items():
            fh.write(f"{key}={value}\n")


def read_manifest(path) -> dict:
    with open(path, "rb") as fh:
        blob = fh.read()
    try:
        text = blob.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: {exc}") from None
    out = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise FormatError(f"{path}: malformed line {line!r}")
        key, value = line.split("=", 1)
        out[key.strip()] = value.strip()
    return out
