"""File formats: image cubes, serialized models, text matrices, PGM images.

Containers (all little-endian):

* ``PNPCUBE1``: magic ``PNPCUBE1``, u32 bands, u32 height, u32 width, f32
  samples band-major, row-major within each band.
* ``PNPGMM1``: magic ``PNPGMM1``, u32 K, u32 n_p, f64 alphas[K], f64
  covariances[K][n_p][n_p], u64 N, f64 beta[K][N]. Round-trips bit-exactly.
* PSF: plain text ``PSF h w`` header then h*w reals, row-major.
* Matrices/masks: plain text with a one-line ``<TAG> rows cols`` header.
* P5 PGM: binary portable graymap, 8- or 16-bit (16-bit samples big-endian
  per the PGM convention), mapped to floats in [0, 1].
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

    def band_grid(self, band: int) -> np.ndarray:
        return self.geometry.to_grid(self.data[band])


def write_cube(path, cube: ImageCube) -> None:
    geom = cube.geometry
    with open(path, "wb") as fh:
        fh.write(CUBE_MAGIC)
        fh.write(struct.pack("<III", geom.bands, geom.height, geom.width))
        for band in cube.data:
            fh.write(geom.to_grid(band).astype("<f4").tobytes(order="C"))


def read_cube(path) -> ImageCube:
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[: len(CUBE_MAGIC)] != CUBE_MAGIC:
        raise FormatError(f"{path}: not a PNPCUBE1 file")
    if len(blob) < len(CUBE_MAGIC) + 12:
        raise FormatError(f"{path}: truncated cube header")
    bands, height, width = struct.unpack_from("<III", blob, len(CUBE_MAGIC))
    offset = len(CUBE_MAGIC) + 12
    expected = bands * height * width
    if len(blob) < offset + 4 * expected:
        raise FormatError(f"{path}: truncated cube payload")
    samples = np.frombuffer(blob, dtype="<f4", count=expected, offset=offset)
    geometry = ImageGeometry(height=height, width=width, bands=bands)
    grids = samples.reshape(bands, height, width).astype(float)
    data = np.stack([geometry.from_grid(g) for g in grids])
    return ImageCube(data=data, geometry=geometry)


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
    if len(blob) < offset + 8 * k * count:
        raise FormatError(f"{path}: truncated GMM weights")
    beta = (
        np.frombuffer(blob, dtype="<f8", count=k * count, offset=offset)
        .reshape(k, count)
        .copy()
    )
    model = GmmModel(alphas=alphas, covariances=covs, patch_side=side)
    return model, PatchWeights(beta=beta)


def write_text_matrix(path, tag: str, matrix: np.ndarray) -> None:
    matrix = np.atleast_2d(np.asarray(matrix, dtype=float))
    with open(path, "w") as fh:
        fh.write(f"{tag} {matrix.shape[0]} {matrix.shape[1]}\n")
        for row in matrix:
            fh.write(" ".join(repr(float(v)) for v in row) + "\n")


def read_text_matrix(path, tag: str) -> np.ndarray:
    with open(path) as fh:
        tokens = fh.read().split()
    if len(tokens) < 3 or tokens[0] != tag:
        raise FormatError(f"{path}: expected a '{tag}' header")
    rows, cols = int(tokens[1]), int(tokens[2])
    values = tokens[3:]
    if len(values) != rows * cols:
        raise FormatError(
            f"{path}: expected {rows * cols} values, found {len(values)}"
        )
    return np.array([float(v) for v in values]).reshape(rows, cols)


def write_mask(path, mask: np.ndarray, geometry: ImageGeometry) -> None:
    """Store a pixel mask as its 0/1 spatial grid."""
    write_text_matrix(path, "MASK", geometry.to_grid(mask.astype(float)))


def read_mask(path, geometry: ImageGeometry | None = None):
    """Load a mask; returns ``(mask_vector, geometry)``."""
    grid = read_text_matrix(path, "MASK")
    geom = geometry or ImageGeometry(height=grid.shape[0], width=grid.shape[1])
    if grid.shape != (geom.height, geom.width):
        raise DimensionError(f"mask grid {grid.shape} does not match geometry")
    return geom.from_grid(grid).astype(int), geom


def write_pgm(path, image: np.ndarray, geometry: ImageGeometry, bits: int = 8) -> None:
    """Write a [0, 1] grayscale band as a binary P5 graymap."""
    if bits not in (8, 16):
        raise FormatError("PGM depth must be 8 or 16 bits")
    maxval = (1 << bits) - 1
    grid = geometry.to_grid(np.asarray(image, dtype=float))
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
    geometry = ImageGeometry(height=height, width=width)
    count = width * height
    dtype = np.dtype(np.uint8 if maxval < 256 else ">u2")
    if len(blob) < pos + count * dtype.itemsize:
        raise FormatError(f"{path}: truncated pixel payload")
    raw = np.frombuffer(blob, dtype=dtype, count=count, offset=pos)
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
    """key=value text file (same syntax the CLI --config flag accepts)."""
    with open(path, "w") as fh:
        for key, value in entries.items():
            fh.write(f"{key}={value}\n")


def read_manifest(path) -> dict:
    out = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise FormatError(f"{path}: malformed line {line!r}")
            key, value = line.split("=", 1)
            out[key.strip()] = value.strip()
    return out
