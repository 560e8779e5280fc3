"""File formats for the inputs of the pipelines: text matrices, masks, PGM.

* Matrices, masks and PSF kernels: plain text with a one-line
  ``<TAG> rows cols`` header (tags such as ``R``, ``MASK``, ``PSF``), then
  rows*cols finite reals, row-major.
* P5 PGM: binary portable graymap, 8- or 16-bit (16-bit samples big-endian
  per the PGM convention), mapped to floats in [0, 1].

The PGM reader requires the exact length its header announces: a cut file
and one with trailing bytes both raise :class:`FormatError`. The writers
refuse non-finite data with :class:`ConfigError` before opening the file.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, DimensionError, FormatError
from .patches import ImageGeometry


def write_text_matrix(path, tag: str, matrix: np.ndarray) -> None:
    matrix = np.atleast_2d(np.asarray(matrix, dtype=float))
    if not np.all(np.isfinite(matrix)):
        raise ConfigError(f"'{tag}' matrix values must be finite")
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
    if not np.all(np.isfinite(image)):
        raise ConfigError("graymap samples must be finite")
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
