import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pnpfusion.errors import ConfigError, DimensionError, FormatError
from pnpfusion.io import (
    read_mask,
    read_pgm,
    read_text_matrix,
    write_mask,
    write_pgm,
    write_text_matrix,
)
from pnpfusion.patches import ImageGeometry


class TestPsfIo:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(7)
        psf = rng.uniform(size=(3, 5))
        path = tmp_path / "k.psf"
        write_text_matrix(path, "PSF", psf)
        np.testing.assert_array_equal(read_text_matrix(path, "PSF"), psf)

    def test_bad_header_raises(self, tmp_path):
        path = tmp_path / "bad.psf"
        path.write_text("NOPE 2 2\n1 2 3 4\n")
        with pytest.raises(FormatError):
            read_text_matrix(path, "PSF")

    def test_truncated_raises(self, tmp_path):
        path = tmp_path / "short.psf"
        path.write_text("PSF 2 2\n1 2 3\n")
        with pytest.raises(FormatError):
            read_text_matrix(path, "PSF")


class TestTextFormats:
    def test_matrix_round_trip(self, tmp_path):
        rng = np.random.default_rng(3)
        r = rng.uniform(size=(2, 5))
        path = tmp_path / "r.txt"
        write_text_matrix(path, "R", r)
        np.testing.assert_array_equal(read_text_matrix(path, "R"), r)

    def test_wrong_tag_raises(self, tmp_path):
        path = tmp_path / "r.txt"
        write_text_matrix(path, "R", np.ones((2, 2)))
        with pytest.raises(FormatError):
            read_text_matrix(path, "MASK")

    def test_mask_round_trip(self, tmp_path):
        from pnpfusion.sharpen import make_decimation_mask

        geom = ImageGeometry(6, 4)
        mask = make_decimation_mask(geom, 2)
        path = tmp_path / "m.txt"
        write_mask(path, mask, geom)
        back, geom2 = read_mask(path)
        assert geom2.height == 6 and geom2.width == 4
        np.testing.assert_array_equal(back, mask)

    @pytest.mark.parametrize(
        "text",
        [
            "PSF a b\n",
            "PSF 1 2\n1 x\n",
            "PSF -1 -1\n5\n",
            "PSF 0 0\n",
            "PSF 1 2\n1 nan\n",
            "PSF 1 1\ninf\n",
            "PSF 1 1\n\xe9\n",
        ],
    )
    def test_malformed_matrix_raises(self, tmp_path, text):
        path = tmp_path / "bad.txt"
        path.write_bytes(text.encode("latin-1"))
        with pytest.raises(FormatError):
            read_text_matrix(path, "PSF")

    @pytest.mark.parametrize("value", ["0.5", "1.7", "-1"])
    def test_mask_entries_must_be_zero_or_one(self, tmp_path, value):
        path = tmp_path / "m.txt"
        path.write_text(f"MASK 1 2\n1 {value}\n")
        with pytest.raises(FormatError):
            read_mask(path)

    @pytest.mark.parametrize("value", [np.nan, -np.inf])
    def test_matrix_writer_refuses_non_finite_values(self, tmp_path, value):
        path = tmp_path / "r.txt"
        with pytest.raises(ConfigError):
            write_text_matrix(path, "R", np.array([[1.0, value]]))
        assert not path.exists()

    def test_mask_writer_refuses_non_finite_values(self, tmp_path):
        mask = np.ones(12)
        mask[3] = np.nan
        path = tmp_path / "m.txt"
        with pytest.raises(ConfigError):
            write_mask(path, mask, ImageGeometry(3, 4))
        assert not path.exists()

    def test_mask_writer_rejects_a_stack(self, tmp_path):
        with pytest.raises(DimensionError):
            write_mask(tmp_path / "m.txt", np.ones((2, 12), int), ImageGeometry(3, 4))


class TestPgm:
    @pytest.mark.parametrize("bits", [8, 16])
    def test_round_trip_quantized(self, tmp_path, bits):
        geom = ImageGeometry(5, 7)
        rng = np.random.default_rng(4)
        img = rng.uniform(size=geom.n)
        path = tmp_path / "i.pgm"
        write_pgm(path, img, geom, bits=bits)
        back, geom2 = read_pgm(path)
        assert geom2 == geom
        np.testing.assert_allclose(back, img, atol=1.0 / ((1 << bits) - 1))

    def test_sixteen_bit_better_than_eight(self, tmp_path):
        geom = ImageGeometry(8, 8)
        rng = np.random.default_rng(5)
        img = rng.uniform(size=geom.n)
        p8, p16 = tmp_path / "a.pgm", tmp_path / "b.pgm"
        write_pgm(p8, img, geom, bits=8)
        write_pgm(p16, img, geom, bits=16)
        err8 = np.abs(read_pgm(p8)[0] - img).max()
        err16 = np.abs(read_pgm(p16)[0] - img).max()
        assert err16 < err8

    def test_comment_header_supported(self, tmp_path):
        path = tmp_path / "c.pgm"
        pixels = bytes([0, 128, 255, 64])
        path.write_bytes(b"P5\n# a comment\n2 2\n255\n" + pixels)
        img, geom = read_pgm(path)
        assert geom.height == 2 and geom.width == 2
        np.testing.assert_allclose(
            geom.to_grid(img), np.array([[0, 128], [255, 64]]) / 255.0
        )

    def test_writer_rejects_a_stack(self, tmp_path):
        path = tmp_path / "s.pgm"
        with pytest.raises(DimensionError):
            write_pgm(path, np.zeros((2, 12)), ImageGeometry(3, 4))
        assert not path.exists()

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_writer_refuses_non_finite_samples(self, tmp_path, value):
        image = np.full(12, 0.5)
        image[7] = value
        path = tmp_path / "n.pgm"
        with pytest.raises(ConfigError):
            write_pgm(path, image, ImageGeometry(3, 4))
        assert not path.exists()

    @pytest.mark.parametrize("header", [b"P5\n0 2\n255\n", b"P5\n2 0\n255\n"])
    def test_empty_image_rejected(self, tmp_path, header):
        path = tmp_path / "e.pgm"
        path.write_bytes(header + b"\x00" * 4)
        with pytest.raises(FormatError):
            read_pgm(path)

    def test_sample_above_maxval_rejected(self, tmp_path):
        path = tmp_path / "hot.pgm"
        path.write_bytes(b"P5\n2 1\n1000\n" + np.array([5, 1001], ">u2").tobytes())
        with pytest.raises(FormatError):
            read_pgm(path)

    def test_not_pgm_raises(self, tmp_path):
        path = tmp_path / "x.pgm"
        path.write_bytes(b"P6\n1 1\n255\n\x00\x00\x00")
        with pytest.raises(FormatError):
            read_pgm(path)


def _written_files(tmp_path):
    """One small graymap of each depth, as written by this package."""
    rng = np.random.default_rng(7)
    files = {}
    for bits in (8, 16):
        pgm = tmp_path / f"i{bits}.pgm"
        write_pgm(pgm, rng.uniform(size=12), ImageGeometry(3, 4), bits=bits)
        files[f"pgm{bits}"] = (pgm, read_pgm)
    return files


@pytest.mark.parametrize("kind", ["pgm8", "pgm16"])
def test_every_strict_prefix_raises_format_error(tmp_path, kind):
    path, reader = _written_files(tmp_path)[kind]
    blob = path.read_bytes()
    reader(path)  # the whole file reads
    cut = tmp_path / "cut"
    for size in range(len(blob)):
        cut.write_bytes(blob[:size])
        with pytest.raises(FormatError):
            reader(cut)
    # ... and so does the whole file with 1 to 8 bytes appended
    for extra in range(1, 9):
        cut.write_bytes(blob + bytes(range(extra)))
        with pytest.raises(FormatError):
            reader(cut)


@pytest.mark.parametrize("maxval", [b"0", b"65536"])
def test_pgm_maxval_out_of_range_rejected(tmp_path, maxval):
    path = tmp_path / "z.pgm"
    path.write_bytes(b"P5\n2 2\n" + maxval + b"\n" + b"\x00" * 8)
    with pytest.raises(FormatError):
        read_pgm(path)


@pytest.fixture(scope="module")
def clean_files(tmp_path_factory):
    """The bytes and the reader of one file per format."""
    tmp = tmp_path_factory.mktemp("clean")
    files = _written_files(tmp)
    matrix = tmp / "r.txt"
    write_text_matrix(matrix, "R", np.random.default_rng(8).uniform(size=(2, 3)))
    files["matrix"] = (matrix, lambda path: read_text_matrix(path, "R"))
    return tmp, {kind: (p.read_bytes(), read) for kind, (p, read) in files.items()}


READ_VALUES = {
    "pgm8": lambda read: [read[0]],
    "pgm16": lambda read: [read[0]],
    "matrix": lambda matrix: [matrix],
}


@pytest.mark.parametrize("kind", list(READ_VALUES))
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_corrupt_file_reads_clean_or_raises_format_error(clean_files, kind, data):
    tmp, files = clean_files
    blob, reader = files[kind]
    edits = data.draw(
        st.lists(
            st.tuples(st.integers(0, len(blob) - 1), st.integers(0, 255)),
            max_size=4,
        )
    )
    corrupt = bytearray(blob)
    for pos, value in edits:
        corrupt[pos] = value
    if data.draw(st.booleans()):
        corrupt = corrupt[: data.draw(st.integers(0, len(blob)))]
    else:
        corrupt += data.draw(st.binary(min_size=1, max_size=8))
    path = tmp / f"corrupt_{kind}"
    path.write_bytes(bytes(corrupt))
    try:
        result = reader(path)
    except FormatError:
        return
    # a graymap reads only at the length its clean header announces
    appended = len(corrupt) > len(blob) and corrupt.startswith(blob)
    assert kind == "matrix" or not appended
    for values in READ_VALUES[kind](result):
        assert np.all(np.isfinite(values))
        if kind.startswith("pgm"):
            assert np.all((values >= 0) & (values <= 1))
