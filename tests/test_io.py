import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pnpfusion.errors import DimensionError, FormatError
from pnpfusion.gmm import EmConfig, GmmModel, PatchWeights, train_em
from pnpfusion.io import (
    ImageCube,
    read_cube,
    read_gmm,
    read_manifest,
    read_mask,
    read_pgm,
    read_text_matrix,
    write_cube,
    write_gmm,
    write_manifest,
    write_mask,
    write_metrics_csv,
    write_pgm,
    write_text_matrix,
)
from pnpfusion.metrics import metric_report
from pnpfusion.patches import ImageGeometry, extract_patches, remove_means
from pnpfusion.scenes import smooth_field


class TestCube:
    def test_round_trip_values(self, tmp_path):
        rng = np.random.default_rng(0)
        data = rng.standard_normal((3, 20)).astype(np.float32).astype(float)
        cube = ImageCube.from_matrix(data, height=4, width=5)
        path = tmp_path / "a.cube"
        write_cube(path, cube)
        back = read_cube(path)
        assert back.geometry == cube.geometry
        np.testing.assert_array_equal(back.data, data)

    def test_write_read_write_byte_identical(self, tmp_path):
        rng = np.random.default_rng(1)
        cube = ImageCube.from_matrix(rng.standard_normal((2, 12)), 3, 4)
        p1, p2 = tmp_path / "a.cube", tmp_path / "b.cube"
        write_cube(p1, cube)
        write_cube(p2, read_cube(p1))
        assert p1.read_bytes() == p2.read_bytes()

    def test_layout_is_row_major_within_band(self, tmp_path):
        # pixel vector is column-major internally; the file stores each band
        # row-major, so the bytes must follow the spatial grid row by row
        geom = ImageGeometry(2, 3)
        grid = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        cube = ImageCube(data=geom.from_grid(grid)[None, :], geometry=geom)
        path = tmp_path / "c.cube"
        write_cube(path, cube)
        payload = np.frombuffer(path.read_bytes()[20:], dtype="<f4")
        np.testing.assert_array_equal(payload, [1, 2, 3, 4, 5, 6])

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.cube"
        path.write_bytes(b"NOTACUBE" + b"\x00" * 20)
        with pytest.raises(FormatError):
            read_cube(path)

    @pytest.mark.parametrize("dims", [(0, 2, 2), (1, 0, 2), (1, 2, 0)])
    def test_empty_cube_rejected(self, tmp_path, dims):
        path = tmp_path / "empty.cube"
        header = b"PNPCUBE1" + np.array(dims, "<u4").tobytes()
        path.write_bytes(header + b"\x00" * 16)
        with pytest.raises(FormatError):
            read_cube(path)

    def test_non_finite_sample_rejected(self, tmp_path):
        path = tmp_path / "nan.cube"
        samples = np.array([1.0, np.nan], "<f4")
        header = b"PNPCUBE1" + np.array([1, 1, 2], "<u4").tobytes()
        path.write_bytes(header + samples.tobytes())
        with pytest.raises(FormatError):
            read_cube(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "short.cube"
        path.write_bytes(b"PNPCUBE1" + np.array([1, 2, 2], "<u4").tobytes() + b"\x00" * 4)
        with pytest.raises(FormatError):
            read_cube(path)

    def test_geometry_mismatch_raises(self):
        with pytest.raises(DimensionError):
            ImageCube(data=np.zeros((2, 10)), geometry=ImageGeometry(3, 4, 2))


class TestGmmContainer:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(2)
        k, n_p, count = 3, 4, 17
        covs = []
        for _ in range(k):
            a = rng.standard_normal((n_p, n_p))
            covs.append(a @ a.T)
        model = GmmModel(
            alphas=rng.dirichlet(np.ones(k)),
            covariances=np.stack(covs),
            patch_side=2,
        )
        beta = rng.dirichlet(np.ones(k), size=count).T
        path = tmp_path / "m.gmm"
        write_gmm(path, model, PatchWeights(beta=beta))
        model2, weights2 = read_gmm(path)
        assert np.array_equal(model2.alphas, model.alphas)
        assert np.array_equal(model2.covariances, model.covariances)
        assert np.array_equal(weights2.beta, beta)
        assert model2.patch_side == 2
        # second write is byte-identical
        path2 = tmp_path / "m2.gmm"
        write_gmm(path2, model2, weights2)
        assert path.read_bytes() == path2.read_bytes()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.gmm"
        path.write_bytes(b"XXXXXXX" + b"\x00" * 16)
        with pytest.raises(FormatError):
            read_gmm(path)

    def test_non_square_patch_dim_rejected(self, tmp_path):
        path = tmp_path / "odd.gmm"
        payload = b"PNPGMM1" + struct.pack("<II", 1, 5) + b"\x00" * (8 + 200 + 8)
        path.write_bytes(payload)
        with pytest.raises(FormatError):
            read_gmm(path)

    @pytest.mark.parametrize(
        "case",
        [
            "no_components",
            "no_patch_dim",
            "nan_alpha",
            "inf_alpha",
            "negative_alpha",
            "nan_beta",
            "negative_beta",
            "negative_variance",
            "asymmetric",
            "indefinite",
            "nan_covariance",
        ],
    )
    def test_invalid_model_rejected(self, tmp_path, case):
        alphas = np.array([0.5, 0.5])
        covs = np.stack([np.eye(4), 2 * np.eye(4)])
        beta = np.full((2, 3), 0.5)
        k, n_p = 2, 4
        if case == "no_components":
            k, alphas, covs, beta = 0, alphas[:0], covs[:0], beta[:0]
        elif case == "no_patch_dim":
            n_p, covs = 0, covs[:, :0, :0]
        elif case == "nan_alpha":
            alphas[1] = np.nan
        elif case == "inf_alpha":
            alphas[1] = np.inf
        elif case == "negative_alpha":
            alphas = np.array([1.5, -0.5])
        elif case == "nan_beta":
            beta[0, 2] = np.nan
        elif case == "negative_beta":
            beta[:, 1] = [1.5, -0.5]
        elif case == "negative_variance":
            covs[1, 2, 2] = -1.0
        elif case == "asymmetric":
            covs[0, 0, 1] = 0.5
        elif case == "indefinite":
            covs[0, 0, 1] = covs[0, 1, 0] = 2.0
        elif case == "nan_covariance":
            covs[1, 3, 3] = np.nan
        path = tmp_path / "bad.gmm"
        path.write_bytes(
            b"PNPGMM1"
            + struct.pack("<II", k, n_p)
            + alphas.astype("<f8").tobytes()
            + covs.astype("<f8").tobytes()
            + struct.pack("<Q", beta.shape[1])
            + beta.astype("<f8").tobytes()
        )
        with pytest.raises(FormatError):
            read_gmm(path)

    @pytest.mark.parametrize("noise_variance", [0.0, 0.09, 1.0])
    def test_trained_models_load(self, tmp_path, noise_variance):
        # the trained covariances have round-off eigenvalues down to about
        # -2e-16 of their largest entry; at noise_variance 1.0 all are zero
        geom = ImageGeometry(12, 12)
        rng = np.random.default_rng(3)
        img = smooth_field(geom, rng) + 0.3 * rng.standard_normal(geom.n)
        patches = remove_means(extract_patches(img, geom, 3))
        em = EmConfig(n_components=4, noise_variance=noise_variance, max_iters=10)
        model, weights, _ = train_em(patches, em)
        path = tmp_path / "trained.gmm"
        write_gmm(path, model, weights)
        model2, weights2 = read_gmm(path)
        assert np.array_equal(model2.covariances, model.covariances)
        assert np.array_equal(weights2.beta, weights.beta)


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

    def test_mask_writer_rejects_a_stack(self, tmp_path):
        with pytest.raises(DimensionError):
            write_mask(tmp_path / "m.txt", np.ones((2, 12), int), ImageGeometry(3, 4))

    def test_manifest_round_trip(self, tmp_path):
        path = tmp_path / "scene.txt"
        entries = {"kind": "hs", "seed": "7", "sigma_m": "0.003"}
        write_manifest(path, entries)
        assert read_manifest(path) == entries

    def test_manifest_non_utf8_raises_format_error(self, tmp_path):
        path = tmp_path / "scene.txt"
        path.write_bytes(b"seed=7\nkind=\xff\xfe\n")
        with pytest.raises(FormatError):
            read_manifest(path)


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


def test_metrics_csv_format(tmp_path):
    rng = np.random.default_rng(6)
    ref = rng.uniform(0.5, 1.0, size=(2, 30))
    est = ref + 0.01 * rng.standard_normal((2, 30))
    report = metric_report(ref, est, peak=1.0, resolution_ratio=2.0)
    path = tmp_path / "m.csv"
    write_metrics_csv(path, report)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "band,psnr_db"
    assert lines[1].startswith("0,") and lines[2].startswith("1,")
    assert lines[3].startswith("ergas,")
    assert lines[4].startswith("sam_deg,")
    assert float(lines[3].split(",")[1]) == pytest.approx(report.ergas)


def _written_files(tmp_path):
    """One small file of each binary container, as written by this package."""
    rng = np.random.default_rng(7)
    cube = tmp_path / "a.cube"
    write_cube(cube, ImageCube.from_matrix(rng.standard_normal((2, 6)), 2, 3))
    gmm = tmp_path / "m.gmm"
    model = GmmModel(
        alphas=np.array([0.4, 0.6]),
        covariances=np.stack([np.eye(4), 2 * np.eye(4)]),
        patch_side=2,
    )
    write_gmm(gmm, model, PatchWeights(beta=rng.dirichlet(np.ones(2), size=5).T))
    files = {"cube": (cube, read_cube), "gmm": (gmm, read_gmm)}
    for bits in (8, 16):
        pgm = tmp_path / f"i{bits}.pgm"
        write_pgm(pgm, rng.uniform(size=12), ImageGeometry(3, 4), bits=bits)
        files[f"pgm{bits}"] = (pgm, read_pgm)
    return files


@pytest.mark.parametrize("kind", ["cube", "gmm", "pgm8", "pgm16"])
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
    """The bytes and the reader of one file per container, text matrix too."""
    tmp = tmp_path_factory.mktemp("clean")
    files = _written_files(tmp)
    matrix = tmp / "r.txt"
    write_text_matrix(matrix, "R", np.random.default_rng(8).uniform(size=(2, 3)))
    files["matrix"] = (matrix, lambda path: read_text_matrix(path, "R"))
    return tmp, {kind: (p.read_bytes(), read) for kind, (p, read) in files.items()}


READ_VALUES = {
    "cube": lambda cube: [cube.data],
    "gmm": lambda read: [read[0].alphas, read[0].covariances, read[1].beta],
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
    # a binary container reads only at the length its clean header announces
    appended = len(corrupt) > len(blob) and corrupt.startswith(blob)
    assert kind == "matrix" or not appended
    for values in READ_VALUES[kind](result):
        assert np.all(np.isfinite(values))
        if kind.startswith("pgm"):
            assert np.all((values >= 0) & (values <= 1))
