"""File formats: native header + raw cube pairs, PGM band stacks."""

import inspect
import re
import tracemalloc

import numpy as np
import pytest

from hsidenoise.experiment import load_input
from hsidenoise.io import (
    DTYPES,
    CubeHeader,
    DataError,
    HeaderError,
    PayloadSizeError,
    UnreadableFileError,
    add_gaussian_noise,
    parse_band_list,
    read_band_stack,
    read_cube,
    read_pgm,
    rescale,
    write_band_stack,
    write_cube,
    write_pgm,
)
from hsidenoise.tensor import fold3


def random_cube(shape, seed=0, lo=0.0, hi=255.0):
    return np.random.default_rng(seed).uniform(lo, hi, shape)


class TestCubeHeader:
    def test_dump_parse_roundtrip(self):
        h = CubeHeader(4, 5, 3, "u16", scale=(-1.25, 9.5), data="x.raw")
        h2 = CubeHeader.parse(h.dump())
        assert (h2.rows, h2.cols, h2.bands) == (4, 5, 3)
        assert h2.dtype == "u16"
        assert h2.interleave == "bsq"
        assert h2.scale == (-1.25, 9.5)
        assert h2.data == "x.raw"

    def test_payload_bytes(self):
        assert CubeHeader(4, 5, 3, "f64").payload_bytes == 4 * 5 * 3 * 8
        assert CubeHeader(4, 5, 3, "u8").payload_bytes == 60

    def test_missing_key(self):
        with pytest.raises(HeaderError, match="rows"):
            CubeHeader.parse("cols = 4\nbands = 2\ndtype = f64\n")

    def test_non_integer_dims(self):
        with pytest.raises(HeaderError, match="non-integer"):
            CubeHeader.parse("rows = x\ncols = 4\nbands = 2\ndtype = f64\n")

    def test_unknown_dtype(self):
        with pytest.raises(HeaderError):
            CubeHeader.parse("rows = 2\ncols = 2\nbands = 1\ndtype = f16\n")

    def test_line_without_equals(self):
        # comment and blank lines count towards the line number
        text = "# header\nrows = 2\n\nbands 2  # note\ncols = 2\ndtype = f64\n"
        with pytest.raises(HeaderError, match="cube.hdr:4: expected key = value, got 'bands 2'"):
            CubeHeader.parse(text, source="cube.hdr")

    def test_bad_scale(self):
        with pytest.raises(HeaderError, match="scale"):
            CubeHeader.parse(
                "rows = 2\ncols = 2\nbands = 1\ndtype = u8\nscale = 1\n"
            )

    @pytest.mark.parametrize(
        "line, message",
        [
            ("interleave = bip", "unsupported interleave 'bip', only bsq"),
            ("rows = 0", "dims must be positive, got 0x2x1"),
            ("scale = a b", "header: bad scale values: could not convert string to float: 'a'"),
        ],
    )
    def test_rejected_header_line(self, line, message):
        # a later line overrides an earlier one of the same key
        with pytest.raises(HeaderError, match=f"^{re.escape(message)}$"):
            CubeHeader.parse(f"rows = 2\ncols = 2\nbands = 1\ndtype = f64\n{line}\n")

    @pytest.mark.parametrize("scale", ["nan 5", "0 inf", "-inf 1"])
    def test_non_finite_scale(self, scale):
        with pytest.raises(HeaderError, match="scale values must be finite"):
            CubeHeader.parse(f"rows = 2\ncols = 2\nbands = 1\ndtype = f64\nscale = {scale}\n")

    @pytest.mark.parametrize("scale", ["9 3", "3 3", "-1 -2"])
    @pytest.mark.parametrize("dtype", ["u8", "f64"])
    def test_inverted_scale(self, scale, dtype):
        with pytest.raises(HeaderError, match="lo < hi"):
            CubeHeader.parse(f"rows = 2\ncols = 2\nbands = 1\ndtype = {dtype}\nscale = {scale}\n")


class TestCubeRoundTrip:
    def test_f64_bit_exact(self, tmp_path):
        cube = random_cube((7, 5, 4), seed=1)
        write_cube(tmp_path / "c", cube)
        np.testing.assert_array_equal(read_cube(tmp_path / "c"), cube)

    @pytest.mark.parametrize("layout", ["fortran", "band-sliced"])
    def test_f64_bit_exact_from_any_layout(self, tmp_path, layout):
        wide = random_cube((7, 5, 8), seed=7)
        cube = np.asfortranarray(wide) if layout == "fortran" else wide[:, :, ::2]
        write_cube(tmp_path / "c", cube)
        np.testing.assert_array_equal(read_cube(tmp_path / "c"), cube)

    def test_f64_write_copies_the_cube_once(self, tmp_path):
        # the band-major unfolding is the one copy; it is written as it is
        cube = random_cube((64, 64, 32), seed=8)
        write_cube(tmp_path / "c", cube)  # first-call allocations are not counted
        tracemalloc.start()
        try:
            write_cube(tmp_path / "c", cube)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * cube.nbytes, f"peak {peak / cube.nbytes:.2f} cubes"
        np.testing.assert_array_equal(read_cube(tmp_path / "c"), cube)

    @pytest.mark.parametrize("scale", [None, (-40.0, 300.0)], ids=["stored", "scaled"])
    @pytest.mark.parametrize("dtype", sorted(DTYPES))
    def test_read_is_c_ordered_fold3_of_the_payload(self, tmp_path, dtype, scale):
        """The cube read is C-ordered float64 and holds, bit for bit, the
        F-ordered fold3 of the payload, an integer payload mapped onto
        its header scale by lo + v / max * (hi - lo)."""
        cube = random_cube((9, 6, 5), seed=9, lo=-40.0, hi=300.0)
        hdr = write_cube(tmp_path / "c", cube, dtype=dtype, scale=scale)
        raw = np.fromfile(hdr.with_suffix(".raw"), dtype=DTYPES[dtype])
        mat = raw.astype(np.float64).reshape(5, 9 * 6)
        if scale is not None and DTYPES[dtype].kind == "u":
            lo, hi = scale
            mat = lo + mat / np.iinfo(DTYPES[dtype]).max * (hi - lo)
        got = read_cube(hdr)
        assert got.dtype == np.float64 and got.flags.c_contiguous
        np.testing.assert_array_equal(got, fold3(mat, (9, 6)))

    def test_read_accepts_hdr_or_stem(self, tmp_path):
        cube = random_cube((4, 4, 2), seed=2)
        write_cube(tmp_path / "c", cube)
        np.testing.assert_array_equal(
            read_cube(tmp_path / "c.hdr"), read_cube(tmp_path / "c")
        )

    def test_u8_quantizes_to_half_step(self, tmp_path):
        cube = random_cube((6, 6, 3), seed=3)
        write_cube(tmp_path / "c", cube, dtype="u8")
        assert np.abs(read_cube(tmp_path / "c") - cube).max() <= 0.5

    def test_scale_maps_wide_range_data(self, tmp_path):
        cube = random_cube((6, 6, 2), seed=4, lo=-3.5, hi=9.25)
        bounds = (cube.min(), cube.max())
        write_cube(tmp_path / "c", cube, dtype="u16", scale=bounds)
        err = np.abs(read_cube(tmp_path / "c") - cube).max()
        assert err <= (bounds[1] - bounds[0]) / 65535.0

    def test_degenerate_scale_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="lo < hi"):
            write_cube(tmp_path / "c", np.ones((2, 2, 1)), dtype="u8", scale=(1.0, 1.0))

    @pytest.mark.parametrize("scale", [(5.0, 1.0), (0.0, np.inf), (np.nan, 1.0)])
    @pytest.mark.parametrize("dtype", ["f32", "f64", "u8", "u16"])
    def test_bad_scale_rejected_for_every_dtype(self, tmp_path, dtype, scale):
        # a float dtype writes the scale into its header, where
        # CubeHeader.parse would reject it
        with pytest.raises(ValueError, match="lo < hi"):
            write_cube(tmp_path / "c", np.ones((2, 2, 1)), dtype=dtype, scale=scale)
        assert list(tmp_path.iterdir()) == []

    def test_normalize_on_read(self, tmp_path):
        cube = random_cube((8, 8, 2), seed=5, lo=10.0, hi=90.0)
        write_cube(tmp_path / "c", cube)
        norm = load_input(tmp_path / "c")
        assert norm.min() == pytest.approx(0.0, abs=1e-9)
        assert norm.max() == pytest.approx(255.0, rel=1e-9)

    def test_missing_file(self, tmp_path):
        with pytest.raises(UnreadableFileError):
            read_cube(tmp_path / "nope.hdr")

    @pytest.mark.parametrize("reader", [read_cube, read_band_stack])
    def test_readers_do_not_normalize(self, reader):
        # experiment.load_input is the one loader that rescales
        assert "normalize" not in inspect.signature(reader).parameters

    def test_truncated_payload(self, tmp_path):
        cube = random_cube((4, 4, 2), seed=6)
        write_cube(tmp_path / "c", cube)
        raw = (tmp_path / "c.raw").read_bytes()
        (tmp_path / "c.raw").write_bytes(raw[:-8])
        with pytest.raises(PayloadSizeError, match="expected"):
            read_cube(tmp_path / "c")


class TestPgm:
    def test_binary_roundtrip(self, tmp_path):
        band = np.arange(35, dtype=float).reshape(5, 7)
        write_pgm(tmp_path / "b.pgm", band)
        np.testing.assert_array_equal(read_pgm(tmp_path / "b.pgm"), band)

    def test_sixteen_bit_roundtrip(self, tmp_path):
        band = np.random.default_rng(7).integers(0, 60000, (5, 7)).astype(float)
        write_pgm(tmp_path / "b.pgm", band, maxval=65535)
        np.testing.assert_array_equal(read_pgm(tmp_path / "b.pgm"), band)

    def test_ascii_variant(self, tmp_path):
        (tmp_path / "a.pgm").write_text("P2\n# note\n3 2\n255\n0 10 20\n30 40 50\n")
        expected = np.array([[0.0, 10.0, 20.0], [30.0, 40.0, 50.0]])
        np.testing.assert_array_equal(read_pgm(tmp_path / "a.pgm"), expected)

    def test_comments_in_binary_header(self, tmp_path):
        band = np.arange(6, dtype=float).reshape(2, 3)
        write_pgm(tmp_path / "b.pgm", band)
        buf = (tmp_path / "b.pgm").read_bytes()
        patched = buf.replace(b"P5\n", b"P5\n# injected comment\n", 1)
        (tmp_path / "b.pgm").write_bytes(patched)
        np.testing.assert_array_equal(read_pgm(tmp_path / "b.pgm"), band)

    def test_bad_magic(self, tmp_path):
        (tmp_path / "x.pgm").write_bytes(b"P7\n2 2\n255\n....")
        with pytest.raises(DataError, match="not a PGM file"):
            read_pgm(tmp_path / "x.pgm")

    @pytest.mark.parametrize(
        "data, error, message",
        [
            (b"P5\n3 2", DataError, "truncated PGM header"),
            (b"P5\n3 # 2\n", DataError, "truncated PGM header"),
            (b"P5\n3 x\n255\n", DataError, "bad PGM header"),
            (b"P5\n0 2\n255\n", DataError, "bad PGM dims/maxval"),
            (b"P5\n3 2\n0\n", DataError, "bad PGM dims/maxval"),
            (b"P5\n3 2\n65536\n", DataError, "bad PGM dims/maxval"),
            (b"P5\n3 2\n255\n" + bytes(5), PayloadSizeError, "expected 6 bytes, got 5"),
            (b"P5\n3 2\n65535\n" + bytes(11), PayloadSizeError, "expected 12 bytes, got 11"),
            (b"P2\n2 1\n255\n1 x\n", DataError, "bad P2 sample"),
            (b"P2\n2 2\n255\n1 2 3\n", PayloadSizeError, "expected 4 samples, got 3"),
        ],
        ids=[
            "truncated", "comment-ends-header", "non-integer", "zero-width", "zero-maxval",
            "maxval-beyond-16-bit", "short-p5", "short-16-bit-p5", "bad-p2-sample",
            "few-p2-samples",
        ],
    )
    def test_rejected_file_names_itself(self, tmp_path, data, error, message):
        path = tmp_path / "x.pgm"
        path.write_bytes(data)
        with pytest.raises(error, match=message) as info:
            read_pgm(path)
        assert str(info.value).startswith(f"{path}: ")

    @pytest.mark.parametrize("name", ["missing.pgm", "dir.pgm"])
    def test_unreadable_file(self, tmp_path, name):
        (tmp_path / "dir.pgm").mkdir()
        with pytest.raises(UnreadableFileError, match="cannot read"):
            read_pgm(tmp_path / name)


class TestBandStack:
    def test_roundtrip(self, tmp_path):
        cube = random_cube((6, 5, 3), seed=8)
        write_band_stack(tmp_path / "stack", cube)
        back = read_band_stack(tmp_path / "stack")
        assert back.shape == (6, 5, 3)
        assert np.abs(back - cube).max() <= 0.5

    def test_dimension_mismatch_names_file(self, tmp_path):
        cube = random_cube((6, 5, 3), seed=9)
        write_band_stack(tmp_path / "stack", cube)
        offender = sorted((tmp_path / "stack").glob("*.pgm"))[1]
        write_pgm(offender, np.zeros((4, 4)))
        with pytest.raises(DataError, match=offender.name):
            read_band_stack(tmp_path / "stack")

    def test_empty_directory(self, tmp_path):
        (tmp_path / "stack").mkdir()
        with pytest.raises(DataError):
            read_band_stack(tmp_path / "stack")

    def test_not_a_directory(self, tmp_path):
        write_pgm(tmp_path / "band.pgm", np.zeros((4, 4)))
        for path in (tmp_path / "band.pgm", tmp_path / "missing"):
            with pytest.raises(UnreadableFileError, match="not a directory"):
                read_band_stack(path)


class TestAddGaussianNoise:
    def test_seed_reproducible(self):
        cube = random_cube((16, 16, 4), seed=10)
        a = add_gaussian_noise(cube, 25.0, seed=3)
        b = add_gaussian_noise(cube, 25.0, seed=3)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, add_gaussian_noise(cube, 25.0, seed=4))

    def test_noise_statistics(self):
        cube = np.zeros((64, 64, 16))
        noisy = add_gaussian_noise(cube, 25.0, seed=11)
        assert abs(noisy.std() - 25.0) / 25.0 < 0.02
        assert abs(noisy.mean()) < 0.5

    def test_zero_sigma_copies(self):
        cube = random_cube((8, 8, 2), seed=12)
        out = add_gaussian_noise(cube, 0.0)
        np.testing.assert_array_equal(out, cube)
        assert out is not cube

    @pytest.mark.parametrize("sigma", [0.0, 12.5])
    @pytest.mark.parametrize("layout", ["c", "fortran", "band-sliced"])
    def test_c_ordered_normal_stream(self, layout, sigma):
        """Whatever the input's layout, the noisy cube is C-ordered float64
        and equals cube + default_rng(seed).normal(0, sigma, shape) bit for
        bit."""
        wide = random_cube((9, 7, 10), seed=13)
        cube = {
            "c": wide,
            "fortran": np.asfortranarray(wide),
            "band-sliced": wide[:, :, ::2],
        }[layout]
        got = add_gaussian_noise(cube, sigma, seed=5)
        assert got.dtype == np.float64 and got.flags.c_contiguous
        want = cube + np.random.default_rng(5).normal(0.0, sigma, cube.shape)
        np.testing.assert_array_equal(got, want)

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            add_gaussian_noise(np.zeros((4, 4, 2)), -1.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_sigma_rejected(self, bad):
        with pytest.raises(ValueError, match="sigma"):
            add_gaussian_noise(np.zeros((4, 4, 2)), bad)


class TestHelpers:
    def test_parse_band_list(self):
        assert parse_band_list("0-2,5,7-8") == [0, 1, 2, 5, 7, 8]
        assert parse_band_list("3") == [3]

    def test_parse_band_list_rejects_junk(self):
        with pytest.raises(ValueError):
            parse_band_list("1,two,3")
        with pytest.raises(ValueError):
            parse_band_list("5-2")

    @pytest.mark.parametrize(
        "text, message",
        [("3-x", "bad band range '3-x'"), (",", "no bands in ','"), ("-1", "bad band range '-1'")],
    )
    def test_parse_band_list_messages(self, text, message):
        # "-1" takes the range branch, so no negative index gets through
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            parse_band_list(text)

    def test_rescale_default_bounds(self):
        cube = random_cube((4, 4, 2), seed=13, lo=-5.0, hi=10.0)
        out = rescale(cube)
        assert out.min() == 0.0
        assert out.max() == pytest.approx(255.0)

    def test_rescale_keeps_values_outside_bounds(self):
        """A float cube's values outside its bounds, as a noisy cube's
        leave its clean scale, are mapped by the same affine map, not
        clipped."""
        cube = np.array([-10.0, 0.0, 5.0, 20.0, 30.0]).reshape(1, 1, 5)
        np.testing.assert_array_equal(
            rescale(cube, (0.0, 20.0)), [[[-127.5, 0.0, 63.75, 255.0, 382.5]]]
        )

    def test_rescale_constant_input(self):
        out = rescale(np.full((3, 3, 2), 7.0))
        np.testing.assert_array_equal(out, np.zeros((3, 3, 2)))
