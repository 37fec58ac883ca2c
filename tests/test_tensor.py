"""Cube/matrix layout conventions and small tensor helpers."""

import dataclasses
import inspect

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hsidenoise import experiment, io, metrics, synthetic, tensor
from hsidenoise.pipeline import DenoiseConfig
from hsidenoise.tensor import PEAK, as_cube, fold3, frob_norm_sq, mode3_product, unfold3


def enumerated_cube():
    # x(r, c, b) = r + 2c + 4b on a 2x2x2 grid: every entry is its own
    # column-major spatial index plus a band offset, so the unfolded
    # matrix can be written down by hand.
    cube = np.empty((2, 2, 2))
    for r in range(2):
        for c in range(2):
            for b in range(2):
                cube[r, c, b] = r + 2 * c + 4 * b
    return cube


class TestUnfold3:
    def test_hand_enumerated_layout(self):
        """Row b of the unfolding scans the spatial grid column-major."""
        z = unfold3(enumerated_cube())
        expected = np.array([[0.0, 1.0, 2.0, 3.0], [4.0, 5.0, 6.0, 7.0]])
        np.testing.assert_array_equal(z, expected)

    def test_shape(self):
        z = unfold3(np.zeros((5, 7, 3)))
        assert z.shape == (3, 35)

    def test_rejects_non_cube(self):
        with pytest.raises(ValueError):
            unfold3(np.zeros((4, 4)))


class TestFold3:
    @settings(max_examples=50, deadline=None)
    @given(m=st.integers(1, 9), n=st.integers(1, 9), b=st.integers(1, 6),
           seed=st.integers(0, 2**32 - 1))
    def test_roundtrip_exact(self, m, n, b, seed):
        cube = np.random.default_rng(seed).standard_normal((m, n, b))
        mat = unfold3(cube)
        assert mat.shape == (b, m * n)
        np.testing.assert_array_equal(fold3(mat, (m, n)), cube)

    def test_inverse_of_hand_layout(self):
        mat = np.array([[0.0, 1.0, 2.0, 3.0], [4.0, 5.0, 6.0, 7.0]])
        np.testing.assert_array_equal(fold3(mat, (2, 2)), enumerated_cube())

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            fold3(np.zeros((3, 10)), (3, 3))


class TestMode3Product:
    def test_matches_unfolded_matmul(self):
        rng = np.random.default_rng(1)
        cube = rng.standard_normal((4, 6, 5))
        p = rng.standard_normal((3, 5))
        out = mode3_product(cube, p)
        assert out.shape == (4, 6, 3)
        np.testing.assert_allclose(
            unfold3(out), p @ unfold3(cube), rtol=0, atol=1e-13
        )

    def test_identity_matrix(self):
        rng = np.random.default_rng(2)
        cube = rng.standard_normal((3, 3, 4))
        np.testing.assert_array_equal(mode3_product(cube, np.eye(4)), cube)

    def test_per_pixel_definition(self):
        """Each output spectrum is P applied to the input spectrum."""
        rng = np.random.default_rng(3)
        cube = rng.standard_normal((2, 2, 3))
        p = rng.standard_normal((2, 3))
        out = mode3_product(cube, p)
        for r in range(2):
            for c in range(2):
                np.testing.assert_allclose(out[r, c], p @ cube[r, c], atol=1e-14)

    def test_band_count_mismatch(self):
        with pytest.raises(ValueError):
            mode3_product(np.zeros((2, 2, 3)), np.zeros((2, 4)))


class TestFrobNormSq:
    def test_value(self):
        arr = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert frob_norm_sq(arr) == 30.0

    def test_zero(self):
        assert frob_norm_sq(np.zeros((3, 3, 3))) == 0.0

    def test_difference_summed_in_row_blocks(self, monkeypatch):
        # one row per block: the same value as the difference formed whole
        monkeypatch.setattr(tensor, "_BLOCK_BYTES", 1)
        rng = np.random.default_rng(0)
        a, b = rng.standard_normal((2, 5, 4, 3))
        assert frob_norm_sq(a, b) == pytest.approx(frob_norm_sq(a - b), rel=1e-14)

    def test_difference_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            frob_norm_sq(np.zeros((2, 3)), np.zeros(3))


class TestAsCube:
    def test_casts_to_float64(self):
        cube = as_cube(np.ones((2, 2, 2), dtype=np.int32))
        assert cube.dtype == np.float64

    def test_rejects_wrong_ndim(self):
        with pytest.raises(ValueError, match="cube"):
            as_cube(np.zeros((4, 4)))

    def test_error_names_argument(self):
        with pytest.raises(ValueError, match="reduced"):
            as_cube(np.zeros(5), name="reduced")


class TestPeak:
    """The intensity scale is tensor.PEAK, defined once."""

    @pytest.mark.parametrize(
        "func, name",
        [
            (metrics.psnr, "peak"),
            (metrics.mpsnr, "peak"),
            (metrics.ssim, "peak"),
            (metrics.mssim, "peak"),
            (metrics.quality_report, "peak"),
            (synthetic.rank_cube, "peak"),
        ],
    )
    def test_defaults_are_peak(self, func, name):
        assert inspect.signature(func).parameters[name].default is PEAK

    def test_not_a_config_field(self):
        assert "value_scale" not in {f.name for f in dataclasses.fields(DenoiseConfig)}

    @pytest.mark.parametrize(
        "func", [io.rescale, io.read_cube, io.read_band_stack, experiment.load_input]
    )
    def test_loaders_take_no_peak(self, func):
        assert "peak" not in inspect.signature(func).parameters

    def test_loaders_normalize_onto_peak(self, tmp_path):
        cube = np.random.default_rng(0).integers(3, 40, (6, 5, 3)).astype(float)
        header = io.write_cube(tmp_path / "cube", cube)
        io.write_band_stack(tmp_path / "bands", cube)
        scaled = io.write_cube(tmp_path / "scaled", cube, scale=(cube.min(), cube.max()))
        for loaded in (
            experiment.load_input(header),
            experiment.load_input(tmp_path / "bands"),
            experiment.load_input(scaled),
        ):
            assert loaded.min() == 0.0
            assert loaded.max() == pytest.approx(PEAK, rel=1e-15)
