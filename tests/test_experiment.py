"""Experiment harness: sigma sweeps, reports, band-count benchmarks."""

import csv
import dataclasses
import re

import numpy as np
import pytest

from hsidenoise import experiment, spatial
from hsidenoise.experiment import (
    REPORT_FIELDS,
    ExperimentSpec,
    bench_bands,
    load_input,
    run_experiment,
    write_trace_csv,
)
from hsidenoise.io import (
    DataError,
    add_gaussian_noise,
    read_cube,
    rescale,
    write_band_stack,
    write_cube,
)
from hsidenoise.metrics import mssim
from hsidenoise.pipeline import DenoiseConfig, denoise
from hsidenoise.spatial import PatchGeometry
from hsidenoise.synthetic import rank_cube

FAST_CFG = DenoiseConfig(
    k0=2,
    iters=2,
    geom=PatchGeometry(patch=4, window=10, group=16),
)


@pytest.fixture
def cube_path(tmp_path):
    cube = rank_cube(32, 32, 8, 2, seed=1)
    return write_cube(tmp_path / "scene", cube)


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestLoadInput:
    def test_reads_cube_file(self, cube_path):
        assert load_input(cube_path, normalize=False).shape == (32, 32, 8)

    def test_reads_band_directory(self, tmp_path):
        cube = rank_cube(16, 16, 4, 2, seed=2)
        write_band_stack(tmp_path / "stack", cube)
        assert load_input(tmp_path / "stack", normalize=False).shape == (16, 16, 4)

    def test_normalize(self, tmp_path):
        cube = rank_cube(16, 16, 4, 2, seed=3, peak=90.0)
        path = write_cube(tmp_path / "dim", cube)
        loaded = load_input(path, normalize=True)
        assert loaded.max() == pytest.approx(255.0)

    def test_keep_bands(self, cube_path):
        loaded = load_input(cube_path, normalize=False, keep_bands=[0, 2, 5])
        full = load_input(cube_path, normalize=False)
        np.testing.assert_array_equal(loaded, full[:, :, [0, 2, 5]])

    @pytest.mark.parametrize("keep", [[-1], [0, -8], [8], [2, 9]])
    def test_keep_bands_out_of_range(self, cube_path, keep):
        bad = next(i for i in keep if not 0 <= i < 8)
        with pytest.raises(ValueError, match=f"band index {bad} out of range"):
            load_input(cube_path, normalize=False, keep_bands=keep)

    @pytest.mark.parametrize("keep", [[], [1, 1], [0, 3, 0]])
    def test_keep_bands_empty_or_repeated(self, cube_path, tmp_path, keep):
        # [] failed in rescale on a zero-size cube; a repeated band read
        # sigma 0 in the band-noise regression
        with pytest.raises(ValueError, match=re.escape(f"distinct bands, got {keep}")):
            load_input(cube_path, normalize=False, keep_bands=keep)
        with pytest.raises(ValueError, match=re.escape(f"distinct bands, got {keep}")):
            ExperimentSpec(
                input_path=cube_path, sigmas=[10.0], output_dir=tmp_path, keep_bands=keep
            )

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_entry_is_data_error(self, tmp_path, bad):
        cube = rank_cube(16, 16, 4, 2, seed=2)
        cube[3, 4, 1] = bad
        path = write_cube(tmp_path / "bad", cube)
        with pytest.raises(DataError, match="NaN or infinite"):
            load_input(path, normalize=False)

    def test_non_finite_entry_in_a_dropped_band_is_read(self, tmp_path):
        cube = rank_cube(16, 16, 4, 2, seed=2)
        cube[3, 4, 1] = np.nan
        path = write_cube(tmp_path / "bad", cube)
        loaded = load_input(path, normalize=False, keep_bands=[0, 2, 3])
        np.testing.assert_array_equal(loaded, cube[:, :, [0, 2, 3]])

    @pytest.mark.parametrize("normalize", [True, False])
    @pytest.mark.parametrize("keep", [None, [1, 3]])
    def test_one_nan_is_read_raw_and_rejected_at_load(self, tmp_path, keep, normalize):
        # read_cube(path, normalize=True) once turned this one NaN into 24
        cube = np.arange(24, dtype=float).reshape(2, 3, 4)
        cube[1, 2, 1] = np.nan
        path = write_cube(tmp_path / "one_nan", cube)
        read = read_cube(path)
        np.testing.assert_array_equal(np.argwhere(np.isnan(read)), [[1, 2, 1]])
        np.testing.assert_array_equal(read, cube)
        with pytest.raises(DataError, match="NaN or infinite") as info:
            load_input(path, normalize=normalize, keep_bands=keep)
        assert str(path) in str(info.value)

    @staticmethod
    def bright_band_zero(tmp_path, **write):
        """A 16x16x8 cube whose band 0 is 1e4 everywhere, and its path."""
        cube = rank_cube(16, 16, 8, 3, seed=4)
        cube[:, :, 0] = 1e4
        return cube, write_cube(tmp_path / "bright", cube, **write)

    def test_kept_bands_normalized_by_their_own_range(self, tmp_path):
        # normalizing before the selection left bands 1-7 on [0, 6.50]
        cube, path = self.bright_band_zero(tmp_path)
        loaded = load_input(path, keep_bands=range(1, 8))
        np.testing.assert_array_equal(loaded, rescale(cube[:, :, 1:]))
        assert (loaded.min(), loaded.max()) == (0.0, 255.0)

    def test_kept_band_stack_normalized_by_its_own_range(self, tmp_path):
        cube = rank_cube(16, 16, 4, 2, seed=5, peak=100.0)
        cube[:, :, 0] = 255.0
        write_band_stack(tmp_path / "stack", cube)
        loaded = load_input(tmp_path / "stack", keep_bands=[1, 2, 3])
        raw = load_input(tmp_path / "stack", normalize=False, keep_bands=[1, 2, 3])
        np.testing.assert_array_equal(loaded, rescale(raw))
        assert raw.max() < 255.0 and loaded.max() == 255.0

    def test_kept_bands_normalized_by_the_header_scale(self, tmp_path):
        cube, path = self.bright_band_zero(tmp_path, scale=(0.0, 2e4))
        loaded = load_input(path, keep_bands=range(1, 8))
        np.testing.assert_array_equal(loaded, rescale(cube[:, :, 1:], (0.0, 2e4)))

    def test_nan_in_a_dropped_band_loads_normalized(self, tmp_path):
        # it raised DataError, though the same file loaded unnormalized
        cube = rank_cube(16, 16, 4, 2, seed=2)
        cube[3, 4, 1] = np.nan
        path = write_cube(tmp_path / "bad", cube)
        loaded = load_input(path, keep_bands=[0, 2, 3])
        np.testing.assert_array_equal(loaded, rescale(cube[:, :, [0, 2, 3]]))


class TestRunExperiment:
    def test_nan_input_raises_before_writing(self, tmp_path):
        cube = add_gaussian_noise(rank_cube(24, 24, 8, 3, seed=0), 20.0, seed=0)
        cube[5, 7, 2] = np.nan
        spec = ExperimentSpec(
            input_path=str(write_cube(tmp_path / "nan", cube)),
            sigmas=[10.0, 30.0],
            output_dir=str(tmp_path / "exp"),
            config=FAST_CFG,
        )
        with pytest.raises(DataError, match="NaN or infinite"):
            run_experiment(spec)
        assert not (tmp_path / "exp").exists()

    def test_sweep_writes_report_and_artifacts(self, cube_path, tmp_path):
        spec = ExperimentSpec(
            input_path=cube_path,
            sigmas=[10.0, 20.0],
            output_dir=tmp_path / "out",
            config=FAST_CFG,
            normalize=False,
        )
        rows = run_experiment(spec)
        assert [r["status"] for r in rows] == ["ok", "ok"]
        assert all(float(r["mpsnr"]) > 20.0 for r in rows)

        on_disk = read_rows(tmp_path / "out" / "report.csv")
        assert [r["sigma"] for r in on_disk] == [r["sigma"] for r in rows]

        trace = read_rows(tmp_path / "out" / "scene_sigma10_trace.csv")
        assert len(trace) == FAST_CFG.iters
        denoised = read_cube(tmp_path / "out" / "scene_sigma10_denoised.hdr")
        assert denoised.shape == (32, 32, 8)

    def test_denoised_cubes_load_as_written(self, cube_path, tmp_path):
        """A sweep over a normalized load records scale 0 255 on each
        denoised cube, so load_input reads it back bit for bit; a sweep over
        stored values records no scale."""
        for normalize in (True, False):
            outdir = tmp_path / f"out-{normalize}"
            spec = ExperimentSpec(
                input_path=cube_path,
                sigmas=[10.0, 30.0],
                output_dir=outdir,
                config=FAST_CFG,
                normalize=normalize,
            )
            run_experiment(spec)
            paths = sorted(outdir.glob("*_denoised.hdr"))
            assert len(paths) == 2
            for path in paths:
                scale_lines = [ln for ln in path.read_text().splitlines() if ln.startswith("scale")]
                if normalize:
                    assert scale_lines == ["scale = 0 255"]
                    assert load_input(path).tobytes() == read_cube(path).tobytes()
                else:
                    assert scale_lines == []

    def test_failures_recorded_not_raised(self, cube_path, tmp_path):
        # patch bigger than the image: every case fails inside denoise,
        # but the sweep still completes and reports
        bad_cfg = DenoiseConfig(
            k0=2, iters=1, geom=PatchGeometry(patch=40, window=80, group=16)
        )
        spec = ExperimentSpec(
            input_path=cube_path,
            sigmas=[10.0, 20.0],
            output_dir=tmp_path / "out",
            config=bad_cfg,
            normalize=False,
        )
        rows = run_experiment(spec)
        assert all(r["status"].startswith("error:") for r in rows)
        assert (tmp_path / "out" / "report.csv").exists()

    def test_negative_sigma_rejected_up_front(self, cube_path, tmp_path):
        with pytest.raises(ValueError, match="sigma"):
            ExperimentSpec(
                input_path=cube_path,
                sigmas=[10.0, -5.0],
                output_dir=tmp_path / "out",
            )

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_sigma_rejected_up_front(self, cube_path, tmp_path, bad):
        with pytest.raises(ValueError, match="sigma"):
            ExperimentSpec(
                input_path=cube_path,
                sigmas=[10.0, bad],
                output_dir=tmp_path / "out",
            )

    @pytest.mark.parametrize("sigmas", [[10, 10], [10, 10.0000001]])
    def test_sigmas_printing_alike_rejected_up_front(self, cube_path, tmp_path, sigmas):
        # both cases would name their files {image}_sigma10_*, the second
        # case's overwriting the first's
        with pytest.raises(ValueError, match=re.escape(f"sigmas {sigmas[0]} and {sigmas[1]} ")):
            ExperimentSpec(input_path=cube_path, sigmas=sigmas, output_dir=tmp_path / "out")

    @pytest.mark.parametrize("jobs", [2.5, 2.0, True, np.float64(2.0)])
    def test_jobs_must_be_an_integer(self, cube_path, tmp_path, jobs):
        # jobs=2.5 once failed with a TypeError from the process pool
        with pytest.raises(ValueError, match="jobs"):
            ExperimentSpec(input_path=cube_path, sigmas=[10.0], output_dir=tmp_path, jobs=jobs)

    def test_zero_jobs_rejected(self, cube_path, tmp_path):
        with pytest.raises(ValueError, match="jobs must be >= 1, got 0"):
            ExperimentSpec(input_path=cube_path, sigmas=[10.0], output_dir=tmp_path, jobs=0)

    def test_numpy_integer_jobs_accepted(self, cube_path, tmp_path):
        spec = ExperimentSpec(
            input_path=cube_path, sigmas=[10.0], output_dir=tmp_path, jobs=np.int64(2)
        )
        assert spec.jobs == 2

    @pytest.mark.parametrize("seed", [2.5, 2.0, True, np.float64(2.0)])
    def test_seed_must_be_an_integer(self, cube_path, tmp_path, seed):
        # seed=2.5 once failed every case with a TypeError in its status
        with pytest.raises(ValueError, match="seed"):
            ExperimentSpec(input_path=cube_path, sigmas=[10.0], output_dir=tmp_path, seed=seed)

    @pytest.mark.parametrize("keep", [[0.5, 2], [0, 2.0], [True, 1], [np.float64(1.0)]])
    def test_keep_bands_must_be_integers(self, cube_path, tmp_path, keep):
        # keep_bands=[0.5, 2] once raised an IndexError from load_input
        with pytest.raises(ValueError, match="keep_bands"):
            ExperimentSpec(
                input_path=cube_path, sigmas=[10.0], output_dir=tmp_path, keep_bands=keep
            )

    def test_numpy_integer_seed_and_bands_accepted(self, cube_path, tmp_path):
        spec = ExperimentSpec(
            input_path=cube_path,
            sigmas=[10.0],
            output_dir=tmp_path / "out",
            seed=np.int64(3),
            keep_bands=list(np.array([0, 2, 5])),
            config=FAST_CFG,
            normalize=False,
        )
        rows = run_experiment(spec)
        assert [r["status"] for r in rows] == ["ok"]

    def test_label_overrides_stem(self, cube_path, tmp_path):
        spec = ExperimentSpec(
            input_path=cube_path,
            sigmas=[10.0],
            output_dir=tmp_path / "out",
            config=FAST_CFG,
            normalize=False,
            label="wdc",
        )
        rows = run_experiment(spec)
        assert rows[0]["image"] == "wdc"
        assert (tmp_path / "out" / "wdc_sigma10_trace.csv").exists()

    def test_save_cubes_off(self, cube_path, tmp_path):
        spec = ExperimentSpec(
            input_path=cube_path,
            sigmas=[10.0],
            output_dir=tmp_path / "out",
            config=FAST_CFG,
            normalize=False,
            save_cubes=False,
        )
        run_experiment(spec)
        assert not list((tmp_path / "out").glob("*_denoised.*"))

    def test_parallel_matches_serial(self, cube_path, tmp_path):
        base = dict(
            input_path=cube_path,
            sigmas=[10.0, 20.0],
            config=FAST_CFG,
            normalize=False,
            save_cubes=False,
        )
        serial = run_experiment(
            ExperimentSpec(output_dir=tmp_path / "s", **base)
        )
        parallel = run_experiment(
            ExperimentSpec(output_dir=tmp_path / "p", jobs=2, **base)
        )
        assert [r["mpsnr"] for r in serial] == [r["mpsnr"] for r in parallel]

    def test_frozen_spec_runs_on_two_workers(self, cube_path, tmp_path):
        # sigmas set after construction skipped the check that keeps two
        # cases from writing the same files
        spec = ExperimentSpec(input_path=cube_path, sigmas=[10.0, 20.0],
                              output_dir=tmp_path / "out", config=FAST_CFG,
                              normalize=False, save_cubes=False, jobs=2)
        with pytest.raises(dataclasses.FrozenInstanceError):
            spec.sigmas = [10.0, 10.000001]
        assert [r["status"] for r in run_experiment(spec)] == ["ok", "ok"]

    def test_parallel_report_and_cubes_equal_serial(self, cube_path, tmp_path, monkeypatch):
        """Forked workers each match and shrink on their own thread pool;
        chunks small enough for several match row blocks and shrink jobs."""
        monkeypatch.setattr(spatial, "_CHUNK_BYTES", 1 << 15)
        base = dict(
            input_path=cube_path,
            sigmas=[10.0, 20.0, 40.0],
            config=FAST_CFG,
            normalize=False,
        )
        serial = run_experiment(ExperimentSpec(output_dir=tmp_path / "s", **base))
        parallel = run_experiment(ExperimentSpec(output_dir=tmp_path / "p", jobs=2, **base))
        timing = {"seconds", "stage_a_seconds", "stage_b_seconds"}

        def untimed(rows):
            return [{f: r[f] for f in REPORT_FIELDS if f not in timing} for r in rows]

        assert untimed(serial) == untimed(parallel)
        assert all(r["status"] == "ok" for r in serial)
        for sigma in base["sigmas"]:
            name = f"scene_sigma{sigma:g}_denoised.hdr"
            np.testing.assert_array_equal(
                read_cube(tmp_path / "p" / name), read_cube(tmp_path / "s" / name)
            )

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_failure_traceback_written(self, cube_path, tmp_path, monkeypatch, jobs):
        def failing_denoise(noisy, sigma, cfg, clean=None):
            if sigma == 20.0:
                raise RuntimeError("boom")
            return denoise(noisy, sigma, cfg, clean=clean)

        # forked workers inherit the patched module
        monkeypatch.setattr(experiment, "denoise", failing_denoise)
        spec = ExperimentSpec(
            input_path=cube_path,
            sigmas=[10.0, 20.0],
            output_dir=tmp_path / "out",
            config=FAST_CFG,
            normalize=False,
            save_cubes=False,
            jobs=jobs,
        )
        rows = run_experiment(spec)
        assert [r["status"] for r in rows] == ["ok", "error: RuntimeError: boom"]
        text = (tmp_path / "out" / "scene_sigma20_error.txt").read_text()
        assert text.startswith("Traceback")
        assert "failing_denoise" in text and "RuntimeError: boom" in text
        assert not (tmp_path / "out" / "scene_sigma10_error.txt").exists()


class TestTraceCsv:
    def test_floats_survive_text_roundtrip(self, tmp_path):
        clean = rank_cube(24, 24, 4, 2, seed=4)
        noisy = clean + np.random.default_rng(4).standard_normal(clean.shape) * 10.0
        _, trace = denoise(noisy, 10.0, FAST_CFG, clean=clean)
        write_trace_csv(tmp_path / "t.csv", trace)
        rows = read_rows(tmp_path / "t.csv")
        for rec, row in zip(trace, rows):
            assert float(row["sigma"]) == rec.sigma
            assert float(row["psnr"]) == rec.psnr
            assert int(row["k"]) == rec.k


class TestBenchBands:
    def test_truncated_band_runs(self, cube_path, tmp_path):
        spec = ExperimentSpec(
            input_path=cube_path,
            sigmas=[15.0],
            output_dir=tmp_path / "bench",
            config=FAST_CFG,
            normalize=False,
        )
        rows = bench_bands(spec, band_counts=[4, 8])
        assert [int(r["bands"]) for r in rows] == [4, 8]
        for row in rows:
            assert float(row["stage_a_seconds"]) > 0.0
            assert float(row["stage_b_seconds"]) > 0.0
            assert 0.0 < float(row["mssim"]) <= 1.0
        assert (tmp_path / "bench" / "bench.csv").exists()

    def test_denoises_without_clean(self, cube_path, tmp_path, monkeypatch):
        """The rows read only the stage times and the MSSIM of the estimate,
        so the loop need not write the estimate or a PSNR per iteration."""
        calls = []

        def recording_denoise(noisy, sigma0=None, config=None, clean=None):
            calls.append(clean)
            return denoise(noisy, sigma0, config, clean=clean)

        monkeypatch.setattr(experiment, "denoise", recording_denoise)
        spec = ExperimentSpec(
            input_path=cube_path,
            sigmas=[15.0],
            output_dir=tmp_path / "bench",
            config=FAST_CFG,
            normalize=False,
        )
        rows = bench_bands(spec, band_counts=[4, 8])
        assert calls == [None, None]
        clean = load_input(cube_path, normalize=False)
        for row, nb in zip(rows, [4, 8]):
            sub = np.ascontiguousarray(clean[:, :, :nb])
            x, _ = denoise(add_gaussian_noise(sub, 15.0, seed=spec.seed), 15.0, FAST_CFG)
            assert float(row["mssim"]) == mssim(sub, x)

    def test_default_counts_need_32_bands(self, tmp_path):
        path = write_cube(tmp_path / "scene", rank_cube(16, 16, 31, 2, seed=1))
        spec = ExperimentSpec(
            input_path=path,
            sigmas=[15.0],
            output_dir=tmp_path / "bench",
            config=FAST_CFG,
            normalize=False,
        )
        with pytest.raises(ValueError, match="needs >= 32 bands, got 31"):
            bench_bands(spec)
        assert not (tmp_path / "bench").exists()

    @pytest.mark.parametrize(
        "bands, counts", [(32, [32]), (64, [32, 64]), (129, [32, 64, 128, 129])]
    )
    def test_default_counts_below_the_band_count(self, tmp_path, bands, counts):
        """With no counts, the grid is those of 32, 64 and 128 below B, then
        B; on a 64-band cube it once asked for 128 bands and raised."""
        path = write_cube(tmp_path / "scene", rank_cube(16, 16, bands, 2, seed=1))
        spec = ExperimentSpec(
            input_path=path,
            sigmas=[15.0],
            output_dir=tmp_path / "bench",
            config=dataclasses.replace(FAST_CFG, iters=1),
            normalize=False,
        )
        rows = bench_bands(spec)
        assert [int(r["bands"]) for r in rows] == counts
        assert [int(r["bands"]) for r in read_rows(tmp_path / "bench" / "bench.csv")] == counts

    @pytest.mark.parametrize("counts", [[4.7, 6.2], [4, 6.0], [True, 4]])
    def test_counts_must_be_integers(self, cube_path, tmp_path, counts):
        # [4.7, 6.2] once ran 4 and 6 bands
        spec = ExperimentSpec(
            input_path=cube_path,
            sigmas=[15.0],
            output_dir=tmp_path / "bench",
            config=FAST_CFG,
            normalize=False,
        )
        with pytest.raises(ValueError, match="band count"):
            bench_bands(spec, band_counts=counts)
        assert not (tmp_path / "bench" / "bench.csv").exists()

    def test_counts_beyond_input_rejected(self, cube_path, tmp_path):
        spec = ExperimentSpec(
            input_path=cube_path,
            sigmas=[15.0],
            output_dir=tmp_path / "bench",
            config=FAST_CFG,
            normalize=False,
        )
        with pytest.raises(ValueError):
            bench_bands(spec, band_counts=[4, 16])
