"""Command-line interface: exit codes, flag handling, outputs."""

import argparse
import dataclasses
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from hsidenoise import cli, experiment
from hsidenoise.cli import _build_config, build_parser, main
from hsidenoise.experiment import load_input
from hsidenoise.io import add_gaussian_noise, read_cube, write_cube
from hsidenoise.pipeline import DenoiseConfig, NumericalError, denoise
from hsidenoise.spatial import PatchGeometry
from hsidenoise.synthetic import rank_cube

FAST = [
    "--k0", "2", "--iters", "1", "--patch", "4", "--window", "10",
    "--group", "16",
]


@pytest.fixture
def scene(tmp_path):
    clean = rank_cube(32, 32, 8, 2, seed=1)
    noisy = add_gaussian_noise(clean, 20.0, seed=1)
    clean_path = write_cube(tmp_path / "clean", clean)
    noisy_path = write_cube(tmp_path / "noisy", noisy)
    return clean_path, noisy_path


class TestDenoiseCommand:
    def test_happy_path(self, scene, tmp_path, capsys):
        clean_path, noisy_path = scene
        out = tmp_path / "out"
        code = main(
            ["denoise", str(noisy_path), str(out), "--sigma0", "20", "--no-normalize"]
            + FAST
        )
        assert code == 0
        assert read_cube(out).shape == (32, 32, 8)
        assert "denoised 32x32x8" in capsys.readouterr().out

    def test_metrics_printed_with_clean(self, scene, tmp_path, capsys):
        clean_path, noisy_path = scene
        code = main(
            ["denoise", str(noisy_path), str(tmp_path / "out"), "--sigma0", "20",
             "--clean", str(clean_path), "--no-normalize"] + FAST
        )
        assert code == 0
        assert "mpsnr=" in capsys.readouterr().out

    def test_trace_written(self, scene, tmp_path):
        _, noisy_path = scene
        trace = tmp_path / "trace.csv"
        code = main(
            ["denoise", str(noisy_path), str(tmp_path / "out"), "--sigma0", "20",
             "--trace", str(trace), "--no-normalize"] + FAST
        )
        assert code == 0
        assert trace.read_text().startswith("iteration,")

    @pytest.mark.parametrize(
        "output, trace", [("out", "nodir/t.csv"), ("nodir/out", "t.csv")], ids=["trace", "output"]
    )
    def test_missing_directory_fails_before_the_denoise(
        self, scene, tmp_path, monkeypatch, capsys, output, trace
    ):
        def never(*args, **kwargs):
            raise AssertionError("denoise ran")

        monkeypatch.setattr(cli, "denoise", never)
        _, noisy_path = scene
        code = main(
            ["denoise", str(noisy_path), str(tmp_path / output), "--sigma0", "20",
             "--trace", str(tmp_path / trace), "--no-normalize"] + FAST
        )
        assert code == 2
        assert "i/o error" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "clean.hdr", "clean.raw", "noisy.hdr", "noisy.raw"
        ]

    def test_unwritable_trace_leaves_no_cube(self, scene, tmp_path, capsys):
        # the cube was written before the trace failed
        _, noisy_path = scene
        (tmp_path / "trace_dir").mkdir()
        code = main(
            ["denoise", str(noisy_path), str(tmp_path / "out"), "--sigma0", "20",
             "--trace", str(tmp_path / "trace_dir"), "--no-normalize"] + FAST
        )
        assert code == 2
        assert "i/o error" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "clean.hdr", "clean.raw", "noisy.hdr", "noisy.raw", "trace_dir"
        ]

    def test_missing_input_is_data_error(self, tmp_path):
        code = main(["denoise", str(tmp_path / "nope.hdr"), str(tmp_path / "o")])
        assert code == 2

    def test_unknown_flag_is_usage_error(self, scene, tmp_path):
        _, noisy_path = scene
        code = main(["denoise", str(noisy_path), str(tmp_path / "o"), "--bogus"])
        assert code == 1

    def test_bad_config_value_is_usage_error(self, scene, tmp_path):
        _, noisy_path = scene
        code = main(
            ["denoise", str(noisy_path), str(tmp_path / "o"), "--lambda", "1.5"]
        )
        assert code == 1

    def test_config_file_with_flag_override(self, scene, tmp_path, capsys):
        _, noisy_path = scene
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "k0 = 2\niters = 3\npatch = 4\nwindow = 10\ngroup = 16\n"
        )
        trace = tmp_path / "trace.csv"
        code = main(
            ["denoise", str(noisy_path), str(tmp_path / "o"), "--sigma0", "20",
             "--config", str(cfg), "--iters", "1", "--trace", str(trace),
             "--no-normalize"]
        )
        assert code == 0
        # flag wins over the file: one iteration, not three
        assert trace.read_text().count("\n") == 2

    @pytest.mark.parametrize(
        "flags", [["--gamma", "0"], ["--lambda", "inf"], ["--iters", "0"]]
    )
    def test_out_of_range_shrinkage_constant_is_usage_error(
        self, scene, tmp_path, flags, capsys
    ):
        _, noisy_path = scene
        out = tmp_path / "o"
        # after FAST, so that a flag FAST sets too is the one read
        code = main(["denoise", str(noisy_path), str(out)] + FAST + flags)
        assert code == 1
        assert "must be" in capsys.readouterr().err
        assert not out.with_suffix(".hdr").exists()

    # early_stop, a relative-change stop beside iters, is removed
    @pytest.mark.parametrize(
        "line", ["itres = 1", "lam = 0.5", "sigma = 3", "early_stop = 0.01", "early-stop = 0.01"]
    )
    def test_unknown_config_key_is_usage_error(self, scene, tmp_path, capsys, line):
        _, noisy_path = scene
        cfg = tmp_path / "run.cfg"
        cfg.write_text("iters = 1\n" + line + "\n")
        code = main(
            ["denoise", str(noisy_path), str(tmp_path / "o"), "--config", str(cfg)]
        )
        assert code == 1
        key = line.split()[0].replace("-", "_")
        assert f"run.cfg:2: unknown key '{key}'" in capsys.readouterr().err

    # retired options: delta, the paper's schedule that grew K each
    # iteration (K holds at k0), and stride (the reference grid tiles the
    # image); neither flag nor config key is read
    @pytest.mark.parametrize("key", ["delta", "stride"])
    def test_retired_option_is_usage_error(self, scene, tmp_path, capsys, key):
        _, noisy_path = scene
        out = tmp_path / "o"
        code = main(["denoise", str(noisy_path), str(out), f"--{key}", "2"] + FAST)
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: hsidenoise")
        assert f"unrecognized arguments: --{key}" in err
        assert not out.with_suffix(".hdr").exists()
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = 2\n")
        code = main(["denoise", str(noisy_path), str(out), "--config", str(cfg)] + FAST)
        assert code == 1
        assert f"run.cfg:1: unknown key '{key}'" in capsys.readouterr().err
        assert not out.with_suffix(".hdr").exists()

    def test_config_line_without_equals_is_usage_error(self, scene, tmp_path, capsys):
        _, noisy_path = scene
        cfg = tmp_path / "run.cfg"
        cfg.write_text("iters = 1  # one\n\niters 2\n")
        code = main(
            ["denoise", str(noisy_path), str(tmp_path / "o"), "--config", str(cfg)]
        )
        assert code == 1
        assert "run.cfg:3: expected key = value, got 'iters 2'" in capsys.readouterr().err

    def test_config_normalize_not_a_boolean_is_usage_error(self, scene, tmp_path, capsys):
        _, noisy_path = scene
        cfg = tmp_path / "run.cfg"
        cfg.write_text("normalize = maybe\n")
        out = tmp_path / "o"
        assert main(["denoise", str(noisy_path), str(out), "--config", str(cfg)]) == 1
        assert "expected a boolean, got 'maybe'" in capsys.readouterr().err
        assert not out.with_suffix(".hdr").exists()

    def test_non_finite_header_scale_is_data_error(self, scene, tmp_path, capsys):
        _, noisy_path = scene
        noisy_path.write_text(noisy_path.read_text() + "scale = nan 5\n")
        out = tmp_path / "o"
        assert main(["denoise", str(noisy_path), str(out)] + FAST) == 2
        assert "scale values must be finite" in capsys.readouterr().err
        assert not out.with_suffix(".hdr").exists()

    def test_inverted_header_scale_is_data_error(self, tmp_path, capsys):
        # an inverted scale would normalize the cube to all zeros
        path = write_cube(tmp_path / "c", rank_cube(24, 24, 8, 3, seed=0), dtype="u8")
        path.write_text(path.read_text() + "scale = 9 3\n")
        out = tmp_path / "o"
        assert main(["denoise", str(path), str(out)] + FAST) == 2
        assert "lo < hi" in capsys.readouterr().err
        assert not out.with_suffix(".hdr").exists()

    def test_non_finite_stage_output_is_numerical_error(self, scene, tmp_path, nan_stage, capsys):
        _, noisy_path = scene
        out = tmp_path / "o"
        code = main(["denoise", str(noisy_path), str(out), "--sigma0", "20", "--no-normalize"] + FAST)
        assert code == 3
        err = capsys.readouterr().err
        assert "numerical failure: non-finite values after spatial filtering at iteration 1" in err
        assert not out.with_suffix(".hdr").exists()

    def test_non_finite_projection_is_numerical_error(self, scene, tmp_path, nan_projection, capsys):
        _, noisy_path = scene
        out = tmp_path / "o"
        code = main(["denoise", str(noisy_path), str(out), "--sigma0", "20", "--no-normalize"] + FAST)
        assert code == 3
        err = capsys.readouterr().err
        assert "numerical failure: non-finite values after spectral projection at iteration 1" in err
        assert not out.with_suffix(".hdr").exists()

    def test_config_normalize_true(self, tmp_path):
        """A file's normalize = true rescales on load as the default does,
        and --no-normalize overrides it."""
        path = write_cube(tmp_path / "c", rank_cube(24, 24, 8, 2, seed=3) * 4.0)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("normalize = true\n")
        assert _denoise_config("--config", str(cfg))[1].normalize is True
        assert _denoise_config("--config", str(cfg), "--no-normalize")[1].normalize is False
        runs = {"file": ["--config", str(cfg)], "default": [], "raw": ["--no-normalize"]}
        outs = {}
        for name, extra in runs.items():
            argv = ["denoise", str(path), str(tmp_path / name), "--sigma0", "20"]
            assert main(argv + extra + FAST) == 0
            outs[name] = read_cube(tmp_path / name)
        np.testing.assert_array_equal(outs["file"], outs["default"])
        assert not np.array_equal(outs["file"], outs["raw"])

    @pytest.mark.parametrize("config", ["missing.cfg", "."], ids=["missing", "directory"])
    def test_unreadable_config_is_data_error(self, scene, tmp_path, capsys, config):
        _, noisy_path = scene
        out = tmp_path / "o"
        code = main(["denoise", str(noisy_path), str(out), "--config", str(tmp_path / config)])
        assert code == 2
        assert "cannot read config file" in capsys.readouterr().err
        assert not out.with_suffix(".hdr").exists()

    @pytest.mark.parametrize("flags", [["--sigma0", "nan"], ["--gamma", "nan"]])
    def test_nan_is_usage_error(self, scene, tmp_path, flags, capsys):
        _, noisy_path = scene
        out = tmp_path / "o"
        code = main(["denoise", str(noisy_path), str(out), "--no-normalize"] + flags + FAST)
        assert code == 1
        assert "got nan" in capsys.readouterr().err
        assert not out.with_suffix(".hdr").exists()


# Every option of `denoise`; the denoiser ones mirror the config fields.
DENOISE_OPTIONS = {
    "-h", "--help", "--clean", "--trace", "--dtype", "--config", "--k0",
    "--lambda", "--gamma", "--iters", "--patch", "--window",
    "--group", "--sigma0", "--no-normalize", "--keep-bands",
}
# a non-default value for each settable field and the config key it is read under
FIELD_VALUES = {
    "k0": ("k0", 3),
    "lam": ("lambda", 0.5),
    "gamma": ("gamma", 0.25),
    "iters": ("iters", 2),
    "patch": ("patch", 5),
    "window": ("window", 20),
    "group": ("group", 10),
}


def _flat(cfg):
    vals = dataclasses.asdict(cfg)
    vals.update(vals.pop("geom"))
    return vals


def _denoise_parser():
    sub = next(
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    return sub.choices["denoise"]


def _denoise_config(*extra):
    return _build_config(build_parser().parse_args(["denoise", "in", "out", *extra]))


class TestConfigFields:
    def test_denoise_option_strings_unchanged(self):
        opts = {s for a in _denoise_parser()._actions for s in a.option_strings}
        assert opts == DENOISE_OPTIONS

    def test_no_flags_gives_dataclass_defaults(self):
        cfg, run = _denoise_config()
        assert cfg == DenoiseConfig()
        assert run.sigma0 is None and run.keep_bands is None
        assert run.normalize is True

    def test_every_field_has_a_config_key(self, tmp_path):
        assert _flat(DenoiseConfig()).keys() == FIELD_VALUES.keys()
        path = tmp_path / "all.cfg"
        path.write_text("".join(f"{k} = {v}\n" for k, v in FIELD_VALUES.values()))
        got = _flat(_denoise_config("--config", str(path))[0])
        defaults = _flat(DenoiseConfig())
        for name, (_, value) in FIELD_VALUES.items():
            assert value != defaults[name], name
            assert got[name] == value, name
        flags = [
            arg
            for key, value in FIELD_VALUES.values()
            for arg in ("--" + key.replace("_", "-"), str(value))
        ]
        assert _flat(_denoise_config(*flags)[0]) == got

    def test_seed_goes_to_run_options(self, tmp_path):
        assert not hasattr(DenoiseConfig(), "seed")
        argv = ["run-exp", "in", "--sigmas", "10", "--outdir", "o", "--seed", "7"]
        _, run = _build_config(build_parser().parse_args(argv))
        assert run.seed == 7
        path = tmp_path / "s.cfg"
        path.write_text("seed = 9\nnormalize = no\nkeep_bands = 0-2\nsigma0 = 4\n")
        _, run = _denoise_config("--config", str(path))
        assert (run.seed, run.normalize, run.keep_bands, run.sigma0) == (
            9, False, [0, 1, 2], 4.0
        )


class TestOtherCommands:
    def test_add_noise_roundtrip(self, scene, tmp_path):
        clean_path, _ = scene
        out = tmp_path / "noisier"
        assert main(["add-noise", str(clean_path), str(out), "--sigma", "15"]) == 0
        made = read_cube(out)
        ref = read_cube(clean_path)
        assert abs(np.std(made - ref) - 15.0) < 1.0

    def test_metrics_output(self, scene, capsys):
        clean_path, noisy_path = scene
        assert main(["metrics", str(clean_path), str(noisy_path)]) == 0
        out = capsys.readouterr().out
        assert "mpsnr=" in out and "mssim=" in out and "sam=" in out

    def test_metrics_identical_cubes(self, scene, capsys):
        clean_path, _ = scene
        assert main(["metrics", str(clean_path), str(clean_path)]) == 0
        assert "inf" in capsys.readouterr().out

    @pytest.mark.parametrize("peak", ["nan", "0"])
    def test_metrics_bad_peak_is_usage_error(self, scene, capsys, peak):
        clean_path, noisy_path = scene
        assert main(["metrics", str(clean_path), str(noisy_path), "--peak", peak]) == 1
        captured = capsys.readouterr()
        assert "peak must be finite and > 0" in captured.err
        assert "mpsnr=" not in captured.out

    def test_estimate_k(self, scene, capsys):
        _, noisy_path = scene
        assert main(["estimate-k", str(noisy_path), "--no-normalize"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("K = 2")
        assert "band sigma" in out

    @pytest.mark.parametrize("scale", [1e-170, 1e150, 1e160], ids=["1e-170", "1e150", "1e160"])
    def test_estimate_k_scaled_like_denoise(self, tmp_path, capsys, scale):
        """Entries near 1e-170 underflow the band Gram and near 1e150
        overflow it; estimate-k scales the cube by a power of two first, as
        denoise does, and prints the K and median sigma denoise uses."""
        cube = add_gaussian_noise(rank_cube(32, 32, 16, 3, seed=0), 10.0, seed=0) * scale
        path = write_cube(tmp_path / "far", cube)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["estimate-k", str(path), "--no-normalize"]) == 0
        out = capsys.readouterr().out
        geom = PatchGeometry(patch=4, window=10, group=16)
        _, trace = denoise(cube, config=DenoiseConfig(iters=1, geom=geom))
        assert out.startswith(f"K = {trace[0].k}\n")
        median = float(out.split("median=")[1].split()[0])
        # the first iteration works at gamma * sigma0
        assert trace[0].sigma == pytest.approx(0.5 * median, rel=1e-5)

    @pytest.mark.parametrize(
        "argv",
        [
            ["estimate-k", "IN", "--iters", "3"],
            ["estimate-k", "IN", "--seed", "3"],
            ["estimate-k", "IN", "--sigma0", "3"],
            ["add-noise", "IN", "OUT", "--sigma", "5", "--k0", "4"],
            ["add-noise", "IN", "OUT", "--sigma", "5", "--sigma0", "4"],
            ["denoise", "IN", "OUT", "--sigma0", "20", "--seed", "3"],
            ["run-exp", "IN", "--sigmas", "10", "--outdir", "OUT", "--sigma0", "20"],
            ["bench-bands", "IN", "--bands", "4", "--outdir", "OUT", "--sigma0", "20"],
        ],
    )
    def test_unread_flag_is_usage_error(self, scene, tmp_path, argv, capsys):
        clean_path, _ = scene
        paths = {"IN": str(clean_path), "OUT": str(tmp_path / "out")}
        before = sorted(tmp_path.iterdir())
        assert main([paths.get(a, a) for a in argv]) == 1
        assert "unrecognized arguments" in capsys.readouterr().err
        assert sorted(tmp_path.iterdir()) == before

    def test_one_config_file_serves_every_command(self, scene, tmp_path, capsys):
        _, noisy_path = scene
        cfg = tmp_path / "all.cfg"
        cfg.write_text("iters = 1\nk0 = 2\nseed = 4\nsigma0 = 20\nnormalize = no\n")
        out = tmp_path / "noisier"
        assert main(["estimate-k", str(noisy_path), "--config", str(cfg)]) == 0
        assert capsys.readouterr().out.startswith("K = 2")
        args = ["add-noise", str(noisy_path), str(out), "--sigma", "5", "--config", str(cfg)]
        assert main(args) == 0
        assert "seed=4" in capsys.readouterr().out
        assert np.array_equal(
            read_cube(out), add_gaussian_noise(read_cube(noisy_path), 5.0, seed=4)
        )

    def test_run_exp(self, scene, tmp_path, capsys):
        _, noisy_path = scene
        code = main(
            ["run-exp", str(noisy_path), "--sigmas", "10,20",
             "--outdir", str(tmp_path / "exp"), "--no-save-cubes",
             "--no-normalize"] + FAST
        )
        assert code == 0
        assert (tmp_path / "exp" / "report.csv").exists()
        assert capsys.readouterr().out.count("sigma=") == 2

    def test_run_exp_prints_failed_case(self, scene, tmp_path, monkeypatch, capsys):
        def failing(*args, **kwargs):
            raise NumericalError("non-finite values after spatial filtering at iteration 1")

        monkeypatch.setattr(experiment, "denoise", failing)
        _, noisy_path = scene
        code = main(
            ["run-exp", str(noisy_path), "--sigmas", "10",
             "--outdir", str(tmp_path / "exp"), "--no-save-cubes",
             "--no-normalize"] + FAST
        )
        assert code == 0
        out = capsys.readouterr().out
        assert ("sigma=10: error: NumericalError: non-finite values after spatial "
                "filtering at iteration 1\n") in out

    def test_bench_bands(self, scene, tmp_path, capsys):
        _, noisy_path = scene
        code = main(
            ["bench-bands", str(noisy_path), "--sigma", "15", "--bands", "4,8",
             "--outdir", str(tmp_path / "bench"), "--no-normalize"] + FAST
        )
        assert code == 0
        assert (tmp_path / "bench" / "bench.csv").exists()
        assert capsys.readouterr().out.count("bands=") == 2

    def test_bench_bands_non_integer_count_is_usage_error(self, scene, tmp_path, capsys):
        # int() of a parsed 4.7 ran 4 bands and exited 0
        _, noisy_path = scene
        code = main(
            ["bench-bands", str(noisy_path), "--sigma", "15", "--bands", "4.7,6.2",
             "--outdir", str(tmp_path / "bench"), "--no-normalize"] + FAST
        )
        assert code == 1
        assert "bad band list" in capsys.readouterr().err
        assert not (tmp_path / "bench").exists()

    def test_no_command_is_usage_error(self):
        assert main([]) == 1


class TestWrittenScale:
    """add-noise and denoise record [0, PEAK] on a cube they write from a
    normalized input, so load_input reads it back on the clean cube's
    scale, not mapped by its own data range."""

    @pytest.fixture
    def round_trip(self, tmp_path):
        """(clean, noisy): CI's clean 24x24x191 cube and add-noise's copy
        of it at sigma 30."""
        clean = write_cube(tmp_path / "clean191", rank_cube(24, 24, 191, 3, seed=0))
        noisy = tmp_path / "noisy191"
        assert main(["add-noise", str(clean), str(noisy), "--sigma", "30", "--seed", "0"]) == 0
        return clean, noisy.with_suffix(".hdr")

    def test_add_noise_loads_as_noise_added_in_memory(self, round_trip):
        clean, noisy = round_trip
        np.testing.assert_array_equal(
            load_input(noisy), add_gaussian_noise(load_input(clean), 30.0, seed=0)
        )

    def test_estimate_k_reads_the_added_sigma(self, round_trip, capsys):
        assert main(["estimate-k", str(round_trip[1])]) == 0
        median = float(capsys.readouterr().out.split("median=")[1].split()[0])
        assert median == pytest.approx(30.0, rel=0.02)

    def test_denoise_output_loads_as_written(self, scene, tmp_path):
        _, noisy_path = scene
        out = tmp_path / "out"
        assert main(["denoise", str(noisy_path), str(out), "--sigma0", "20"] + FAST) == 0
        np.testing.assert_array_equal(load_input(out.with_suffix(".hdr")), read_cube(out))


class TestNonFiniteInput:
    """A NaN in a cube file is a data error at load: every command exits 2
    and writes nothing, rather than fail later with another code or write
    NaN results."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["denoise", "NAN", "OUT"],
            ["denoise", "NAN", "OUT", "--no-normalize", "--sigma0", "20"],
            ["add-noise", "NAN", "OUT", "--sigma", "5"],
            ["metrics", "CLEAN", "NAN"],
            ["estimate-k", "NAN"],
            ["estimate-k", "NAN", "--no-normalize"],
            ["run-exp", "NAN", "--sigmas", "10", "--outdir", "OUT"],
            ["bench-bands", "NAN", "--bands", "4", "--outdir", "OUT"],
        ],
    )
    def test_exits_2_and_writes_nothing(self, tmp_path, argv, capsys):
        inputs = tmp_path / "in"
        inputs.mkdir()
        clean = rank_cube(24, 24, 8, 3, seed=0)
        noisy = add_gaussian_noise(clean, 20.0, seed=0)
        noisy[5, 7, 2] = np.nan
        paths = {
            "NAN": str(write_cube(inputs / "nan", noisy)),
            "CLEAN": str(write_cube(inputs / "clean", clean)),
            "OUT": str(tmp_path / "out"),
        }
        assert main([paths.get(a, a) for a in argv]) == 2
        captured = capsys.readouterr()
        assert "data error" in captured.err and paths["NAN"] in captured.err
        assert "NaN or infinite" in captured.err
        assert captured.out == ""
        assert sorted(p.name for p in tmp_path.iterdir()) == ["in"]


class TestRejectedBeforeWriting:
    """Band counts that do not fit the cube, an empty band-count or sigma
    list, sigmas that would name the same case files, and a cube smaller
    than SSIM's 11x11 window where quality is reported, exit 1 before any
    output is written, not after the work is done."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["bench-bands", "CUBE", "--bands", "500", "--outdir", "OUT"], "band counts"),
            (["bench-bands", "CUBE", "--outdir", "OUT"], "needs >= 32 bands"),
            (["denoise", "SMALL", "OUT", "--clean", "SMALL_CLEAN", "--sigma0", "20"],
             "smaller than the 11x11 window"),
            (["run-exp", "SMALL_CLEAN", "--sigmas", "10,20", "--outdir", "OUT"],
             "smaller than the 11x11 window"),
            (["bench-bands", "CUBE", "--bands", ",", "--outdir", "OUT"], "band counts"),
            (["run-exp", "CUBE", "--sigmas", ",", "--outdir", "OUT"], "sigmas"),
            (["run-exp", "CUBE", "--sigmas", "10,10", "--outdir", "OUT"],
             "sigmas 10.0 and 10.0 "),
            (["run-exp", "CUBE", "--sigmas", "10,10.0000001", "--outdir", "OUT"],
             "sigmas 10.0 and 10.0000001 "),
        ],
        ids=["bench-bands-count", "bench-bands-default-grid", "denoise-clean", "run-exp",
             "bench-bands-no-counts", "run-exp-no-sigmas", "run-exp-repeated-sigma",
             "run-exp-sigmas-printing-alike"],
    )
    def test_exits_1_and_writes_nothing(self, tmp_path, argv, message, capsys):
        inputs = tmp_path / "in"
        inputs.mkdir()
        small = rank_cube(8, 8, 6, 2, seed=2)
        paths = {
            "CUBE": str(write_cube(inputs / "cube", rank_cube(16, 16, 8, 2, seed=2))),
            "SMALL": str(write_cube(inputs / "small", add_gaussian_noise(small, 20.0, seed=2))),
            "SMALL_CLEAN": str(write_cube(inputs / "small_clean", small)),
            "OUT": str(tmp_path / "out"),
        }
        argv = [paths.get(a, a) for a in argv] + ["--no-normalize"] + FAST
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert message in captured.err
        assert captured.out == ""
        assert sorted(p.name for p in tmp_path.iterdir()) == ["in"]


class TestConsoleScript:
    def test_help_runs(self):
        proc = subprocess.run(
            [sys.executable, "-c", "import hsidenoise.cli; raise SystemExit(hsidenoise.cli.main(['--help']))"],
            capture_output=True,
            text=True,
            # the child imports the same package as this process
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        )
        assert proc.returncode == 0
        assert "denoise" in proc.stdout

    def test_imports_load_no_scipy(self):
        # numpy is the only runtime dependency; scipy would also map a second
        # OpenBLAS into every process
        code = ("import sys, hsidenoise, hsidenoise.cli; "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"
