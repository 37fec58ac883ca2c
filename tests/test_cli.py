"""Command-line interface: exit codes, flag handling, outputs."""

import argparse
import dataclasses
import os
import subprocess
import sys

import numpy as np
import pytest

from hsidenoise.cli import _build_config, build_parser, main
from hsidenoise.io import add_gaussian_noise, read_cube, write_cube
from hsidenoise.pipeline import DenoiseConfig
from hsidenoise.spatial import PatchGeometry
from hsidenoise.synthetic import rank_cube

FAST = [
    "--k0", "2", "--iters", "1", "--patch", "4", "--stride", "2",
    "--window", "10", "--group", "16",
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
            "k0 = 2\niters = 3\npatch = 4\nstride = 2\nwindow = 10\ngroup = 16\n"
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

    @pytest.mark.parametrize("line", ["itres = 1", "lam = 0.5", "sigma = 3"])
    def test_unknown_config_key_is_usage_error(self, scene, tmp_path, capsys, line):
        _, noisy_path = scene
        cfg = tmp_path / "run.cfg"
        cfg.write_text("iters = 1\n" + line + "\n")
        code = main(
            ["denoise", str(noisy_path), str(tmp_path / "o"), "--config", str(cfg)]
        )
        assert code == 1
        key = line.split()[0]
        assert f"run.cfg:2: unknown key '{key}'" in capsys.readouterr().err


# Every option of `denoise`; the denoiser ones mirror the config fields.
DENOISE_OPTIONS = {
    "-h", "--help", "--clean", "--trace", "--dtype", "--config", "--k0",
    "--delta", "--lambda", "--gamma", "--iters", "--patch", "--stride",
    "--window", "--group", "--seed", "--sigma0", "--wnnm-c", "--wnnm-eps",
    "--k-growth", "--early-stop", "--no-normalize", "--keep-bands",
}
# a non-default value for each settable field and the config key it is read under
FIELD_VALUES = {
    "k0": ("k0", 3),
    "delta": ("delta", 1),
    "lam": ("lambda", 0.5),
    "gamma": ("gamma", 0.25),
    "iters": ("iters", 2),
    "wnnm_c": ("wnnm_c", 1.5),
    "wnnm_eps": ("wnnm-eps", 1e-9),
    "k_growth": ("k_growth", "affine"),
    "early_stop": ("early_stop", 0.01),
    "patch": ("patch", 5),
    "stride": ("stride", 3),
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
        settable = set(_flat(DenoiseConfig())) - {"value_scale"}
        assert settable == FIELD_VALUES.keys()
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
        _, run = _denoise_config("--seed", "7")
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

    def test_estimate_k(self, scene, capsys):
        _, noisy_path = scene
        assert main(["estimate-k", str(noisy_path), "--no-normalize"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("K = 2")
        assert "band sigma" in out

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

    def test_bench_bands(self, scene, tmp_path, capsys):
        _, noisy_path = scene
        code = main(
            ["bench-bands", str(noisy_path), "--sigma", "15", "--bands", "4,8",
             "--outdir", str(tmp_path / "bench"), "--no-normalize"] + FAST
        )
        assert code == 0
        assert (tmp_path / "bench" / "bench.csv").exists()
        assert capsys.readouterr().out.count("bands=") == 2

    def test_no_command_is_usage_error(self):
        assert main([]) == 1


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
