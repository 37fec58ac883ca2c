"""Hyperspectral image denoising by iterated spectral subspace projection
and non-local low-rank patch filtering.

The names below are the public surface; the building blocks (patch
matching, shrinkage, unfoldings, the subspace fit) stay importable from
their submodules.
"""

from .experiment import ExperimentSpec, bench_bands, load_input, run_experiment
from .io import (
    DataError,
    add_gaussian_noise,
    read_band_stack,
    read_cube,
    write_band_stack,
    write_cube,
)
from .metrics import QualityReport, mpsnr, mssim, quality_report, sam
from .pipeline import DenoiseConfig, IterationRecord, NumericalError, denoise
from .spatial import PatchGeometry
from .subspace import estimate_band_noise, estimate_subspace_dim
from .synthetic import rank_cube

__version__ = "0.1.0"

__all__ = [
    "DataError",
    "DenoiseConfig",
    "ExperimentSpec",
    "IterationRecord",
    "NumericalError",
    "PatchGeometry",
    "QualityReport",
    "add_gaussian_noise",
    "bench_bands",
    "denoise",
    "estimate_band_noise",
    "estimate_subspace_dim",
    "load_input",
    "mpsnr",
    "mssim",
    "quality_report",
    "rank_cube",
    "read_band_stack",
    "read_cube",
    "run_experiment",
    "sam",
    "write_band_stack",
    "write_cube",
    "__version__",
]
