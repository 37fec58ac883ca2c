"""Experiment harness: noise-injection sweeps over sigma with CSV reports,
and the band-count scaling benchmark.
"""

import csv
import functools
import time
import traceback
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from .io import (
    DataError,
    _read_cube,
    add_gaussian_noise,
    read_band_stack,
    rescale,
    write_cube,
)
from .metrics import _check_window, mssim, quality_report
from .pipeline import DenoiseConfig, IterationRecord, denoise
from .tensor import PEAK, _all_finite, _int_field, _noise_level

__all__ = [
    "ExperimentSpec",
    "load_input",
    "run_experiment",
    "bench_bands",
    "write_trace_csv",
    "REPORT_FIELDS",
    "BENCH_FIELDS",
]

REPORT_FIELDS = [
    "image",
    "sigma",
    "mpsnr",
    "mssim",
    "sam_deg",
    "stage_a_seconds",
    "stage_b_seconds",
    "seconds",
    "status",
]
BENCH_FIELDS = ["bands", "stage_a_seconds", "stage_b_seconds", "mssim"]
TRACE_FIELDS = [f.name for f in fields(IterationRecord)]


def _check_keep_bands(keep_bands):
    """Raise ValueError for an empty keep_bands or one naming a band twice,
    which would read sigma 0 in the band-noise regression."""
    if keep_bands is not None and not 0 < len(set(keep_bands)) == len(keep_bands):
        raise ValueError(f"keep_bands must list one or more distinct bands, got {list(keep_bands)}")


def _sigma_tag(sigma):
    """The part of a sweep case's file names that names its sigma."""
    return f"sigma{sigma:g}"


@dataclass(frozen=True)
class ExperimentSpec:
    """One noise-sweep experiment over a clean input cube."""

    input_path: str
    sigmas: list
    output_dir: str
    seed: int = 0
    config: DenoiseConfig = field(default_factory=DenoiseConfig)
    normalize: bool = True
    keep_bands: list | None = None
    label: str | None = None
    jobs: int = 1
    save_cubes: bool = True

    def __post_init__(self):
        if not self.sigmas:
            raise ValueError(f"sigmas must list one or more noise levels, got {self.sigmas}")
        _noise_level("sigmas", self.sigmas)
        tags = [_sigma_tag(sigma) for sigma in self.sigmas]
        for i, tag in enumerate(tags):
            if tag in tags[:i]:
                raise ValueError(f"sigmas {self.sigmas[tags.index(tag)]} and {self.sigmas[i]} "
                                 f"would both name their case files {tag}; make them differ in %g")
        if _int_field("jobs", self.jobs) < 1:
            raise ValueError(f"jobs must be >= 1, got {self.jobs}")
        _int_field("seed", self.seed)
        for band in self.keep_bands if self.keep_bands is not None else ():
            _int_field("keep_bands entry", band)
        _check_keep_bands(self.keep_bands)

    @property
    def image_name(self):
        return self.label or Path(self.input_path).stem


def load_input(path, normalize=True, keep_bands=None):
    """Read a clean cube from a header file or a PGM band directory.

    The bands in keep_bands are selected first; normalize then maps them
    onto [0, PEAK] by the header scale when there is one, else by their own
    data range, so a dropped band sets neither.  An empty keep_bands, or
    one that names a band twice, raises ValueError.  A NaN or infinite
    entry in the cube returned (the bands kept, after normalization)
    raises DataError.
    """
    _check_keep_bands(keep_bands)
    p = Path(path)
    scale = None
    if p.is_dir():
        cube = read_band_stack(p)
    else:
        cube, scale = _read_cube(p)
    if keep_bands is not None:
        bad = [i for i in keep_bands if not 0 <= i < cube.shape[2]]
        if bad:
            raise ValueError(
                f"band index {bad[0]} out of range for {cube.shape[2]} bands"
            )
        cube = np.ascontiguousarray(cube[:, :, list(keep_bands)])
    if normalize:
        cube = rescale(cube, scale)
    if not _all_finite(cube):
        raise DataError(f"{path}: the cube has NaN or infinite entries")
    return cube


def _written_scale(normalize):
    """The scale recorded on a cube derived from a load_input(normalize)
    load, so that load_input reads it back as written: [0, PEAK] or None."""
    return (0.0, PEAK) if normalize else None


def _write_rows(path, rows, columns):
    # csv writes floats with str(), an exact round trip, and None as ""
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=columns)
        writer.writeheader()
        writer.writerows(rows)


def write_trace_csv(path, trace):
    """One row per IterationRecord; an absent psnr is written empty."""
    _write_rows(path, (asdict(rec) for rec in trace), TRACE_FIELDS)


def _run_case(spec, clean, index):
    """Case index of spec's sweep over its loaded input clean, its outputs
    written into spec.output_dir; a failure is captured in the status
    field, and its traceback in {tag}_error.txt there."""
    sigma = spec.sigmas[index]
    outdir = Path(spec.output_dir)
    row = {f: "" for f in REPORT_FIELDS} | {"image": spec.image_name, "sigma": repr(float(sigma))}
    tag = f"{spec.image_name}_{_sigma_tag(sigma)}"
    try:
        noisy = add_gaussian_noise(clean, sigma, seed=spec.seed + index)
        t0 = time.perf_counter()
        x, trace = denoise(noisy, sigma, spec.config, clean=clean)
        elapsed = time.perf_counter() - t0
        rep = quality_report(clean, x)
        row.update(
            mpsnr=repr(rep.mpsnr),
            mssim=repr(rep.mssim),
            sam_deg=repr(rep.sam_deg),
            stage_a_seconds=repr(sum(r.stage_a_seconds for r in trace)),
            stage_b_seconds=repr(sum(r.stage_b_seconds for r in trace)),
            seconds=repr(elapsed),
            status="ok",
        )
        write_trace_csv(outdir / f"{tag}_trace.csv", trace)
        if spec.save_cubes:
            write_cube(outdir / f"{tag}_denoised.hdr", x, scale=_written_scale(spec.normalize))
    except Exception as exc:  # harness must keep going
        row["status"] = f"error: {type(exc).__name__}: {exc}"
        (outdir / f"{tag}_error.txt").write_text(traceback.format_exc())
    return row


def run_experiment(spec):
    """Run the sigma sweep; writes report.csv plus per-case outputs.

    Returns the report rows.  Cases are independent; spec.jobs > 1 runs
    them in separate processes.  Per-case noise seeds are spec.seed plus
    the case index, so a fixed spec reproduces every number exactly.  A
    cube too small for the SSIM window raises before anything is written.
    """
    clean = load_input(spec.input_path, spec.normalize, spec.keep_bands)
    _check_window(*clean.shape[:2])
    outdir = Path(spec.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)

    indices = range(len(spec.sigmas))
    if spec.jobs > 1 and len(indices) > 1:
        with ProcessPoolExecutor(max_workers=spec.jobs) as pool:
            rows = list(pool.map(functools.partial(_run_case, spec, clean), indices))
    else:
        rows = [_run_case(spec, clean, i) for i in indices]

    _write_rows(outdir / "report.csv", rows, REPORT_FIELDS)
    return rows


def bench_bands(spec, band_counts=None):
    """Time the two stages while the band count grows.

    Truncates the input to each requested band count (default those of
    32, 64 and 128 below B, then B), runs the pipeline at spec.sigmas[0],
    and writes bench.csv with per-stage times summed over iterations.
    The default grid needs an input with >= 32 bands; explicit counts
    must fit the input.  Bad or no counts, or a cube too small for the
    SSIM window, raise before anything is written.
    """
    clean = load_input(spec.input_path, spec.normalize, spec.keep_bands)
    total = clean.shape[2]
    sigma = spec.sigmas[0]

    if band_counts is None:
        if total < 32:
            raise ValueError(f"default band grid needs >= 32 bands, got {total}")
        band_counts = [c for c in (32, 64, 128) if c < total] + [total]
    counts = sorted({_int_field("band count", c) for c in band_counts})
    if not counts or counts[0] < 1 or counts[-1] > total:
        raise ValueError(f"band counts must be one or more in [1, {total}], got {band_counts}")
    _check_window(*clean.shape[:2])
    outdir = Path(spec.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)

    rows = []
    for nb in counts:
        sub = np.ascontiguousarray(clean[:, :, :nb])
        noisy = add_gaussian_noise(sub, sigma, seed=spec.seed)
        x, trace = denoise(noisy, sigma, spec.config)
        rows.append(
            {
                "bands": nb,
                "stage_a_seconds": repr(sum(r.stage_a_seconds for r in trace)),
                "stage_b_seconds": repr(sum(r.stage_b_seconds for r in trace)),
                "mssim": repr(mssim(sub, x)),
            }
        )
    _write_rows(outdir / "bench.csv", rows, BENCH_FIELDS)
    return rows
