"""Experiment harness: noise-injection sweeps over sigma with CSV reports,
and the band-count scaling benchmark.
"""

import csv
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from .io import add_gaussian_noise, read_band_stack, read_cube, write_cube
from .metrics import mssim, quality_report
from .pipeline import DenoiseConfig, IterationRecord, denoise

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


@dataclass
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
        if any(s < 0 for s in self.sigmas):
            raise ValueError(f"sigmas must be >= 0, got {self.sigmas}")
        if self.jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {self.jobs}")

    @property
    def image_name(self):
        return self.label or Path(self.input_path).stem


def load_input(path, normalize=True, keep_bands=None, peak=255.0):
    """Read a clean cube from a header file or a PGM band directory."""
    p = Path(path)
    if p.is_dir():
        cube = read_band_stack(p, normalize=normalize, peak=peak)
    else:
        cube = read_cube(p, normalize=normalize, peak=peak)
    if keep_bands is not None:
        if max(keep_bands) >= cube.shape[2]:
            raise ValueError(
                f"band index {max(keep_bands)} out of range for {cube.shape[2]} bands"
            )
        cube = np.ascontiguousarray(cube[:, :, list(keep_bands)])
    return cube


def _write_rows(path, rows, columns):
    # csv writes floats with str(), an exact round trip, and None as ""
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=columns)
        writer.writeheader()
        writer.writerows(rows)


def write_trace_csv(path, trace):
    """One row per IterationRecord; an absent psnr is written empty."""
    _write_rows(path, (asdict(rec) for rec in trace), TRACE_FIELDS)


def _run_case(clean, sigma, case_seed, cfg, image_name, outdir, save_cubes):
    """One (image, sigma) case; failures are captured in the status field."""
    row = {f: "" for f in REPORT_FIELDS}
    row["image"] = image_name
    row["sigma"] = repr(float(sigma))
    try:
        noisy = add_gaussian_noise(clean, sigma, seed=case_seed)
        t0 = time.perf_counter()
        x, trace = denoise(noisy, sigma, cfg, clean=clean)
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
        if outdir is not None:
            tag = f"{image_name}_sigma{sigma:g}"
            write_trace_csv(Path(outdir) / f"{tag}_trace.csv", trace)
            if save_cubes:
                write_cube(Path(outdir) / f"{tag}_denoised.hdr", x)
    except Exception as exc:  # harness must keep going
        row["status"] = f"error: {type(exc).__name__}: {exc}"
    return row


def run_experiment(spec):
    """Run the sigma sweep; writes report.csv plus per-case outputs.

    Returns the report rows.  Cases are independent; spec.jobs > 1 runs
    them in separate processes.  Per-case noise seeds are spec.seed plus
    the case index, so a fixed spec reproduces every number exactly.
    """
    outdir = Path(spec.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    clean = load_input(spec.input_path, spec.normalize, spec.keep_bands)

    args = [
        (clean, sigma, spec.seed + i, spec.config, spec.image_name, outdir, spec.save_cubes)
        for i, sigma in enumerate(spec.sigmas)
    ]
    if spec.jobs > 1 and len(args) > 1:
        with ProcessPoolExecutor(max_workers=spec.jobs) as pool:
            rows = list(pool.map(_run_case, *zip(*args)))
    else:
        rows = [_run_case(*a) for a in args]

    _write_rows(outdir / "report.csv", rows, REPORT_FIELDS)
    return rows


def bench_bands(spec, band_counts=None):
    """Time the two stages while the band count grows.

    Truncates the input to each requested band count (default 32, 64,
    128, B), runs the pipeline at spec.sigmas[0], and writes bench.csv
    with per-stage times summed over iterations.  The default grid needs
    an input with >= 32 bands; explicit counts must fit the input.
    """
    outdir = Path(spec.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    clean = load_input(spec.input_path, spec.normalize, spec.keep_bands)
    total = clean.shape[2]
    if not spec.sigmas:
        raise ValueError("bench needs at least one sigma")
    sigma = spec.sigmas[0]

    if band_counts is None:
        if total < 32:
            raise ValueError(f"default band grid needs >= 32 bands, got {total}")
        band_counts = [32, 64, 128, total]
    counts = sorted({int(c) for c in band_counts})
    if counts[0] < 1 or counts[-1] > total:
        raise ValueError(f"band counts must lie in [1, {total}], got {band_counts}")

    rows = []
    for nb in counts:
        sub = np.ascontiguousarray(clean[:, :, :nb])
        noisy = add_gaussian_noise(sub, sigma, seed=spec.seed)
        x, trace = denoise(noisy, sigma, spec.config, clean=sub)
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
