"""The benchmark's workloads, driven through hsidenoise's public API.

Each workload builds its inputs from the seed in ``setup``, runs one
operation ("op") per ``op`` call and checks every op's output in ``check``.
Ops call functions through their module (``hsidenoise.pipeline.denoise``, not
a name bound at import), so a traced run sees the calls.  Why each workload
exists is written next to it and in README.md.
"""

import csv
import math
import os
import statistics
import time
from pathlib import Path

import numpy as np

import hsidenoise
from hsidenoise import experiment, io, metrics, pipeline, subspace, synthetic

# per-iteration layer metrics go this deep
ITERATIONS = pipeline.DenoiseConfig().iters

# The scenes are fixed and --seed draws the noise.  Quality differs far more
# from scene to scene than from one noise draw to the next: over four scene
# seeds SAM spread 12% (scene96) and 30% (the sweep) between quartiles, more
# than any bound the benchmark may set, while the noise draws leave it steady.
SCENE_SEED = 0


def nproc():
    return len(os.sched_getaffinity(0))


def _median(values):
    return statistics.median(values) if values else 0.0


class Workload:
    """Shared defaults; subclasses set shape, rank and sigma and define the op."""

    name = ""
    cases = 1  # denoised cubes per op
    setup_reps = 15
    runs_in_workers = False  # the op's work runs in child processes

    def __init__(self):
        self.quality_times = []

    def timed_quality_report(self, clean, x):
        t0 = time.perf_counter()
        rep = hsidenoise.metrics.quality_report(clean, x)
        self.quality_times.append(time.perf_counter() - t0)
        return rep

    @property
    def voxels(self):
        """M*N*B summed over the cases of one op."""
        return math.prod(self.shape) * self.cases

    def setup(self, seed, workdir):
        """The fixed clean scene and its noisy copy, drawn from the seed."""
        m, n, b = self.shape
        self.clean = synthetic.rank_cube(m, n, b, rank=self.rank, seed=SCENE_SEED)
        self.noisy = io.add_gaussian_noise(self.clean, self.sigma, seed=seed)

    def op(self, traced=False):
        raise NotImplementedError

    def memory_op(self):
        """The op whose tracemalloc peak is reported; by default the op itself."""
        return self.op()

    def check(self, out, reference):
        """Failure messages for one op's output; empty when it is correct.

        reference is the run's first output, None while checking that one.
        """
        raise NotImplementedError

    def quality(self, out):
        """(mpsnr_db, mssim, sam_deg) of one op's output against the clean cube."""
        raise NotImplementedError

    def report(self, out):
        """Workload-specific results printed with the end-to-end metrics."""
        return {}

    def layer_metrics(self, out):
        """Per-layer metrics read from the op's output rather than from spans."""
        return {}


class Scene96(Workload):
    # Mostly spatial (about 97% of the op) over both small-K and large-K
    # groups: K grows 5, 7, 11, 17, 25.  Batching the spatial stage shows here.
    name = "scene96"
    shape = (96, 96, 64)
    rank = 5
    sigma = 30.0

    def op(self, traced=False):
        # clean only adds a per-iteration PSNR to the trace records; the
        # estimate does not depend on it
        return hsidenoise.pipeline.denoise(
            self.noisy,
            sigma0=self.sigma,
            config=pipeline.DenoiseConfig(),
            clean=self.clean if traced else None,
        )

    def check(self, out, reference):
        x, _ = out
        fails = []
        if x.shape != self.noisy.shape:
            return [f"output shape {x.shape} != input shape {self.noisy.shape}"]
        if not np.all(np.isfinite(x)):
            fails.append("output has non-finite values")
        if reference is not None and not np.array_equal(x, reference[0]):
            fails.append("two ops on the same input gave different outputs")
        noisy_db = metrics.mpsnr(self.clean, self.noisy)
        out_db = metrics.mpsnr(self.clean, x)
        if not out_db > noisy_db:
            fails.append(f"MPSNR {out_db:.2f} dB does not beat the input's {noisy_db:.2f} dB")
        return fails

    def quality(self, out):
        rep = self.timed_quality_report(self.clean, out[0])
        return rep.mpsnr, rep.mssim, rep.sam_deg

    def layer_metrics(self, out):
        return iteration_metrics(
            {
                rec.iteration: {
                    "k": rec.k,
                    "sigma": rec.sigma,
                    "stage_a_s": rec.stage_a_seconds,
                    "stage_b_s": rec.stage_b_seconds,
                    "psnr_db": rec.psnr,
                }
                for rec in out[1]
            }
        )


class Bands191Estimate(Workload):
    # The estimate-k path on a 191-band scene: band-noise regression and
    # subspace dimension, no spatial work.  In a full denoise the spectral
    # steps are under 2% of the time, so a faster estimate only shows here.
    # 128x128, not 256x256: the op streams the unfolding once per band, and
    # at 256x256 (100 MB) its run medians drifted 13-27% between quartiles
    # with memory traffic from other tenants; 128x128 halves that.  Smaller
    # scenes bias the regression's sigma low (4.5% at 64x64, 1% here).
    name = "bands191-estimate"
    shape = (128, 128, 191)
    rank = 8
    sigma = 20.0
    setup_reps = 3

    def op(self, traced=False):
        band_sigma = hsidenoise.subspace.estimate_band_noise(self.noisy)
        k = hsidenoise.subspace.estimate_subspace_dim(self.noisy, band_sigma)
        return band_sigma, k

    def errors(self, out):
        band_sigma, k = out
        sigma_err = abs(float(np.median(band_sigma)) - self.sigma) / self.sigma * 100.0
        return sigma_err, abs(k - self.rank)

    def check(self, out, reference):
        sigma_err, k_err = self.errors(out)
        fails = []
        if k_err > 1:
            fails.append(f"K estimate {out[1]} is {k_err} away from rank {self.rank}")
        if not sigma_err <= 5.0:
            fails.append(f"median band sigma is {sigma_err:.2f}% off {self.sigma}")
        return fails

    def quality(self, out):
        # The op returns no cube.  Its quality is that of the start it gives
        # denoise: the noisy cube projected onto the estimated K-dim subspace.
        model = subspace.spectral_decompose(self.noisy, out[1])
        rep = self.timed_quality_report(self.clean, model.reconstruct())
        return rep.mpsnr, rep.mssim, rep.sam_deg

    def report(self, out):
        sigma_err, k_err = self.errors(out)
        return {
            "sigma_err_pct": (sigma_err, "%"),
            "k_err": (k_err, "count"),
            "k_hat": (out[1], "count"),
        }


class Sweep(Workload):
    # The same spatial code driven by the experiment harness: run_experiment
    # over four sigmas, with cube reads and writes, trace CSVs and quality
    # reports.  sweep-jobs2 runs the cases in jobs = nproc worker processes.
    shape = (32, 32, 32)
    rank = 5
    sigmas = [10.0, 30.0, 50.0, 70.0]
    cases = len(sigmas)
    trace_sigma = 30.0  # the case whose trace CSV gives the per-iteration metrics
    setup_reps = 25  # about 1.5 ms each, so more of them for a steady median

    def __init__(self, name, jobs):
        super().__init__()
        self.name = name
        self.jobs = jobs
        self.runs_in_workers = jobs > 1
        self.ops = 0

    def setup(self, seed, workdir):
        m, n, b = self.shape
        self.seed = seed
        self.workdir = Path(workdir)
        clean = synthetic.rank_cube(m, n, b, rank=self.rank, seed=SCENE_SEED)
        self.input_path = io.write_cube(self.workdir / "scene.hdr", clean)

    def _sweep(self, sigmas, jobs):
        self.ops += 1
        outdir = self.workdir / f"sweep{self.ops}"
        spec = experiment.ExperimentSpec(
            input_path=str(self.input_path),
            sigmas=list(sigmas),
            output_dir=str(outdir),
            seed=self.seed,
            jobs=jobs,
            save_cubes=True,
        )
        t0 = time.perf_counter()
        hsidenoise.experiment.run_experiment(spec)
        wall = time.perf_counter() - t0
        with open(outdir / "report.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        return {"outdir": outdir, "rows": rows, "wall": wall, "jobs": jobs, "sigmas": sigmas}

    def op(self, traced=False):
        return self._sweep(self.sigmas, self.jobs)

    def memory_op(self):
        # With jobs > 1 the sweep's memory lives in the pool's workers, which
        # tracemalloc in this process cannot see.  Each worker holds one case
        # at a time, so one case run in-process gives the per-worker peak.
        return self._sweep(self.sigmas[:1], 1)

    def check(self, out, reference):
        fails = []
        rows = out["rows"]
        if len(rows) != len(out["sigmas"]):
            fails.append(f"report has {len(rows)} rows")
        clean = experiment.load_input(self.input_path)
        for row in rows:
            if row["status"] != "ok":
                fails.append(f"sigma {row['sigma']}: {row['status']}")
                continue
            path = out["outdir"] / f"{row['image']}_sigma{float(row['sigma']):g}_denoised.hdr"
            try:
                x = io.read_cube(path)
            except (OSError, io.DataError) as exc:
                fails.append(f"cannot read back {path.name}: {exc}")
                continue
            rep = self.timed_quality_report(clean, x)
            if rep.mpsnr != float(row["mpsnr"]):
                fails.append(
                    f"{path.name}: MPSNR {rep.mpsnr!r} != report's {row['mpsnr']}"
                )
        return fails

    def quality(self, out):
        rows = out["rows"]
        return tuple(
            statistics.fmean(float(r[col]) for r in rows)
            for col in ("mpsnr", "mssim", "sam_deg")
        )

    def layer_metrics(self, out):
        rows = out["rows"]
        seconds = [float(r["seconds"]) for r in rows]
        case = next(r for r in rows if float(r["sigma"]) == self.trace_sigma)
        trace_path = out["outdir"] / f"{case['image']}_sigma{self.trace_sigma:g}_trace.csv"
        with open(trace_path, newline="") as fh:
            per_iter = {
                int(r["iteration"]): {
                    "k": float(r["k"]),
                    "sigma": float(r["sigma"]),
                    "stage_a_s": float(r["stage_a_seconds"]),
                    "stage_b_s": float(r["stage_b_seconds"]),
                    "psnr_db": float(r["psnr"]) if r["psnr"] else 0.0,
                }
                for r in csv.DictReader(fh)
            }
        layer = iteration_metrics(per_iter)
        layer.update(
            {
                "experiment.case_s": _median(seconds),
                "experiment.case_stage_b_s": _median(
                    [float(r["stage_b_seconds"]) for r in rows]
                ),
                "experiment.pool_overhead_s": out["wall"] - sum(seconds) / out["jobs"],
                "io.bytes_written": sum(
                    p.stat().st_size for p in out["outdir"].iterdir()
                ),
            }
        )
        return layer


def iteration_metrics(per_iter):
    """pipeline.iterations and pipeline.iter{i}.* from {iteration: values}."""
    out = {"pipeline.iterations": len(per_iter)}
    for i in range(1, ITERATIONS + 1):
        vals = per_iter.get(i, {})
        for key in ("k", "sigma", "stage_a_s", "stage_b_s", "psnr_db"):
            out[f"pipeline.iter{i}.{key}"] = vals.get(key) or 0.0
    return out


WORKLOADS = {
    "scene96": Scene96,
    "bands191-estimate": Bands191Estimate,
    # Listed in BENCHMARK.json in place of sweep-jobs2, whose time is not
    # steady while BLAS threads oversubscribe the cores (see README.md).
    "sweep-jobs1": lambda: Sweep("sweep-jobs1", 1),
    "sweep-jobs2": lambda: Sweep("sweep-jobs2", nproc()),
}
