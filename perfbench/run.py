"""Benchmark for hsidenoise: one workload per run, end-to-end or per-layer.

Run from the repository root:

    python3 perfbench/run.py --workload scene96 --seed 0 --seconds 12 --trace 0

The program is imported from ``src/`` next to this directory; the run fails
with a non-zero exit code when it is not there.  Each run

1. builds the workload's inputs from --seed,
2. runs ops back to back, each starting when the previous one returns, until
   --seconds have passed (at least one op), checking every output; later
   outputs must reproduce the first bit for bit,
3. builds the same inputs again several times (``setup_s`` is the median),
4. runs one more op, untimed and under tracemalloc unless --trace 1
   (``peak_mb``), and checks it too,
5. prints every metric with its unit, the environment, and as its last line
   one JSON object with the metrics BENCHMARK.json declares: the end-to-end
   ones with --trace 0, and with --trace 1 the per-layer ones, taken from
   spans around calls into the program's modules (see tracer.py).

No BLAS thread variable is set here: the sweep workload is meant to show what
the library does with the environment it is given.
"""

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import tempfile
import time
import tracemalloc
import traceback
from pathlib import Path

START = time.perf_counter()
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# per-layer metric -> (span name, field); values are per op
SPAN_METRICS = {
    "spatial.match_group.s": ("spatial.match_group", "s"),
    "spatial.match_group.calls": ("spatial.match_group", "calls"),
    "spatial.wnnm_shrink.s": ("spatial.wnnm_shrink", "s"),
    "spatial.wnnm_shrink.calls": ("spatial.wnnm_shrink", "calls"),
    "spatial.aggregate.s": ("spatial.aggregate", "s"),
    "spatial.aggregate.calls": ("spatial.aggregate", "calls"),
    "spatial.denoise_reduced.s": ("spatial.denoise_reduced", "s"),
    "spatial.denoise_reduced.self_s": ("spatial.denoise_reduced", "self_s"),
    "subspace.estimate_band_noise.s": ("subspace.estimate_band_noise", "s"),
    "subspace.estimate_band_noise.calls": ("subspace.estimate_band_noise", "calls"),
    "subspace.estimate_subspace_dim.s": ("subspace.estimate_subspace_dim", "s"),
    "subspace.estimate_subspace_dim.calls": ("subspace.estimate_subspace_dim", "calls"),
    "subspace.spectral_decompose.s": ("subspace.spectral_decompose", "s"),
    "subspace.reestimate_noise.s": ("subspace.reestimate_noise", "s"),
    "tensor.mode3_product.s": ("tensor.mode3_product", "s"),
    "pipeline.iterate_regularize.s": ("pipeline.iterate_regularize", "s"),
    "pipeline.denoise.s": ("pipeline.denoise", "s"),
    "pipeline.denoise.self_s": ("pipeline.denoise", "self_s"),
    "metrics.mpsnr.s": ("metrics.mpsnr", "s"),
    "io.load_input.s": ("experiment.load_input", "s"),
}
SPATIAL_SELF = ["spatial.match_group.s", "spatial.wnnm_shrink.s",
                "spatial.aggregate.s", "spatial.denoise_reduced.self_s"]
ESTIMATE = ["subspace.estimate_band_noise.s", "subspace.estimate_subspace_dim.s"]


def import_program():
    """Import hsidenoise from this checkout's src/, or exit non-zero."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import hsidenoise
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import hsidenoise from {src}: {exc}")
    if not Path(hsidenoise.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"perfbench: hsidenoise came from {hsidenoise.__file__}, not {src}")


def environment():
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    env = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "blas": blas,
    }
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = os.environ.get(var, "unset")
    env.update(python=platform.python_version(), numpy=numpy.__version__,
               scipy=scipy.__version__)
    return env


def declared_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["end_to_end"], spec["per_layer"]


def measure(wl, args, workdir):
    """Set up, run the timed ops, the set-up repeats and the memory pass."""
    from tracer import Tracer

    res = {"setup": [], "times": [], "attempted": 0, "failures": [], "out": None}
    wl.setup(args.seed, workdir)

    def checked(run):
        res["attempted"] += 1
        try:
            out = run()
        except Exception:  # the op's failure is a result, not a crash
            res["failures"].append([traceback.format_exc()])
            return None
        fails = wl.check(out, res["out"])
        if fails:
            res["failures"].append(fails)
        return out

    # The first op runs in a fresh process, as each command-line run does.
    tracer = res["tracer"] = Tracer()
    with tracer if args.trace else contextlib.nullcontext():
        start = time.perf_counter()
        while not res["times"] or time.perf_counter() - start < args.seconds:
            tracer.recording = bool(args.trace)
            t0 = time.perf_counter()
            out = checked(lambda: wl.op(traced=bool(args.trace)))
            elapsed = time.perf_counter() - t0
            tracer.recording = False
            if out is None:
                return res
            res["times"].append(elapsed)
            if res["out"] is None:
                res["out"] = out  # later outputs must match it bit for bit

    # Timed first thing in a fresh process, set-up read up to 2.5x slower,
    # varying from run to run, so it is timed once the processor is busy.
    for _ in range(wl.setup_reps):
        t0 = time.perf_counter()
        wl.setup(args.seed, workdir)
        res["setup"].append(time.perf_counter() - t0)

    # peak_mb comes from its own untimed op; tracemalloc slows it about 2x.
    # A traced run reports no peak_mb but still runs the op as a check.
    if not args.trace:
        tracemalloc.start()
    t0 = time.perf_counter()
    try:
        checked(wl.memory_op)
        res["peak_bytes"] = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    res["memory_s"] = time.perf_counter() - t0
    return res


def op_tail(times):
    """The highest percentile with ten ops beyond it, or the slowest op.

    Printed but not in the JSON: which percentile a run supports depends on
    how many ops fit in it, so it is not one metric across runs.
    """
    for p in (99, 95, 90, 75):
        if len(times) * (100 - p) >= 1000:
            return f"op_p{p}_s", statistics.quantiles(times, n=100)[p - 1]
    return "op_max_s", max(times)


def end_to_end(wl, res):
    times = res["times"]
    op_s = statistics.median(times)
    mpsnr, mssim, sam = wl.quality(res["out"])
    who = resource.RUSAGE_CHILDREN if wl.runs_in_workers else resource.RUSAGE_SELF
    return {
        "setup_s": statistics.median(res["setup"]),
        "op_s": op_s,
        "mvox_per_s": wl.voxels / op_s / 1e6,
        "mpsnr_db": mpsnr,
        "mssim": mssim,
        "sam_deg": sam,
        "peak_mb": res["peak_bytes"] / 1e6,
        "worker_rss_mb": resource.getrusage(who).ru_maxrss * 1024 / 1e6,
    }


def per_layer(wl, res, outdir, args):
    from tracer import span_cost
    from workloads import iteration_metrics

    tracer = res["tracer"]
    ops = len(res["times"])
    totals = tracer.totals()
    vals = {
        name: totals[span][field] / ops if span in totals else 0.0
        for name, (span, field) in SPAN_METRICS.items()
    }
    wl.quality(res["out"])
    vals.update(
        {
            "experiment.case_s": 0.0,
            "experiment.case_stage_b_s": 0.0,
            "experiment.pool_overhead_s": 0.0,
            "io.bytes_written": 0.0,
            "metrics.quality_report.s": statistics.median(wl.quality_times),
        }
    )
    vals.update(iteration_metrics({}))
    vals.update(wl.layer_metrics(res["out"]))
    # a mean, like the span totals above, so layer shares of it add up
    op_s = sum(res["times"]) / ops
    vals["trace.op_s"] = op_s
    vals["trace.spans"] = len(tracer.spans) / ops
    vals["trace.overhead_pct"] = vals["trace.spans"] * span_cost() / op_s * 100.0
    tracer.dump(outdir / f"spans-{wl.name}-seed{args.seed}.jsonl")
    return vals


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=5.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # let `finally` remove the scratch directory when the run is stopped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    import_program()
    e2e_spec, layer_spec = declared_metrics()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    wl = WORKLOADS[args.workload]()
    outdir = HERE / "out"
    outdir.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=outdir))
    try:
        res = measure(wl, args, workdir)
        ok = res["out"] is not None
        if ok and args.trace:
            vals, spec = per_layer(wl, res, outdir, args), layer_spec
        elif ok:
            vals, spec = end_to_end(wl, res), e2e_spec
        if ok:
            tail_name, tail_s = op_tail(res["times"])
            extra = {tail_name: (tail_s, "s"), "ops_timed": (len(res["times"]), "count")}
            extra.update(wl.report(res["out"]))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted, failed = res["attempted"], len(res["failures"])
    print(f"workload {wl.name}  seed {args.seed}  trace {args.trace}  "
          f"ops {len(res['times'])} timed + 1 untimed ({res.get('memory_s', 0):.1f} s)  "
          f"wall {time.perf_counter() - START:.1f} s")
    print("env " + json.dumps(environment()))
    for fails in res["failures"]:
        print("FAILED: " + "; ".join(fails).rstrip(), file=sys.stderr)
    print(f"  fail_ratio = {failed / attempted:.4g} ratio ({failed}/{attempted} ops)")
    metrics = {}
    if ok:
        units = {m["name"]: m["unit"] for m in spec}
        for name, value in vals.items():
            print(f"  {name} = {value:.6g} {units.get(name, '')}")
        for name, (value, unit) in extra.items():
            print(f"  {name} = {value:.6g} {unit}")
        if args.trace:
            op_s = vals["trace.op_s"]
            print(f"  spatial self share = {sum(vals[k] for k in SPATIAL_SELF) / op_s:.1%}"
                  f", estimate share = {sum(vals[k] for k in ESTIMATE) / op_s:.1%} of trace.op_s")
        metrics = {m["name"]: {"value": vals[m["name"]], "unit": m["unit"]} for m in spec}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
