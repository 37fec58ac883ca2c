"""Command-line interface.

Exit codes: 0 success, 1 usage/config error, 2 data error, 3 numerical
failure.
"""

import argparse
import dataclasses
import statistics
import sys
import time
import typing
from pathlib import Path

import numpy as np

from .experiment import (
    ExperimentSpec,
    _written_scale,
    bench_bands,
    load_input,
    run_experiment,
    write_trace_csv,
)
from .io import DTYPES, DataError, add_gaussian_noise, parse_band_list, parse_key_values, write_cube
from .metrics import _check_window, quality_report
from .pipeline import DenoiseConfig, NumericalError, denoise
from .spatial import PatchGeometry
from .subspace import estimate_band_noise, estimate_subspace_dim
from .tensor import PEAK

__all__ = ["main"]


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; the contract here reserves 2 for
    # data problems
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


_TRUE = {"1", "true", "yes", "on"}
_FALSE = {"0", "false", "no", "off"}


def _parse_bool(text):
    low = text.strip().lower()
    if low in _TRUE:
        return True
    if low in _FALSE:
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


# Each DenoiseConfig/PatchGeometry field is one flag and one config key,
# named after the field unless listed here.
_KEYS = {"lam": "lambda"}
_HELP = {
    "k0": "subspace dimension held for every iteration (default: estimated)",
    "lam": "estimate/observation mix in [0,1]",
    "gamma": "noise re-estimation scale",
    "iters": "outer iterations",
    "patch": "patch side",
    "window": "search window side; window // 2 corners each way, so 30 and 31 both search 31x31",
    "group": "patches per group",
}
# run options that are not denoiser fields:
# key -> (parser of a file value, flag, flag keywords)
_RUN_OPTIONS = {
    "seed": (int, "--seed", dict(type=int, help=f"noise seed (default {ExperimentSpec.seed})")),
    "sigma0": (float, "--sigma0", dict(type=float, help=f"noise sigma on the [0,{PEAK:g}] scale (default: estimated)")),
    "normalize": (_parse_bool, "--no-normalize", dict(action="store_true", help=f"keep stored values; skip [0,{PEAK:g}] rescale on load")),
    "keep_bands": (str, "--keep-bands", dict(metavar="LIST", help="bands to keep, e.g. 0-102,108-148")),
}


def _config_fields(cls=DenoiseConfig):
    """Yield (class, field, key, type) for each field the command line
    sets; geom is set through its PatchGeometry fields."""
    hints = typing.get_type_hints(cls)
    for f in dataclasses.fields(cls):
        tp = hints[f.name]
        if dataclasses.is_dataclass(tp):
            yield from _config_fields(tp)
        else:
            yield cls, f, _KEYS.get(f.name, f.name), tp


def _arg_type(tp):
    """The type a field annotation parses as; X | None takes an X."""
    return next(a for a in typing.get_args(tp) or (tp,) if a is not type(None))


def _read_config_file(path):
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise DataError(f"cannot read config file {path}: {exc}") from exc
    known = {key for _, _, key, _ in _config_fields()} | _RUN_OPTIONS.keys()
    vals = {}
    for lineno, key, val in parse_key_values(text, path):
        key = key.replace("-", "_")
        if key not in known:
            raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
        vals[key] = val
    return vals


def _add_config_flags(parser, run_options, denoiser=True):
    """Add --config, the denoiser flags if denoiser, and the named run options.

    A subcommand gets only the flags it reads; its --config file may still
    hold every key, so one file serves every subcommand.
    """
    grp = parser.add_argument_group("denoiser options") if denoiser else parser
    grp.add_argument("--config", metavar="FILE", help="key = value defaults; flags override")
    for _, f, key, tp in _config_fields() if denoiser else ():
        text = _HELP[f.name]
        if f.default is not None:
            default = f"{f.default:g}" if isinstance(f.default, float) else f.default
            text += f" (default {default})"
        grp.add_argument("--" + key.replace("_", "-"), dest=key, type=_arg_type(tp), help=text)
    for key in run_options:
        _, flag, kwargs = _RUN_OPTIONS[key]
        grp.add_argument(flag, **kwargs)


def _build_config(args):
    """Return (DenoiseConfig, run options) with flags over config file values.

    Whatever neither sets keeps its dataclass default.  The run options
    are sigma0, seed, normalize and keep_bands.
    """
    file_vals = _read_config_file(args.config) if args.config else {}

    def pick(key, cast):
        val = getattr(args, key, None)
        if val is None and key in file_vals:
            val = cast(file_vals[key])
        return val

    kwargs = {DenoiseConfig: {}, PatchGeometry: {}}
    for cls, f, key, tp in _config_fields():
        val = pick(key, _arg_type(tp))
        if val is not None:
            kwargs[cls][f.name] = val
    cfg = DenoiseConfig(geom=PatchGeometry(**kwargs[PatchGeometry]), **kwargs[DenoiseConfig])

    run = argparse.Namespace(**{key: pick(key, cast) for key, (cast, _, _) in _RUN_OPTIONS.items()})
    if run.seed is None:
        run.seed = ExperimentSpec.seed
    run.normalize = not args.no_normalize and run.normalize is not False
    run.keep_bands = parse_band_list(run.keep_bands) if run.keep_bands else None
    return cfg, run


def _cmd_denoise(args):
    cfg, run = _build_config(args)
    cube = load_input(args.input, run.normalize, run.keep_bands)
    clean = load_input(args.clean, run.normalize, run.keep_bands) if args.clean else None
    if clean is not None:
        _check_window(*clean.shape[:2])
    for path in (args.output, args.trace):
        if path and not Path(path).parent.is_dir():
            raise FileNotFoundError(f"cannot write {path}: no directory {Path(path).parent}")
    t0 = time.perf_counter()
    x, trace = denoise(cube, run.sigma0, cfg, clean=clean)
    elapsed = time.perf_counter() - t0
    # the trace first: a trace path that cannot be written leaves no cube
    if args.trace:
        write_trace_csv(args.trace, trace)
    write_cube(args.output, x, dtype=args.dtype, scale=_written_scale(run.normalize))
    m, n, b = x.shape
    last = trace[-1]
    print(
        f"denoised {m}x{n}x{b} cube in {len(trace)} iterations "
        f"({elapsed:.1f} s); final K={last.k}, sigma_i={last.sigma:.3f}"
    )
    if clean is not None:
        rep = quality_report(clean, x)
        print(f"mpsnr={rep.mpsnr:.2f} dB  mssim={rep.mssim:.4f}  sam={rep.sam_deg:.3f} deg")
    return 0


def _cmd_add_noise(args):
    _, run = _build_config(args)
    cube = load_input(args.input, run.normalize, run.keep_bands)
    noisy = add_gaussian_noise(cube, args.sigma, seed=run.seed)
    write_cube(args.output, noisy, dtype=args.dtype, scale=_written_scale(run.normalize))
    print(f"wrote {args.output} (sigma={args.sigma:g}, seed={run.seed})")
    return 0


def _cmd_metrics(args):
    ref = load_input(args.ref, normalize=False)
    test = load_input(args.test, normalize=False)
    rep = quality_report(ref, test, peak=args.peak)
    print(f"mpsnr={rep.mpsnr:.4f} dB  mssim={rep.mssim:.6f}  sam={rep.sam_deg:.4f} deg")
    return 0


def _cmd_estimate_k(args):
    _, run = _build_config(args)
    cube = load_input(args.input, run.normalize, run.keep_bands)
    sig = estimate_band_noise(cube)
    k = estimate_subspace_dim(cube, sig)
    print(f"K = {k}")
    print(
        f"band sigma: median={statistics.median(sig.tolist()):.6g} "
        f"min={sig.min():.6g} max={sig.max():.6g}"
    )
    return 0


def _parse_list(text, what, kind=float):
    try:
        return [kind(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise ValueError(f"bad {what} list {text!r}") from exc


def _spec(args, sigmas, **extra):
    """The ExperimentSpec of a sweep subcommand's input, output directory
    and options."""
    cfg, run = _build_config(args)
    return ExperimentSpec(
        input_path=args.input,
        sigmas=sigmas,
        output_dir=args.outdir,
        seed=run.seed,
        config=cfg,
        normalize=run.normalize,
        keep_bands=run.keep_bands,
        **extra,
    )


def _cmd_run_exp(args):
    spec = _spec(args, _parse_list(args.sigmas, "sigma"), label=args.label,
                 jobs=args.jobs, save_cubes=not args.no_save_cubes)
    rows = run_experiment(spec)
    for row in rows:
        if row["status"] == "ok":
            print(
                f"sigma={float(row['sigma']):g}: mpsnr={float(row['mpsnr']):.2f} dB "
                f"mssim={float(row['mssim']):.4f} sam={float(row['sam_deg']):.3f} deg "
                f"({float(row['seconds']):.1f} s)"
            )
        else:
            print(f"sigma={float(row['sigma']):g}: {row['status']}")
    print(f"report: {Path(args.outdir) / 'report.csv'}")
    return 0


def _cmd_bench_bands(args):
    spec = _spec(args, [args.sigma])
    counts = _parse_list(args.bands, "band", int) if args.bands else None
    rows = bench_bands(spec, counts)
    for row in rows:
        print(
            f"bands={row['bands']}: stage A {float(row['stage_a_seconds']):.3f} s, "
            f"stage B {float(row['stage_b_seconds']):.3f} s, "
            f"mssim={float(row['mssim']):.4f}"
        )
    print(f"report: {Path(args.outdir) / 'bench.csv'}")
    return 0


def build_parser():
    parser = _Parser(
        prog="hsidenoise",
        description="Hyperspectral image denoising by iterated spectral "
        "subspace projection and non-local low-rank filtering.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("denoise", help="denoise one cube")
    p.add_argument("input", help="cube header (.hdr) or PGM band directory")
    p.add_argument("output", help="output cube path (writes .hdr + .raw)")
    p.add_argument("--clean", help="ground-truth cube for metrics")
    p.add_argument("--trace", help="write per-iteration trace CSV here")
    p.add_argument("--dtype", default="f64", choices=list(DTYPES))
    _add_config_flags(p, ("sigma0", "normalize", "keep_bands"))
    p.set_defaults(func=_cmd_denoise)

    p = sub.add_parser("add-noise", help="write a noisy copy of a cube")
    p.add_argument("input")
    p.add_argument("output")
    p.add_argument("--sigma", type=float, required=True)
    p.add_argument("--dtype", default="f64", choices=list(DTYPES))
    _add_config_flags(p, ("seed", "normalize", "keep_bands"), denoiser=False)
    p.set_defaults(func=_cmd_add_noise)

    p = sub.add_parser("metrics", help="compare two cubes")
    p.add_argument("ref")
    p.add_argument("test")
    p.add_argument("--peak", type=float, default=PEAK)
    p.set_defaults(func=_cmd_metrics)

    p = sub.add_parser("estimate-k", help="estimate noise and subspace dimension")
    p.add_argument("input")
    _add_config_flags(p, ("normalize", "keep_bands"), denoiser=False)
    p.set_defaults(func=_cmd_estimate_k)

    p = sub.add_parser("run-exp", help="noise sweep with CSV report")
    p.add_argument("input")
    p.add_argument("--sigmas", required=True, help="comma list, e.g. 10,30,50,100")
    p.add_argument("--outdir", required=True)
    p.add_argument("--label", help="image name in the report (default: input stem)")
    p.add_argument("--jobs", type=int, default=ExperimentSpec.jobs, help=f"parallel worker processes (default {ExperimentSpec.jobs})")
    p.add_argument("--no-save-cubes", action="store_true", help="skip writing denoised cubes")
    _add_config_flags(p, ("seed", "normalize", "keep_bands"))
    p.set_defaults(func=_cmd_run_exp)

    p = sub.add_parser("bench-bands", help="stage timing vs band count")
    p.add_argument("input")
    p.add_argument("--sigma", type=float, default=50.0)
    p.add_argument("--bands", help="comma list of band counts (default 32,64,128 below B, then B)")
    p.add_argument("--outdir", required=True)
    _add_config_flags(p, ("seed", "normalize", "keep_bands"))
    p.set_defaults(func=_cmd_bench_bands)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits for usage errors and --help; report the code
        return int(exc.code or 0)
    try:
        return args.func(args)
    except DataError as exc:
        print(f"hsidenoise: data error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"hsidenoise: i/o error: {exc}", file=sys.stderr)
        return 2
    except (NumericalError, np.linalg.LinAlgError) as exc:
        print(f"hsidenoise: numerical failure: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"hsidenoise: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
