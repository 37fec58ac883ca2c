"""Cube file I/O and synthetic noise injection.

The native format is a plain-text header (key = value lines) next to a raw
band-sequential payload: the payload holds the bands one after another,
each scanned column-major, i.e. the C-ordered (bands, cols, rows) array
cube.transpose(2, 1, 0).  This module alone knows that order.  read_cube
returns a C-ordered cube, the layout the band-mode passes read through an
(M*N, B) view without copying.  Per-band grayscale PGM stacks
are supported for datasets distributed as one image per band.  The
readers return the stored values; the one place that maps a loaded cube
onto [0, PEAK] is experiment.load_input.
"""

import math
import re
from pathlib import Path

import numpy as np

from .tensor import PEAK, _noise_level, as_cube

__all__ = [
    "CubeHeader",
    "DataError",
    "HeaderError",
    "PayloadSizeError",
    "UnreadableFileError",
    "read_cube",
    "write_cube",
    "read_band_stack",
    "write_band_stack",
    "add_gaussian_noise",
    "rescale",
    "parse_band_list",
    "parse_key_values",
]

DTYPES = {
    "f32": np.dtype("<f4"),
    "f64": np.dtype("<f8"),
    "u8": np.dtype("u1"),
    "u16": np.dtype("<u2"),
}


class DataError(Exception):
    """Base for all data-file problems (CLI exit code 2)."""


class HeaderError(DataError):
    """Malformed header: missing keys, bad values, unknown dtype."""


class PayloadSizeError(DataError):
    """Payload length disagrees with the header dims."""


class UnreadableFileError(DataError):
    """File missing or not readable."""


def parse_key_values(text, source, error=ValueError):
    """Yield (line number, lowercased key, value) per `key = value` line of
    text, skipping `#` comments and blank lines; other lines raise error."""
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise error(f"{source}:{lineno}: expected key = value, got {line!r}")
        key, val = (part.strip() for part in line.split("=", 1))
        yield lineno, key.lower(), val


class CubeHeader:
    """Parsed native header."""

    def __init__(self, rows, cols, bands, dtype, interleave="bsq", scale=None, data=None):
        if min(rows, cols, bands) < 1:
            raise HeaderError(f"dims must be positive, got {rows}x{cols}x{bands}")
        if dtype not in DTYPES:
            raise HeaderError(f"unknown dtype {dtype!r}, expected one of {sorted(DTYPES)}")
        if interleave != "bsq":
            raise HeaderError(f"unsupported interleave {interleave!r}, only bsq")
        self.rows = rows
        self.cols = cols
        self.bands = bands
        self.dtype = dtype
        self.interleave = interleave
        self.scale = scale
        self.data = data

    @property
    def payload_bytes(self):
        return self.rows * self.cols * self.bands * DTYPES[self.dtype].itemsize

    @classmethod
    def parse(cls, text, source="header"):
        fields = {key: val for _, key, val in parse_key_values(text, source, HeaderError)}
        missing = {"rows", "cols", "bands", "dtype"} - fields.keys()
        if missing:
            raise HeaderError(f"{source}: missing keys {sorted(missing)}")
        try:
            rows, cols, bands = (int(fields[k]) for k in ("rows", "cols", "bands"))
        except ValueError as exc:
            raise HeaderError(f"{source}: non-integer dims: {exc}") from exc
        scale = None
        if "scale" in fields:
            parts = re.split(r"[,\s]+", fields["scale"].strip())
            if len(parts) != 2:
                raise HeaderError(f"{source}: scale needs two values, got {fields['scale']!r}")
            try:
                scale = (float(parts[0]), float(parts[1]))
            except ValueError as exc:
                raise HeaderError(f"{source}: bad scale values: {exc}") from exc
            if not all(map(math.isfinite, scale)):
                raise HeaderError(f"{source}: scale values must be finite, got {fields['scale']!r}")
            if not scale[0] < scale[1]:
                raise HeaderError(f"{source}: scale needs lo < hi, got {fields['scale']!r}")
        return cls(
            rows,
            cols,
            bands,
            fields["dtype"].lower(),
            fields.get("interleave", "bsq").lower(),
            scale,
            fields.get("data"),
        )

    def dump(self):
        lines = [
            f"rows = {self.rows}",
            f"cols = {self.cols}",
            f"bands = {self.bands}",
            f"dtype = {self.dtype}",
            f"interleave = {self.interleave}",
        ]
        if self.scale is not None:
            # full precision so dequantization bounds survive the text trip
            lines.append(f"scale = {self.scale[0]:.17g} {self.scale[1]:.17g}")
        if self.data is not None:
            lines.append(f"data = {self.data}")
        return "\n".join(lines) + "\n"


def _resolve_header_path(path):
    p = Path(path)
    if p.suffix == ".hdr":
        return p
    cand = Path(str(p) + ".hdr")
    if cand.exists() and not p.exists():
        return cand
    return p


def rescale(cube, bounds=None):
    """Affine map of cube values onto [0, PEAK].

    bounds supplies the source range; by default the data min/max is used.
    Values outside the bounds are mapped by the same affine map, not
    clipped, so a noisy cube written with its clean cube's scale keeps
    its noise.  A flat range maps to zeros.
    """
    cube = np.asarray(cube, dtype=np.float64)
    if bounds is None:
        lo, hi = float(cube.min()), float(cube.max())
    else:
        lo, hi = (float(b) for b in bounds)
    if hi <= lo:
        return np.zeros_like(cube)
    return (cube - lo) * (PEAK / (hi - lo))


def read_cube(path):
    """Read a native header + raw payload pair into a C-ordered float64
    cube of the stored values; an integer payload with a header scale is
    mapped back onto that scale.

    path may point at the .hdr file or at its stem.
    """
    return _read_cube(path)[0]


def _read_cube(path):
    """(cube, scale): read_cube's cube and the header's scale, None when
    it has none."""
    hdr_path = _resolve_header_path(path)
    try:
        text = hdr_path.read_text()
    except OSError as exc:
        raise UnreadableFileError(f"cannot read header {hdr_path}: {exc}") from exc
    header = CubeHeader.parse(text, source=str(hdr_path))

    if header.data is not None:
        raw_path = hdr_path.parent / header.data
    else:
        raw_path = hdr_path.with_suffix(".raw")
    try:
        payload = raw_path.read_bytes()
    except OSError as exc:
        raise UnreadableFileError(f"cannot read payload {raw_path}: {exc}") from exc
    if len(payload) != header.payload_bytes:
        raise PayloadSizeError(
            f"payload size mismatch for {raw_path}: expected "
            f"{header.payload_bytes} bytes, got {len(payload)}"
        )

    np_dtype = DTYPES[header.dtype]
    # payload[b, j, i] is pixel (i, j) of band b; one grid column at a time,
    # converted and transposed into place, fills the C-ordered cube in one
    # pass (a whole-cube strided copy took 3x as long at 128x128x191)
    payload = np.frombuffer(payload, dtype=np_dtype).reshape(
        header.bands, header.cols, header.rows
    )
    cube = np.empty((header.rows, header.cols, header.bands))
    for j in range(header.cols):
        cube[:, j] = payload[:, j].astype(np.float64).T
    if header.scale is not None and np_dtype.kind == "u":
        lo, hi = header.scale
        cube /= np.iinfo(np_dtype).max
        cube *= hi - lo
        cube += lo
    return cube, header.scale


def write_cube(path, cube, dtype="f64", scale=None):
    """Write a cube as header + raw payload; returns the header path.

    f64 round-trips bit-exactly through read_cube.  Integer dtypes round
    and clip to the type range; passing scale=(lo, hi) instead maps that
    interval onto the full type range (read_cube undoes the mapping), so
    data with negative or wide-ranging values survives quantization.  A
    float dtype stores the values as they are and records scale as the
    range experiment.load_input maps onto [0, PEAK].  scale needs finite
    lo < hi for every dtype, as read_cube does.
    """
    cube = as_cube(cube)
    m, n, b = cube.shape
    hdr_path = Path(path)
    if hdr_path.suffix != ".hdr":
        hdr_path = Path(str(hdr_path) + ".hdr")
    raw_path = hdr_path.with_suffix(".raw")

    if scale is not None:
        lo, hi = (float(s) for s in scale)
        if not -math.inf < lo < hi < math.inf:
            raise ValueError(f"scale bounds must be finite and satisfy lo < hi, got {scale}")
    header = CubeHeader(m, n, b, dtype, scale=scale, data=raw_path.name)
    # the payload as _read_cube reshapes it, (bands, cols, rows): one
    # C-ordered copy of the transpose, the only copy for f64, as astype
    # keeps it and tofile writes its buffer
    payload = np.array(cube.transpose(2, 1, 0), order="C")
    np_dtype = DTYPES[dtype]
    if np_dtype.kind == "u":
        info = np.iinfo(np_dtype)
        if scale is not None:
            payload = (payload - lo) / (hi - lo) * info.max
        payload = np.clip(np.rint(payload), info.min, info.max)
    payload.astype(np_dtype, copy=False).tofile(raw_path)
    hdr_path.write_text(header.dump())
    return hdr_path


_PGM_TOKEN = re.compile(rb"(?:\s|#[^\n\r]*[\n\r])*([^\s#]+)")


def _pgm_tokens(buf, count):
    """First `count` whitespace/comment-delimited tokens and the end offset."""
    pos = 0
    out = []
    for _ in range(count):
        match = _PGM_TOKEN.match(buf, pos)
        if match is None:
            raise DataError("truncated PGM header")
        out.append(match.group(1))
        pos = match.end()
    return out, pos


def read_pgm(path):
    """Read a single PGM (P5 binary or P2 ascii) band as float64."""
    path = Path(path)
    try:
        buf = path.read_bytes()
    except OSError as exc:
        raise UnreadableFileError(f"cannot read {path}: {exc}") from exc
    try:
        (magic, w, h, maxval), pos = _pgm_tokens(buf, 4)
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from exc
    if magic not in (b"P5", b"P2"):
        raise DataError(f"{path}: not a PGM file (magic {magic!r})")
    try:
        w, h, maxval = int(w), int(h), int(maxval)
    except ValueError as exc:
        raise DataError(f"{path}: bad PGM header: {exc}") from exc
    if w < 1 or h < 1 or not 0 < maxval < 65536:
        raise DataError(f"{path}: bad PGM dims/maxval {w}x{h}/{maxval}")

    if magic == b"P5":
        # exactly one whitespace byte separates maxval from the raster
        data = buf[pos + 1 :]
        dtype = np.dtype(">u2") if maxval > 255 else np.dtype("u1")
        expect = w * h * dtype.itemsize
        if len(data) < expect:
            raise PayloadSizeError(
                f"{path}: payload size mismatch: expected {expect} bytes, got {len(data)}"
            )
        band = np.frombuffer(data[:expect], dtype=dtype)
    else:
        try:
            vals = [int(t) for t in buf[pos:].split()]
        except ValueError as exc:
            raise DataError(f"{path}: bad P2 sample: {exc}") from exc
        if len(vals) != w * h:
            raise PayloadSizeError(
                f"{path}: payload size mismatch: expected {w * h} samples, got {len(vals)}"
            )
        band = np.asarray(vals)
    return band.reshape(h, w).astype(np.float64)


def write_pgm(path, band, maxval=255):
    """Write one band as binary P5, big-endian for maxval > 255."""
    band = np.asarray(band, dtype=np.float64)
    if band.ndim != 2:
        raise ValueError(f"expected a 2-d band, got shape {band.shape}")
    h, w = band.shape
    dtype = np.dtype(">u2") if maxval > 255 else np.dtype("u1")
    samples = np.clip(np.rint(band), 0, maxval).astype(dtype)
    Path(path).write_bytes(b"P5\n%d %d\n%d\n" % (w, h, maxval) + samples.tobytes())


def read_band_stack(dir_path):
    """Stack a directory of PGM band files (lexicographic order) into a
    cube of the stored sample values."""
    d = Path(dir_path)
    if not d.is_dir():
        raise UnreadableFileError(f"not a directory: {d}")
    files = sorted(p for p in d.iterdir() if p.suffix.lower() == ".pgm")
    if not files:
        raise DataError(f"no .pgm band files in {d}")
    bands = []
    for f in files:
        band = read_pgm(f)
        if bands and band.shape != bands[0].shape:
            raise DataError(
                f"{f.name}: band shape {band.shape} differs from "
                f"{files[0].name} shape {bands[0].shape}"
            )
        bands.append(band)
    return np.stack(bands, axis=2)


def write_band_stack(dir_path, cube, maxval=255, prefix="band"):
    """Write a cube as one PGM per band; inverse of read_band_stack for
    integer-valued cubes within [0, maxval]."""
    cube = as_cube(cube)
    d = Path(dir_path)
    d.mkdir(parents=True, exist_ok=True)
    for b in range(cube.shape[2]):
        write_pgm(d / f"{prefix}_{b:04d}.pgm", cube[:, :, b], maxval)
    return d


def add_gaussian_noise(cube, sigma, seed=0):
    """Add i.i.d. zero-mean Gaussian noise of the given sigma.

    Noise comes from numpy's PCG64 generator (ziggurat normal transform),
    so a fixed seed reproduces the noisy cube bit for bit.  sigma = 0
    returns a copy of the input.  The result is C-ordered whatever the
    input's layout: the draws are scaled and the cube added in their own
    buffer, the values of cube + rng.normal(0, sigma, cube.shape).
    """
    cube = as_cube(cube)
    if _noise_level("sigma", sigma) == 0:
        return cube.copy()
    noisy = np.random.default_rng(seed).standard_normal(cube.shape)
    noisy *= sigma
    noisy += cube
    return noisy


def parse_band_list(text):
    """Parse a band-keep list like "0-102,108-148" into sorted indices."""
    out = set()
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if "-" in part:
            lo, _, hi = part.partition("-")
            try:
                lo, hi = int(lo), int(hi)
            except ValueError as exc:
                raise ValueError(f"bad band range {part!r}") from exc
            if lo > hi:
                raise ValueError(f"empty band range {part!r}")
            out.update(range(lo, hi + 1))
        else:
            try:
                out.add(int(part))
            except ValueError as exc:
                raise ValueError(f"bad band index {part!r}") from exc
    if not out:
        raise ValueError(f"no bands in {text!r}")
    return sorted(out)
