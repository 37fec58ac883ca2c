"""Spans around calls into hsidenoise's public functions, recorded from outside.

The tracer replaces module attributes that callers look up at call time
(``hsidenoise.pipeline.spectral_decompose``, ``hsidenoise.spatial.match_group``
and so on) with thin wrappers, and puts the originals back on exit.  Each call
while recording appends one span ``(name, start, end, parent)`` to an
in-memory list; nothing is written until the run ends.
"""

import json
import statistics
import time
from collections import defaultdict

# (module, attribute) pairs wrapped during a traced run.  A span is named
# after the module that defines the function, so ``pipeline.spectral_decompose``
# and ``subspace.spectral_decompose`` land in the same ``subspace.*`` layer.
WRAPPED = [
    ("pipeline", "denoise"),
    ("pipeline", "estimate_band_noise"),
    ("pipeline", "estimate_subspace_dim"),
    ("pipeline", "spectral_decompose"),
    ("pipeline", "reestimate_noise"),
    ("pipeline", "denoise_reduced"),
    ("pipeline", "mode3_product"),
    ("pipeline", "iterate_regularize"),
    ("subspace", "estimate_band_noise"),
    ("subspace", "estimate_subspace_dim"),
    ("spatial", "match_group"),
    ("spatial", "wnnm_shrink"),
    ("spatial", "aggregate"),
    ("metrics", "mpsnr"),
    ("experiment", "load_input"),
    ("experiment", "denoise"),
]


class Tracer:
    """Collects nested spans while ``recording`` is true."""

    def __init__(self):
        self.spans = []
        self.recording = False
        self._stack = []
        self._saved = []

    def _wrap(self, name, fn):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()

        traced.__wrapped__ = fn
        return traced

    def __enter__(self):
        import hsidenoise

        originals = {}
        for mod_name, attr in WRAPPED:
            mod = getattr(hsidenoise, mod_name)
            fn = getattr(mod, attr)
            key = (fn.__module__, fn.__qualname__)
            if key not in originals:
                layer = fn.__module__.rsplit(".", 1)[-1]
                originals[key] = self._wrap(f"{layer}.{fn.__name__}", fn)
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, originals[key])
        return self

    def __exit__(self, *exc):
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()
        self.recording = False
        return False

    def totals(self):
        """Per span name: total seconds, self seconds and call count."""
        out = defaultdict(lambda: {"s": 0.0, "self_s": 0.0, "calls": 0})
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for (name, start, end, _), covered in zip(self.spans, child):
            row = out[name]
            row["s"] += end - start
            row["self_s"] += end - start - covered
            row["calls"] += 1
        return out

    def dump(self, path):
        with open(path, "w") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps([name, start, end, parent]) + "\n")


def span_cost(repeats=20000):
    """Median seconds one recorded span adds to a call, measured on a no-op."""
    tracer = Tracer()

    def noop():
        return None

    traced = tracer._wrap("noop", noop)
    tracer.recording = True
    samples = []
    for _ in range(5):
        tracer.spans.clear()
        t0 = time.perf_counter()
        for _ in range(repeats):
            traced()
        t1 = time.perf_counter()
        for _ in range(repeats):
            noop()
        t2 = time.perf_counter()
        samples.append(((t1 - t0) - (t2 - t1)) / repeats)
    return max(statistics.median(samples), 0.0)
