"""Per-layer tracing from outside the program.

A `Tracer` wraps public functions of the spikecodec modules at every name
that resolves to them (``spikecodec.cli.encode_signal``,
``spikecodec.pipeline.encode_segment``, ``spikecodec.encoder.correlate_spectral``
and so on), so each call through any module records one span: name, start,
end, parent and thread. A function that no longer exists is reported as
absent and is otherwise skipped. Span recording holds a lock, so functions
may run on several threads at once; a span opened on a thread with no open
span of its own takes as parent the innermost open span of the thread that
installed the tracer (for example `encode_signal` handing segments to a
pool).
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import os
import sys
import threading
from collections import Counter, defaultdict
from time import perf_counter


def _code_intensities(codes) -> list[float]:
    """Signed intensities of one segment's codes, whether the encoder returns
    code objects or an array record with an ``s`` field."""
    s = getattr(codes, "s", None)
    if s is None:
        s = [c.s for c in codes]
    return [float(v) for v in s]


def _count_codes(args, kwargs, result):
    s = _code_intensities(result)
    return {"encoder.codes": len(s), "encoder.zero_codes": s.count(0.0)}


def _count_events(args, kwargs, result):
    return {"spikecoder.events": len(result)}


def _count_decoded_codes(args, kwargs, result):
    codesets = kwargs["codesets"] if "codesets" in kwargs else args[0]
    return {"decoder.codes": sum(len(_code_intensities(cs)) for cs in codesets)}


def _count_written_bytes(args, kwargs, result):
    cfg = kwargs["cfg"] if "cfg" in kwargs else args[1]
    return {"pipeline.write_events.bytes": os.path.getsize(cfg.output_path)}


# (layer module, public function, result hook, counters the hook produces)
TARGETS = (
    ("cli", "main", None, ()),
    ("dictionary", "build_dictionary", None, ()),
    ("dictionary", "kernel_spectra", None, ()),
    ("pipeline", "read_input", None, ()),
    ("pipeline", "encode_signal", None, ()),
    ("pipeline", "write_events", _count_written_bytes, ("pipeline.write_events.bytes",)),
    ("pipeline", "parse_events", None, ()),
    ("pipeline", "codes_from_events", None, ()),
    ("pipeline", "write_waveform", None, ()),
    ("encoder", "encode_segment", _count_codes, ("encoder.codes", "encoder.zero_codes")),
    ("encoder", "correlate_spectral", None, ()),
    ("encoder", "correlate_direct", None, ()),
    ("encoder", "select_code", None, ()),
    ("encoder", "subtract_component", None, ()),
    ("fixedpoint", "quantize_array", None, ()),
    ("fixedpoint", "rescale_half_even_array", None, ()),
    ("fixedpoint", "dequantize_array", None, ()),
    ("fixedpoint", "apply_overflow_array", None, ()),
    ("spikecoder", "emit_stream", _count_events, ("spikecoder.events",)),
    ("decoder", "reconstruct", _count_decoded_codes, ("decoder.codes",)),
)

# scalar fallbacks called per sample: counted, never timed
COUNT_ONLY = (("fixedpoint", "fixed_dot"), ("fixedpoint", "macc"))

PACKAGE = "spikecodec"


class Tracer:
    """Install with `install()`, run one operation, `uninstall()`, then
    `collect()` its per-layer metrics."""

    def __init__(self, targets=TARGETS):
        self._targets = targets
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._stacks: dict[int, list[int]] = {}
        self._spans: list[tuple] = []
        self._counts: Counter = Counter()
        self._patched: list[tuple] = []
        self._root = None
        self._installed = False
        self.absent: set[str] = set()

    # ----- installing -----

    def install(self) -> None:
        self._root = threading.get_ident()
        self._installed = True
        for layer, func, hook, counters in self._targets:
            name = f"{layer}.{func}"
            original = self._resolve(layer, func)
            if original is None:
                self.absent.add(name)
                self.absent.update(counters)
                continue
            self._patch(original, self._timed(name, original, hook, counters))
        for layer, func in COUNT_ONLY:
            name = f"{layer}.{func}"
            original = self._resolve(layer, func)
            if original is None:
                self.absent.add(name)
                continue
            self._patch(original, self._counted(name, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()
        self._installed = False

    @staticmethod
    def _resolve(layer: str, func: str):
        try:
            module = importlib.import_module(f"{PACKAGE}.{layer}")
        except ImportError:
            return None
        fn = getattr(module, func, None)
        return fn if callable(fn) else None

    def _patch(self, original, wrapper) -> None:
        """Replace `original` at every spikecodec name bound to it."""
        for mod_name, module in list(sys.modules.items()):
            if mod_name != PACKAGE and not mod_name.startswith(PACKAGE + "."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self._patched.append((module, attr, original))

    def _timed(self, name, fn, hook, counters):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid, parent = tracer._enter()
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(sid, parent, name, start, perf_counter())
            if hook is not None:
                tracer._run_hook(hook, counters, args, kwargs, result)
            return result

        return traced

    def _counted(self, name, fn):
        tracer = self
        key = name + ".calls"

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            with tracer._lock:
                tracer._counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    # ----- recording -----

    def _enter(self) -> tuple[int, int | None]:
        tid = threading.get_ident()
        with self._lock:
            stack = self._stacks.setdefault(tid, [])
            if stack:
                parent = stack[-1]
            else:
                root = self._stacks.get(self._root) if tid != self._root else None
                parent = root[-1] if root else None
            sid = next(self._ids)
            stack.append(sid)
        return sid, parent

    def _exit(self, sid, parent, name, start, end) -> None:
        tid = threading.get_ident()
        with self._lock:
            self._stacks[tid].pop()
            self._spans.append((sid, parent, name, start, end, tid))

    def _run_hook(self, hook, counters, args, kwargs, result) -> None:
        try:
            counts = hook(args, kwargs, result)
        except Exception:  # a refactored return type: report, do not fail
            with self._lock:
                self.absent.update(counters)
            return
        with self._lock:
            self._counts.update(counts)

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around a call made from the benchmark's own code. Records
        nothing while the tracer is not installed."""
        if not self._installed:
            yield
            return
        sid, parent = self._enter()
        start = perf_counter()
        try:
            yield
        finally:
            self._exit(sid, parent, name, start, perf_counter())

    def count(self, name: str, n: int) -> None:
        if self._installed:
            with self._lock:
                self._counts[name] += n

    # ----- reading -----

    def take(self) -> tuple[list[tuple], Counter]:
        """Return and clear the spans and counts recorded so far."""
        with self._lock:
            spans, counts = self._spans, self._counts
            self._spans, self._counts = [], Counter()
        return spans, counts

    def collect(self) -> dict[str, float]:
        """Per-layer metrics of everything recorded since the last call."""
        spans, counts = self.take()
        return layer_metrics(spans, counts)


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of `intervals` clipped to [lo, hi]."""
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def layer_metrics(spans: list[tuple], counts: Counter) -> dict[str, float]:
    """calls, busy_s (sum of span durations) and self_s (duration minus the
    part covered by child spans) per span name, plus counters and ratios."""
    children = defaultdict(list)
    for sid, parent, name, start, end, tid in spans:
        if parent is not None:
            children[parent].append((start, end))
    out: dict[str, float] = defaultdict(float)
    for sid, parent, name, start, end, tid in spans:
        out[name + ".calls"] += 1
        out[name + ".busy_s"] += end - start
        out[name + ".self_s"] += (end - start) - _covered(children[sid], start, end)
    out.update(counts)
    signal_busy = out.get("pipeline.encode_signal.busy_s", 0.0)
    if signal_busy > 0:
        out["pipeline.segment_concurrency"] = (
            out.get("encoder.encode_segment.busy_s", 0.0) / signal_busy
        )
    selects = out.get("encoder.select_code.calls", 0)
    if selects and "encoder.codes" in out:
        useful = out["encoder.codes"] - out.get("encoder.zero_codes", 0)
        out["encoder.useful_iteration_ratio"] = useful / selects
    return dict(out)


def derived_from(metric: str) -> set[str]:
    """Names whose absence makes `metric` absent."""
    if metric == "pipeline.segment_concurrency":
        return {"pipeline.encode_signal", "encoder.encode_segment"}
    if metric == "encoder.useful_iteration_ratio":
        return {"encoder.select_code", "encoder.codes", "encoder.zero_codes"}
    base = metric.rsplit(".", 1)[0] if metric.count(".") >= 2 else metric
    return {base, metric}


def check_threaded(workers: int) -> str | None:
    """Trace `encode_segment` running on `workers` threads with a short
    switch interval; return a description of the first broken invariant, or
    None. Also checks that a missing target is reported as absent."""
    from concurrent.futures import ThreadPoolExecutor

    import numpy as np
    import spikecodec.encoder as enc
    from spikecodec.dictionary import DictionaryConfig, build_dictionary

    d = build_dictionary(DictionaryConfig(num_kernels=8, kernel_len=256))
    cfg = enc.EncoderConfig(max_codes=8, width=256, backend="direct")
    rng = np.random.default_rng(0)
    segments = [enc.Segment(rng.standard_normal(256), i, 256) for i in range(24)]
    tracer = Tracer(targets=TARGETS + (("encoder", "no_such_function", None, ()),))
    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    tracer.install()
    try:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(
                lambda seg: enc.encode_segment(seg, d, None, cfg), segments
            ))
    finally:
        tracer.uninstall()
        sys.setswitchinterval(old_interval)
    spans, _ = tracer.take()
    by_id = {s[0]: s for s in spans}
    seg_spans = [s for s in spans if s[2] == "encoder.encode_segment"]
    sel_spans = [s for s in spans if s[2] == "encoder.select_code"]
    if "encoder.no_such_function" not in tracer.absent:
        return "a missing function was not reported absent"
    if len(seg_spans) != len(segments) or len(results) != len(segments):
        return f"{len(seg_spans)} encode_segment spans for {len(segments)} calls"
    if len(sel_spans) != len(segments) * cfg.max_codes:
        return f"{len(sel_spans)} select_code spans for {len(segments)} segments"
    for sid, parent, name, start, end, tid in sel_spans:
        p = by_id.get(parent)
        if p is None or p[2] != "encoder.encode_segment" or p[5] != tid:
            return "a select_code span lost its encode_segment parent"
        if not (p[3] <= start <= end <= p[4]):
            return "a child span lies outside its parent"
    if hasattr(enc.encode_segment, "__wrapped__"):
        return "uninstall left a wrapper in place"
    return None
