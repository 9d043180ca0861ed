"""Span tracing around the public functions of the fibrelay modules.

``install()`` runs inside the command process (see child.py).  It wraps
every public function of each module in ``LAYERS`` plus a few methods that
carry the hot work (the Philox draw behind ``RngStream.generator``, each
model's ``transform_uniforms``, ``Trajectory.to_csv`` and the output
writer ``cli._emit``).  A wrapper records a span (id, name, start, end,
parent) and, for some layers, work counts.  Spans stay in memory and are
written once, when the command ends.

Forked workers: ``map_ordered`` is wrapped so that each payload runs
through ``_payload_call``.  In a worker process that function returns the
spans and counts the payload produced alongside its result, and the parent
merges them, so worker-side layers are measured rather than only the
parent-side boundary of ``map_ordered``.

``layer_metrics()`` runs in the benchmark process and turns one dump into
the per-layer metrics named in BENCHMARK.json.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import logging
import os
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("coeffs", "_kernels", "cocycle", "metrics", "lyapunov", "laws",
          "calibrate", "_parallel", "manifest", "config")
KERNELS = ("info_steps", "signed_steps", "noise_steps", "info_steps_record",
           "noise_steps_record")
METRIC_FUNCTIONS = ("snr_log", "capacity_nats", "log_capacity_nats",
                    "transmit_power_log")

# Set by install(); a forked worker finds its copy of the recorder here,
# because the payload wrapper has to be a picklable module-level function.
_active = None


class Recorder:
    """Spans and work counts of one command process (and its workers)."""

    def __init__(self):
        self.pid = os.getpid()
        self.spans = []    # [id, name, start_ns, end_ns, parent_id]
        self.stack = []
        self.counts = Counter()
        self.reach = {}    # (master_seed, stream_id) -> most uniforms one pass drew
        self.backend = "unknown"
        self._seq = 0

    def open(self, name):
        self._seq += 1
        parent = self.stack[-1][0] if self.stack else None
        span = [f"{os.getpid()}.{self._seq}", name, time.monotonic_ns(), None, parent]
        self.stack.append(span)
        self.spans.append(span)
        return span

    def close(self, span):
        span[3] = time.monotonic_ns()
        self.stack.pop()

    def mark(self):
        return len(self.spans), Counter(self.counts)

    def since(self, mark):
        n_spans, counts = mark
        return {"spans": self.spans[n_spans:], "counts": self.counts - counts,
                "reach": dict(self.reach)}

    def merge(self, delta):
        self.spans.extend(delta["spans"])
        self.counts.update(delta["counts"])
        for key, drawn in delta["reach"].items():
            self.reach[key] = max(drawn, self.reach.get(key, 0))

    def dump(self, path, **extra):
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counts": dict(self.counts),
                       "streams": len(self.reach),
                       "distinct_uniforms": sum(self.reach.values()),
                       "backend": self.backend, **extra}, fh)


def _wrap(rec, name, fn, count=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = rec.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(span)
        if count is not None:
            count(rec.counts, args, result)
        return result
    return wrapper


class _TimedGenerator:
    """Delegates to a numpy Generator, timing and counting ``random`` draws."""

    def __init__(self, gen, rec, key):
        self._gen, self._rec, self._key, self._drawn = gen, rec, key, 0

    def random(self, *args, **kwargs):
        span = self._rec.open("coeffs.draw")
        try:
            out = self._gen.random(*args, **kwargs)
        finally:
            self._rec.close(span)
        size = out.size if hasattr(out, "size") else 1
        self._drawn += size
        self._rec.counts["coeffs.uniforms"] += size
        if self._drawn > self._rec.reach.get(self._key, 0):
            self._rec.reach[self._key] = self._drawn
        return out

    def __getattr__(self, name):
        return getattr(self._gen, name)


class _Remote:
    """A payload result computed in a worker, with the worker's trace delta."""

    def __init__(self, result, delta):
        self.result, self.delta = result, delta


def _payload_call(fn, payload):
    rec = _active
    if os.getpid() == rec.pid:
        span = rec.open("_parallel.payload")
        try:
            return fn(payload)
        finally:
            rec.close(span)
    mark = rec.mark()
    span = rec.open("_parallel.payload")
    try:
        result = fn(payload)
    finally:
        rec.close(span)
    return _Remote(result, rec.since(mark))


def _count_steps(key):
    def count(counts, args, result):
        counts[key] += len(args[0])
    return count


def _count_transformed(counts, args, result):
    counts["coeffs.transformed"] += getattr(args[1], "size", 1)


def _count_elements(counts, args, result):
    counts["metrics.elements"] += getattr(args[0], "size", 1)


def _count_points(counts, args, result):
    counts["laws.slope_estimate.points"] += result.n_points


def _count_calibration(counts, args, result):
    counts["calibrate.evaluations"] += result.evaluations
    counts["calibrate.n_steps_final"] = result.lambda_at_g_star.n_steps


def _count_csv(counts, args, result):
    counts["cocycle.to_csv.rows"] += len(args[0].log_i_sq)
    counts["cocycle.csv_bytes"] += len(result.encode("utf-8"))


def _count_emit(counts, args, result):
    _params, output_dir, files = args[:3]
    if output_dir is not None:
        for name in [*files, "manifest.json"]:
            counts["manifest.bytes"] += os.path.getsize(os.path.join(output_dir, name))


class _RestartCounter(logging.Handler):
    def __init__(self, rec):
        super().__init__(logging.WARNING)
        self.rec = rec

    def emit(self, record):
        if "restarting" in record.getMessage():
            self.rec.counts["lyapunov.restarts"] += 1


def _public_functions(mod):
    for attr, obj in vars(mod).items():
        if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
            continue
        if (inspect.isfunction(obj) and not inspect.isgeneratorfunction(obj)) \
                or hasattr(obj, "py_func"):
            yield attr, obj


def install() -> Recorder:
    """Wrap the package's call boundaries; return the recorder they feed."""
    global _active
    rec = _active = Recorder()
    from fibrelay import _kernels, _parallel, cli, cocycle, coeffs

    rec.backend = "numba" if hasattr(_kernels.info_steps, "py_func") else "python"
    counters = {f"_kernels.{k}": _count_steps(f"_kernels.{k}.steps") for k in KERNELS}
    counters.update({f"metrics.{f}": _count_elements for f in METRIC_FUNCTIONS})
    counters["laws.slope_estimate"] = _count_points
    counters["calibrate.find_zero_lyapunov_gain"] = _count_calibration

    wrapped = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"fibrelay.{layer}")
        for attr, fn in _public_functions(mod):
            name = f"{layer}.{attr}"
            if name != "_parallel.map_ordered":
                wrapped[id(fn)] = _wrap(rec, name, fn, counters.get(name))
    wrapped[id(_parallel.map_ordered)] = _wrap_map_ordered(rec, _parallel.map_ordered)
    # replace every module-level reference, including names imported with
    # ``from .x import f``
    for modname, mod in list(sys.modules.items()):
        if modname == "fibrelay" or modname.startswith("fibrelay."):
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped:
                    setattr(mod, attr, wrapped[id(obj)])

    generator = coeffs.RngStream.generator

    def timed_generator(stream):
        rec.counts["coeffs.passes"] += 1
        return _TimedGenerator(generator(stream), rec,
                               (stream.master_seed, stream.stream_id))
    coeffs.RngStream.generator = timed_generator
    for cls in vars(coeffs).values():
        if inspect.isclass(cls) and "transform_uniforms" in vars(cls) \
                and cls is not coeffs.CoefficientModel:
            cls.transform_uniforms = _wrap(rec, "coeffs.transform",
                                           cls.transform_uniforms, _count_transformed)
    cocycle.Trajectory.to_csv = _wrap(rec, "cocycle.to_csv", cocycle.Trajectory.to_csv,
                                      _count_csv)
    cli._emit = _wrap(rec, "manifest.write", cli._emit, _count_emit)
    logging.getLogger("fibrelay").addHandler(_RestartCounter(rec))
    return rec


def _wrap_map_ordered(rec, map_ordered):
    @functools.wraps(map_ordered)
    def wrapper(fn, payloads, workers=1):
        payloads = list(payloads)
        first_payload_span = len(rec.spans)
        span = rec.open("_parallel.map_ordered")
        try:
            results = map_ordered(functools.partial(_payload_call, fn), payloads, workers)
        finally:
            rec.close(span)
        out = []
        for r in results:
            if isinstance(r, _Remote):
                rec.merge(r.delta)
                r = r.result
            out.append(r)
        busy = sum(s[3] - s[2] for s in rec.spans[first_payload_span:]
                   if s[1] == "_parallel.payload" and s[4] == span[0])
        lanes = 1 if workers <= 1 else min(workers, max(len(payloads), 1))
        rec.counts["_parallel.payloads"] += len(payloads)
        rec.counts["_parallel.fanout_overhead_ns"] += (span[3] - span[2]) - busy // lanes
        return out
    return wrapper


# ---------------------------------------------------------------------------
# benchmark side: from a dump to per-layer metrics
# ---------------------------------------------------------------------------


def self_times(spans) -> Counter:
    """Seconds of each span name not covered by that span's children."""
    children = defaultdict(list)
    for _sid, _name, start, end, parent in spans:
        children[parent].append((start, end))
    out = Counter()
    for sid, name, start, end, _parent in spans:
        covered, cur_lo, cur_hi = 0, None, None
        for lo, hi in sorted(children.get(sid, ())):
            lo, hi = max(lo, start), min(hi, end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[name] += (end - start - covered) / 1e9
    return out


def _ratio(num, den, scale=1.0):
    return num * scale / den if den else 0.0


def layer_metrics(dump) -> dict:
    """Per-layer metrics of one traced command; 0 where a layer did no work."""
    spans, counts = dump["spans"], Counter(dump["counts"])
    total_ns = Counter()
    calls = Counter()
    for _sid, name, start, end, _parent in spans:
        total_ns[name] += end - start
        calls[name] += 1
    metric_ns = sum(total_ns[f"metrics.{f}"] for f in METRIC_FUNCTIONS)
    self_s = self_times(spans)
    # estimate_lambda time spent under calibration, for its share
    by_id = {s[0]: s for s in spans}
    under_calibrate = 0
    for sid, name, start, end, parent in spans:
        if name == "lyapunov.estimate_lambda":
            p = by_id.get(parent)
            while p is not None and p[1] != "calibrate.find_zero_lyapunov_gain":
                p = by_id.get(p[4])
            if p is not None:
                under_calibrate += end - start

    out = {
        "coeffs.draw_ns_per_uniform": _ratio(total_ns["coeffs.draw"], counts["coeffs.uniforms"]),
        "coeffs.transform_ns_per_uniform": _ratio(total_ns["coeffs.transform"],
                                                  counts["coeffs.transformed"]),
        "coeffs.uniforms": counts["coeffs.uniforms"],
        "coeffs.redraw_ratio": _ratio(counts["coeffs.uniforms"], dump["distinct_uniforms"]),
        "kernels.backend": 1 if dump["backend"] == "numba" else 0,
    }
    for k in KERNELS:
        out[f"kernels.{k}.ns_per_step"] = _ratio(total_ns[f"_kernels.{k}"],
                                                  counts[f"_kernels.{k}.steps"])
        out[f"kernels.{k}.steps"] = counts[f"_kernels.{k}.steps"]
    out.update({
        "cocycle.run_trajectory.self_s": self_s["cocycle.run_trajectory"],
        "cocycle.to_csv.us_per_row": _ratio(total_ns["cocycle.to_csv"],
                                            counts["cocycle.to_csv.rows"], 1e-3),
        "cocycle.csv_bytes": counts["cocycle.csv_bytes"],
        "metrics.ns_per_element": _ratio(metric_ns, counts["metrics.elements"]),
        "lyapunov.estimate_lambda.calls": calls["lyapunov.estimate_lambda"],
        "lyapunov.estimate_lambda.s": total_ns["lyapunov.estimate_lambda"] / 1e9,
        "lyapunov.restarts": counts["lyapunov.restarts"],
        "laws.slope_estimate.s": total_ns["laws.slope_estimate"] / 1e9,
        "laws.slope_estimate.points": counts["laws.slope_estimate.points"],
        "laws.passes_per_replica": _ratio(counts["coeffs.passes"], dump["streams"]),
        "calibrate.evaluations": counts["calibrate.evaluations"],
        "calibrate.n_steps_final": counts["calibrate.n_steps_final"],
        "calibrate.estimate_share": _ratio(
            under_calibrate, total_ns["calibrate.find_zero_lyapunov_gain"]),
        "parallel.map_ordered.s": total_ns["_parallel.map_ordered"] / 1e9,
        "parallel.payloads": counts["_parallel.payloads"],
        "parallel.fanout_overhead_s": counts["_parallel.fanout_overhead_ns"] / 1e9,
        "manifest.write_s": total_ns["manifest.write"] / 1e9,
        "manifest.bytes": counts["manifest.bytes"],
        "config.parse_config_s": total_ns["config.parse_config"] / 1e9,
        "import_s": dump["import_ns"] / 1e9,
    })
    return out


def layer_self_seconds(dump) -> dict:
    """Self time per layer (module), summed over the layer's span names."""
    out = Counter()
    for name, seconds in self_times(dump["spans"]).items():
        out[name.split(".", 1)[0]] += seconds
    return dict(out)
