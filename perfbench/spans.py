"""Span tracing of one operation, from outside the package.

``Tracer.installed()`` replaces each traced public name where its caller
looks it up (a module global such as ``verification.run``, or a method such
as ``SpaceTimeDiagram.state_at``) with a wrapper that records a span: name,
start, end, parent span and operation id.  Spans stay in memory and are
written out once the operation has ended.  Nothing under ``src/`` changes.

Each span name belongs to one layer metric.  A layer's time is the self
time of its spans: a span's duration minus the part its child spans cover.
So the layer times, plus the time outside every span, add up to the traced
end-to-end time.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import os
import weakref
from collections import defaultdict
from time import perf_counter

# (object that holds the name, name, layer metric its self time counts in)
WRAPS = (
    # the operation's own entry points, called by the benchmark
    ("ca_signals.verification", "verify_log2", "verification.report_s"),
    ("ca_signals.verification", "verify_xy", "verification.report_s"),
    ("ca_signals.verification", "verify_bounds", "verification.report_s"),
    ("ca_signals.cli", "main", "cli.main_s"),
    # engine: stepping, table compile, point reads
    ("ca_signals.verification", "run", "engine.step_s"),
    ("ca_signals.cli", "run", "engine.step_s"),
    ("ca_signals.analysis", "run_probes", "engine.step_s"),
    ("ca_signals.engine", "compile_flat", "engine.compile_s"),
    ("ca_signals.engine:SpaceTimeDiagram", "state_at", "engine.point_read_s"),
    ("ca_signals.engine:SliceView", "state_at", "engine.point_read_s"),
    # automaton (and follower) construction and validation
    ("ca_signals.verification", "builtin_log2", "automaton.build_s"),
    ("ca_signals.verification", "builtin_xy", "automaton.build_s"),
    ("ca_signals.verification", "merged_xy", "automaton.build_s"),
    ("ca_signals.verification", "product_construct", "automaton.build_s"),
    ("ca_signals.verification", "follower_for_xy", "automaton.build_s"),
    ("ca_signals.cli", "builtin_log2", "automaton.build_s"),
    # signals: walks and marks
    ("ca_signals.verification", "detect", "signals.walk_s"),
    ("ca_signals.verification", "follow", "signals.walk_s"),
    ("ca_signals.verification", "marked_sites", "signals.mark_s"),
    # analysis: readouts and period decomposition
    ("ca_signals.verification", "binary_readout", "analysis.readout_s"),
    ("ca_signals.verification", "base_xy_readout", "analysis.readout_s"),
    ("ca_signals.verification", "check_planes", "analysis.readout_s"),
    ("ca_signals.verification", "gap_probe", "analysis.readout_s"),
    ("ca_signals.analysis", "ultimate_period", "analysis.decompose_s"),
    ("ca_signals.verification", "is_basic", "analysis.decompose_s"),
    # cli: JSON building and writing
    ("ca_signals.engine:SpaceTimeDiagram", "to_json_obj", "cli.serialize_s"),
    ("ca_signals.engine:SpaceTimeDiagram", "dumps", "cli.serialize_s"),
    ("ca_signals.cli", "_emit", "cli.serialize_s"),
)

PROBE_SPAN = "probe.observe"
PROBE_LAYER = "engine.probe_s"

# every per-layer metric with its unit, in report order
LAYER_METRICS = {
    "engine.step_s": "s",
    "engine.sites": "count",
    "engine.sites_per_s": "1/s",
    "engine.retained_bytes": "B",
    "engine.point_reads": "count",
    "engine.point_read_s": "s",
    "engine.probe_s": "s",
    "engine.compile_s": "s",
    "engine.flat_codes": "count",
    "automaton.build_s": "s",
    "signals.walk_s": "s",
    "signals.walk_steps": "count",
    "signals.mark_s": "s",
    "analysis.decompose_s": "s",
    "analysis.decompose_letters": "count",
    "analysis.readout_s": "s",
    "verification.report_s": "s",
    "cli.main_s": "s",
    "cli.serialize_s": "s",
    "cli.bytes_out": "B",
    "trace.traced_s": "s",
    "trace.remainder_s": "s",
    "trace.overhead_s": "s",
}

# a streamed slice holds one packed int64 coordinate and one uint8 state
# code per live site
STREAM_SITE_BYTES = 9


def _resolve(owner: str):
    module, _, cls = owner.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


def _span_name(owner: str, attr: str) -> str:
    return f"{owner.rpartition('.')[2].replace(':', '.')}.{attr}"


class Tracer:
    """Records spans and counts for one operation."""

    def __init__(self, op_id: int):
        self.op_id = op_id
        self.spans: list[list] = []    # [name, start, end, parent, op_id]
        self.layer_of: dict[str, str] = {PROBE_SPAN: PROBE_LAYER}
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._live_bytes = 0

    # -- recording

    def wrap(self, fn, name: str, count=None):
        spans, stack, op_id = self.spans, self._stack, self.op_id

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, op_id]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if count is not None:
                count(rec, args, kwargs, out)
            return out
        return traced

    def _retain(self, nbytes: int):
        self._live_bytes += nbytes
        peak = self.counts["engine.retained_bytes"]
        self.counts["engine.retained_bytes"] = max(peak, self._live_bytes)

    # -- counts taken at the same boundaries as the spans

    def _count_run(self, _rec, _args, _kwargs, diag):
        nbytes = sum(p.nbytes + c.nbytes for p, c in diag.slices)
        self.counts["engine.sites"] += diag.total_sites
        self._retain(nbytes)
        weakref.finalize(diag, self._retain, -nbytes)

    def _count_compile(self, rec, _args, _kwargs, flat):
        parent = rec[3]
        nested = parent >= 0 and self.spans[parent][0] == rec[0]
        if flat is not None and not nested:
            self.counts["engine.flat_codes"] += len(flat)

    def _count_walk(self, _rec, _args, _kwargs, out):
        sig = getattr(out, "signal", out)
        self.counts["signals.walk_steps"] += len(sig.sites) - 1

    def _count_decompose(self, _rec, args, kwargs, _out):
        word = args[0]
        window = args[1] if len(args) > 1 else kwargs.get(
            "window", kwargs.get("horizon"))
        if window is None:
            window = len(word.sites) - 1 if hasattr(word, "sites") \
                else len(word)
        self.counts["analysis.decompose_letters"] += window

    def _count_emit(self, _rec, args, kwargs, _out):
        text = args[0]
        out = args[1] if len(args) > 1 else kwargs.get("out")
        self.counts["cli.bytes_out"] += (
            os.path.getsize(out) if out else len(text.encode("utf-8")))

    def _wrap_run_probes(self, fn, name):
        tracer = self

        class SiteCounter:
            """Appended probe: tallies live sites and the largest slice."""

            def observe(self, view):
                n = view.n_sites
                tracer.counts["engine.sites"] += n
                # held only while it is the live slice
                tracer._retain(n * STREAM_SITE_BYTES)
                tracer._retain(-n * STREAM_SITE_BYTES)

        class TimedProbe:
            __slots__ = ("observe",)

            def __init__(self, probe):
                self.observe = tracer.wrap(probe.observe, PROBE_SPAN)

        traced = self.wrap(fn, name)

        @functools.wraps(fn)
        def run_probes(ca, steps, probes, *args, **kwargs):
            probes = [TimedProbe(p) for p in probes] + [SiteCounter()]
            return traced(ca, steps, probes, *args, **kwargs)
        return run_probes

    # -- installing and removing the wrappers

    @contextlib.contextmanager
    def installed(self):
        counts = {
            "run": self._count_run,
            "compile_flat": self._count_compile,
            "detect": self._count_walk,
            "follow": self._count_walk,
            "ultimate_period": self._count_decompose,
            "is_basic": self._count_decompose,
            "_emit": self._count_emit,
        }
        undo = []
        try:
            for owner, attr, layer in WRAPS:
                holder = _resolve(owner)
                fn = holder.__dict__.get(attr)
                if fn is None:
                    continue    # a later layout may drop a traced name
                name = _span_name(owner, attr)
                self.layer_of[name] = layer
                if attr == "run_probes":
                    wrapped = self._wrap_run_probes(fn, name)
                else:
                    wrapped = self.wrap(fn, name, counts.get(attr))
                setattr(holder, attr, wrapped)
                undo.append((holder, attr, fn))
            yield self
        finally:
            for holder, attr, fn in reversed(undo):
                setattr(holder, attr, fn)

    # -- results

    def self_times(self) -> dict[str, float]:
        """Self time per layer metric, summed over every span."""
        covered = [0.0] * len(self.spans)
        for _name, start, end, parent, _op in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for (name, start, end, _p, _op), cov in zip(self.spans, covered):
            out[self.layer_of[name]] += (end - start) - cov
        return out

    def layer_metrics(self, traced_s: float) -> dict[str, float]:
        """Every per-layer metric except the overhead, which needs an
        untraced operation to compare with."""
        layers = self.self_times()
        out = {name: 0.0 for name in LAYER_METRICS}
        del out["trace.overhead_s"]
        out.update(layers)
        out.update(self.counts)
        out["engine.point_reads"] = sum(
            1 for rec in self.spans
            if self.layer_of[rec[0]] == "engine.point_read_s")
        step = out["engine.step_s"]
        out["engine.sites_per_s"] = out["engine.sites"] / step if step else 0.0
        out["trace.traced_s"] = traced_s
        out["trace.remainder_s"] = traced_s - sum(layers.values())
        return out

    def write(self, path) -> None:
        """Append every span as one JSON line."""
        with open(path, "a", encoding="utf-8") as fh:
            for name, start, end, parent, op_id in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op_id}) + "\n")
