"""Spans and counters recorded around calls into quasidiff's public functions.

The tracer patches module attributes from outside the program: each public
function named in LAYERS is replaced by a wrapper that records a span (name,
parent span, start, end) and updates the layer's counters, both in the
defining module and under every name `quasidiff.cli` imported it as. `json`
as seen by `quasidiff.cli` and `quasidiff.pointset` is replaced by a proxy
whose text functions are timed as `pointset.json_text`. The private helpers
in WORK, where the element-wise work is done, are wrapped to count it
without a span. `uninstall` puts every original back, so untraced rounds
run the unmodified program.
"""

from __future__ import annotations

import json
import sys
import threading
import time
from collections import Counter


def _count_refine(tracer, args, kwargs):
    """find_peaks: count evaluations of the refine callable it is given."""
    if kwargs.get("refine") is not None:
        kwargs["refine"] = tracer.counted(kwargs["refine"], "diffraction.refine_evals")
    return args, kwargs


def _count_boxes(tracer, args, kwargs):
    """subadditive_limit: count calls of the evaluator it is given."""
    return (tracer.counted(args[0], "ergodic.subadditive_boxes"), *args[1:]), kwargs


# (module, attribute, span name, counter update(counts, args, kwargs, result)[, argument hook])
LAYERS = [
    ("pointset", "WeightedPointSet.from_json", "pointset.from_json",
     lambda c, a, k, r: c.update({"pointset.points_read": len(r)})),
    ("pointset", "WeightedPointSet.to_json", "pointset.to_json",
     lambda c, a, k, r: c.update({"pointset.points_written": len(a[0])})),
    ("cutproject", "model_set", "cutproject.model_set",
     lambda c, a, k, r: c.update({"cutproject.points_generated": len(r)})),
    ("cutproject", "dual_peaks", "cutproject.dual_peaks",
     lambda c, a, k, r: c.update({"cutproject.dual_peaks_kept": len(r)})),
    ("geometry", "Box.contains", "geometry.contains",
     lambda c, a, k, r: c.update({"geometry.contains_rows": len(r)})),
    ("diffraction", "scan_spectrum", "diffraction.scan_spectrum", None),
    ("diffraction", "fourier_average", "diffraction.fourier_average",
     lambda c, a, k, r: c.update({"diffraction.fourier_average_calls": 1})),
    ("diffraction", "autocorrelation", "diffraction.autocorrelation",
     lambda c, a, k, r: c.update({"diffraction.autocorr_points": r.point_count,
                                  "diffraction.autocorr_bins": len(r)})),
    ("diffraction", "intensity_from_autocorr", "diffraction.intensity_from_autocorr", None),
    ("diffraction", "find_peaks", "diffraction.find_peaks", None, _count_refine),
    ("diffraction", "spectrum_to_csv", "diffraction.spectrum_to_csv", None),
    ("randomize", "displace", "randomize.displace", None),
    ("randomize", "predicted_intensity", "randomize.predicted_intensity",
     lambda c, a, k, r: c.update({"randomize.predicted_intensity_calls": 1})),
    ("ergodic", "check_linear_repetitivity", "ergodic.check_linear_repetitivity", None),
    ("ergodic", "ww_report", "ergodic.ww_report", None),
    ("ergodic", "subadditive_limit", "ergodic.subadditive_limit", None, _count_boxes),
]

_SUM_COUNTERS = {"diffraction.fourier_average": "diffraction.fourier_point_terms",
                 "diffraction.intensity_from_autocorr": "diffraction.autocorr_bin_terms"}


def _count_sum(tracer, args, result):
    """Phase terms summed, filed under the public function that sums them."""
    counter = _SUM_COUNTERS.get(tracer.open_span())
    if counter is not None:
        tracer.counts[counter] += len(args[0])


# Count the element-wise work where the program does it: sums of Fourier and
# bin phase terms, pairs folded into autocorrelation bins, observable values
# and factor hashes. These private helpers are wrapped without a span.
# (module, attribute, counter update(tracer, args, result))
WORK = [
    ("diffraction", "_fsum_complex", _count_sum),
    ("diffraction", "_aggregate_bins",  # (x, y) pairs folded into bins
     lambda t, a, r: t.counts.update({"diffraction.autocorr_pairs": len(a[1])})),
    ("ergodic", "_observable_values",  # observable evaluations of the twisted averages
     lambda t, a, r: t.counts.update({"ergodic.ww_terms": len(r)})),
    ("ergodic", "_factor_hashes",  # factor hashes, one per start and hash base
     lambda t, a, r: t.counts.update({"ergodic.lr_factor_starts": len(r)})),
]


class Tracer:
    """Records spans with their parent, and named counters, in memory."""

    def __init__(self):
        self.spans = []  # [name, parent index or -1, start, end]
        self.counts = Counter()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack = []
        self._saved = []

    def _stack(self) -> list:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def _open(self, name: str) -> int:
        stack = self._stack()
        # a worker thread's outermost span hangs under the main thread's open span
        parent_stack = stack or self._main_stack
        with self._lock:
            idx = len(self.spans)
            self.spans.append([name, parent_stack[-1] if parent_stack else -1, time.perf_counter(), None])
        stack.append(idx)
        return idx

    def open_span(self) -> str:
        """Name of the innermost span open in this thread ("-" when none is)."""
        stack = self._stack() or self._main_stack
        return self.spans[stack[-1]][0] if stack else "-"

    def _close(self, idx: int) -> None:
        self.spans[idx][3] = time.perf_counter()
        self._stack().pop()

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span called name (used for the cli.main calls)."""
        idx = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(idx)

    def wrap(self, name: str, fn, count=None, hook=None):
        tracer = self

        def traced(*args, **kwargs):
            if hook is not None:
                args, kwargs = hook(tracer, args, kwargs)
            idx = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if count is not None:
                with tracer._lock:
                    count(tracer.counts, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def work_counter(self, fn, count):
        tracer = self

        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            with tracer._lock:
                count(tracer, args, result)
            return result

        counted.__wrapped__ = fn
        return counted

    def counted(self, fn, counter: str):
        def counted(*args):
            with self._lock:
                self.counts[counter] += 1
            return fn(*args)

        return counted

    # ------------------------------------------------------------ patching

    def install(self, qd) -> None:
        """Patch the layers of the imported quasidiff package `qd`."""
        cli = qd.cli
        for mod_name, attr, name, count, *hook in LAYERS:
            mod = getattr(qd, mod_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    self._patch(cls, meth, classmethod(self.wrap(name, raw.__func__, count)))
                else:
                    self._patch(cls, meth, self.wrap(name, raw, count))
                continue
            original = getattr(mod, attr)
            wrapped = self.wrap(name, original, count, *hook)
            self._patch(mod, attr, wrapped)
            for other in (cli, qd.diffraction, qd.randomize):
                if other is not mod and getattr(other, attr, None) is original:
                    self._patch(other, attr, wrapped)
        for mod_name, attr, count in WORK:
            mod = getattr(qd, mod_name)
            if attr in mod.__dict__:
                self._patch(mod, attr, self.work_counter(mod.__dict__[attr], count))
            else:
                print(f"trace: quasidiff.{mod_name}.{attr} is gone; its counts read 0", file=sys.stderr)
        proxy = _JsonProxy(self)
        self._patch(cli, "json", proxy)
        self._patch(qd.pointset, "json", proxy)

    def _patch(self, owner, attr, value) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    # ------------------------------------------------------------ summaries

    def totals(self, first_span: int = 0) -> dict:
        """Inclusive seconds per span name over spans opened since first_span."""
        out = Counter()
        for name, _, t0, t1 in self.spans[first_span:]:
            out[name] += t1 - t0
        return dict(out)

    def breakdown(self, first_span: int, end_span: int) -> list[dict]:
        """Per (span, parent) rows over spans[first_span:end_span]: calls, total and self seconds.

        Self time is the span's duration minus the part of it that its child
        spans cover (children in worker threads may overlap each other).
        """
        spans = self.spans[first_span:end_span]
        children = {}
        for i, (_, parent, t0, t1) in enumerate(spans, start=first_span):
            children.setdefault(parent, []).append((t0, t1))
        rows = {}
        for i, (name, parent, t0, t1) in enumerate(spans, start=first_span):
            covered = 0.0
            end = t0
            for c0, c1 in sorted(children.get(i, [])):
                c0 = max(c0, end)
                if c1 > c0:
                    covered += c1 - c0
                    end = c1
            pname = spans[parent - first_span][0] if parent >= first_span else "-"
            row = rows.setdefault((name, pname), {"span": name, "parent": pname, "calls": 0,
                                                  "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += t1 - t0
            row["self_s"] += (t1 - t0) - covered
        return sorted(rows.values(), key=lambda r: -r["self_s"])


class _JsonProxy:
    """Stands in for the json module inside quasidiff.cli and quasidiff.pointset."""

    def __init__(self, tracer: Tracer):
        for fn in ("dumps", "loads", "dump", "load"):
            setattr(self, fn, tracer.wrap("pointset.json_text", getattr(json, fn)))

    def __getattr__(self, attr):
        return getattr(json, attr)
