"""Outside-only span tracer for rieszlab.

The tracer patches names from the outside and restores them afterwards;
no file of the package changes.  Every public function bound in a
``rieszlab.*`` namespace is wrapped in that namespace, because ``cli``
imports its helpers by name and patching only the defining module would
miss those calls.  ``WeightedTriplet`` methods and the numpy.linalg
kernels the package calls (``svd``, ``eigvals``, ``eigh``) are wrapped
too.  The same function gets one wrapper wherever it is bound.

Spans live in memory as ``(request, span, parent, name, start, end)``
tuples and are written out by `Tracer.write_spans` when the run ends.
Self time is aggregated as each span closes: its duration minus the
time its child spans cover.
"""
from __future__ import annotations

import functools
import json
import sys
import time
import types
from collections import defaultdict

import numpy as np

# Beyond this many span records only the aggregates keep counting, so a
# long traced run of small requests stays within a few tens of MB.
MAX_SPAN_RECORDS = 100_000

_LINALG_KERNELS = ("svd", "eigvals", "eigh")
_TRIPLET_METHODS = ("__post_init__", "scale_matrix", "seminorm")


def svd_flops(shape, dtype, compute_uv):
    """Operation count of one SVD, computed from the shape, not measured.

    Golub and Van Loan's counts for an l x k matrix with l >= k:
    4 l k^2 - 4/3 k^3 for singular values only and 14 l k^2 + 8 k^3 when
    singular vectors are formed.  A complex matrix costs four times as
    much; stacked matrices multiply by the batch size.
    """
    *batch, m, n = shape
    big, small = max(m, n), min(m, n)
    if compute_uv:
        flops = 14.0 * big * small ** 2 + 8.0 * small ** 3
    else:
        flops = 4.0 * big * small ** 2 - 4.0 / 3.0 * small ** 3
    if np.issubdtype(dtype, np.complexfloating):
        flops *= 4.0
    return flops * float(np.prod(batch, dtype=float))


class Tracer:
    """Span recorder with per-name self time, call counts and observations."""

    def __init__(self):
        self.spans = []
        self.dropped = 0
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.maxima = defaultdict(int)
        self.sums = defaultdict(float)
        self._stack = []           # [span id, child time] of open spans
        self._next_id = 0
        self.request = -1
        # (triplet, level) pairs seen in the current request; the
        # triplets are held so that their ids cannot be reused meanwhile.
        self._scale_keys = set()
        self._scale_refs = []
        self._undo = []

    # -- requests -----------------------------------------------------------

    def begin_request(self):
        self.request += 1
        self._scale_keys.clear()
        self._scale_refs.clear()

    def end_request(self):
        self.sums["triplet.scale_matrix_distinct"] += len(self._scale_keys)
        self._scale_keys.clear()
        self._scale_refs.clear()

    # -- spans --------------------------------------------------------------

    def wrap(self, fn, name, observe=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            sid = tracer._next_id
            tracer._next_id += 1
            parent = stack[-1][0] if stack else None
            frame = [sid, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                tracer.self_time[name] += duration - frame[1]
                tracer.calls[name] += 1
                if len(tracer.spans) < MAX_SPAN_RECORDS:
                    tracer.spans.append(
                        (tracer.request, sid, parent, name, start, end))
                else:
                    tracer.dropped += 1
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return traced

    # -- observations at the layer boundaries -------------------------------

    def _observe_scale(self, args, kwargs, result):
        tri, level = args[0], args[1]
        self._scale_refs.append(tri)
        self._scale_keys.add((id(tri), level))

    def _observe_certificate(self, args, kwargs, result):
        shape = np.shape(args[0])
        self.maxima["sequences.certificate_max_dim"] = max(
            self.maxima["sequences.certificate_max_dim"], max(shape))

    def _observe_svd(self, args, kwargs, result):
        a = np.asarray(args[0])
        uv = kwargs.get("compute_uv", args[2] if len(args) > 2 else True)
        self.maxima["kernel.svd_max_dim"] = max(
            self.maxima["kernel.svd_max_dim"], max(a.shape[-2:]))
        self.sums["kernel.svd_flops"] += svd_flops(a.shape, a.dtype, uv)

    def _observe_load(self, args, kwargs, result):
        self.sums["reportio.cells_parsed"] += 2 * np.size(result)

    # -- installation -------------------------------------------------------

    def install(self):
        """Wrap every traced name; `uninstall` restores the originals."""
        from rieszlab import triplet

        observers = {
            "sequences.certificate_norm": self._observe_certificate,
            "reportio.load_complex_matrix": self._observe_load,
        }
        wrapped = {}
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "rieszlab" or name.startswith("rieszlab.")]
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if attr.startswith("_") or not isinstance(
                        value, types.FunctionType):
                    continue
                if not value.__module__.startswith("rieszlab."):
                    continue
                if value not in wrapped:
                    span = value.__module__.split(".", 1)[1] + "." + attr
                    wrapped[value] = self.wrap(value, span,
                                               observers.get(span))
                self._patch(mod, attr, wrapped[value])
        cls = triplet.WeightedTriplet
        for attr in _TRIPLET_METHODS:
            observe = self._observe_scale if attr == "scale_matrix" else None
            self._patch(cls, attr, self.wrap(
                getattr(cls, attr), "triplet.WeightedTriplet." + attr,
                observe))
        for attr in _LINALG_KERNELS:
            observe = self._observe_svd if attr == "svd" else None
            self._patch(np.linalg, attr, self.wrap(
                getattr(np.linalg, attr), "kernel." + attr, observe))

    def _patch(self, owner, attr, value):
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    # -- output -------------------------------------------------------------

    def write_spans(self, path, header):
        """Write the header line, then one JSON line per recorded span."""
        with open(path, "w") as fh:
            fh.write(json.dumps({**header, "dropped_spans": self.dropped})
                     + "\n")
            for request, sid, parent, name, start, end in self.spans:
                fh.write(json.dumps(
                    {"request": request, "span": sid, "parent": parent,
                     "name": name, "start": start, "end": end}) + "\n")
