"""Spans recorded at the boundary between the benchmark and iamkit's layers.

A span is (id, name, start, end, parent id).  Spans are kept in memory and
written out as JSON when the run ends.  Layer spans are named
``<module>.<function>``; the benchmark's own spans are ``pass`` and
``check``.

With tracing off, `NULL` hands back the functions unchanged and its spans
are shared no-op context managers, so an untraced run pays nothing beyond
one attribute lookup per call.
"""

import contextlib
import functools
import inspect
import json
import time

LAYERS = ("core", "oracle", "bijection", "formulas", "symmetry", "genfunc",
          "skew", "cli")


class Tracer:
    def __init__(self):
        self.spans = []    # [id, name, start, end, parent]
        self._open = [None]

    @contextlib.contextmanager
    def span(self, name):
        sid = len(self.spans)
        rec = [sid, name, time.perf_counter(), None, self._open[-1]]
        self.spans.append(rec)
        self._open.append(sid)
        try:
            yield
        finally:
            self._open.pop()
            rec[3] = time.perf_counter()

    def wrap(self, name, fn):
        """fn with every call recorded as a span; for a generator function,
        one span per next() call, so its time is the sum of the steps."""
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    with self.span(name):
                        try:
                            item = next(it)
                        except StopIteration:
                            return
                    yield item
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return wrapper

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["id", "name", "start", "end", "parent"],
                       "spans": self.spans}, fh, separators=(",", ":"))


class _NullTracer:
    _null = contextlib.nullcontext()

    def span(self, name):
        return self._null

    def wrap(self, name, fn):
        return fn


NULL = _NullTracer()


def summarise(spans):
    """Busy time and call count per span name, and busy and self time per
    layer.  Self time is a span's duration minus the part of it covered by
    its child spans."""
    busy = {}
    calls = {}
    child_time = {}
    for sid, name, start, end, parent in spans:
        dur = end - start
        busy[name] = busy.get(name, 0.0) + dur
        calls[name] = calls.get(name, 0) + 1
        if parent is not None:
            child_time[parent] = child_time.get(parent, 0.0) + dur
    layer_busy = dict.fromkeys(LAYERS, 0.0)
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for sid, name, start, end, parent in spans:
        layer = name.split(".", 1)[0]
        if layer in layer_busy and "." in name:
            dur = end - start
            layer_busy[layer] += dur
            layer_self[layer] += dur - child_time.get(sid, 0.0)
    return busy, calls, layer_busy, layer_self
