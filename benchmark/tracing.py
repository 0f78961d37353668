"""Span tracer for the gpwb layers, installed from outside the program.

``Tracer.install`` wraps the public functions of each layer module, and the
public methods, ``__init__`` and arithmetic operators of its public classes.
The wrapper replaces the original at every binding in every loaded gpwb
module (``gpwb.flows.holomorphic_sections``, ``gpwb.cli.heat_flow`` and
``gpwb.kempf_ness.act`` are imported names), so a call is traced whichever
module makes it.  ``uninstall`` puts every original back.

Each call records a span (id, parent id, name, start, end).  A span's self
time is its duration minus the time its child spans cover; a layer's self
time is the sum over its spans.  Spans stay in memory until ``write_spans``;
the totals are computed from them afterwards, to keep each call cheap.
"""
from __future__ import annotations

import functools
import gzip
import importlib
import itertools
import sys
import time
import types
from collections import Counter, defaultdict

LAYERS = ("groups", "reps", "kempf_ness", "lattice", "flows", "fixtures", "io", "cli")

# dunder methods that do work of their own; the other dataclass dunders
# (__eq__, __repr__, __hash__) are left alone
_TRACED_DUNDERS = ("__init__", "__add__", "__sub__", "__mul__", "__rmul__")


class Tracer:
    """Wraps the gpwb layers and records a span per call, plus hook counts.

    ``hooks`` maps a span name to ``fn(tracer, args, kwargs, result)``,
    called after the wrapped function returns, to record counts that only
    the arguments or the result carry (iterations, sizes, rows).
    """

    def __init__(self, hooks=None):
        self.hooks = dict(hooks or {})
        self.spans = []          # (id, parent id, name, start, end, time covered by children)
        self.counters = Counter()  # hook-recorded counts
        self._stack = []         # [span id, time covered by children] of the open spans
        self._ids = itertools.count()
        self._patches = []       # (owner, attribute, original)

    # -- span recording -------------------------------------------------

    def _wrap(self, fn, name):
        hook = self.hooks.get(name)
        stack, spans, ids = self._stack, self.spans, self._ids
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [next(ids), 0.0]
            parent = stack[-1][0] if stack else -1
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                if stack:
                    stack[-1][1] += t1 - t0
                spans.append((frame[0], parent, name, t0, t1, frame[1]))
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return traced

    # -- installation ---------------------------------------------------

    def install(self):
        """Wrap every layer and rebind the wrappers at every binding."""
        wrappers = {}  # id(original function) -> (original, wrapper)
        for layer in LAYERS:
            mod = importlib.import_module(f"gpwb.{layer}")
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if isinstance(obj, types.FunctionType):
                    wrappers[id(obj)] = (obj, self._wrap(obj, f"{layer}.{attr}"))
                elif isinstance(obj, type):
                    self._wrap_class(obj, f"{layer}.{attr}")
        for modname, mod in list(sys.modules.items()):
            if modname != "gpwb" and not modname.startswith("gpwb."):
                continue
            for attr, obj in list(vars(mod).items()):
                entry = wrappers.get(id(obj))
                if entry is not None and entry[0] is obj:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, entry[1])

    def _wrap_class(self, cls, prefix):
        done = {}  # id(function) -> wrapper, for aliases such as __rmul__ = __mul__
        for attr, val in list(vars(cls).items()):
            if attr.startswith("_") and attr not in _TRACED_DUNDERS:
                continue
            name = f"{prefix}.{attr}"
            if isinstance(val, types.FunctionType):
                if id(val) not in done:
                    done[id(val)] = self._wrap(val, name)
                new = done[id(val)]
            elif isinstance(val, staticmethod):
                new = staticmethod(self._wrap(val.__func__, name))
            elif isinstance(val, property) and val.fget is not None:
                new = property(self._wrap(val.fget, name), val.fset, val.fdel, val.__doc__)
            else:
                continue
            self._patches.append((cls, attr, val))
            setattr(cls, attr, new)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- summaries ------------------------------------------------------

    def summary(self):
        """(calls, summed duration, summed self time), each keyed by span name."""
        calls, total, own = Counter(), defaultdict(float), defaultdict(float)
        for _, _, name, t0, t1, covered in self.spans:
            calls[name] += 1
            total[name] += t1 - t0
            own[name] += t1 - t0 - covered
        return calls, total, own

    def calls_under(self, name, ancestor):
        """Number of ``name`` spans with an ``ancestor`` span above them."""
        parent_of = {span[0]: (span[1], span[2]) for span in self.spans}
        count = 0
        for _, parent, nm, _, _, _ in self.spans:
            if nm != name:
                continue
            while parent != -1:
                parent, up = parent_of[parent]
                if up == ancestor:
                    count += 1
                    break
        return count

    def write_spans(self, path):
        """Gzipped CSV, one span per line in order of span id."""
        with gzip.open(path, "wt", encoding="utf-8", newline="\n", compresslevel=1) as f:
            f.write("id,parent,name,start_s,end_s\n")
            for sid, parent, name, t0, t1, _ in sorted(self.spans):
                f.write(f"{sid},{parent},{name},{t0!r},{t1!r}\n")
