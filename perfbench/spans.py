"""Nested span timing around tgtopo's public functions, applied from outside.

The package has no tracing of its own, so the benchmark wraps the public
functions and methods at each module boundary
(``tgtopo.temporal.window_sequence``, ``Adam.step``, ...) for the length of
a run and restores them afterwards.
A span's self time is its duration minus the time its child spans cover.
Hooks that count work run after the span has closed and are timed as their
own ``trace.hooks`` span, so they never inflate a layer's self time.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict


class Tracer:
    """Aggregates spans by name: self time, inclusive time and call count."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self.last_s = 0.0  # duration of the span that closed last
        self._open = []  # per open span: seconds covered by its children
        self._undo = []

    def span(self, name, fn, *args, **kwargs):
        """Call ``fn`` inside a span called ``name`` and return its result."""
        t0 = time.perf_counter()
        self._open.append(0.0)
        try:
            return fn(*args, **kwargs)
        finally:
            dt = self.last_s = time.perf_counter() - t0
            self.self_s[name] += dt - self._open.pop()
            self.total_s[name] += dt
            self.calls[name] += 1
            if self._open:
                self._open[-1] += dt

    def add(self, counter, value=1):
        self.counts[counter] += value

    def peak(self, counter, value):
        self.counts[counter] = max(self.counts[counter], value)

    def wrap(self, owner, attr, name, hook=None):
        """Replace ``owner.attr`` by a traced version.

        ``name`` is a span name or a callable ``(args, kwargs) -> name``.
        ``hook(result, args, kwargs, seconds)`` records counters; ``seconds``
        is the duration of the call.  A module-level function is also
        replaced in every ``tgtopo`` module that imported it by name, so calls
        through ``from .x import f`` are traced as well.
        """
        original = getattr(owner, attr)
        tracer = self

        def traced(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            result = tracer.span(label, original, *args, **kwargs)
            if hook is not None:
                tracer.span("trace.hooks", hook, result, args, kwargs, tracer.last_s)
            return result

        traced.__wrapped__ = original
        owners = [owner]
        if not isinstance(owner, type):
            owners += [
                m for key, m in sorted(sys.modules.items())
                if key.startswith("tgtopo") and m is not owner
                and getattr(m, attr, None) is original
            ]
        for o in owners:
            setattr(o, attr, traced)
            self._undo.append((o, attr, original))

    def unwrap(self):
        while self._undo:
            o, attr, original = self._undo.pop()
            setattr(o, attr, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.unwrap()
        return False
