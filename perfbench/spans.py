"""In-memory span recording around the layers' public entry points.

The traced mode wraps functions and methods of ``repro`` from here, the
benchmark's own code: the program under test is not edited.  Each call
through a wrapped entry point becomes one span (name, layer, start,
end, parent) kept in a list until the run ends.  A layer's self time is
the sum over its spans of the span's duration minus its direct
children's durations; the round's root span keeps the time no wrapped
entry point covers ("unattributed"), so layer self times plus
unattributed time add up to the round's wall time exactly.

Spans nest per thread.  Only spans on the thread that runs the round
enter the rollup: the model server answers on its own thread while the
client is blocked inside an RPC span, and adding both would count that
time twice.
"""

import threading
import time

ROOT = "round"


class Span:
    __slots__ = ("name", "layer", "start", "end", "parent", "child_s",
                 "main", "data")

    def __init__(self, name, layer, start, parent, main):
        self.name = name
        self.layer = layer
        self.start = start
        self.end = start
        self.parent = parent
        self.child_s = 0.0
        self.main = main
        self.data = None

    @property
    def duration(self):
        return self.end - self.start

    @property
    def self_s(self):
        return self.duration - self.child_s


class Recorder:
    """Wraps entry points and records spans while :attr:`active`."""

    def __init__(self):
        self.active = False
        self.spans = []
        self._local = threading.local()
        self._main = threading.get_ident()
        self._undo = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name, layer):
        stack = self._stack()
        span = Span(name, layer, time.perf_counter(),
                    stack[-1] if stack else None,
                    threading.get_ident() == self._main)
        stack.append(span)
        return span

    def close(self, span):
        span.end = time.perf_counter()
        self._stack().pop()
        if span.parent is not None:
            span.parent.child_s += span.duration
        self.spans.append(span)

    def wrap(self, owner, attr, name, layer, before=None, after=None):
        """Replace ``owner.attr`` by a recording wrapper.

        *before*, when given, is called as ``before(args)`` ahead of the
        call; *after* as ``after(span, result, args, token)`` once it
        returns, with *token* what *before* returned.  *after* may
        attach numbers to ``span.data``.  Static methods stay static.
        :meth:`restore` undoes every wrap.
        """
        raw = (owner.__dict__[attr] if isinstance(owner, type)
               else getattr(owner, attr))
        static = isinstance(raw, staticmethod)
        original = raw.__func__ if static else raw
        recorder = self

        def wrapper(*args, **kwargs):
            if not recorder.active:
                return original(*args, **kwargs)
            token = before(args) if before is not None else None
            span = recorder.open(name, layer)
            try:
                result = original(*args, **kwargs)
            finally:
                recorder.close(span)
            if after is not None:
                after(span, result, args, token)
            return result

        wrapper.__wrapped__ = original
        setattr(owner, attr, staticmethod(wrapper) if static else wrapper)
        self._undo.append((owner, attr, raw))

    def restore(self):
        for owner, attr, raw in reversed(self._undo):
            setattr(owner, attr, raw)
        self._undo.clear()

    def round(self):
        """Context manager recording one round under a root span."""
        return _Round(self)


class _Round:
    def __init__(self, recorder):
        self.recorder = recorder
        self.span = None

    def __enter__(self):
        self.recorder.active = True
        self.span = self.recorder.open(ROOT, "unattributed")
        return self.span

    def __exit__(self, *exc):
        self.recorder.close(self.span)
        self.recorder.active = False
        return False


def rollup(spans):
    """Self seconds per layer over main-thread spans (root included)."""
    out = {}
    for span in spans:
        if span.main:
            out[span.layer] = out.get(span.layer, 0.0) + span.self_s
    return out
