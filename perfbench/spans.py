"""In-memory span recorder for the traced benchmark run.

The recorder replaces a function at every site where callers look it up:
a module that did ``from .solver import fit`` holds its own reference, so
patching ``apxcp.solver.fit`` alone would miss those calls. Each call
becomes one span (name, start, end, parent, instance id); spans stay in
memory until the run writes them out, and ``close`` puts every original
back.
"""

from __future__ import annotations

import csv
import time
import tracemalloc
from contextlib import contextmanager
from types import ModuleType


class Span:
    """One call: perf_counter start/end, parent span index, instance id.

    ``note`` carries a value the wrapper extracted from the call (its
    arguments or result); ``error`` the exception class name, if it raised.
    """

    __slots__ = ("name", "start", "end", "parent", "instance", "note", "error")

    def __init__(self, name, start, parent, instance):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.instance = instance
        self.note = None
        self.error = None


class SpanRecorder:
    """Wraps functions in the given modules and records a span per call.

    Use as a context manager, or call ``close`` to restore the originals.
    ``instance`` is stamped on every span opened while it is set.
    """

    def __init__(self, modules: list[ModuleType]):
        self.modules = list(modules)
        self.spans: list[Span] = []
        self.instance = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def __enter__(self) -> "SpanRecorder":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), parent, self.instance))
        self._stack.append(sid)
        return sid

    def _close(self, sid: int) -> None:
        self._stack.pop()
        self.spans[sid].end = time.perf_counter()

    @contextmanager
    def span(self, name: str):
        """Span around a block of the benchmark's own code."""
        sid = self._open(name)
        try:
            yield self.spans[sid]
        finally:
            self._close(sid)

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def traced(self, func, name, note_args=None, note_result=None,
               track_alloc: bool = False):
        """A wrapper of func that records one span per call.

        name is a string or a callable (args, kwargs) -> str. note_args
        (args, kwargs) and note_result (result) fill the span's note.
        With track_alloc, and while tracemalloc is tracing, the note is
        the peak number of bytes allocated during the call.
        """
        def wrapper(*args, **kwargs):
            sid = self._open(name if isinstance(name, str) else name(args, kwargs))
            record = self.spans[sid]
            if note_args is not None:
                record.note = note_args(args, kwargs)
            alloc = track_alloc and tracemalloc.is_tracing()
            if alloc:
                base = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
            try:
                result = func(*args, **kwargs)
            except BaseException as exc:
                record.error = type(exc).__name__
                raise
            finally:
                if alloc:
                    record.note = tracemalloc.get_traced_memory()[1] - base
                self._close(sid)
            if note_result is not None:
                record.note = note_result(result)
            return result

        wrapper.__wrapped__ = func
        return wrapper

    def wrap(self, func, name, **options) -> None:
        """Replace func in every recorder module that holds a reference."""
        wrapper = self.traced(func, name, **options)
        sites = [(mod, attr) for mod in self.modules
                 for attr, value in vars(mod).items() if value is func]
        if not sites:
            raise ValueError(f"no module holds {func.__qualname__}")
        for mod, attr in sites:
            self._patch(mod, attr, wrapper)

    def wrap_attribute(self, owner, attr: str, replacement) -> None:
        """Replace a class attribute (a method or property) until close."""
        self._patch(owner, attr, replacement)


def covered_length(intervals, lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of the given intervals."""
    total = 0.0
    cur_lo = cur_hi = None
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


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return [s.end - s.start - covered_length(children.get(i, ()), s.start, s.end)
            for i, s in enumerate(spans)]


def write_spans(path, spans: list[Span]) -> None:
    """One CSV row per span; times are perf_counter seconds."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "name", "start", "end", "parent", "instance",
                         "note", "error"])
        for i, s in enumerate(spans):
            writer.writerow([i, s.name, repr(s.start), repr(s.end),
                             "" if s.parent is None else s.parent,
                             "" if s.instance is None else s.instance,
                             "" if s.note is None else s.note, s.error or ""])
