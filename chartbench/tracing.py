"""Benchmark-side span tracer: wrappers around the public calls of each layer.

The program under test is not instrumented for this benchmark; instead the
harness replaces a fixed list of public functions and methods with thin
wrappers that record a :class:`Span` per call (name, start, end, parent,
trace id, attributes).  Spans stay in memory until the run ends, when the
harness dumps them next to its other outputs.

A call made while no span is open on the current thread starts a new trace;
nested wrapped calls on that thread become its children.  The *self time* of
a span is its duration minus the part of its interval that its children
cover (see :func:`self_times`), so the self times of one trace add up to the
root's duration exactly.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple


@dataclass
class Span:
    name: str
    start: float
    end: float
    span_id: int
    parent_id: Optional[int]
    trace_id: int
    attrs: Dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> Dict:
        return {
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "trace_id": self.trace_id,
            "attrs": self.attrs,
        }

    @classmethod
    def from_dict(cls, raw: Dict) -> "Span":
        return cls(
            name=raw["name"],
            start=raw["start"],
            end=raw["end"],
            span_id=raw["span_id"],
            parent_id=raw["parent_id"],
            trace_id=raw["trace_id"],
            attrs=dict(raw.get("attrs") or {}),
        )


#: ``attrs(args, kwargs, result) -> dict`` — attributes recorded on a span
#: after the wrapped call returns (outside the span's own interval).
AttrFn = Callable[[tuple, dict, object], Dict]


class Tracer:
    """Collects spans from installed wrappers; thread-safe, in memory."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: List[Tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------- #
    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> Span:
        """Open a span under the innermost open span of this thread."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        span_id = next(self._ids)
        opened = Span(
            name=name,
            start=time.perf_counter(),
            end=0.0,
            span_id=span_id,
            parent_id=parent.span_id if parent else None,
            trace_id=parent.trace_id if parent else span_id,
        )
        stack.append(opened)
        return opened

    def close(self, opened: Span) -> None:
        opened.end = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] is opened:
            stack.pop()
        with self._lock:
            self.spans.append(opened)

    def current(self) -> Optional[Span]:
        stack = self._stack()
        return stack[-1] if stack else None

    # -- installation -------------------------------------------------- #
    def wrap(
        self,
        owner: object,
        attr: str,
        name: str,
        attrs: Optional[AttrFn] = None,
    ) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper."""
        original = getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            opened = self.open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self.close(opened)
            if attrs is not None:
                opened.attrs.update(attrs(args, kwargs, result))
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        """Restore every wrapped attribute (last patch first)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def dump(self) -> List[Dict]:
        with self._lock:
            return [s.to_dict() for s in self.spans]


class TimedLock:
    """A drop-in lock whose blocking acquisitions become ``lock_wait`` spans."""

    def __init__(self, tracer: Tracer, name: str, inner) -> None:
        self._tracer = tracer
        self._name = name
        self._inner = inner

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        if self._tracer.current() is None:
            return self._inner.acquire(blocking, timeout)
        opened = self._tracer.open(self._name)
        try:
            return self._inner.acquire(blocking, timeout)
        finally:
            self._tracer.close(opened)

    def release(self) -> None:
        self._inner.release()

    def __enter__(self) -> "TimedLock":
        self.acquire()
        return self

    def __exit__(self, *exc_info) -> None:
        self.release()


# --------------------------------------------------------------------------- #
# Span-tree arithmetic
# --------------------------------------------------------------------------- #
def _covered(intervals: Sequence[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals)
    total, cur_a, cur_b = 0.0, None, None
    for a, b in clipped:
        if b <= a:
            continue
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans: Iterable[Span]) -> Dict[int, float]:
    """``span_id -> duration minus the time its direct children cover``."""
    spans = list(spans)
    children: Dict[int, List[Tuple[float, float]]] = {}
    for s in spans:
        if s.parent_id is not None:
            children.setdefault(s.parent_id, []).append((s.start, s.end))
    return {
        s.span_id: s.duration - _covered(children.get(s.span_id, []), s.start, s.end)
        for s in spans
    }


def group_traces(spans: Iterable[Span]) -> Dict[int, List[Span]]:
    """``trace_id -> spans of that trace`` (root first)."""
    traces: Dict[int, List[Span]] = {}
    for s in spans:
        traces.setdefault(s.trace_id, []).append(s)
    for members in traces.values():
        members.sort(key=lambda s: (s.parent_id is not None, s.start))
    return traces


def trace_breakdown(members: Sequence[Span]) -> Dict[str, float]:
    """Per span name: summed self seconds over one trace's spans."""
    own = self_times(members)
    out: Dict[str, float] = {}
    for s in members:
        out[s.name] = out.get(s.name, 0.0) + own[s.span_id]
    return out
