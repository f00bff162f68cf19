"""In-memory span tracer that wraps the program's public callables.

Nothing under ``src/`` is edited: :class:`Tracer.install` replaces a
callable at the name its callers look up (a module attribute or a class
attribute) with a wrapper that records one span per call, and
:meth:`Tracer.uninstall` puts every original back.

A span carries a name, start, end (``time.perf_counter`` seconds), the
id of the span that was open on the same thread when it started (its
parent), a ``pass_id`` shared by every span under one root span (one
engine pass), and optional integer counters.  Spans stay in memory and
are written once, as Chrome trace-event JSON, when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Tuple


@dataclass
class Span:
    span_id: int
    name: str
    start: float
    end: float = 0.0
    parent: Optional[int] = None
    pass_id: int = 0
    thread: int = 0
    counts: Dict[str, int] = field(default_factory=dict)
    tag: str = ""
    error: str = ""

    @property
    def duration(self) -> float:
        return self.end - self.start


#: ``counter(args, kwargs, result) -> {name: int}`` computes a span's
#: counters from the call.  ``tagger(args, kwargs) -> str`` labels it
#: (the request class on the serve layer).
Counter = Callable[[tuple, dict, object], Dict[str, int]]
Tagger = Callable[[tuple, dict], str]


@dataclass(frozen=True)
class WrapPoint:
    """One callable to wrap: ``module`` + dotted ``attribute`` path."""

    module: str
    attribute: str
    span: str
    counter: Optional[Counter] = None
    tagger: Optional[Tagger] = None
    #: Wrap the callable's *return value* (a function factory) instead
    #: of the call itself: ``stage_executor`` hands back the kernel.
    wrap_result: bool = False


class Tracer:
    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._installed: List[Tuple[object, str, object]] = []
        self.origin = time.perf_counter()
        #: Wrappers stay installed but record nothing while False (the
        #: oracle checks between traced calls).
        self.enabled = True

    # -- recording ---------------------------------------------------------

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, tag: str = "") -> Span:
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        span = Span(
            span_id=span_id,
            name=name,
            start=time.perf_counter(),
            parent=parent.span_id if parent else None,
            pass_id=parent.pass_id if parent else span_id,
            thread=threading.get_ident(),
            tag=tag,
        )
        stack.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        with self._lock:
            self.spans.append(span)

    def clear(self) -> None:
        with self._lock:
            self.spans = []

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, point: WrapPoint, original):
        tracer = self

        def traced_call(fn, args, kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            tag = point.tagger(args, kwargs) if point.tagger else ""
            span = tracer.begin(point.span, tag)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as error:
                span.error = type(error).__name__
                raise
            finally:
                tracer.end(span)
                if point.counter is not None:
                    span.counts = point.counter(args, kwargs, result)

        if point.wrap_result:

            @functools.wraps(original)
            def factory(*args, **kwargs):
                inner = original(*args, **kwargs)

                @functools.wraps(inner)
                def wrapped_inner(*a, **k):
                    return traced_call(inner, a, k)

                return wrapped_inner

            return factory

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            return traced_call(original, args, kwargs)

        return wrapper

    def install(self, points: Iterable[WrapPoint]) -> None:
        for point in points:
            owner = importlib.import_module(point.module)
            *path, leaf = point.attribute.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = owner.__dict__[leaf] if isinstance(owner, type) else getattr(owner, leaf)
            self._installed.append((owner, leaf, original))
            setattr(owner, leaf, self._wrap(point, original))

    def uninstall(self) -> None:
        while self._installed:
            owner, leaf, original = self._installed.pop()
            setattr(owner, leaf, original)

    # -- export ------------------------------------------------------------

    def chrome_events(self, pid: Optional[int] = None) -> List[dict]:
        pid = os.getpid() if pid is None else pid
        events = []
        for span in self.spans:
            args = {"id": span.span_id, "pass": span.pass_id}
            if span.parent is not None:
                args["parent"] = span.parent
            if span.tag:
                args["class"] = span.tag
            if span.error:
                args["error"] = span.error
            args.update(span.counts)
            events.append(
                {
                    "name": span.name,
                    "ph": "X",
                    "ts": (span.start - self.origin) * 1e6,
                    "dur": span.duration * 1e6,
                    "pid": pid,
                    "tid": span.thread,
                    "args": args,
                }
            )
        return events


def write_chrome_trace(path: str, events: List[dict], metadata: dict) -> None:
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w") as handle:
        json.dump(
            {"traceEvents": events, "otherData": metadata},
            handle,
        )


def spans_from_events(events: List[dict]) -> List[Span]:
    """Rebuild spans from :meth:`Tracer.chrome_events` output (the
    server process hands its spans over this way)."""
    spans = []
    for event in events:
        args = dict(event.get("args", {}))
        span_id = args.pop("id")
        parent = args.pop("parent", None)
        pass_id = args.pop("pass", span_id)
        tag = args.pop("class", "")
        error = args.pop("error", "")
        start = event["ts"] / 1e6
        spans.append(
            Span(
                span_id=span_id,
                name=event["name"],
                start=start,
                end=start + event["dur"] / 1e6,
                parent=parent,
                pass_id=pass_id,
                thread=event.get("tid", 0),
                counts=args,
                tag=tag,
                error=error,
            )
        )
    return spans


def self_times(spans: List[Span]) -> Dict[int, float]:
    """Span id → duration minus the durations of its direct children."""
    child_time: Dict[int, float] = {}
    for span in spans:
        if span.parent is not None:
            child_time[span.parent] = (
                child_time.get(span.parent, 0.0) + span.duration
            )
    return {
        span.span_id: span.duration - child_time.get(span.span_id, 0.0)
        for span in spans
    }
