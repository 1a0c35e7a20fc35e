"""In-memory spans recorded around starnoma's layer functions.

The benchmark installs the wrappers from outside the package: it replaces
a module attribute (for example ``engine.sample_cascade_batch``) with a
function that opens a span, calls the original and closes the span.
Nothing inside ``src/`` is traced.  Call sites look the attribute up at
call time, so the package's own calls pass through the wrapper.

Each span records its name, start, end, parent and thread.  The engine
runs blocks on pool threads that have no open span of their own; those
spans attach to the point span that is open at the time, because points
run one after another (a closed loop).
"""

from __future__ import annotations

import functools
import json
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, Iterator, List, Optional, Tuple


@dataclass(eq=False)
class Span:
    name: str
    start: float
    parent: Optional["Span"]
    thread: int
    attrs: Dict[str, str] = field(default_factory=dict)
    end: float = 0.0
    error: Optional[str] = None

    @property
    def duration(self) -> float:
        return self.end - self.start


POINT = "engine.point"  # the span that spans opened on pool threads attach to


class Tracer:
    """Collects spans in memory."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._open_point: Optional[Span] = None
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: List[Tuple[object, str, Callable]] = []

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, **attrs: str) -> Iterator[Span]:
        stack = self._stack()
        parent = stack[-1] if stack else self._open_point
        s = Span(name, perf_counter(), parent, threading.get_ident(), attrs)
        stack.append(s)
        if name == POINT:
            self._open_point = s
        try:
            yield s
        except BaseException as exc:
            s.error = type(exc).__name__
            raise
        finally:
            s.end = perf_counter()
            stack.pop()
            if s is self._open_point:
                self._open_point = None
            with self._lock:
                self.spans.append(s)

    def wrap(self, owner: object, attr: str, name: str, **attrs: str) -> None:
        """Replace ``owner.attr`` by a traced version until :meth:`unwrap_all`."""
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with self.span(name, **attrs):
                return original(*args, **kwargs)

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def unwrap_all(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def named(self, name: str, **attrs: str) -> List[Span]:
        return [s for s in self.spans if s.name == name
                and all(s.attrs.get(k) == v for k, v in attrs.items())]

    def write_jsonl(self, path: Path) -> None:
        ids = {id(s): i for i, s in enumerate(self.spans)}
        threads: Dict[int, int] = {}
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s.name, "start": s.start, "end": s.end,
                    "parent": None if s.parent is None else ids.get(id(s.parent)),
                    "thread": threads.setdefault(s.thread, len(threads)),
                    "attrs": s.attrs, "error": s.error,
                }) + "\n")


def self_times(spans: List[Span]) -> Dict[int, float]:
    """Span duration minus the part of its interval its children cover.

    Children on different threads may overlap; the covered part is the
    union of their intervals, clipped to the parent.
    """
    children: Dict[int, List[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(id(s.parent), []).append(s)
    out = {}
    for s in spans:
        covered = 0.0
        reach = s.start
        for lo, hi in sorted((max(c.start, s.start), min(c.end, s.end))
                             for c in children.get(id(s), ())):
            lo = max(lo, reach)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[id(s)] = s.duration - covered
    return out
