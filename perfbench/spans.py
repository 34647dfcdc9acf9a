"""In-memory span recorder for the traced benchmark run.

Spans are recorded from the benchmark's own code, around its calls into
each layer, and around a few public functions of the library that the
benchmark's calls reach (:meth:`Tracer.wrap` swaps a wrapper in for the
traced pass and puts the original back).  Nothing inside the library is
instrumented.  Times are ``time.perf_counter`` readings, which on Linux
come from the system-wide monotonic clock, so spans recorded by a child
process can be merged into the parent's list.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from dataclasses import asdict, dataclass
from typing import Dict, Iterable, List, Optional


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    job: Optional[str]

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans with a parent stack; one instance per traced pass."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[Span] = []
        self._restore: List = []

    @contextlib.contextmanager
    def span(self, name: str, job: Optional[str] = None):
        parent = self._stack[-1] if self._stack else None
        if job is None and parent is not None:
            job = parent.job
        span = Span(len(self.spans), name, time.perf_counter(), 0.0,
                    parent.id if parent else None, job)
        self.spans.append(span)
        self._stack.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def add(self, name: str, start: float, end: float,
            parent: Optional[Span] = None, job: Optional[str] = None) -> Span:
        """Record a span from timestamps taken elsewhere."""
        if job is None and parent is not None:
            job = parent.job
        span = Span(len(self.spans), name, start, end,
                    parent.id if parent else None, job)
        self.spans.append(span)
        return span

    def merge(self, exported: Iterable[dict], parent: Span) -> None:
        """Adopt spans exported by a child process under ``parent``."""
        ids: Dict[int, int] = {}
        for item in exported:
            up = item["parent"]
            span = self.add(item["name"], item["start"], item["end"],
                            job=parent.job)
            span.parent = ids[up] if up is not None else parent.id
            ids[item["id"]] = span.id

    def wrap(self, owner, attr: str, name: str) -> None:
        """Record a span around every call of ``owner.attr`` until restore."""
        had_own = attr in vars(owner)
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with self.span(name):
                return original(*args, **kwargs)

        setattr(owner, attr, traced)
        self._restore.append((owner, attr, original, had_own))

    def restore(self) -> None:
        while self._restore:
            owner, attr, original, had_own = self._restore.pop()
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    # -- reading -------------------------------------------------------
    def named(self, name: str) -> List[Span]:
        return [s for s in self.spans if s.name == name]

    def total(self, name: str) -> float:
        return sum(s.duration for s in self.named(name))

    def self_times(self, spans: Iterable[Span]) -> Dict[str, float]:
        """Summed self time per layer: each span minus its children."""
        spans = list(spans)
        children: Dict[int, List[Span]] = {}
        for s in spans:
            if s.parent is not None:
                children.setdefault(s.parent, []).append(s)
        out: Dict[str, float] = {}
        for s in spans:
            covered = _covered(s, children.get(s.id, ()))
            out[s.layer] = out.get(s.layer, 0.0) + s.duration - covered
        return out

    def export(self) -> List[dict]:
        return [asdict(s) for s in self.spans]

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(asdict(s)) + "\n")


def _covered(span: Span, kids: Iterable[Span]) -> float:
    """Length of the part of ``span`` that its children's union covers."""
    covered = 0.0
    reach = span.start
    for kid in sorted(kids, key=lambda k: k.start):
        lo, hi = max(kid.start, reach), min(kid.end, span.end)
        if hi > lo:
            covered += hi - lo
            reach = hi
    return covered
