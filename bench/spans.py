"""In-memory span recorder for the traced run.

The tracer times layers from outside the package: it replaces a public
function at the module attribute where its callers look it up (for example
``wellscape.landscape.energy_gradient``) with a wrapper that records one span
per call, and puts the original back afterwards.  Spans are kept in memory
and written out when the benchmark ends.

Span stacks are per thread, because ``critical_delta`` runs ``minimize`` on
the worker threads of its predicate pool; a span opened on a thread whose
stack is empty takes the op in flight as its parent.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import threading
from collections import defaultdict
from dataclasses import asdict, dataclass
from time import perf_counter


@dataclass(frozen=True)
class Span:
    sid: int
    name: str
    t0: float
    t1: float
    parent: int | None
    op: int
    thread: int


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.notes: dict[int, dict] = {}   # span id -> facts read off the call's result
        # next() on a count and list.append are single calls into C, atomic
        # under the interpreter lock, so worker threads share them unlocked
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._saved: list[tuple[object, str, object]] = []
        self._op: tuple[int, int] | None = None   # (op id, op span id) while an op runs

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _record(self, name, t0, t1, parent, op, sid) -> None:
        self.spans.append(Span(sid, name, t0, t1, parent, op, threading.get_ident()))

    def wrap(self, name: str, fn, note=None):
        """fn, recording a span per call; patch it in only while an op runs.

        note(args, result) -> dict, when given, keeps facts about the call.
        """
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            op = self._op
            stack = self._stack()
            parent = stack[-1] if stack else op[1]
            sid = next(self._ids)
            stack.append(sid)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                self._record(name, t0, t1, parent, op[0], sid)
            if note is not None:
                self.notes[sid] = note(args, out)
            return out
        return traced

    def patch(self, module_name: str, attr: str, name: str, note=None) -> None:
        module = importlib.import_module(module_name)
        original = getattr(module, attr)
        self._saved.append((module, attr, original))
        setattr(module, attr, self.wrap(name, original, note))

    def restore(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def run_op(self, op_id: int, fn):
        """Run fn() as op op_id under an "op" span; returns (result, wall)."""
        sid = next(self._ids)
        stack = self._stack()
        stack.append(sid)
        self._op = (op_id, sid)
        t0 = perf_counter()
        try:
            out = fn()
        finally:
            t1 = perf_counter()
            self._op = None
            stack.pop()
            self._record("op", t0, t1, None, op_id, sid)
        return out, t1 - t0

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")


def _merged(intervals):
    out = []
    for a, b in sorted(intervals):
        if out and a <= out[-1][1]:
            out[-1][1] = max(out[-1][1], b)
        else:
            out.append([a, b])
    return out


def self_times(spans: list[Span]) -> dict[int, float]:
    """Wall-clock self time per span id.

    A span's self intervals are its interval minus the union of its child
    spans (children on other threads included).  Where k threads are inside
    self intervals at the same moment, each is charged 1/k of the elapsed
    time, so within an op the self times of all spans, the op's own
    included, add up to the op's wall time.
    """
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.t0, s.t1))
    segments = []
    for s in spans:
        cur = s.t0
        for a, b in _merged(children[s.sid]):
            a, b = max(a, s.t0), min(b, s.t1)
            if a > cur:
                segments.append((cur, a, s.sid))
            cur = max(cur, b)
        if s.t1 > cur:
            segments.append((cur, s.t1, s.sid))

    change = defaultdict(int)
    for a, b, _ in segments:
        change[a] += 1
        change[b] -= 1
    times = sorted(change)
    cumulative = {}   # integral of dt / k(t) up to each breakpoint
    acc, k = 0.0, 0
    for t, t_next in zip(times, times[1:] + [None]):
        cumulative[t] = acc
        k += change[t]
        if t_next is not None and k > 0:
            acc += (t_next - t) / k
    out = defaultdict(float)
    for a, b, sid in segments:
        out[sid] += cumulative[b] - cumulative[a]
    return out
