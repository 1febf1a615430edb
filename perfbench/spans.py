"""Spans and counts for the traced benchmark run, recorded from outside the library.

The library has no tracing of its own.  `instrumented` rebinds every public
function of the chosen modules (the names in each module's ``__all__``) to a
wrapper that records a span, in every ``dirichlet_roots`` namespace that
holds a reference to it, and restores the originals on exit.  Private
helpers are never wrapped, so deleting or renaming one does not break the
trace.

Spans live in an anonymous shared memory map created before any pool forks,
so spans recorded inside forked pool workers land in the same buffer as the
parent's.  A worker inherits the parent's span stack at fork time, so its
top-level spans name the span that started the pool (``run_trials``) as
their parent.  Nothing is written to disk until `Recorder.spans` is read.

Self time: a span's duration minus the part of its interval covered by its
children in the same process, minus the busy time of its children in pool
workers divided by the pool size (its ``fanout``).  Every span in a worker
also carries weight 1/fanout, so weighted self times add up to the parent's
wall time: for ``run_trials`` the remainder is the time the parent spent
waiting on the pool beyond the workers' share of the work.
"""

from __future__ import annotations

import inspect
import mmap
import os
import struct
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from multiprocessing import get_context
from typing import Callable

# slot+1, parent slot (-1: none), pid, name index, t0, t1, work, aux, fanout
_RECORD = struct.Struct("<qqqqddddd")

# measure(args, kwargs, result) -> (work, aux, fanout) recorded with the span
Measure = Callable[[tuple, dict, object], tuple[float, float, float]]


@dataclass(frozen=True)
class Span:
    slot: int
    parent: int
    pid: int
    name: str
    t0: float
    t1: float
    work: float = 0.0
    aux: float = 0.0
    fanout: float = 1.0

    @property
    def duration(self) -> float:
        return self.t1 - self.t0


class Recorder:
    """Fixed-capacity span store shared with forked children."""

    def __init__(self, capacity: int = 1 << 17):
        self.capacity = capacity
        self.names: list[str] = []
        self._buf = mmap.mmap(-1, capacity * _RECORD.size)
        self._next = get_context("fork").Value("q", 0)
        self._stack: list[int] = []

    def close(self) -> None:
        self._buf.close()

    @property
    def opened(self) -> int:
        return self._next.value

    def wrap(self, name: str, fn: Callable, measure: Measure | None = None) -> Callable:
        index = len(self.names)
        self.names.append(name)

        def traced(*args, **kwargs):
            with self._next.get_lock():
                slot = self._next.value
                self._next.value = slot + 1
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(slot)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._write(slot, parent, index, t0, time.perf_counter(), (0.0, 0.0, 1.0))
                raise
            finally:
                self._stack.pop()
            t1 = time.perf_counter()
            counts = measure(args, kwargs, result) if measure else (0.0, 0.0, 1.0)
            self._write(slot, parent, index, t0, t1, counts)
            return result

        traced.__wrapped__ = fn
        return traced

    def _write(self, slot, parent, index, t0, t1, counts) -> None:
        if slot < self.capacity:
            _RECORD.pack_into(self._buf, slot * _RECORD.size, slot + 1, parent,
                              os.getpid(), index, t0, t1, *counts)

    def spans(self) -> list[Span]:
        """Every completed span; slots past capacity or never closed are skipped."""
        out = []
        for slot in range(min(self.opened, self.capacity)):
            tag, parent, pid, index, t0, t1, work, aux, fanout = _RECORD.unpack_from(
                self._buf, slot * _RECORD.size)
            if tag == slot + 1:
                out.append(Span(slot, parent, pid, self.names[index], t0, t1,
                                work, aux, fanout))
        return out


@contextmanager
def instrumented(recorder: Recorder, modules, measures: dict[str, Measure],
                 package: str = "dirichlet_roots"):
    """Wrap the public functions of `modules` for the duration of the block.

    A span is named "<module>.<function>", with the module's last dotted
    component as its layer.  `measures` maps span names to count hooks.
    """
    wrappers = {}
    for mod in modules:
        layer = mod.__name__.rsplit(".", 1)[-1]
        for attr in getattr(mod, "__all__", ()):
            fn = getattr(mod, attr, None)
            if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                name = f"{layer}.{attr}"
                wrappers[id(fn)] = (fn, recorder.wrap(name, fn, measures.get(name)))
    patched = []
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == package or modname.startswith(package + ".")):
            continue
        for attr, value in list(vars(mod).items()):
            hit = wrappers.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(mod, attr, hit[1])
                patched.append((mod, attr, value))
    try:
        yield
    finally:
        for mod, attr, value in patched:
            setattr(mod, attr, value)


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, end = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def self_times(spans: list[Span]) -> dict[int, tuple[float, float]]:
    """slot -> (self seconds, weight); weighted self times add up to wall time."""
    by_slot = {s.slot: s for s in spans}
    children: dict[int, list[Span]] = {}
    for s in spans:
        children.setdefault(s.parent, []).append(s)

    weights: dict[int, float] = {}

    def weight(s: Span) -> float:
        if s.slot not in weights:
            parent = by_slot.get(s.parent)
            if parent is None:
                weights[s.slot] = 1.0
            else:
                hop = 1.0 / parent.fanout if s.pid != parent.pid else 1.0
                weights[s.slot] = weight(parent) * hop
        return weights[s.slot]

    out = {}
    for s in spans:
        kids = children.get(s.slot, [])
        local = [(c.t0, c.t1) for c in kids if c.pid == s.pid]
        remote = sum(c.duration for c in kids if c.pid != s.pid)
        own = s.duration - _covered(local, s.t0, s.t1) - remote / s.fanout
        out[s.slot] = (own, weight(s))
    return out


@dataclass
class NameTotals:
    calls: int = 0
    self_s: float = 0.0        # weighted: wall-time equivalent
    raw_self_s: float = 0.0    # unweighted: busy seconds in whichever process
    inclusive_s: float = 0.0   # weighted duration including children
    work: float = 0.0
    aux: float = 0.0


def totals_by_name(spans: list[Span]) -> dict[str, NameTotals]:
    selfs = self_times(spans)
    out: dict[str, NameTotals] = {}
    for s in spans:
        own, w = selfs[s.slot]
        t = out.setdefault(s.name, NameTotals())
        t.calls += 1
        t.self_s += own * w
        t.raw_self_s += own
        t.inclusive_s += s.duration * w
        t.work += s.work
        t.aux += s.aux
    return out
