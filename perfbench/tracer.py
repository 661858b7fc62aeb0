"""In-memory span tracer that wraps functions from outside the program.

A span is one call of a wrapped function: its name, start, end and the span
that was open when it began (its parent). Spans live in flat arrays so that
runs with a million calls stay small, and are written out only when a run
ends. Wrappers pass arguments, return values and exceptions through
unchanged; `patched` swaps them into the names callers look up and puts the
original objects back afterwards.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import importlib
import time
from array import array
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np


@dataclass(frozen=True)
class Target:
    """A function to wrap: `attr` (dotted for class members) of `module`.

    `on_return(counts, result)` may add counters read from the return value.
    """

    span: str
    module: str
    attr: str
    on_return: Callable | None = None


@dataclass(frozen=True)
class Totals:
    calls: int
    busy_s: float        # summed duration, same-name nested calls counted once
    self_s: float        # duration minus the time covered by direct children


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self._open = [-1]
        self.counts: collections.Counter = collections.Counter()

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn: Callable, name: str, on_return: Callable | None = None) -> Callable:
        nid = self._name_id(name)
        clock, open_ = self.clock, self._open
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(open_[-1])
            end.append(0.0)
            open_.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                open_.pop()
            if on_return is not None:
                on_return(counts, result)
            return result

        return wrapper

    def totals(self) -> dict[str, Totals]:
        """Per span name: call count, busy time and self time."""
        names = np.asarray(self.name_id, dtype=np.int64)
        parent = np.asarray(self.parent, dtype=np.int64)
        dur = np.asarray(self.end) - np.asarray(self.start)
        child = parent >= 0
        covered = np.bincount(parent[child], weights=dur[child], minlength=dur.size)
        own = dur - covered
        nested_same = child & (names[np.maximum(parent, 0)] == names)
        out = {}
        for nid, name in enumerate(self.names):
            mine = names == nid
            out[name] = Totals(
                calls=int(mine.sum()),
                busy_s=float(dur[mine & ~nested_same].sum()),
                self_s=float(own[mine].sum()),
            )
        return out

    def durations(self, name: str) -> np.ndarray:
        if name not in self._ids:
            return np.empty(0)
        mine = np.asarray(self.name_id) == self._ids[name]
        return (np.asarray(self.end) - np.asarray(self.start))[mine]

    def write_csv(self, path) -> None:
        """One line per span: index, name, parent index (-1 at the root), start, end."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span,name,parent,start_s,end_s\n")
            t0 = self.start[0] if len(self.start) else 0.0
            names = self.names
            for i, (nid, par, s, e) in enumerate(
                zip(self.name_id, self.parent, self.start, self.end)
            ):
                fh.write(f"{i},{names[nid]},{par},{s - t0:.9f},{e - t0:.9f}\n")


def _resolve(target: Target):
    """(owner, attribute name) for the target, or None if it no longer exists."""
    try:
        owner = importlib.import_module(target.module)
    except ImportError:
        return None
    *path, attr = target.attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if not callable(getattr(owner, attr, None)):
        return None
    return owner, attr


@contextlib.contextmanager
def patched(tracer: Tracer, targets: list[Target]) -> Iterator[list[Target]]:
    """Wrap every target that exists; yield the ones that are absent.

    A target that a refactor removed is reported, not treated as an error.
    Every replaced attribute gets its original object back on exit.
    """
    saved = []
    absent = []
    try:
        for target in targets:
            found = _resolve(target)
            if found is None:
                absent.append(target)
                continue
            owner, attr = found
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(original, target.span, target.on_return))
        yield absent
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
