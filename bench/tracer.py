"""Span recording around the library's public entry points, from outside.

`Tracer` keeps spans (name, start, end, parent, job id) in compact columns
while a job is active, plus plain counters for things that are not spans
(constructor calls, zero operands, bytes, truncation fallbacks).  `patch_function`
replaces a function on its defining module *and* on every loaded module that
bound the same object with ``from .x import y``; `patch_method` replaces a
method on its class with every alias of it in the class body;
`Patches` undoes and redoes them.  Self time is computed afterwards
from the recorded spans by `self_times`.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
from array import array
from collections import Counter
from contextlib import contextmanager
from time import perf_counter_ns
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple


class Tracer:
    def __init__(self):
        self.names: List[str] = []
        self._name_id: Dict[str, int] = {}
        self.name_col = array("H")
        self.start_col = array("q")
        self.end_col = array("q")
        self.parent_col = array("l")
        self.job_col = array("l")
        self.counters: Counter = Counter()
        self._stack: List[int] = []
        self.active = False
        self._job = -1

    def name_id(self, name: str) -> int:
        if name not in self._name_id:
            self._name_id[name] = len(self.names)
            self.names.append(name)
        return self._name_id[name]

    def __len__(self) -> int:
        return len(self.start_col)

    def _open(self, nid: int) -> int:
        idx = len(self.start_col)
        self.name_col.append(nid)
        self.parent_col.append(self._stack[-1] if self._stack else -1)
        self.job_col.append(self._job)
        self.end_col.append(0)
        self._stack.append(idx)
        self.start_col.append(perf_counter_ns())
        return idx

    def _close(self, idx: int):
        self.end_col[idx] = perf_counter_ns()
        self._stack.pop()

    def wrap(self, name: str, fn: Callable,
             count: Optional[Callable[[tuple, object], None]] = None) -> Callable:
        """`fn` recording a span named `name`; `count(args, result)` feeds counters."""
        nid = self.name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if count is not None:
                count(args, result)
            return result

        return traced

    def counting(self, counter: str, fn: Callable) -> Callable:
        """`fn` bumping a counter per call, without a span (for very hot calls)."""

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if self.active:
                self.counters[counter] += 1
            return fn(*args, **kwargs)

        return counted

    @contextmanager
    def job(self, job_id: int, name: str = "job"):
        """Record everything inside as one job, under a root span `name`."""
        self.active, self._job = True, job_id
        idx = self._open(self.name_id(name))
        try:
            yield
        finally:
            self._close(idx)
            self.active, self._job = False, -1

    def spans(self) -> Iterable[Tuple[str, int, int, int, int]]:
        for i in range(len(self)):
            yield (self.names[self.name_col[i]], self.start_col[i], self.end_col[i],
                   self.parent_col[i], self.job_col[i])

    def write(self, path: str):
        """Gzipped, one JSON line per span: [name, start_ns, end_ns, parent_index, job]."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            for span in self.spans():
                fh.write(json.dumps(span) + "\n")


def self_times(starts: Sequence[int], ends: Sequence[int],
               parents: Sequence[int]) -> List[int]:
    """Duration of each span minus the part of it covered by its children.

    Children may nest further or overlap one another; each instant of the
    parent's interval is subtracted at most once, and only the part of a
    child inside its parent counts.
    """
    children: Dict[int, List[Tuple[int, int]]] = {}
    for i, p in enumerate(parents):
        if p >= 0:
            children.setdefault(p, []).append((starts[i], ends[i]))
    out = [e - s for s, e in zip(starts, ends)]
    for p, kids in children.items():
        lo, hi = starts[p], ends[p]
        covered = 0
        cur_s = cur_e = None
        for s, e in sorted(kids):
            s, e = max(s, lo), min(e, hi)
            if e <= s:
                continue
            if cur_e is None or s > cur_e:
                if cur_e is not None:
                    covered += cur_e - cur_s
                cur_s, cur_e = s, e
            else:
                cur_e = max(cur_e, e)
        if cur_e is not None:
            covered += cur_e - cur_s
        out[p] -= covered
    return out


class Patches:
    """Replacements made by `patch_function` and `patch_method`.

    `undo` restores the originals and `redo` puts the replacements back, so
    tracing can be switched off and on between jobs without rescanning.
    """

    def __init__(self):
        self._items: List[Tuple[object, str, object, object]] = []

    def set(self, owner, attr: str, value):
        self._items.append((owner, attr, owner.__dict__[attr], value))
        setattr(owner, attr, value)

    def undo(self):
        for owner, attr, old, _ in reversed(self._items):
            setattr(owner, attr, old)

    def redo(self):
        for owner, attr, _, new in self._items:
            setattr(owner, attr, new)


def patch_function(patches: Patches, module, attr: str, wrapper: Callable) -> List[str]:
    """Rebind module.attr, and every module-level alias of it, to `wrapper`.

    Returns the qualified names rebound, defining module first.
    """
    original = getattr(module, attr)
    reached = []
    for mod in [module] + [m for m in list(sys.modules.values()) if m is not module]:
        namespace = getattr(mod, "__dict__", None)
        if not isinstance(namespace, dict):
            continue
        for name, value in list(namespace.items()):
            if value is original:
                patches.set(mod, name, wrapper)
                reached.append(f"{mod.__name__}.{name}")
    return reached


def patch_method(patches: Patches, cls: type, attr: str, wrapper: Callable) -> List[str]:
    """Replace cls.attr and every alias in the class body (e.g. __rmul__ = __mul__)."""
    original = cls.__dict__[attr]
    reached = []
    for name, value in list(cls.__dict__.items()):
        if value is original:
            patches.set(cls, name, wrapper)
            reached.append(f"{cls.__name__}.{name}")
    return reached
