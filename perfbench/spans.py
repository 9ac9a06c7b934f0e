"""In-memory spans around the public functions of the qcageom modules.

The wrappers are installed on module attributes from outside the package,
so the program itself is not edited.  A function bound under several
names (``statealg.partial_trace`` is also ``infogeo.partial_trace`` and
``qca.partial_trace``) gets one wrapper, installed under every name, and
its spans carry the layer of the module that defines it.
"""
from __future__ import annotations

import functools
import inspect
import resource
import time
from dataclasses import dataclass, field
from types import ModuleType
from typing import Callable, Iterable

#: A hook sees a finished call and adds to the counters.  It runs after the
#: span is closed, so its own cost shows in the tracing overhead only.
Hook = Callable[[dict, tuple, dict, object], None]


@dataclass
class Span:
    name: str
    layer: str
    parent: int | None
    start: float
    end: float = 0.0
    rss_start_kb: int = 0
    rss_end_kb: int = 0


def _maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


@dataclass
class Tracer:
    """Records nested spans and hook counters for one process."""

    spans: list[Span] = field(default_factory=list)
    counts: dict = field(default_factory=dict)
    broken_hooks: set = field(default_factory=set)
    _stack: list[int] = field(default_factory=list)

    def wrap(self, fn: Callable, name: str, layer: str, hook: Hook | None) -> Callable:
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else None
            span = Span(name, layer, parent, 0.0, rss_start_kb=_maxrss_kb())
            spans.append(span)
            stack.append(idx)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                span.rss_end_kb = _maxrss_kb()
                stack.pop()
            if hook is not None and name not in self.broken_hooks:
                try:
                    hook(counts, args, kwargs, result)
                except (AttributeError, TypeError, KeyError, ValueError, OSError):
                    # The program changed shape under the hook: report it, keep running.
                    self.broken_hooks.add(name)
            return result

        traced.__wrapped_by_perfbench__ = True
        return traced


@dataclass
class Installation:
    """What `install` replaced, so that `restore` can put it back."""

    replaced: list[tuple[ModuleType, str, object]]
    absent: list[str]

    def restore(self) -> None:
        for module, attr, original in reversed(self.replaced):
            setattr(module, attr, original)
        self.replaced.clear()


def install(tracer: Tracer, modules: dict[str, ModuleType],
            expected: Iterable[str], hooks: dict[str, Hook]) -> Installation:
    """Wrap every public function bound in `modules`.

    `modules` maps a layer name to its module.  `expected` lists qualified
    names ("layer.function") that the metrics rely on; those that no module
    defines are returned as absent instead of raising, so a later rename in
    the program degrades a metric rather than the run.
    """
    layer_of = {m.__name__: layer for layer, m in modules.items()}
    wrappers: dict[int, Callable] = {}
    replaced, wrapped = [], set()
    for module in modules.values():
        for attr, value in list(vars(module).items()):
            if attr.startswith("_") or not inspect.isfunction(value):
                continue
            layer = layer_of.get(value.__module__)
            if layer is None or getattr(value, "__wrapped_by_perfbench__", False):
                continue
            name = f"{layer}.{value.__name__}"
            if id(value) not in wrappers:
                wrappers[id(value)] = tracer.wrap(value, name, layer, hooks.get(name))
            replaced.append((module, attr, value))
            setattr(module, attr, wrappers[id(value)])
            wrapped.add(name)
    return Installation(replaced=replaced, absent=sorted(set(expected) - wrapped))


def merged_length(intervals: Iterable[tuple[float, float]]) -> float:
    """Length of the union of closed intervals."""
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return [
        (s.end - s.start) - merged_length(children.get(i, ()))
        for i, s in enumerate(spans)
    ]


@dataclass
class Summary:
    """Per-name and per-layer aggregates of one span list."""

    calls: dict[str, int]
    inclusive_s: dict[str, float]
    entry_s: dict[str, float]
    layer_self_s: dict[str, float]
    layer_rss_rise_kb: dict[str, int]


def summarize(spans: list[Span]) -> Summary:
    """Aggregate spans by function name and by layer.

    Inclusive time counts a span only when no ancestor has the same name,
    so recursion is not counted twice.  Entry time counts only spans
    entered from another layer (or from none), and so does a layer's
    memory rise, the growth of peak RSS while the layer runs.
    """
    selfs = self_times(spans)
    calls: dict[str, int] = {}
    inclusive: dict[str, float] = {}
    entry: dict[str, float] = {}
    layer_self: dict[str, float] = {}
    rss_rise: dict[str, int] = {}
    for i, s in enumerate(spans):
        calls[s.name] = calls.get(s.name, 0) + 1
        layer_self[s.layer] = layer_self.get(s.layer, 0.0) + selfs[i]
        p, nested = s.parent, False
        while p is not None:
            if spans[p].name == s.name:
                nested = True
                break
            p = spans[p].parent
        if not nested:
            inclusive[s.name] = inclusive.get(s.name, 0.0) + (s.end - s.start)
        if s.parent is None or spans[s.parent].layer != s.layer:
            entry[s.name] = entry.get(s.name, 0.0) + (s.end - s.start)
            rss_rise[s.layer] = rss_rise.get(s.layer, 0) + (s.rss_end_kb - s.rss_start_kb)
    return Summary(calls, inclusive, entry, layer_self, rss_rise)
