"""Spans at darkdimers module boundaries, recorded from outside the package.

`install` rebinds every function that one darkdimers module imports from
another to a wrapper that records a span named `<owner module>.<function>`,
so each span marks a call that crosses a module boundary.  Nothing under
`src/` is edited: the rebinding happens in the traced process only, after
import and before `cli.main` runs.

A span is `[name, start, end, parent]`, with `parent` the index of the
enclosing span or -1.  Work the tracer does on its own behalf (the
fixed-cost repeat of each solve) runs paused, outside every span, and its
interval is listed in `excluded` so that no enclosing span is charged for it.
"""

from __future__ import annotations

import bisect
import importlib
import inspect
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

LAYERS = ("cli", "config", "model", "operators", "dynamics", "observables",
          "darkstates", "experiments")


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[list] = []
        self.excluded: List[Tuple[float, float]] = []
        self._stack: List[int] = []
        self._paused = False

    def wrap(self, name: str, fn: Callable,
             after: Optional[Callable] = None) -> Callable:
        """`fn` recording a span per call; `after(result, args, kwargs)`
        runs once the span has closed."""

        def traced(*args, **kwargs):
            if self._paused:
                return fn(*args, **kwargs)
            index = len(self.spans)
            span = [name, self.clock(), None, self._stack[-1] if self._stack else -1]
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = self.clock()
                self._stack.pop()
            if after is not None:
                after(result, args, kwargs)
            return result

        traced.__wrapped__ = fn
        return traced

    def outside_spans(self, fn: Callable, *args, **kwargs) -> float:
        """Run `fn` untraced, charge its time to no span, return the time."""
        self._paused = True
        start = self.clock()
        try:
            fn(*args, **kwargs)
        finally:
            end = self.clock()
            self._paused = False
        self.excluded.append((start, end))
        return end - start


def cross_module_bindings(package: str = "darkdimers") -> List[Tuple[object, str, str]]:
    """(module, attribute, span name) for every function a layer module
    imports from another module of the same package."""
    found = []
    for layer in LAYERS:
        module = importlib.import_module(f"{package}.{layer}")
        for attr, obj in vars(module).items():
            if not inspect.isfunction(obj):
                continue
            owner = obj.__module__
            if owner == module.__name__ or not owner.startswith(package + "."):
                continue
            found.append((module, attr, f"{owner[len(package) + 1:]}.{obj.__name__}"))
    return found


def install(tracer: Tracer, package: str = "darkdimers",
            after: Optional[Dict[str, Callable]] = None,
            extra: Sequence[Tuple[str, str]] = ()) -> None:
    """Wrap every cross-module binding, plus each `(layer, attribute)` in
    `extra`; `after` maps span names to post-span hooks."""
    after = after or {}
    targets = cross_module_bindings(package)
    for layer, attr in extra:
        module = importlib.import_module(f"{package}.{layer}")
        if hasattr(module, attr):
            targets.append((module, attr, f"{layer}.{attr}"))
    for module, attr, name in targets:
        setattr(module, attr, tracer.wrap(name, getattr(module, attr), after.get(name)))


def net_durations(spans: Sequence[Sequence], excluded: Sequence[Tuple[float, float]]
                  ) -> List[float]:
    """Span durations less the excluded intervals that fall inside them.

    Excluded intervals never straddle a span boundary: each one opens
    and closes while the same spans are open."""
    excluded = sorted(excluded)
    starts = [s for s, _ in excluded]
    prefix = [0.0]
    for s, e in excluded:
        prefix.append(prefix[-1] + (e - s))
    out = []
    for _, start, end, _ in spans:
        lo = bisect.bisect_left(starts, start)
        hi = bisect.bisect_left(starts, end)
        out.append((end - start) - (prefix[hi] - prefix[lo]))
    return out


def self_times(spans: Sequence[Sequence], durations: Sequence[float]) -> List[float]:
    """Each span's duration minus the durations of its direct children."""
    selfs = list(durations)
    for (_, _, _, parent), duration in zip(spans, durations):
        if parent >= 0:
            selfs[parent] -= duration
    return selfs
