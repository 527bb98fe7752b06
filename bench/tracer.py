"""Span tracer that wraps gaugephase's public names from outside the package.

Modules bind each other's functions by name (``cli`` does
``from .canonical import decompose``), so wrapping a function in its home
module alone would miss most calls.  The tracer replaces every binding of
the function in every loaded ``gaugephase`` module, and patches methods and
constructors on their class, then puts back the identical original objects.

Spans are kept in memory as ``(name, start, end, parent, job)`` tuples,
``parent`` being the index of the enclosing span (-1 at top level).
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from types import ModuleType
from typing import Any, Callable


@dataclass(frozen=True)
class Target:
    """One traced name.

    ``path`` is ``module.function``, ``module.Class.method`` or
    ``module.Class`` (which traces construction through ``__init__``),
    relative to the ``gaugephase`` package.  ``label`` may extend the span
    name from the call's arguments, e.g. with a suite name.  ``count``, read
    from the arguments after a call returns, is added to ``Tracer.counts``
    under (span name, job).
    """

    path: str
    label: Callable[[tuple, dict], str] | None = None
    count: Callable[[tuple, dict], float] | None = None


PACKAGE = "gaugephase"


def _modules() -> list[ModuleType]:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


class Tracer:
    """Context manager that installs span-recording wrappers and removes them.

    ``job`` tags every span recorded while it is set; the caller updates it
    between jobs.
    """

    def __init__(self, targets: list[Target]):
        self.targets = targets
        self.spans: list[tuple[str, float, float, int, int] | None] = []
        self.counts: dict[tuple[str, int], float] = defaultdict(float)
        self.job = -1
        self._stack: list[int] = []
        self._patches: list[tuple[Any, str, Any]] = []

    # -- patching ----------------------------------------------------------

    def __enter__(self) -> "Tracer":
        try:
            for target in self.targets:
                self._install(target)
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def _install(self, target: Target) -> None:
        module_name, _, rest = target.path.partition(".")
        home = sys.modules[f"{PACKAGE}.{module_name}"]
        name = f"{module_name}.{rest}"
        parts = rest.split(".")
        obj = getattr(home, parts[0])
        if isinstance(obj, type):
            attr = parts[1] if len(parts) > 1 else "__init__"
            if attr not in obj.__dict__:
                raise AttributeError(f"{target.path}: {attr} is not defined on the class")
            original = obj.__dict__[attr]
            self._patch(obj, attr, original, self._wrap(original, name, target))
            return
        wrapper = self._wrap(obj, name, target)
        for module in _modules():
            for key, value in list(vars(module).items()):
                if value is obj:
                    self._patch(module, key, obj, wrapper)

    def _patch(self, owner: Any, attr: str, original: Any, wrapper: Any) -> None:
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        """Put back every original object, newest patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _wrap(self, fn: Callable, name: str, target: Target) -> Callable:
        spans, stack, counts = self.spans, self._stack, self.counts
        label, count = target.label, target.count
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_name = name if label is None else f"{name}.{label(args, kwargs)}"
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if count is not None:
                    counts[(span_name, self.job)] += count(args, kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                spans[index] = (span_name, start, end, parent, self.job)

        return wrapper

    # -- summaries -----------------------------------------------------------

    def self_times(self) -> list[float]:
        """Per span: its duration minus the time its direct children cover.

        Calls on one thread nest, so the children of a span are disjoint
        intervals inside it and their union is the sum of their durations.
        """
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span is not None and span[3] >= 0:
                child[span[3]] += span[2] - span[1]
        return [0.0 if s is None else (s[2] - s[1]) - child[i]
                for i, s in enumerate(self.spans)]

    def totals(self, jobs: set[int]) -> dict[str, dict[str, float]]:
        """Per span name: calls, total and self seconds over the given jobs."""
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for span, own in zip(self.spans, self.self_times()):
            if span is None or span[4] not in jobs:
                continue
            entry = out[span[0]]
            entry["calls"] += 1
            entry["total_s"] += span[2] - span[1]
            entry["self_s"] += own
        return dict(out)

    def write(self, path) -> None:
        """Write the spans as tab-separated lines: name, start, end, parent, job."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tstart\tend\tparent\tjob\n")
            for span in self.spans:
                if span is not None:
                    fh.write("%s\t%.9f\t%.9f\t%d\t%d\n" % span)
