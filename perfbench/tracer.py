"""Outside-in tracer: wraps library entry points from the benchmark's side.

Each target is a function or method of the library.  Installing the tracer
replaces the target at *every* module binding that refers to the same object
(``from .contour import _resolvent_nodes`` in ``semigroup`` is a second
binding of the same function), so calls are seen whichever module makes
them.  Spans are kept in memory; self time is a span's duration minus the
time covered by its child spans.  A target whose module attribute no longer
exists is recorded as absent and never reported as zero.

Only calls made while the tracer is armed (inside a traced job) are
recorded, so the benchmark's own oracle checks never count.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    parent: int  # index into Tracer.spans, -1 for a root span
    job: int
    end: float = 0.0
    child_s: float = 0.0

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.child_s


@dataclass(frozen=True)
class Target:
    """One wrapped entry point.

    ``path`` is ``module.attr`` or ``module.Class.method`` below the package;
    ``span`` the name the span is recorded under (several targets may share
    one); ``count`` an optional hook ``(tracer, bound_arguments) -> None``.
    """

    path: str
    span: str
    count: object = None


@dataclass
class Tracer:
    package: str
    targets: list
    spans: list = field(default_factory=list)
    counters: dict = field(default_factory=dict)
    maxima: dict = field(default_factory=dict)
    logs: dict = field(default_factory=dict)
    absent: list = field(default_factory=list)
    job: int = -1
    _stack: list = field(default_factory=list)
    _restore: list = field(default_factory=list)

    # -- counters ---------------------------------------------------------------

    def add(self, name: str, amount=1) -> None:
        if self.job >= 0:
            self.counters[name] = self.counters.get(name, 0) + amount

    def peak(self, name: str, value) -> None:
        if self.job >= 0:
            self.maxima[name] = max(self.maxima.get(name, 0), value)

    def log(self, name: str, value) -> None:
        """Keep every value of a per-call figure, in call order."""
        if self.job >= 0:
            self.logs.setdefault(name, []).append(value)

    # -- wrapping ----------------------------------------------------------------

    def _wrap(self, target: Target, original):
        sig = inspect.signature(original)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if tracer.job < 0:
                return original(*args, **kwargs)
            if target.count is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                target.count(tracer, bound.arguments)
                args, kwargs = bound.args, bound.kwargs
            tracer.add(f"{target.span}.calls")
            parent = tracer._stack[-1] if tracer._stack else -1
            span = Span(target.span, time.perf_counter(), parent, tracer.job)
            tracer.spans.append(span)
            tracer._stack.append(len(tracer.spans) - 1)
            try:
                return original(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                tracer._stack.pop()
                if parent >= 0:
                    tracer.spans[parent].child_s += span.end - span.start

        return wrapper

    def install(self) -> None:
        """Wrap every target at every binding inside the package."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == self.package
                                         or name.startswith(self.package + "."))]
        for target in self.targets:
            owner_path, _, attr = target.path.rpartition(".")
            module_name, _, cls_name = owner_path.partition(".")
            try:
                owner = importlib.import_module(f"{self.package}.{module_name}")
                if cls_name:
                    owner = getattr(owner, cls_name)
                original = inspect.getattr_static(owner, attr)
            except (ImportError, AttributeError):
                self.absent.append(target.path)
                continue
            wrapper = self._wrap(target, original)
            if cls_name:
                self._restore.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, name, original))
                        setattr(module, name, wrapper)

    def uninstall(self) -> bool:
        """Put every original back; True when each binding reads as before."""
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        restored = all(inspect.getattr_static(owner, attr) is original
                       for owner, attr, original in self._restore)
        self._restore.clear()
        return restored

    def bindings(self) -> int:
        return len(self._restore)

    # -- summaries ---------------------------------------------------------------

    def self_times(self) -> dict:
        out: dict = {}
        for span in self.spans:
            out[span.name] = out.get(span.name, 0.0) + span.self_s
        return out

    def count_under(self, name: str, ancestor: str) -> int:
        """Spans called ``name`` with a span called ``ancestor`` above them."""
        total = 0
        for span in self.spans:
            if span.name != name:
                continue
            p = span.parent
            while p >= 0 and self.spans[p].name != ancestor:
                p = self.spans[p].parent
            total += p >= 0
        return total

    def dump(self) -> list:
        return [[s.name, s.job, s.parent, s.start, s.end] for s in self.spans]
