"""Span tracer that times blotto's layers from outside the package.

A wrap point names a function as seen from the module that calls it, for
example ``best_response`` inside ``blotto.commitment``.  Installing the
tracer replaces each such module attribute with a wrapper that records one
span per call; restoring puts the original objects back.  Nothing under
``src/`` is edited.

Every span carries two names:

* its label, ``<caller>.<name>``: the calling module's short name and the
  attribute that was wrapped (``commitment.best_response``);
* its target, ``<defining module>.<function>`` (``best_response.best_response``),
  so that calls made from several modules can be added up.

Spans are kept in memory and written out at the end of a run.  A span's
self time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import importlib
import json
from collections import Counter
from dataclasses import asdict, dataclass, field
from time import perf_counter
from typing import Callable


@dataclass(slots=True)
class Span:
    label: str
    target: str
    start: float
    end: float = 0.0
    parent: int = -1
    op: int = -1
    outcome: str = "ok"
    size: float | None = None


@dataclass(frozen=True)
class WrapPoint:
    """One module attribute to wrap.

    caller is the short name used in span labels.  measure, when given,
    maps (args, result) of a successful call to a number stored as the
    span's size (rows of a batch, roots found, nan rows of a sweep).
    """

    module: str
    attr: str
    caller: str
    measure: Callable | None = None


def _short(module_name: str) -> str:
    return module_name.rsplit(".", 1)[-1]


@dataclass
class Tracer:
    points: list[WrapPoint]
    classify: Callable[[BaseException], str]
    spans: list[Span] = field(default_factory=list)
    absent: list[str] = field(default_factory=list)
    op: int = -1
    _stack: list[int] = field(default_factory=list)
    _saved: list[tuple[object, str, object]] = field(default_factory=list)

    def install(self) -> None:
        """Wrap every wrap point that exists; record the others as absent."""
        for point in self.points:
            module = importlib.import_module(point.module)
            original = getattr(module, point.attr, None)
            if not callable(original):
                self.absent.append(f"{point.caller}.{point.attr}")
                continue
            target = f"{_short(getattr(original, '__module__', '') or '?')}.{getattr(original, '__name__', point.attr)}"
            label = f"{point.caller}.{point.attr}"
            setattr(module, point.attr, self._wrap(label, target, original, point.measure))
            self._saved.append((module, point.attr, original))

    def restore(self) -> list[str]:
        """Put every original back; returns the names still not restored."""
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        left = [
            f"{module.__name__}.{attr}"
            for module, attr, original in self._saved
            if getattr(module, attr) is not original
        ]
        self._saved.clear()
        return left

    def call(self, label: str, target: str, fn: Callable, *args, **kwargs):
        """Run fn(*args, **kwargs) inside one span (for calls the benchmark
        makes directly, such as the CLI's main)."""
        return self._wrap(label, target, fn, None)(*args, **kwargs)

    def _wrap(self, label: str, target: str, fn: Callable, measure: Callable | None):
        spans, stack, classify = self.spans, self._stack, self.classify

        def wrapper(*args, **kwargs):
            span = Span(label, target, 0.0, parent=stack[-1] if stack else -1, op=self.op)
            stack.append(len(spans))
            spans.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.end = perf_counter()
                span.outcome = classify(exc)
                raise
            finally:
                stack.pop()
            span.end = perf_counter()
            if result is None:
                span.outcome = "none"
            elif measure is not None:
                span.size = float(measure(args, result))
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def dump(self, path) -> None:
        write_spans(path, self.spans, self.absent)


def write_spans(path, spans: list[Span], absent: list[str]) -> None:
    with open(path, "w") as fh:
        json.dump({"spans": [asdict(s) for s in spans], "absent": absent}, fh)


def load_spans(path, op: int) -> tuple[list[Span], list[str]]:
    """Spans and absent names written by dump() in another process; the
    spans are tagged with op."""
    with open(path) as fh:
        record = json.load(fh)
    spans = [Span(**fields) for fields in record["spans"]]
    for span in spans:
        span.op = op
    return spans, record["absent"]


def concat(groups: list[list[Span]]) -> list[Span]:
    """Join span lists from several processes, re-pointing parent indices."""
    out: list[Span] = []
    for group in groups:
        offset = len(out)
        for span in group:
            if span.parent >= 0:
                span.parent += offset
            out.append(span)
    return out


@dataclass
class Stat:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    size: float = 0.0
    outcomes: Counter = field(default_factory=Counter)


def aggregate(spans: list[Span]) -> dict[str, Stat]:
    """Per-name call counts, inclusive and self time, sizes and outcomes.

    Each span is counted under its label and under its target; when the two
    coincide it is counted once.
    """
    child_time = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            child_time[span.parent] += span.end - span.start
    stats: dict[str, Stat] = {}
    for span, covered in zip(spans, child_time):
        duration = span.end - span.start
        for key in {span.label, span.target}:
            stat = stats.setdefault(key, Stat())
            stat.calls += 1
            stat.total_s += duration
            stat.self_s += duration - covered
            stat.size += span.size or 0.0
            stat.outcomes[span.outcome] += 1
    return stats
