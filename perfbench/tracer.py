"""In-memory spans around the calls into each fairdim module.

``Tracer.installed()`` replaces public functions at the module attribute
their caller resolves (``fairdim.fairpca.sym_eig_top_r`` is what the
searches call, ``fairdim.cli.load_grouped`` is what the CLI calls) with a
wrapper that records one span per call: name, start, end and parent.
Nothing inside ``fairdim`` changes; leaving the context restores every
attribute. Spans stay in a list until the caller reads them.

Each span also records the time its wrapper spent outside the wrapped
call, so a traced run's own cost is measured in that run: the untraced
wall is the traced wall minus the summed wrapper time.

Worker threads (the sweep's thread pool) start with an empty span stack;
their spans take the innermost open span of the installing thread as
parent, which is the ``run_sweep`` call that submitted them.
"""

from __future__ import annotations

import importlib
import itertools
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter


def _nbytes(*arrays) -> int:
    return sum(int(getattr(a, "nbytes", 0)) for a in arrays)


def _gram_bytes(args, result):
    # reads x once, writes the d x d product
    return {"bytes": _nbytes(args[0], result)}


def _metrics_bytes(args, result):
    # x, x_a, x_b and u are each read on every call
    return {"bytes": _nbytes(args[0], args[1], args[2], args[5])}


def _iterations(args, result):
    return {"iterations": int(result.iterations)}


# (module whose attribute the caller resolves, attribute, measure hook)
TARGETS = (
    ("fairdim.cli", "load_grouped", None),
    ("fairdim.cli", "classical_pca", None),
    ("fairdim.cli", "u_fpca", None),
    ("fairdim.cli", "c_fpca", None),
    ("fairdim.cli", "identify_privileged", None),
    ("fairdim.cli", "fit_record", None),
    ("fairdim.cli", "run_sweep", None),
    ("fairdim.cli", "write_report_jsonl", None),
    ("fairdim.cli", "write_report_csv", None),
    ("fairdim.dataset", "load_table", None),
    ("fairdim.dataset", "balance", None),
    ("fairdim.dataset", "center_and_split", None),
    ("fairdim.report", "classical_pca", None),
    ("fairdim.report", "u_fpca", None),
    ("fairdim.report", "c_fpca", None),
    ("fairdim.fairpca", "classical_pca", None),
    ("fairdim.fairpca", "golden_section", _iterations),
    ("fairdim.fairpca", "scaled_gram", _gram_bytes),
    ("fairdim.fairpca", "sym_eig_top_r", None),
    ("fairdim.fairpca", "group_metrics", _metrics_bytes),
    ("fairdim.fairpca", "identify_privileged", None),
)


@dataclass
class Span:
    span_id: int
    parent: int | None
    name: str
    start: float
    end: float
    attrs: dict = field(default_factory=dict)
    overhead: float = 0.0  # seconds the wrapper itself spent outside the call

    @property
    def duration(self) -> float:
        return self.end - self.start


def span_name(fn) -> str:
    """``<module>.<function>`` after the package prefix, e.g. ``linalg.scaled_gram``."""
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._owner_stack: list[int] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, measure):
        name = span_name(fn)
        tracer = self

        def traced(*args, **kwargs):
            entered = perf_counter()
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            else:
                owner = tracer._owner_stack
                parent = owner[-1] if owner else None
            span_id = next(tracer._ids)
            stack.append(span_id)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
            attrs = measure(args, result) if measure else {}
            span = Span(span_id, parent, name, start, end, attrs)
            span.overhead = (start - entered) + (perf_counter() - end)
            tracer.spans.append(span)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self):
        """Patch every target for the duration of the block.

        A target the module no longer has is skipped, so a refactor that
        moves a call leaves that layer's counts at zero instead of
        breaking the traced run.
        """
        self._owner_stack = self._stack()
        saved = []
        try:
            for module_name, attr, measure in TARGETS:
                module = importlib.import_module(module_name)
                original = getattr(module, attr, None)
                if original is None:
                    continue
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(original, measure))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    @contextmanager
    def span(self, name: str):
        """An explicit span around a block, e.g. the root of a traced run."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        span_id = next(self._ids)
        stack.append(span_id)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            stack.pop()
            self.spans.append(Span(span_id, parent, name, start, end))


def _union_length(intervals) -> float:
    total = 0.0
    cur_start = cur_end = None
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


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it its children cover.

    Children that ran concurrently on pool threads overlap; the covered
    part is the union of their intervals, clipped to the parent.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    by_id = {s.span_id: s for s in spans}
    for s in spans:
        if s.parent in by_id:
            p = by_id[s.parent]
            children.setdefault(s.parent, []).append(
                (max(s.start, p.start), min(s.end, p.end))
            )
    return {
        s.span_id: s.duration - _union_length(children.get(s.span_id, ()))
        for s in spans
    }


def aggregate(spans: list[Span]) -> dict[str, dict]:
    """Per span name: call count, total and self seconds, summed attributes."""
    own = self_times(spans)
    out: dict[str, dict] = {}
    for s in spans:
        entry = out.setdefault(s.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["total_s"] += s.duration
        entry["self_s"] += own[s.span_id]
        for key, value in s.attrs.items():
            entry[key] = entry.get(key, 0) + value
    return out
