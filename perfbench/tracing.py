"""In-memory span tracer that wraps a program's public functions by name.

A traced function is replaced, at the attribute its callers look up, by a
wrapper that records a span (name, start, end, parent span, chunk, trial).
Self time is a span's duration minus the time its child spans cover. Kernel
functions that run thousands of times per trial are only counted, keyed by
the nearest enclosing span, so their time stays in the caller's self time.
Every replaced attribute is put back when the tracer is uninstalled.
"""

from __future__ import annotations

import functools
import json
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

# Spans beyond this many are aggregated but not kept, to bound memory.
MAX_SPANS = 200_000


class Tracer:
    def __init__(self) -> None:
        self.calls: Counter[str] = Counter()
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.extra: Counter[str] = Counter()
        # (kernel name, enclosing span name or None) -> calls
        self.kernel_calls: Counter[tuple[str, str | None]] = Counter()
        self.spans: list[tuple] = []
        self.dropped_spans = 0
        self.chunk: int | None = None
        self.trial: int | None = None
        self._stack: list[list] = []  # [span id, name, child seconds]
        self._next_id = 0
        self._targets: list[tuple[object, str, object]] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- declaring what to wrap -------------------------------------------

    def span(self, owner, attr: str, name: str, extra=None) -> None:
        """Record a span named `name` around every call of owner.attr.

        extra(tracer, args, kwargs, result) may add counts after the call.
        """
        self._add(owner, attr, lambda original: self._span_wrapper(original, name, extra))

    def count(self, owner, attr: str, name: str, extra=None) -> None:
        """Count calls of owner.attr without timing them."""

        def make(original):
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                parent = self._stack[-1][1] if self._stack else None
                self.kernel_calls[(name, parent)] += 1
                result = original(*args, **kwargs)
                if extra is not None:
                    extra(self, args, kwargs, result)
                return result

            return wrapper

        self._add(owner, attr, make)

    def hook(self, owner, attr: str, before) -> None:
        """Call before(tracer, args, kwargs) ahead of every call of owner.attr."""

        def make(original):
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                before(self, args, kwargs)
                return original(*args, **kwargs)

            return wrapper

        self._add(owner, attr, make)

    def targets(self) -> list[tuple[object, str]]:
        """(owner, attribute) of every function this tracer replaces."""
        return [(owner, attr) for owner, attr, _ in self._targets]

    def _add(self, owner, attr: str, make) -> None:
        self._targets.append((owner, attr, make))

    def _span_wrapper(self, original, name: str, extra):
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else None
            frame = [span_id, name, 0.0]
            self._stack.append(frame)
            start = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                duration = end - start
                if parent is not None:
                    parent[2] += duration
                self.calls[name] += 1
                self.self_s[name] += duration - frame[2]
                if len(self.spans) < MAX_SPANS:
                    self.spans.append((
                        span_id, parent[0] if parent else None, name,
                        self.chunk, self.trial, start, end,
                    ))
                else:
                    self.dropped_spans += 1
            if extra is not None:
                extra(self, args, kwargs, result)
            return result

        return wrapper

    def in_span(self, name: str) -> bool:
        """Whether a span of this name is open (an ancestor of the current call)."""
        return any(frame[1] == name for frame in self._stack)

    # -- installing and restoring -----------------------------------------

    @contextmanager
    def installed(self):
        """Replace every declared attribute; restore all of them on exit."""
        try:
            for owner, attr, make in self._targets:
                original = vars(owner)[attr]
                setattr(owner, attr, make(original))
                self._patched.append((owner, attr, original))
            yield self
        finally:
            while self._patched:
                owner, attr, original = self._patched.pop()
                setattr(owner, attr, original)

    # -- reading results ---------------------------------------------------

    def kernel_total(self, name: str, parent: str | None = "*") -> int:
        """Calls of a counted kernel, under one enclosing span or under all."""
        return sum(
            n for (kernel, under), n in self.kernel_calls.items()
            if kernel == name and (parent == "*" or under == parent)
        )

    def write(self, path: Path, meta: dict) -> None:
        """Write metadata, then one JSON array per span, one per line."""
        with open(path, "w") as out:
            out.write(json.dumps({"meta": meta, "dropped_spans": self.dropped_spans,
                                  "fields": ["id", "parent", "name", "chunk",
                                             "trial", "start", "end"]}) + "\n")
            for span in self.spans:
                out.write(json.dumps(span) + "\n")
