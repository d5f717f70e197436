"""Measurement core: one closed-loop caller, spans, counts and statistics.

The benchmark calls the package from a single thread and starts the next
call only when the previous one has returned, so no work ever waits in a
queue: waiting time is zero by construction and is not measured.
"""

from __future__ import annotations

import statistics
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable

LAYERS = ("simulator", "coincidence", "estimation", "bounds", "leakage", "cli")
TAIL_PERCENTILES = (99.9, 99.0, 90.0, 50.0)
TAIL_BEYOND = 10


class OpFailed(Exception):
    """An operation raised or exited non-zero; the failure is already counted."""


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    item: str


@dataclass
class Outcome:
    """What one completed item contributes to the end-to-end metrics."""

    pulses: int = 0
    summaries: int = 0
    summary_s: float | None = None
    # Largest peak RSS of the child processes that did the item's work, in KiB.
    child_rss_kb: int = 0


@dataclass
class Item:
    name: str
    run: Callable[["Recorder"], Outcome]
    # Sources count toward source_p50_ms; auxiliary items (sweep, fluctuation study) do not.
    source: bool = True


@dataclass
class Workload:
    items: list[Item]
    # True when the work runs in child processes, whose peak RSS is reported.
    in_children: bool = False


@dataclass
class ItemSample:
    position: int  # the item's index in the pass; the same input in every pass
    traced: bool
    source: bool
    wall: float
    outcome: Outcome | None  # None when the item failed


@dataclass
class PassSample:
    wall: float
    traced: bool


@dataclass
class Recorder:
    """Counts operations and failures; records spans while ``tracing`` is on."""

    tracing: bool = False
    item: str = ""
    spans: list[Span] = field(default_factory=list)
    attempted: Counter = field(default_factory=Counter)
    failed: Counter = field(default_factory=Counter)
    counts: Counter = field(default_factory=Counter)
    failures: list[str] = field(default_factory=list)
    _stack: list[int] = field(default_factory=list)

    @contextmanager
    def span(self, name: str):
        if not self.tracing:
            yield
            return
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, perf_counter(), 0.0, parent, self.item))
        self._stack.append(index)
        try:
            yield
        finally:
            self.spans[index].end = perf_counter()
            self._stack.pop()

    def call(self, name: str, fn, *args, expect=(), **kwargs):
        """Call into layer ``name.split('.')[0]``; an unexpected exception fails the op."""
        layer = name.split(".", 1)[0]
        self.attempted[layer] += 1
        with self.span(name):
            try:
                return fn(*args, **kwargs)
            except expect:
                raise
            except Exception as exc:
                self.fail(layer, f"{self.item} {name}: {type(exc).__name__}: {exc}")
                raise OpFailed(name) from exc

    def check(self, layer: str, ok: bool, message: str) -> None:
        """A failed correctness check counts the checked operation as failed."""
        if not ok:
            self.fail(layer, f"{self.item} {message}")

    def fail(self, layer: str, message: str) -> None:
        self.failed[layer] += 1
        if len(self.failures) < 20:
            self.failures.append(message)

    def count(self, name: str, value: float = 1) -> None:
        self.counts[name] += value


def run_timed(workload: Workload, rec: Recorder, seconds: float, trace: bool):
    """Run whole passes over the workload's items until ``seconds`` have passed.

    With ``trace`` passes alternate untraced and traced, and at least one of
    each runs.
    """
    passes: list[PassSample] = []
    items: list[ItemSample] = []
    begin = perf_counter()
    while True:
        index = len(passes)
        rec.tracing = trace and index % 2 == 1
        start = perf_counter()
        for position, item in enumerate(workload.items):
            rec.item = f"p{index}/i{position}:{item.name}"
            item_start = perf_counter()
            try:
                with rec.span("bench.item"):
                    outcome = item.run(rec)
            except OpFailed:
                outcome = None
            wall = perf_counter() - item_start
            items.append(ItemSample(position, rec.tracing, item.source, wall, outcome))
        passes.append(PassSample(perf_counter() - start, rec.tracing))
        if len(passes) >= (2 if trace else 1) and perf_counter() - begin >= seconds:
            break
    rec.tracing = False
    return passes, items


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its direct children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    out = []
    for index, span in enumerate(spans):
        covered, reach = 0.0, span.start
        for start, end in sorted(children.get(index, ())):
            start, end = max(start, reach), min(end, span.end)
            if end > start:
                covered += end - start
                reach = end
        out.append(span.end - span.start - covered)
    return out


def tail(samples: list[float]) -> tuple[float, float, int]:
    """Highest listed percentile with at least TAIL_BEYOND samples above it.

    Returns (percentile, value, sample count) by the nearest-rank rule.
    With too few samples for any listed percentile it returns the maximum
    as percentile 100, which the run record flags.
    """
    xs = sorted(samples)
    n = len(xs)
    if not n:
        return 100.0, 0.0, 0
    for p in TAIL_PERCENTILES:
        rank = -(-round(p * 10) * n // 1000)  # ceil(p% of n) in exact integers
        if n - rank >= TAIL_BEYOND:
            return p, xs[rank - 1], n
    return 100.0, xs[-1], n


def repetitions(items: list[ItemSample]) -> dict[int, list[ItemSample]]:
    """Successful untraced repetitions of each item, keyed by its position in the pass."""
    by_position: dict[int, list[ItemSample]] = {}
    for sample in items:
        if sample.outcome is not None and not sample.traced:
            by_position.setdefault(sample.position, []).append(sample)
    return dict(sorted(by_position.items()))


def upper_quartile(samples) -> float:
    """The value three quarters of the way up the sorted samples, interpolated."""
    samples = sorted(samples)
    if len(samples) < 2:
        return samples[0] if samples else 0.0
    return statistics.quantiles(samples, n=4, method="inclusive")[2]


def median(samples) -> float:
    samples = list(samples)
    return statistics.median(samples) if samples else 0.0
