"""Per-layer attribution from a Chrome trace exported by a traced pass.

A span's *self time* is its duration minus the part of that interval
its child spans cover. Children may run on other threads (the engine's
workers run `engine/simulate` under the benchmark's campaign span) and
may outlive their parent (a job submitted by `POST /v1/runs` simulates
after the request has been answered), so each child interval is
clipped to the parent and overlapping children are merged before the
covered part is subtracted.
"""

from __future__ import annotations

import json
from dataclasses import dataclass


@dataclass(frozen=True)
class Span:
    span_id: str
    parent_id: str
    cat: str
    name: str
    start: float  # seconds, rebased to the trace's earliest span
    end: float
    tid: int = 0
    detail: str = ""

    @property
    def duration(self) -> float:
        return self.end - self.start


def load_spans(path: str) -> list[Span]:
    """Complete ("X") events of a chrome trace, as Spans."""
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    spans = []
    for event in doc["traceEvents"]:
        if event.get("ph") != "X":
            continue
        args = event.get("args", {})
        start = event["ts"] * 1e-6
        spans.append(Span(span_id=args["span"], parent_id=args["parent"],
                          cat=event["cat"], name=event["name"],
                          start=start, end=start + event["dur"] * 1e-6,
                          tid=event["tid"], detail=args.get("detail", "")))
    return spans


def covered(lo: float, hi: float, intervals) -> float:
    """Length of [lo, hi] covered by the union of `intervals`."""
    clipped = sorted((max(lo, a), min(hi, b)) for a, b in intervals
                     if b > lo and a < hi)
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in clipped:
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> dict[str, float]:
    """Self time in seconds of every span, keyed by span id."""
    children: dict[str, list[tuple[float, float]]] = {}
    for span in spans:
        children.setdefault(span.parent_id, []).append((span.start, span.end))
    return {span.span_id: span.duration - covered(
                span.start, span.end, children.get(span.span_id, ()))
            for span in spans}


class Attribution:
    """Sums and counts over one trace, selected by category and name."""

    def __init__(self, spans: list[Span]):
        self.spans = spans
        self.self_s = self_times(spans)

    def select(self, cat: str, names=None, name_prefix: str = ""):
        return [s for s in self.spans if s.cat == cat
                and (names is None or s.name in names)
                and s.name.startswith(name_prefix)]

    def total_self(self, cat: str, names=None, name_prefix: str = "") -> float:
        return sum(self.self_s[s.span_id]
                   for s in self.select(cat, names, name_prefix))

    def total_duration(self, cat: str, names=None) -> float:
        return sum(s.duration for s in self.select(cat, names))

    def count(self, cat: str, names=None) -> int:
        return len(self.select(cat, names))

    def busy_by_label(self, labels: dict[str, str]) -> dict[str, float]:
        """Sum of `layer` span durations per campaign label; layer spans
        carry the accelerator's display name as their detail."""
        busy: dict[str, float] = {}
        for span in self.select("layer"):
            label = labels.get(span.detail, span.detail)
            busy[label] = busy.get(label, 0.0) + span.duration
        return busy
