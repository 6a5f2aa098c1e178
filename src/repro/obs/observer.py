"""The :class:`Observer` facade: one object that instrumented code
talks to.

An observer couples a :class:`~repro.obs.metrics.MetricsRegistry` with
an :class:`~repro.obs.events.EventStream`. Call sites name an event
kind and its detail (``observer.emit(t, "probe_window", ...)``); the
kind's :data:`~repro.obs.events.EVENT_SCHEMA` entry says which metrics
it bumps and whether it reaches the stream, so call sites never build
event dicts or metric names by hand. Instrumented code holds an
``Optional[Observer]`` and guards every call with ``is not None`` —
the *disabled* cost is one attribute check, the *enabled* cost is a
couple of dict operations.

Observers are process-local. Parallel campaign workers each create a
fresh one and ship only its :meth:`summary` (pure dicts) back across
the process boundary; worker event streams stay in the worker (they
can be arbitrarily large), while metric summaries are merged by the
parent — see ``repro.harness.campaign``.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.obs.events import EVENT_SCHEMA, EventStream, Source, check_event
from repro.obs.metrics import MetricsRegistry
from repro.units import Seconds

__all__ = ["Observer", "render_events", "render_metrics"]


def _value(source: Source, detail: dict) -> Any:
    if isinstance(source, str):
        return detail[source]
    if callable(source):
        return source(detail)
    return source


class Observer:
    """Couples metrics and events for one observed scope (a transfer,
    a campaign cell, a CLI invocation)."""

    def __init__(self) -> None:
        self.metrics = MetricsRegistry()
        self.events = EventStream()

    def emit(self, time: Seconds, kind: str, **detail: Any) -> None:
        """Record one ``kind`` event at simulated ``time`` (seconds):
        bump the metrics its schema entry declares and append it to the
        stream (unless the kind is count-only)."""
        spec = check_event(kind, detail)
        metrics = self.metrics
        for name, source in spec.counters.items():
            metrics.counter(name.format_map(detail)).inc(_value(source, detail))
        for name, source in spec.gauges.items():
            metrics.gauge(name.format_map(detail)).set(_value(source, detail))
        for name, (source, bounds) in spec.histograms.items():
            metrics.histogram(name.format_map(detail), bounds).observe(
                _value(source, detail)
            )
        if spec.stream:
            self.events.emit(time, kind, **detail)

    def count(self, name: str, n: int = 1) -> None:
        """Add ``n`` to counter ``name``, for totals that are not
        decision-relevant moments (cache traffic, step totals). A zero
        ``n`` creates no counter, so snapshots only list what
        happened."""
        if n:
            self.metrics.counter(name).inc(n)

    # -- aggregation ----------------------------------------------------

    def summary(self) -> dict:
        """A JSON-safe, picklable summary (metrics snapshot plus event
        counts — the full event stream stays local)."""
        return {
            "metrics": self.metrics.snapshot(),
            "event_counts": self.events.kinds(),
            "events_total": len(self.events),
        }

    def merge_summary(self, summary: dict) -> None:
        """Fold a worker's :meth:`summary` into this observer's metrics."""
        self.metrics.merge_snapshot(summary.get("metrics", {}))


# ----------------------------------------------------------------------
# text rendering (CLI)
# ----------------------------------------------------------------------


def render_events(stream: EventStream, kind: Optional[str] = None) -> str:
    """The event stream as an aligned text table."""
    events = stream.filter(kind=kind)
    if not events:
        return "(no events)"
    lines = [f"{'seq':>5s}  {'time_s':>10s}  {'kind':<20s}  detail"]
    for event in events:
        lines.append(
            f"{event.seq:5d}  {event.time:10.2f}  {event.kind:<20s}  "
            f"{EVENT_SCHEMA[event.kind].line(event.detail)}"
        )
    counts = stream.kinds() if kind is None else {kind: len(events)}
    tally = ", ".join(f"{k}={v}" for k, v in sorted(counts.items()))
    lines.append(f"({len(events)} events: {tally})")
    return "\n".join(lines)


def render_metrics(summary: dict) -> str:
    """A metrics summary (one observer or a merged campaign) as text."""
    metrics = summary.get("metrics", summary)
    lines = []
    counters = metrics.get("counters", {})
    if counters:
        lines.append("counters:")
        for name, value in sorted(counters.items()):
            lines.append(f"  {name:<32s} {value:>14.10g}")
    gauges = metrics.get("gauges", {})
    if gauges:
        lines.append("gauges:")
        for name, value in sorted(gauges.items()):
            lines.append(f"  {name:<32s} {value:>14.10g}")
    histograms = metrics.get("histograms", {})
    if histograms:
        lines.append("histograms:")
        for name, data in sorted(histograms.items()):
            count = data["count"]
            mean = data["sum"] / count if count else 0.0
            lines.append(
                f"  {name:<32s} count={count:<8d} mean={mean:.4g}"
            )
    if "events_total" in summary:
        lines.append(f"events_total: {summary['events_total']}")
    return "\n".join(lines) if lines else "(no metrics)"
