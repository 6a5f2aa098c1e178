"""Observability: process-local metrics and a structured event stream.

The measurement layer the paper's algorithms deserve: HTEE's probe
ladder, SLAEE's SLA windows, the engine's fast-path/fixed-``dt`` duel,
work stealing and failure handling all report here when an
:class:`Observer` is active (``engine_options(observe=...)``), and
report *nothing* — at one pointer check per site — when it is not.

See DESIGN.md, "Observability", for the event taxonomy and the
overhead guarantees.
"""

from repro.obs.events import EVENT_SCHEMA, EventKind, EventStream, TransferEvent
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    merge_summaries,
)
from repro.obs.observer import Observer, render_events, render_metrics

__all__ = [
    "EVENT_SCHEMA",
    "EventKind",
    "EventStream",
    "TransferEvent",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "merge_summaries",
    "Observer",
    "render_events",
    "render_metrics",
]
