"""Structured transfer-event stream and the event-kind schema.

Every *decision-relevant* moment of a transfer — a probe window with
its measured throughput/energy/score, an allocation change, a
``reArrangeChannels`` firing, a fast-path macro-step or a fixed-``dt``
fallback stretch, a work-stealing adoption, a server failure or
recovery — is appended to an :class:`EventStream` as a schema-checked
:class:`TransferEvent`.

:data:`EVENT_SCHEMA` is the one declaration of each event kind: its
required detail keys, the metrics an observed event bumps, and its
one-line text render. The schema is enforced at emit time: unknown
kinds and missing detail keys raise immediately, so a malformed
instrumentation call site fails in tests rather than producing an
unparseable archive. Events carry a monotone sequence number in
addition to the simulated time stamp because several events can share
one engine timestamp (e.g. a server failure and the channel closures
it causes) while their causal order still matters.
"""

from __future__ import annotations

import json
from collections.abc import Callable, Iterable, Iterator, Mapping, Set
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Union

from repro.units import to_mbps

__all__ = ["EVENT_SCHEMA", "EventKind", "TransferEvent", "EventStream",
           "check_event"]

#: Where a metric value comes from: a constant, the name of a detail
#: field, or a function of the whole detail dict.
Source = Union[int, str, Callable[[dict], float]]

#: Probe scores are Mbps^2/J; macro-step spans are seconds.
_SCORE_BUCKETS = (0.01, 0.1, 1.0, 10.0, 100.0, 1e3, 1e4, 1e5, 1e6)
_SPAN_BUCKETS = (0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0, 300.0, 1800.0)
#: Queue waits span seconds (compressed test days) to many hours.
_QUEUE_WAIT_BUCKETS = (1.0, 10.0, 60.0, 300.0, 1800.0, 3600.0, 4 * 3600.0,
                       12 * 3600.0, 86400.0)


def _plain(detail: dict) -> str:
    return ", ".join(f"{k}={v}" for k, v in detail.items())


@dataclass(frozen=True)
class EventKind:
    """The one declaration of an event kind.

    ``keys`` are the detail keys every event must carry; extra keys are
    allowed (forward compatibility). An observed event bumps the
    metrics below. Their names may hold ``{field}`` placeholders filled
    from the detail (``service.deferrals.{reason}``), and a
    :data:`Source` picks each value: ``counters`` add it, ``gauges``
    set it, ``histograms`` map a name to ``(source, bucket bounds)``.
    ``render`` is the kind's line in :func:`repro.obs.render_events`:
    a format string over the detail, or a function of it.
    ``stream=False`` kinds (high-volume engine-log entries) are counted
    but never appended to the stream.
    """

    keys: Set[str]
    counters: Mapping[str, Source] = field(default_factory=dict)
    gauges: Mapping[str, Source] = field(default_factory=dict)
    histograms: Mapping[str, tuple[Source, tuple[float, ...]]] = field(
        default_factory=dict
    )
    render: Union[str, Callable[[dict], str]] = _plain
    stream: bool = True

    def line(self, detail: dict) -> str:
        """The one-line text of an event with this ``detail``."""
        if isinstance(self.render, str):
            return self.render.format_map(detail)
        return self.render(detail)


def _fault_line(d: dict) -> str:
    facts = _plain(d["detail"])
    return f"{d['fault']}" + (f" ({facts})" if facts else "")


def _breach_line(d: dict) -> str:
    shown = "n/a" if d["value"] is None else f"{d['value']:.4g}"
    return (f"{d['metric']} {shown} > budget {d['budget']:.4g} "
            f"(burn {d['burn']:.2f}x)")


EVENT_SCHEMA: dict[str, EventKind] = {
    # algorithm-level decisions: an HTEE/SLAEE measurement window at
    # concurrency ``cc`` (bytes/s, joules, ranking score), a full
    # chunk -> channel-count allocation, SLAEE's reArrangeChannels.
    "probe_window": EventKind(
        {"algorithm", "cc", "throughput_bps", "joules", "score"},
        counters={"algo.probe_windows": 1},
        gauges={"algo.last_probe_cc": "cc"},
        histograms={"algo.probe_score": ("score", _SCORE_BUCKETS)},
        render=lambda d: (f"{d['algorithm']} cc={d['cc']} "
                          f"{to_mbps(d['throughput_bps']):8.1f} Mbps "
                          f"{d['joules']:9.1f} J  score={d['score']:.3f}"),
    ),
    "allocation_change": EventKind(
        {"allocation"},
        counters={"engine.allocation_changes": 1},
        gauges={"engine.last_allocation_total":
                lambda d: sum(d["allocation"].values())},
        render=lambda d: (f"total={sum(d['allocation'].values())} "
                          f"({_plain(d['allocation'])})"),
    ),
    "rearrange_channels": EventKind(
        {"algorithm", "extra_large"}, counters={"algo.rearrange_firings": 1}
    ),
    # engine stepping: ``steps`` whole dt-steps advanced analytically
    # over ``span_s`` seconds; a stretch of fixed-dt fallback steps
    # ended (one event per stretch; step totals are a counter).
    "macro_step": EventKind(
        {"steps", "span_s"},
        counters={"engine.macro_steps": 1, "engine.macro_stepped_dts": "steps"},
        histograms={"engine.macro_span_s": ("span_s", _SPAN_BUCKETS)},
        render="{steps} steps ({span_s:.2f} s)",
    ),
    "fixed_dt_fallback": EventKind(
        {"steps"}, counters={"engine.fallback_stretches": 1},
        render="{steps} fixed steps",
    ),
    # engine event log (repro.netsim.engine), each entry counted as
    # ``engine.events.<kind>``. channel_reassigned is a work-stealing
    # adoption; channel, chunk and link churn is counted only.
    "channel_reassigned": EventKind(
        {"from_chunk", "to_chunk"},
        counters={"engine.events.channel_reassigned": 1,
                  "engine.work_steals": 1},
    ),
    "channel_failed": EventKind(
        {"chunk"}, counters={"engine.events.channel_failed": 1}
    ),
    "server_failed": EventKind(
        {"side", "index"}, counters={"engine.events.server_failed": 1}
    ),
    "server_recovered": EventKind(
        {"side", "index"}, counters={"engine.events.server_recovered": 1}
    ),
    "channel_opened": EventKind(
        {"chunk"}, counters={"engine.events.channel_opened": 1}, stream=False
    ),
    "channel_closed": EventKind(
        {"chunk"}, counters={"engine.events.channel_closed": 1}, stream=False
    ),
    "chunk_drained": EventKind(
        {"chunk"}, counters={"engine.events.chunk_drained": 1}, stream=False
    ),
    "link_scaled": EventKind(
        {"scale"}, counters={"engine.events.link_scaled": 1}, stream=False
    ),
    "file_completed": EventKind(
        {"chunk", "count"}, counters={"engine.files_completed": "count"},
        stream=False,
    ),
    # service layer (repro.service.simulate): one event per
    # event-driven jump that macro-stepped, then the job lifecycle.
    "service_macro_step": EventKind(
        {"steps", "span_s", "rounds"},
        counters={"service.macro_steps": "rounds",
                  "service.macro_stepped_dts": "steps"},
        histograms={"service.macro_span_s": ("span_s", _SPAN_BUCKETS)},
        render="{steps} steps in {rounds} rounds ({span_s:.2f} s)",
    ),
    "job_submitted": EventKind(
        {"job", "tenant", "sla"}, counters={"service.jobs_submitted": 1},
        render="{job} tenant={tenant} sla={sla}",
    ),
    "job_deferred": EventKind(
        {"job", "until", "reason"},
        counters={"service.jobs_deferred": 1,
                  "service.deferrals.{reason}": 1},
        render="{job} until={until:.0f}s ({reason})",
    ),
    "job_admitted": EventKind(
        {"job", "queue_wait_s"},
        counters={"service.jobs_admitted": 1},
        histograms={"service.queue_wait_s":
                    ("queue_wait_s", _QUEUE_WAIT_BUCKETS)},
        render="{job} waited {queue_wait_s:.1f} s",
    ),
    "job_completed": EventKind(
        {"job", "duration_s", "energy_j", "cost_usd"},
        counters={"service.jobs_completed": 1},
        render="{job} in {duration_s:.1f} s, {energy_j:.0f} J, ${cost_usd:.4f}",
    ),
    "deadline_missed": EventKind(
        {"job", "deadline", "completion"},
        counters={"service.deadline_misses": 1},
        render="{job} deadline={deadline:.0f}s finished={completion:.0f}s",
    ),
    # fleet layer (repro.service.fleet); a shard's ``wall_s`` is real
    # execution time, not simulated seconds.
    "shard_started": EventKind(
        {"shard", "jobs"}, counters={"fleet.shard_starts": 1},
        render="{shard} with {jobs} jobs",
    ),
    "shard_completed": EventKind(
        {"shard", "jobs", "wall_s"},
        counters={"fleet.shard_completions": 1},
        histograms={"fleet.shard_wall_s": ("wall_s", _SPAN_BUCKETS)},
        render="{shard} {jobs} jobs in {wall_s:.2f} s wall",
    ),
    "job_routed": EventKind(
        {"job", "shard"},
        counters={"fleet.jobs_routed": 1, "fleet.shard_jobs.{shard}": 1},
        render="{job} -> {shard}",
    ),
    "work_stolen": EventKind(
        {"job", "from_shard", "to_shard"}, counters={"fleet.work_steals": 1},
        render="{job} {from_shard} -> {to_shard}",
    ),
    # chaos harness (repro.chaos). ``fault`` is the action kind
    # (link_brownout, ...) and ``detail`` its facts; a breach with
    # ``value=None`` had an unmeasurable metric (infinite burn).
    "fault_injected": EventKind(
        {"fault", "detail"},
        counters={"chaos.faults_injected": 1, "chaos.faults.{fault}": 1},
        render=_fault_line,
    ),
    "slo_breach": EventKind(
        {"metric", "value", "budget", "burn"},
        counters={"chaos.slo_breaches": 1, "chaos.slo_breaches.{metric}": 1},
        render=_breach_line,
    ),
    # topology layer (repro.topo via repro.netsim.multi): placements,
    # change-detected bottleneck loads (bytes/s), flows newly throttled
    # below their demand, and one event per stretch of allocation
    # rounds served entirely from cache.
    "job_placed": EventKind(
        {"job", "path", "policy"},
        counters={"topo.placements": 1, "topo.placements.{policy}": 1},
        render="{job} -> {path} ({policy})",
    ),
    "bottleneck_allocated": EventKind(
        {"bottleneck", "capacity", "flows", "rate"},
        counters={"topo.allocations": 1},
        gauges={"topo.bottleneck_load.{bottleneck}": "rate"},
        render=lambda d: (f"{d['bottleneck']} {to_mbps(d['rate']):.1f}/"
                          f"{to_mbps(d['capacity']):.1f} Mbps "
                          f"across {d['flows']} flow(s)"),
    ),
    "path_congested": EventKind(
        {"job", "path", "bottleneck", "demand", "rate"},
        counters={"topo.congestion_events": 1},
        render=lambda d: (f"{d['job']} on {d['path']} capped at "
                          f"{to_mbps(d['rate']):.1f} Mbps by "
                          f"{d['bottleneck']} (wanted "
                          f"{to_mbps(d['demand']):.1f})"),
    ),
    "allocation_cached": EventKind(
        {"rounds", "span_s"}, counters={"topo.alloc_cached_stretches": 1},
        render="{rounds} cached round(s) ({span_s:.2f} s)",
    ),
}


def check_event(kind: str, detail: Mapping) -> EventKind:
    """``kind``'s schema entry, after checking that it exists and that
    ``detail`` carries its required keys (``ValueError`` otherwise)."""
    spec = EVENT_SCHEMA.get(kind)
    if spec is None:
        raise ValueError(
            f"unknown event kind {kind!r}; known: {sorted(EVENT_SCHEMA)}"
        )
    missing = spec.keys - detail.keys()
    if missing:
        raise ValueError(
            f"event {kind!r} missing required detail keys: {sorted(missing)}"
        )
    return spec


@dataclass(frozen=True)
class TransferEvent:
    """One schema-checked entry of the observability event stream."""

    seq: int
    time: float
    kind: str
    detail: dict

    def to_dict(self) -> dict:
        """The event as a JSON-safe dict."""
        return {"seq": self.seq, "time": self.time, "kind": self.kind,
                "detail": self.detail}


class EventStream:
    """An append-only, schema-validated sequence of transfer events."""

    def __init__(self) -> None:
        self._events: list[TransferEvent] = []

    # -- emission -------------------------------------------------------

    def emit(self, time: float, kind: str, **detail) -> TransferEvent:
        """Append one event, validating it against :data:`EVENT_SCHEMA`."""
        check_event(kind, detail)
        event = TransferEvent(seq=len(self._events), time=time, kind=kind,
                              detail=detail)
        self._events.append(event)
        return event

    def extend(self, other: "EventStream") -> None:
        """Append every event of ``other`` (re-sequenced to stay monotone)."""
        for event in other:
            self._events.append(
                TransferEvent(seq=len(self._events), time=event.time,
                              kind=event.kind, detail=event.detail)
            )

    # -- access ---------------------------------------------------------

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[TransferEvent]:
        return iter(self._events)

    def __getitem__(self, index):
        return self._events[index]

    @property
    def events(self) -> list[TransferEvent]:
        return list(self._events)

    def filter(
        self, kind: Optional[str] = None, since: Optional[float] = None
    ) -> list[TransferEvent]:
        """Events matching the given kind and/or minimum time."""
        result = self._events
        if kind is not None:
            result = [e for e in result if e.kind == kind]
        if since is not None:
            result = [e for e in result if e.time >= since]
        return list(result)

    def kinds(self) -> dict[str, int]:
        """Event counts per kind."""
        counts: dict[str, int] = {}
        for event in self._events:
            counts[event.kind] = counts.get(event.kind, 0) + 1
        return counts

    # -- validation -----------------------------------------------------

    def validate(self) -> None:
        """Re-check the whole stream: schema conformance and monotone
        sequence numbers (raises ``ValueError`` on the first violation)."""
        for i, event in enumerate(self._events):
            if event.seq != i:
                raise ValueError(f"non-monotone event sequence at index {i}")
            check_event(event.kind, event.detail)

    # -- serialization --------------------------------------------------

    def to_dicts(self) -> list[dict]:
        """Every event as a JSON-safe dict, in sequence order."""
        return [e.to_dict() for e in self._events]

    def save_jsonl(self, path: Path | str) -> Path:
        """Write the stream as one JSON object per line."""
        path = Path(path)
        with path.open("w") as handle:
            for event in self._events:
                handle.write(json.dumps(event.to_dict()) + "\n")
        return path

    @classmethod
    def from_dicts(cls, records: Iterable[dict]) -> "EventStream":
        """Rebuild (and re-validate) a stream from :meth:`to_dicts` output."""
        stream = cls()
        for record in records:
            stream.emit(float(record["time"]), str(record["kind"]),
                        **dict(record["detail"]))
        return stream
