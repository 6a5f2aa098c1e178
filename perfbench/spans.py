"""Spans around the simulator's layers, recorded from outside.

:func:`traced` replaces each traced public function or method at the
name its caller looks it up under with a wrapper that records one span
(layer name, start, end, parent index) per call, and puts every
original back on exit. Spans stay in memory; :func:`self_times` turns
them into per-layer self time (a span's duration minus the part its
child spans cover) and call counts.

The layers are named after the modules they time:

========================  =========================================
layer                     wrapped
========================  =========================================
``service``               ``ServiceSimulator.run``
``plan``                  ``repro.service.simulate.plan_for``
``sched``                 ``schedule`` of every ``DeferralPolicy``
``tariff``                ``TariffTrace`` price/carbon lookups
``multi.*``               ``MultiTransferSimulator`` stepping
``engine.*``              ``TransferEngine`` round methods
``alloc``                 ``repro.netsim.multi.refill``
``place``                 ``Placer.place`` / ``Placer.release``
``fleet.route``           ``repro.service.fleet.route_requests``
``fleet``                 ``FleetSimulator.run``
========================  =========================================
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import defaultdict
from collections.abc import Callable, Iterator

import repro.netsim.multi
import repro.service.fleet
import repro.service.simulate
from repro.netsim.engine import TransferEngine
from repro.netsim.multi import MultiTransferSimulator
from repro.service.fleet import FleetSimulator
from repro.service.scheduler import DeferralPolicy
from repro.service.simulate import ServiceSimulator
from repro.service.tariff import TariffTrace
from repro.topo.placement import Placer

#: A span: (layer, start, end, index of the parent span or -1).
Span = tuple[str, float, float, int]


def _advance_layer(args: tuple, kwargs: dict) -> str:
    """``advance_prepared(busy, rates, steps)``: one exact step or a
    macro-step, by the ``steps`` argument."""
    steps = args[3] if len(args) > 3 else kwargs["steps"]
    return "engine.advance_k1" if steps == 1 else "engine.advance_macro"


def _policy_classes() -> list[type]:
    found, todo = [], [DeferralPolicy]
    while todo:
        cls = todo.pop()
        found.append(cls)
        todo.extend(cls.__subclasses__())
    return [
        cls for cls in found
        if "schedule" in vars(cls)
        and not getattr(vars(cls)["schedule"], "__isabstractmethod__", False)
    ]


def targets() -> list[tuple[object, str, object]]:
    """Every ``(owner, attribute, layer)`` the traced run wraps. A layer
    is a name, or a function of the call's arguments returning one."""
    return [
        (ServiceSimulator, "run", "service"),
        (repro.service.simulate, "plan_for", "plan"),
        *((cls, "schedule", "sched") for cls in _policy_classes()),
        *((TariffTrace, name, "tariff") for name in (
            "plateau", "cost", "carbon", "price_at", "carbon_at",
            "next_change", "next_window_at_or_below",
        )),
        (MultiTransferSimulator, "run_until", "multi.run_until"),
        (MultiTransferSimulator, "step", "multi.step"),
        (MultiTransferSimulator, "submit", "multi.submit"),
        (TransferEngine, "prepare_step", "engine.prepare"),
        (TransferEngine, "stable_steps", "engine.horizon"),
        (TransferEngine, "count_stable_steps", "engine.horizon"),
        (TransferEngine, "demand_rate", "engine.demand"),
        (TransferEngine, "advance_prepared", _advance_layer),
        (repro.netsim.multi, "refill", "alloc"),
        (Placer, "place", "place"),
        (Placer, "release", "place"),
        (repro.service.fleet, "route_requests", "fleet.route"),
        (FleetSimulator, "run", "fleet"),
    ]


class Tracer:
    """In-memory span recorder; also keeps every
    :class:`MultiTransferSimulator` it saw stepping, whose public round
    counters the runner reads."""

    def __init__(self) -> None:
        self.spans: list[Span | None] = []
        self.simulators: dict[int, MultiTransferSimulator] = {}
        self._stack: list[int] = []

    def reset(self) -> None:
        """Drop recorded spans (in place: the wrappers hold the list)."""
        self.spans.clear()
        self.simulators.clear()
        self._stack.clear()

    def wrap(self, func: Callable, layer) -> Callable:
        spans = self.spans
        simulators = self.simulators
        stack = self._stack
        clock = time.perf_counter
        fixed = layer if isinstance(layer, str) else None

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            name = fixed if fixed is not None else layer(args, kwargs)
            if name.startswith("multi."):
                simulators.setdefault(id(args[0]), args[0])
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                return func(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)

        return wrapper


@contextlib.contextmanager
def traced(tracer: Tracer) -> Iterator[Tracer]:
    """Install every wrapper for the duration of the block and restore
    the originals afterwards, whatever happens inside."""
    saved: list[tuple[object, str, object]] = []
    try:
        for owner, attr, layer in targets():
            original = vars(owner)[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(original, layer))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def self_times(spans: list[Span | None]) -> tuple[dict[str, float], dict[str, int]]:
    """Per-layer self time (seconds) and call counts of closed spans."""
    own = [span[2] - span[1] for span in spans]
    for span in spans:
        if span[3] >= 0:
            own[span[3]] -= span[2] - span[1]
    seconds: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for span, value in zip(spans, own):
        seconds[span[0]] += value
        calls[span[0]] += 1
    return dict(seconds), dict(calls)
