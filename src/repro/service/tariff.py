"""Time-of-use electricity price and carbon-intensity traces.

The paper's economic pitch — providers "can possibly offer low-cost
data transfer options to their customers in return for delayed
transfers" — only produces *dollar* savings when the price of a joule
depends on **when** it is drawn. This module supplies that time axis:
a :class:`TariffTrace` is a periodic, piecewise-constant schedule of
electricity price ($/kWh) and grid carbon intensity (kgCO2/kWh),
shared by the service layer (per-step cost accounting, deferral
policies hunting cheap/green windows) and by
:func:`repro.analysis.projection.annual_projection` (provider-scale
annual projections).

Everything is deterministic and analytic: segment boundaries are
exposed through :meth:`TariffTrace.next_change` so both the service
scheduler and the engine-style event-horizon reasoning can jump
between plateaus instead of sampling.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field, replace

from repro.units import Joules, Seconds

__all__ = [
    "TariffTrace",
    "flat_tariff",
    "peak_offpeak_tariff",
    "green_midday_tariff",
    "TARIFF_PRESETS",
    "tariff_by_name",
    "JOULES_PER_KWH",
]

JOULES_PER_KWH = 3.6e6

#: One simulated "day" (the default trace period), seconds.
DAY_S = 86400.0


@dataclass(frozen=True)
class TariffTrace:
    """A periodic piecewise-constant price + carbon schedule.

    ``points`` is a sorted tuple of ``(offset_s, dollars_per_kwh,
    kg_co2_per_kwh)`` plateaus within one period; the first offset must
    be 0 so every instant is covered. Values at absolute time ``t``
    are looked up at ``t mod period_s``.
    """

    name: str
    points: tuple[tuple[float, float, float], ...]
    period_s: float = DAY_S
    #: Plateau offsets, cached once for bisection (derived from
    #: ``points``; excluded from comparison/repr).
    _offsets: tuple[float, ...] = field(
        init=False, repr=False, compare=False, default=()
    )

    def __post_init__(self) -> None:
        if self.period_s <= 0:
            raise ValueError("period_s must be > 0")
        if not self.points:
            raise ValueError("a tariff trace needs at least one plateau")
        offsets = [p[0] for p in self.points]
        if offsets[0] != 0.0:
            raise ValueError("the first plateau must start at offset 0")
        if offsets != sorted(offsets) or len(set(offsets)) != len(offsets):
            raise ValueError("plateau offsets must be strictly increasing")
        if offsets[-1] >= self.period_s:
            raise ValueError("plateau offsets must lie within the period")
        if any(price < 0 or carbon < 0 for _, price, carbon in self.points):
            raise ValueError("prices and carbon intensities must be >= 0")
        object.__setattr__(self, "_offsets", tuple(offsets))

    # -- lookups --------------------------------------------------------

    def _segment(self, t: float) -> tuple[float, float, float]:
        phase = t % self.period_s
        idx = bisect_right(self._offsets, phase) - 1
        return self.points[idx]

    def plateau(self, t: Seconds) -> tuple[float, float, Seconds]:
        """``(price $/kWh, carbon kgCO2/kWh, next boundary time)`` of
        the plateau in force at absolute time ``t`` (seconds).

        One lookup for callers that need all three — the service fast
        path bills whole macro-spans against a single plateau and uses
        the boundary as an event horizon. Unlike :meth:`next_change`
        (whose epsilon guard rounds a ``t`` sitting within 1e-12 of an
        edge *past* it), the boundary returned here is derived from the
        **same segment the price came from**, so every instant in
        ``[t, boundary)`` is guaranteed to price at the returned values
        — the invariant plateau-granular billing relies on.
        """
        if len(self.points) == 1:
            _offset, price, carbon = self.points[0]
            return price, carbon, math.inf
        phase = t % self.period_s
        idx = bisect_right(self._offsets, phase) - 1
        _offset, price, carbon = self.points[idx]
        if idx + 1 < len(self.points):
            boundary = t - phase + self._offsets[idx + 1]
        else:
            boundary = t - phase + self.period_s  # next period's offset 0
        return price, carbon, boundary

    def price_at(self, t: Seconds) -> float:
        """Electricity price ($/kWh) at absolute time ``t`` (seconds)."""
        return self._segment(t)[1]

    def carbon_at(self, t: Seconds) -> float:
        """Grid carbon intensity (kgCO2/kWh) at absolute time ``t``
        (seconds)."""
        return self._segment(t)[2]

    def next_change(self, t: Seconds) -> Seconds:
        """Absolute time (seconds) of the next plateau boundary strictly
        after ``t`` (``inf`` for a single-plateau trace)."""
        if len(self.points) == 1:
            return math.inf
        cycle = math.floor(t / self.period_s)
        phase = t - cycle * self.period_s
        for offset, _, _ in self.points:
            if offset > phase + 1e-12:
                return cycle * self.period_s + offset
        return (cycle + 1) * self.period_s  # wrap to the next period's 0

    # -- aggregates -----------------------------------------------------

    @property
    def mean_price(self) -> float:
        """Time-weighted average price over one period ($/kWh)."""
        return self._mean(1)

    @property
    def mean_carbon(self) -> float:
        """Time-weighted average carbon intensity (kgCO2/kWh)."""
        return self._mean(2)

    def _mean(self, column: int) -> float:
        total = 0.0
        for i, point in enumerate(self.points):
            end = (
                self.points[i + 1][0] if i + 1 < len(self.points) else self.period_s
            )
            total += point[column] * (end - point[0])
        return total / self.period_s

    @property
    def min_price(self) -> float:
        return min(p[1] for p in self.points)

    @property
    def min_carbon(self) -> float:
        return min(p[2] for p in self.points)

    # -- integration ----------------------------------------------------

    def _integrate(self, start: float, duration: float, column: int) -> float:
        """Integral of the selected column over ``[start, start +
        duration]`` divided by ``duration`` (the interval-average
        value).

        Walks the plateaus from ``start``'s phase, taking each span as a
        length within the period (an offset difference) and never as a
        difference of absolute times, and weights each plateau by its
        share ``span / duration`` of the run. A run inside one plateau
        (or on a one-plateau trace) therefore bills exactly at its
        value."""
        if duration <= 0 or len(self.points) == 1:
            return self._segment(start)[column]
        offsets = self._offsets
        phase = start % self.period_s
        idx = bisect_right(offsets, phase) - 1
        left = duration
        total = 0.0
        while left > 1e-12:
            edge = offsets[idx + 1] if idx + 1 < len(offsets) else self.period_s
            span = min(edge - phase, left)
            total += self.points[idx][column] * (span / duration)
            left -= span
            idx = (idx + 1) % len(offsets)
            phase = offsets[idx]
        return total

    def cost(self, joules: Joules, start: Seconds, duration: Seconds = 0.0) -> float:
        """Dollars for ``joules`` drawn uniformly over the interval.

        With ``duration=0`` the energy is priced at the instantaneous
        tariff. Energy is assumed uniformly spread — exact for the
        service loop (which integrates per step) and a first-order
        model for whole-transfer pricing.
        """
        if joules < 0:
            raise ValueError("joules must be >= 0")
        return joules / JOULES_PER_KWH * self._integrate(start, duration, 1)

    def carbon(self, joules: Joules, start: Seconds, duration: Seconds = 0.0) -> float:
        """kgCO2 for ``joules`` drawn uniformly over the interval
        (``start``/``duration`` in seconds)."""
        if joules < 0:
            raise ValueError("joules must be >= 0")
        return joules / JOULES_PER_KWH * self._integrate(start, duration, 2)

    # -- window search (deferral policies) ------------------------------

    def next_window_at_or_below(
        self, threshold: float, now: Seconds, *, carbon: bool = False
    ) -> Seconds:
        """Earliest ``t >= now`` whose plateau value is ``<=
        threshold`` (price by default, carbon with ``carbon=True``).

        Returns ``inf`` when no plateau in a full period qualifies —
        the caller should then run immediately rather than wait for a
        window that never comes.
        """
        column = 2 if carbon else 1
        t = now
        horizon = now + self.period_s
        while t < horizon + 1e-9:
            if self._segment(t)[column] <= threshold + 1e-12:
                return t
            nxt = self.next_change(t)
            if math.isinf(nxt):
                break
            t = nxt
        return math.inf

    # -- reshaping ------------------------------------------------------

    def scaled_to(self, period_s: Seconds) -> "TariffTrace":
        """The same shape compressed/stretched to a new period of
        ``period_s`` seconds.

        Lets tests and benchmarks run a whole "day" of tariff structure
        in minutes of simulated time without touching the trace shape.
        """
        if period_s <= 0:
            raise ValueError("period_s must be > 0")
        factor = period_s / self.period_s
        return replace(
            self,
            points=tuple((o * factor, p, c) for o, p, c in self.points),
            period_s=period_s,
        )

    def scaled(
        self, price_factor: float = 1.0, carbon_factor: float = 1.0
    ) -> "TariffTrace":
        """The same schedule with every plateau's price and carbon
        multiplied by the given factors.

        This is the chaos harness's tariff-spike primitive: a grid
        emergency that triples spot prices keeps the day's *shape*
        (peaks stay peaks) while shifting every level.
        """
        if price_factor < 0 or carbon_factor < 0:
            raise ValueError("tariff scale factors must be >= 0")
        return replace(
            self,
            name=f"{self.name}*{price_factor:g}/{carbon_factor:g}",
            points=tuple(
                (o, p * price_factor, c * carbon_factor) for o, p, c in self.points
            ),
        )


# ----------------------------------------------------------------------
# presets
# ----------------------------------------------------------------------


def _hours(*segments: tuple[float, float, float]) -> tuple[tuple[float, float, float], ...]:
    return tuple((h * 3600.0, price, carbon) for h, price, carbon in segments)


def flat_tariff(
    price: float = 0.08, carbon: float = 0.37, *, period_s: float = DAY_S
) -> TariffTrace:
    """A constant price/intensity repeating every ``period_s`` seconds;
    the defaults (0.08 $/kWh, 0.37 kgCO2/kWh, the US grid average) are
    the annual projection's default tariff."""
    return TariffTrace(name="flat", points=((0.0, price, carbon),), period_s=period_s)


def peak_offpeak_tariff(*, period_s: float = DAY_S) -> TariffTrace:
    """A classic demand-shaped retail schedule.

    Night (00-06, 22-24) is cheap and moderately clean; the midday/
    evening business block (12-20) is the expensive peak served by the
    dirtiest marginal generation. This is the trace that makes delayed
    transfers *worth money*: ENERGY-class jobs arriving at peak can be
    deferred ~2-10 h for a 3.2x price drop. ``period_s`` rescales the
    24 h structure onto a period of that many seconds.
    """
    trace = TariffTrace(
        name="peak-offpeak",
        points=_hours(
            (0.0, 0.05, 0.32),   # off-peak night
            (6.0, 0.09, 0.38),   # morning shoulder
            (12.0, 0.16, 0.45),  # peak
            (20.0, 0.09, 0.38),  # evening shoulder
            (22.0, 0.05, 0.32),  # back to off-peak
        ),
    )
    return trace if period_s == DAY_S else trace.scaled_to(period_s)


def green_midday_tariff(*, period_s: float = DAY_S) -> TariffTrace:
    """A solar-heavy grid: price mildly demand-shaped, carbon lowest in
    the 10-16 solar window and worst at the evening ramp — the trace
    the carbon-aware deferral policy is designed for. ``period_s``
    rescales the 24 h structure onto a period of that many seconds."""
    trace = TariffTrace(
        name="green-midday",
        points=_hours(
            (0.0, 0.07, 0.34),   # night
            (7.0, 0.09, 0.40),   # morning ramp
            (10.0, 0.08, 0.18),  # solar window
            (16.0, 0.12, 0.48),  # evening ramp (duck-curve neck)
            (21.0, 0.07, 0.34),  # night
        ),
    )
    return trace if period_s == DAY_S else trace.scaled_to(period_s)


#: Name -> factory accepting ``period_s`` (CLI / bench iteration).
TARIFF_PRESETS = {
    "flat": flat_tariff,
    "peak-offpeak": peak_offpeak_tariff,
    "green-midday": green_midday_tariff,
}


def tariff_by_name(name: str, *, period_s: float = DAY_S) -> TariffTrace:
    """Look up a preset trace, optionally rescaled to a period of
    ``period_s`` seconds."""
    try:
        factory = TARIFF_PRESETS[name]
    except KeyError:
        raise KeyError(
            f"unknown tariff {name!r}; known: {sorted(TARIFF_PRESETS)}"
        ) from None
    return factory(period_s=period_s)
