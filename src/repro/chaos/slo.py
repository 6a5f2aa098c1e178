"""SLO oracle: burn-rate budgets evaluated against a day's report.

A :class:`SLORule` names one service-level metric and its budget (the
worst value the operator tolerates for the scenario); an
:class:`SLOBudget` bundles the rules a scenario must hold under fault.
:meth:`SLOBudget.evaluate` reads the metrics off a finished
:class:`~repro.service.simulate.ServiceReport` or
:class:`~repro.service.fleet.FleetReport` (duck-typed — both expose
the same aggregate surface) and returns an :class:`SLOVerdict` with a
per-rule burn rate ``value / budget``: under 1.0 the rule holds, over
it the budget is burnt.

Unmeasurable metrics fail loudly: a ``None`` percentile (nothing
finished) or a cost-per-GB over zero bytes is an *infinite* burn, not
a pass — a day in which no job completed must never satisfy a latency
budget. This mirrors the ``_percentile`` empty-input contract
(``None``, not ``0.0``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Optional

from repro import units
from repro.obs.observer import Observer
from repro.units import Seconds

__all__ = ["SLO_METRICS", "SLORule", "SLOCheck", "SLOBudget", "SLOVerdict"]


def _miss_rate(report: Any) -> Optional[float]:
    return float(report.deadline_miss_rate)


def _p95_slowdown(report: Any) -> Optional[float]:
    value = report.p95_slowdown
    return None if value is None else float(value)


def _cost_per_gb(report: Any) -> Optional[float]:
    if report.total_bytes <= 0:
        return None
    return float(report.total_cost_usd) / units.to_GB(report.total_bytes)


def _unfinished_rate(report: Any) -> Optional[float]:
    total = len(report.jobs)
    if total == 0:
        return None
    return report.unfinished_jobs / total


def _mean_queue_wait(report: Any) -> Optional[float]:
    return float(report.mean_queue_wait_s)


#: metric name -> (extractor, unit label). The oracle's whole metric
#: vocabulary; ``SLORule`` rejects anything else at construction.
SLO_METRICS = {
    "miss_rate": (_miss_rate, "fraction"),
    "p95_slowdown": (_p95_slowdown, "x"),
    "cost_per_gb": (_cost_per_gb, "$/GB"),
    "unfinished_rate": (_unfinished_rate, "fraction"),
    "mean_queue_wait_s": (_mean_queue_wait, "s"),
}


@dataclass(frozen=True)
class SLORule:
    """One budgeted metric: the scenario holds while
    ``metric <= budget``."""

    metric: str
    budget: float

    def __post_init__(self) -> None:
        if self.metric not in SLO_METRICS:
            raise ValueError(
                f"unknown SLO metric {self.metric!r}; "
                f"known: {sorted(SLO_METRICS)}"
            )
        if self.budget <= 0:
            raise ValueError("SLO budget must be > 0")

    def check(self, report: Any) -> "SLOCheck":
        """Measure the metric on ``report`` and compute its burn."""
        extractor, _unit = SLO_METRICS[self.metric]
        value = extractor(report)
        burn = math.inf if value is None else value / self.budget
        return SLOCheck(
            metric=self.metric, value=value, budget=self.budget, burn=burn,
            passed=burn <= 1.0,
        )


@dataclass(frozen=True)
class SLOCheck:
    """One rule's measured outcome."""

    metric: str
    value: Optional[float]
    budget: float
    burn: float
    passed: bool

    def to_dict(self) -> dict:
        """JSON-safe dict; an infinite burn serializes as ``None``."""
        return {
            "metric": self.metric,
            "value": self.value,
            "budget": self.budget,
            "burn": None if math.isinf(self.burn) else self.burn,
            "passed": self.passed,
        }

    def render(self) -> str:
        """One human-readable line: value / budget (burn) ok|BREACH."""
        value = "n/a" if self.value is None else f"{self.value:.4g}"
        burn = "inf" if math.isinf(self.burn) else f"{self.burn:.2f}"
        state = "ok" if self.passed else "BREACH"
        return (
            f"{self.metric}: {value} / budget {self.budget:.4g} "
            f"(burn {burn}x) {state}"
        )


@dataclass(frozen=True)
class SLOBudget:
    """The rule set one scenario must hold."""

    name: str
    rules: tuple[SLORule, ...]

    def __post_init__(self) -> None:
        if not self.rules:
            raise ValueError("an SLO budget needs at least one rule")
        metrics = [rule.metric for rule in self.rules]
        if len(set(metrics)) != len(metrics):
            raise ValueError("duplicate metric in SLO budget")

    def evaluate(
        self,
        report: Any,
        *,
        observer: Optional[Observer] = None,
        time: Seconds = 0.0,
    ) -> "SLOVerdict":
        """Check every rule against ``report``; each breach is emitted
        as an ``slo_breach`` observer event (which also bumps the
        ``chaos.slo_breaches.*`` counters) when an observer is
        attached."""
        checks = tuple(rule.check(report) for rule in self.rules)
        for check in checks:
            if not check.passed and observer is not None:
                observer.emit(
                    time, "slo_breach", metric=check.metric,
                    value=check.value, budget=check.budget, burn=check.burn,
                )
        return SLOVerdict(budget=self.name, checks=checks)


@dataclass(frozen=True)
class SLOVerdict:
    """Every rule's outcome plus the scenario-level pass/fail."""

    budget: str
    checks: tuple[SLOCheck, ...] = field(default_factory=tuple)

    @property
    def passed(self) -> bool:
        return all(check.passed for check in self.checks)

    @property
    def breaches(self) -> tuple[SLOCheck, ...]:
        return tuple(check for check in self.checks if not check.passed)

    @property
    def max_burn(self) -> float:
        """The hottest rule's burn (how close — or far past — the
        worst budget the day ran)."""
        return max(check.burn for check in self.checks)

    def to_dict(self) -> dict:
        """JSON-safe dict; an infinite max burn serializes as ``None``."""
        return {
            "budget": self.budget,
            "passed": self.passed,
            "max_burn": None if math.isinf(self.max_burn) else self.max_burn,
            "checks": [check.to_dict() for check in self.checks],
        }

    def render(self) -> str:
        """Multi-line human-readable verdict with one line per rule."""
        verdict = "PASS" if self.passed else "FAIL"
        lines = [f"SLO {self.budget}: {verdict}"]
        lines.extend(f"  {check.render()}" for check in self.checks)
        return "\n".join(lines)
