"""Network-wide max-min allocation: the progressive-filling allocator
must match the analytic (weighted, demand-capped) max-min fair shares
on graphs small enough to solve by hand, attribute each throttled flow
to its binding bottleneck, never over-subscribe a hop, and be
bit-deterministic across calls."""

import pytest

from repro.topo import (
    AllocationResult,
    FlowDemand,
    allocate,
    from_edges,
)


def topo2():
    """b1 (cap 10) and b2 (cap 6) in series: the textbook two-hop
    example where iterating registered rates under-allocates but true
    max-min gives the b1-only flow the capacity f2 cannot use."""
    return from_edges(
        [("b1", 10.0), ("b2", 6.0)],
        {
            "p1": ("a", "b", ["b1"]),
            "p2": ("a", "c", ["b1", "b2"]),
            "p3": ("b", "c", ["b2"]),
        },
    )


def one_hop(capacity, demands, weights=None):
    """Weighted max-min division of one hop's capacity: ``allocate``
    over a single bottleneck, as a flow -> rate dict."""
    topo = from_edges([("hop", capacity)], {"p": ("a", "b", ["hop"])})
    weights = weights or {}
    result = allocate(
        topo,
        [
            FlowDemand(flow, ("hop",), demand, weights.get(flow, 1.0))
            for flow, demand in demands.items()
        ],
    )
    return result.rates


class TestWaterFill:
    def test_demand_capped_shares(self):
        assert one_hop(12.0, {"a": 2.0, "b": 5.0, "c": 10.0}) == {
            "a": 2.0,
            "b": 5.0,
            "c": 5.0,
        }

    def test_weighted_shares(self):
        shares = one_hop(
            8.0, {"a": 10.0, "b": 10.0}, {"a": 1.0, "b": 3.0}
        )
        assert shares == {"a": 2.0, "b": 6.0}

    def test_all_satisfied_below_capacity(self):
        assert one_hop(100.0, {"a": 3.0, "b": 4.0}) == {
            "a": 3.0,
            "b": 4.0,
        }

    def test_empty_and_invalid(self):
        assert one_hop(5.0, {}) == {}
        with pytest.raises(ValueError):
            one_hop(-1.0, {"a": 1.0})


class TestAllocateAnalytic:
    def test_two_bottleneck_max_min(self):
        """f1 on b1 only, f2 on b1+b2, f3 on b2 only, all demanding 8:
        the level rises to 3 (b2 saturates, freezing f2 and f3), then
        f1 takes the rest of b1 -> (7, 3, 3)."""
        result = allocate(
            topo2(),
            [
                FlowDemand("f1", ("b1",), 8.0),
                FlowDemand("f2", ("b1", "b2"), 8.0),
                FlowDemand("f3", ("b2",), 8.0),
            ],
        )
        assert result.rates == {"f1": 7.0, "f2": 3.0, "f3": 3.0}
        assert result.binding == {"f1": "b1", "f2": "b2", "f3": "b2"}
        assert result.bottleneck_load == {"b1": 10.0, "b2": 6.0}
        assert result.congested_flows == ["f1", "f2", "f3"]

    def test_parking_lot_symmetric(self):
        """Three hops of capacity 9, one long flow over all of them
        plus one short flow per hop: every flow gets 4.5."""
        topo = from_edges(
            [("L1", 9.0), ("L2", 9.0), ("L3", 9.0)],
            {"p": ("a", "d", ["L1", "L2", "L3"])},
        )
        result = allocate(
            topo,
            [
                FlowDemand("long", ("L1", "L2", "L3"), 100.0),
                FlowDemand("s1", ("L1",), 100.0),
                FlowDemand("s2", ("L2",), 100.0),
                FlowDemand("s3", ("L3",), 100.0),
            ],
        )
        assert result.rates == {
            "long": 4.5,
            "s1": 4.5,
            "s2": 4.5,
            "s3": 4.5,
        }

    def test_parking_lot_asymmetric(self):
        """L1=10, L2=4: the long flow is pinned at 2 by the thin hop,
        and the L1-only short flow *must* inherit the freed capacity
        (8, not 5) — the case a registered-rate iteration gets wrong."""
        topo = from_edges(
            [("L1", 10.0), ("L2", 4.0)],
            {"p": ("a", "c", ["L1", "L2"])},
        )
        result = allocate(
            topo,
            [
                FlowDemand("long", ("L1", "L2"), 100.0),
                FlowDemand("s1", ("L1",), 100.0),
                FlowDemand("s2", ("L2",), 100.0),
            ],
        )
        assert result.rates == {"long": 2.0, "s1": 8.0, "s2": 2.0}
        assert result.binding["long"] == "L2"
        assert result.binding["s1"] == "L1"

    def test_weighted_single_hop(self):
        topo = from_edges([("b", 8.0)], {"p": ("a", "c", ["b"])})
        result = allocate(
            topo,
            [
                FlowDemand("a", ("b",), 10.0, weight=1.0),
                FlowDemand("b", ("b",), 10.0, weight=3.0),
            ],
        )
        assert result.rates == {"a": 2.0, "b": 6.0}

    def test_demand_limited_flows_bind_nowhere(self):
        topo = from_edges([("b", 8.0)], {"p": ("a", "c", ["b"])})
        result = allocate(
            topo,
            [FlowDemand("a", ("b",), 2.0), FlowDemand("b", ("b",), 3.0)],
        )
        assert result.rates == {"a": 2.0, "b": 3.0}
        assert result.binding == {"a": None, "b": None}
        assert result.congested_flows == []

    def test_zero_demand_flow(self):
        result = allocate(topo2(), [FlowDemand("idle", ("b1",), 0.0)])
        assert result.rates == {"idle": 0.0}
        assert result.binding == {"idle": None}


class TestAllocateProperties:
    def flows(self, n=12):
        routes = [("b1",), ("b1", "b2"), ("b2",)]
        return [
            FlowDemand(f"f{i:02d}", routes[i % 3], 1.0 + (i % 5))
            for i in range(n)
        ]

    def test_no_bottleneck_over_subscribed(self):
        topo = topo2()
        result = allocate(topo, self.flows())
        for hop, load in result.bottleneck_load.items():
            assert load <= topo.capacity(hop) * (1 + 1e-9)

    def test_rate_never_exceeds_demand(self):
        result = allocate(topo2(), self.flows())
        for flow, rate in result.rates.items():
            assert rate <= result.demands[flow] + 1e-12

    def test_deterministic_and_order_independent(self):
        topo = topo2()
        forward = allocate(topo, self.flows())
        backward = allocate(topo, list(reversed(self.flows())))
        assert forward == backward

    def test_utilization(self):
        topo = topo2()
        result = allocate(
            topo,
            [
                FlowDemand("f1", ("b1",), 8.0),
                FlowDemand("f2", ("b1", "b2"), 8.0),
                FlowDemand("f3", ("b2",), 8.0),
            ],
        )
        assert result.utilization(topo) == {"b1": 1.0, "b2": 1.0}

    def test_bottleneck_flow_counts(self):
        result = allocate(topo2(), self.flows(6))
        assert result.bottleneck_flows == {"b1": 4, "b2": 4}

    def test_empty_flows(self):
        result = allocate(topo2(), [])
        assert result == AllocationResult(
            rates={}, demands={}, binding={}, bottleneck_load={}, rounds=0
        )

    def test_duplicate_flow_id_raises(self):
        with pytest.raises(ValueError, match="duplicate flow id"):
            allocate(
                topo2(),
                [
                    FlowDemand("f", ("b1",), 1.0),
                    FlowDemand("f", ("b2",), 1.0),
                ],
            )

    def test_flow_demand_validation(self):
        with pytest.raises(ValueError, match="empty path"):
            FlowDemand("f", (), 1.0)
        with pytest.raises(ValueError, match="demand"):
            FlowDemand("f", ("b1",), -1.0)
        with pytest.raises(ValueError, match="weight"):
            FlowDemand("f", ("b1",), 1.0, weight=0.0)
