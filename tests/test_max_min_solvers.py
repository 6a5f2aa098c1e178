"""The two weighted max-min solvers agree.

``netsim/engine.py::_max_min_fill`` allocates an engine's channels over
its shared capacities (link, each server's NIC and disk);
``topo/alloc.py::_solve_scalar`` allocates fabric flows over their
bottleneck hops. Both are weighted progressive filling, so on the same
caps, groups and weights they must give the same rates. A channel's own
cap is a flow's demand, and a shared capacity is a hop whose flows are
the group's members.
"""

import random

import pytest

from repro.netsim.engine import _max_min_fill
from repro.topo.alloc import _solve_scalar

#: Seeds of :func:`_case` on which ``_max_min_fill`` stops early (see
#: :meth:`TestSolversAgree.test_known_stall`).
KNOWN_STALLS = (1405,)


def _case(seed: int):
    """Random caps (1e5..1e9), integer weights (1..8) and groups: one
    over every flow (the link) plus up to four random subsets."""
    rng = random.Random(seed)
    flows = list(range(rng.randint(1, 8)))
    caps = {k: 10 ** rng.uniform(5, 9) for k in flows}
    weights = {k: float(rng.randint(1, 8)) for k in flows}
    groups = [(10 ** rng.uniform(5, 9.5), list(flows))]
    for _ in range(rng.randint(0, 4)):
        members = [k for k in flows if rng.random() < 0.5]
        if members:
            groups.append((10 ** rng.uniform(5, 9.5), members))
    return caps, groups, weights


def _scalar(caps, groups, weights) -> dict[int, float]:
    """``_solve_scalar`` on the engine's inputs, keyed like them."""
    name = {k: f"f{k}" for k in caps}
    paths: dict[str, list[str]] = {name[k]: [] for k in caps}
    by_hop: dict[str, list[str]] = {}
    capacities: dict[str, float] = {}
    for i, (capacity, members) in enumerate(groups):
        hop = f"g{i:02d}"
        capacities[hop] = capacity
        by_hop[hop] = [name[k] for k in members]
        for k in members:
            paths[name[k]].append(hop)
    rates, _binding, _levels, _rounds = _solve_scalar(
        {name[k]: cap for k, cap in caps.items()},
        {name[k]: w for k, w in weights.items()},
        {flow: tuple(hops) for flow, hops in paths.items()},
        by_hop,
        capacities,
        max_rounds=10_000,
    )
    return {k: rates[name[k]] for k in caps}


def _disagreement(caps, groups, weights) -> list[tuple[int, float, float]]:
    """``(flow, fill rate, scalar rate)`` of every flow whose two rates
    differ by more than 1e-9 relative."""
    fill = _max_min_fill(caps, groups, weights)
    scalar = _scalar(caps, groups, weights)
    return [
        (k, fill[k], scalar[k])
        for k in caps
        if abs(fill[k] - scalar[k]) > 1e-9 * max(abs(fill[k]), abs(scalar[k]))
    ]


class TestSolversAgree:
    def test_random_cases(self):
        seeds = [seed for seed in range(2000) if seed not in KNOWN_STALLS]
        failed = {seed: d for seed in seeds if (d := _disagreement(*_case(seed)))}
        assert failed == {}

    def test_rates_fit_every_group(self):
        for seed in range(200):
            caps, groups, weights = _case(seed)
            fill = _max_min_fill(caps, groups, weights)
            assert all(fill[k] <= caps[k] * (1 + 1e-12) for k in caps)
            for capacity, members in groups:
                assert sum(fill[k] for k in members) <= capacity * (1 + 1e-12)

    @pytest.mark.xfail(
        strict=True,
        reason=(
            "_max_min_fill stops at an absolute 1e-9 epsilon: a group that "
            "saturates with a 3.7e-9 float residue (3.4e7 capacity) caps the "
            "next raise at 7.5e-10, which ends the fill, so flows outside that "
            "group freeze far below their share (flow 0: 3.98e7 vs 1.92e8)"
        ),
    )
    @pytest.mark.parametrize("seed", KNOWN_STALLS)
    def test_known_stall(self, seed):
        assert _disagreement(*_case(seed)) == []
