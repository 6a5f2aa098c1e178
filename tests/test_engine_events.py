"""Engine events, as the engine's observer receives them."""

from dataclasses import dataclass

import pytest

from repro import units
from repro.datasets.files import FileInfo
from repro.netsim.disk import ParallelDisk
from repro.netsim.endpoint import EndSystem, ServerSpec
from repro.netsim.engine import ChunkPlan, TransferEngine
from repro.netsim.link import NetworkPath
from repro.netsim.params import TransferParams
from repro.obs import Observer


@dataclass(frozen=True)
class Logged:
    time: float
    kind: str
    detail: dict


class RecordingObserver(Observer):
    """Keeps every emitted event in order, count-only kinds included
    (the stream drops those)."""

    def __init__(self) -> None:
        super().__init__()
        self.log: list[Logged] = []

    def emit(self, time, kind, **detail):
        self.log.append(Logged(time, kind, detail))
        super().emit(time, kind, **detail)


def build_engine(server_count=2, **kwargs) -> TransferEngine:
    server = ServerSpec(
        name="s", cores=4, tdp_watts=100.0, nic_rate=units.gbps(1),
        disk=ParallelDisk(50e6, 200e6), per_channel_rate=50e6, core_rate=200e6,
        per_file_overhead=0.0,
    )
    site = EndSystem("site", server, server_count)
    path = NetworkPath(bandwidth=units.gbps(1), rtt=units.ms(5), tcp_buffer=8 * units.MB)
    return TransferEngine(path, site, site, lambda s, u: 5.0, dt=0.1,
                          observer=RecordingObserver(), **kwargs)


def plan(name="c", n=5, size=5 * units.MB, cc=2):
    files = tuple(FileInfo(f"{name}{i}", int(size)) for i in range(n))
    return ChunkPlan(name, files, TransferParams(concurrency=cc))


def events(engine):
    return engine.observer.log


def kinds(engine):
    return [e.kind for e in events(engine)]


class TestEventLog:
    def test_channel_lifecycle_events(self):
        engine = build_engine()
        engine.add_chunk(plan(cc=2))
        assert kinds(engine).count("channel_opened") == 2
        engine.set_chunk_channels("c", 1)
        assert kinds(engine).count("channel_closed") == 1

    @pytest.mark.parametrize("fast_path", [True, False], ids=["fast", "grid"])
    def test_file_and_chunk_completion_events(self, fast_path):
        engine = build_engine(fast_path=fast_path)
        engine.add_chunk(plan(n=4, cc=2))
        engine.run()
        file_events = [e for e in events(engine) if e.kind == "file_completed"]
        assert sum(e.detail["count"] for e in file_events) == 4
        assert kinds(engine).count("chunk_drained") == 1

    def test_reassignment_event_on_steal(self):
        engine = build_engine()
        engine.add_chunk(plan("fast", n=1, cc=1))
        engine.add_chunk(plan("slow", n=4, cc=0), open_channels=False)
        engine.run()
        reassignments = [e for e in events(engine) if e.kind == "channel_reassigned"]
        assert reassignments
        assert reassignments[0].detail == {"from_chunk": "fast", "to_chunk": "slow"}

    def test_failure_and_recovery_events(self):
        engine = build_engine()
        engine.add_chunk(plan(n=30, size=10 * units.MB, cc=4))
        engine.run(0.3)
        engine.fail_server("src", 0, downtime=0.5)
        engine.run(1.0)
        assert "server_failed" in kinds(engine)
        assert "server_recovered" in kinds(engine)
        failed = next(e for e in events(engine) if e.kind == "server_failed")
        assert failed.detail["side"] == "src"
        assert failed.detail["channels_lost"] >= 1

    def test_channel_failure_event(self):
        engine = build_engine()
        engine.add_chunk(plan(n=10, size=20 * units.MB, cc=2))
        engine.run(0.3)
        victim = next(c for c in engine.channels if c.busy)
        engine.fail_channel(victim, restart_file=True)
        event = next(e for e in events(engine) if e.kind == "channel_failed")
        assert event.detail["restart_file"] is True

    def test_events_are_time_ordered(self):
        engine = build_engine()
        engine.add_chunk(plan(n=8, cc=2))
        engine.run()
        times = [e.time for e in events(engine)]
        assert times == sorted(times)


class TestEventCausalOrdering:
    """Failure events precede the state changes they cause."""

    def test_channel_failed_precedes_its_channel_closed(self):
        engine = build_engine()
        engine.add_chunk(plan(n=10, size=20 * units.MB, cc=2))
        engine.run(0.3)
        victim = next(c for c in engine.channels if c.busy)
        engine.fail_channel(victim)
        sequence = kinds(engine)
        assert "channel_failed" in sequence
        assert "channel_closed" in sequence
        assert sequence.index("channel_failed") < sequence.index("channel_closed")

    def test_server_failed_precedes_closures_and_reopens(self):
        engine = build_engine()
        engine.add_chunk(plan(n=30, size=10 * units.MB, cc=4))
        engine.run(0.3)
        mark = len(events(engine))
        engine.fail_server("src", 0, downtime=0.5)
        tail = [e.kind for e in events(engine)[mark:]]
        assert tail[0] == "server_failed"
        lost = next(
            e for e in events(engine) if e.kind == "server_failed"
        ).detail["channels_lost"]
        # every closure (and the reopen replacing it) comes after
        assert tail.count("channel_closed") == lost
        assert tail.count("channel_opened") == lost
        first_closed = tail.index("channel_closed")
        assert first_closed > 0

    def test_channel_failure_events_all_logged_at_same_time(self):
        engine = build_engine()
        engine.add_chunk(plan(n=10, size=20 * units.MB, cc=2))
        engine.run(0.3)
        victim = next(c for c in engine.channels if c.busy)
        mark = len(events(engine))
        engine.fail_channel(victim)
        assert len({e.time for e in events(engine)[mark:]}) == 1


class TestWorkStealingAdoption:
    """A stolen channel adopts the target chunk's pp/p parameters."""

    def test_reassigned_channel_adopts_target_params(self):
        engine = build_engine()
        files_fast = tuple(FileInfo(f"f{i}", 2 * units.MB) for i in range(2))
        files_slow = tuple(FileInfo(f"s{i}", 30 * units.MB) for i in range(6))
        engine.add_chunk(
            ChunkPlan("fast", files_fast, TransferParams(pipelining=1, parallelism=1, concurrency=1))
        )
        engine.add_chunk(
            ChunkPlan("slow", files_slow, TransferParams(pipelining=8, parallelism=4, concurrency=1))
        )
        engine.run()
        reassigned = [e for e in events(engine) if e.kind == "channel_reassigned"]
        assert reassigned and reassigned[0].detail["to_chunk"] == "slow"
        # after the steal the channel carries the slow chunk's parameters
        stolen = engine.channels_for("slow")
        assert all(c.pipelining == 8 and c.parallelism == 4 for c in stolen)

    def test_registry_follows_reassignment(self):
        engine = build_engine()
        files_fast = tuple(FileInfo(f"f{i}", 2 * units.MB) for i in range(2))
        files_slow = tuple(FileInfo(f"s{i}", 30 * units.MB) for i in range(6))
        engine.add_chunk(ChunkPlan("fast", files_fast, TransferParams(concurrency=1)))
        engine.add_chunk(ChunkPlan("slow", files_slow, TransferParams(concurrency=1)))
        engine.run()
        # per-chunk registry stayed consistent through the steal
        assert engine.channels_for("fast") == []
        assert len(engine.channels_for("slow")) == 2
        assert sorted(map(id, engine.channels)) == sorted(
            map(id, engine.channels_for("slow"))
        )
