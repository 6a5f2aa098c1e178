"""Data-channel state machine.

A channel is one GridFTP-style data connection: it repeatedly pulls the
next file off its chunk's queue, streams its bytes (possibly over
several parallel TCP streams), and pays a control-channel gap between
files. Pipelining level ``pp`` keeps ``pp`` file requests in flight, so
the acknowledgement round-trip is amortized to ``RTT / pp`` per file —
this is the entire throughput benefit of pipelining for small files
(Section 2.1) and the entire energy cost of not using it (idle,
powered-up end systems waiting on ACKs).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from repro.datasets.files import FileInfo

__all__ = ["FileProgress", "Channel", "StepOutcome"]


@dataclass(slots=True)
class FileProgress:
    """A file with transfer progress attached (bytes still to move)."""

    file: FileInfo
    remaining: float

    @classmethod
    def fresh(cls, file: FileInfo) -> "FileProgress":
        return cls(file=file, remaining=float(file.size))


@dataclass(slots=True)
class StepOutcome:
    """What one channel did during one engine step."""

    bytes_moved: float = 0.0
    files_completed: int = 0


@dataclass(eq=False, slots=True)  # identity semantics: two channels are never "equal"
class Channel:
    """One live data channel bound to a chunk and a server pair.

    The channel is a small explicit state machine advanced by
    :meth:`advance`: it is either in a *control gap* (``gap_remaining``
    seconds of zero payload), mid-file, or idle waiting for work.
    """

    chunk_name: str
    parallelism: int
    pipelining: int
    src_server: int
    dst_server: int
    rtt: float
    setup_delay: float = 0.0
    file_overhead: float = 0.0
    #: Control-channel round trips a file costs without pipelining
    #: (command, transfer-complete acknowledgement, next command).
    control_rtt_factor: float = 2.5
    current: Optional[FileProgress] = None
    gap_remaining: float = field(default=0.0)
    #: Control-channel stall after each file completion (seconds).
    #: Without pipelining every file pays ``control_rtt_factor`` RTTs
    #: of control-channel exchange; pipelining level ``pp`` keeps
    #: ``pp`` requests in flight, overlapping that exchange with the
    #: next transfers, so each file pays ``factor * RTT / pp`` on
    #: average. The end-system per-file overhead (``file_overhead``,
    #: filesystem metadata etc.) cannot be pipelined away. Computed at
    #: construction and by :meth:`retune`, the one way a channel's
    #: pipelining changes.
    per_file_gap: float = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.parallelism < 1 or self.pipelining < 1:
            raise ValueError("parallelism and pipelining must be >= 1")
        if self.rtt < 0 or self.setup_delay < 0 or self.file_overhead < 0:
            raise ValueError("rtt, setup_delay and file_overhead must be >= 0")
        # Opening a channel costs a control-channel round trip before the
        # first byte flows (connection establishment + authentication).
        self.gap_remaining = self.rtt + self.setup_delay
        self.per_file_gap = self._file_gap()

    def _file_gap(self) -> float:
        return self.control_rtt_factor * self.rtt / self.pipelining + self.file_overhead

    def retune(self, chunk_name: str, parallelism: int, pipelining: int) -> None:
        """Re-bind the channel to another chunk's transfer parameters
        (work stealing) and recompute its :attr:`per_file_gap`."""
        if parallelism < 1 or pipelining < 1:
            raise ValueError("parallelism and pipelining must be >= 1")
        self.chunk_name = chunk_name
        self.parallelism = parallelism
        self.pipelining = pipelining
        self.per_file_gap = self._file_gap()

    @property
    def transferring(self) -> bool:
        """True when the channel would move payload bytes right now."""
        return self.current is not None and self.gap_remaining <= 0.0

    @property
    def busy(self) -> bool:
        """True when the channel holds a file (even if inside a gap)."""
        return self.current is not None

    def time_to_completion(self, rate: float) -> float:
        """Seconds until the in-flight file completes at payload ``rate``.

        The pending control-channel gap is served before payload flows,
        so the completion horizon is ``gap_remaining + remaining/rate``.
        Returns ``inf`` when the channel holds no file or is stalled
        (``rate <= 0``) — no completion event will ever fire from this
        state without external change. Used by the engine's event-horizon
        fast path to find the next state change.
        """
        if self.current is None or rate <= 0.0:
            return math.inf
        return self.gap_remaining + self.current.remaining / rate

    def take_from(self, queue) -> bool:
        """Pull the next file from ``queue`` (a deque of FileProgress).

        Returns True if a file was acquired.
        """
        if self.current is not None:
            return True
        if not queue:
            return False
        self.current = queue.popleft()
        return True

    def release_to(self, queue) -> None:
        """Return the in-progress file to the front of ``queue``.

        Used when the adaptive algorithms close a channel mid-file: no
        bytes are lost, the remainder is picked up by another channel.
        """
        if self.current is not None:
            queue.appendleft(self.current)
            self.current = None

    def advance(self, rate: float, dt: float, queue) -> StepOutcome:
        """Advance the channel ``dt`` seconds at payload rate ``rate``.

        Processes as many gap/transfer transitions as fit in the step,
        so channels chewing through many small files per step are
        handled exactly rather than one-file-per-step.
        """
        return StepOutcome(*self._advance(rate, dt, queue))

    def _advance(self, rate: float, dt: float, queue) -> tuple[float, int]:
        """:meth:`advance` as a ``(bytes moved, files completed)`` pair
        (the engine's per-step call, which needs no outcome object)."""
        if rate < 0 or dt < 0:
            raise ValueError("rate and dt must be >= 0")
        # the state lives in locals for the loop and is stored back once
        current = self.current
        gap = self.gap_remaining
        bytes_moved = 0.0
        files_completed = 0
        time_left = dt
        while time_left > 1e-12:
            if gap > 0.0:
                consumed = time_left if time_left < gap else gap  # min()
                gap -= consumed
                time_left -= consumed
                continue
            if current is None:
                if not queue:
                    break  # queue drained; channel idles out the step
                current = queue.popleft()
            if rate <= 0.0:
                break  # stalled by allocation; gap time still elapsed above
            time_to_finish = current.remaining / rate
            if time_to_finish > time_left:
                moved = rate * time_left
                current.remaining -= moved
                bytes_moved += moved
                time_left = 0.0
            else:
                bytes_moved += current.remaining
                time_left -= time_to_finish
                current = None
                files_completed += 1
                gap = self.per_file_gap
        self.current = current
        self.gap_remaining = gap
        return bytes_moved, files_completed
