"""Reliable per-hop transport: acks, bounded retransmission, parking.

The sketch-based distributed-streams literature (PAPERS.md,
arXiv:1207.0139) costs communication protocols *under retransmission*;
the paper's own Figure 11 message curves are only honest under loss if
every retry and acknowledgement is charged.  This module provides the
ack/retransmit shim the :class:`~repro.network.simulator.NetworkSimulator`
inserts between node behaviours and its ``_drain`` loop when given a
:class:`TransportConfig`:

* every data message gets a sequence number and is tracked until a
  per-hop :class:`~repro.network.messages.Ack` returns;
* a missing ack triggers retransmission after a tick-based exponential
  backoff, up to ``max_retries`` retransmissions, after which the
  message is given up on ("expired");
* the receiver side deduplicates by sequence number, so a retransmitted
  message whose first copy *did* arrive (only the ack was lost) is
  re-acked but not re-processed -- behaviours see exactly-once delivery
  while the counters see every physical attempt;
* messages addressed to a crashed node are *parked* (buffered at the
  sender, costing nothing) and flushed when the node recovers -- the
  Section 2 leaves buffering for a dead parent.  The park buffer is
  bounded by ``TransportConfig.max_parked``: overflow evicts the oldest
  parked message, charged honestly as a drop (reason ``park-evict``).

Every attempt, ack and retransmission is charged to the simulator's
:class:`~repro.network.messages.MessageCounter` and (when configured)
:class:`~repro.network.energy.EnergyAccountant` by the simulator itself;
this module only keeps the protocol state.  All state transitions are
driven by the simulator's deterministic tick loop, so fault runs replay
bit for bit.  See docs/FAULT_MODEL.md for the full protocol.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro import obs
from repro._exceptions import ParameterError
from repro._validation import require_positive_int
from repro.network.messages import Message
from repro.obs.lineage import lineage_fields

__all__ = ["TransportConfig", "PendingMessage", "ReliableTransport"]


@dataclass(frozen=True)
class TransportConfig:
    """Parameters of the ack/retransmit protocol.

    ``max_retries`` counts *re*transmissions: a message is attempted at
    most ``1 + max_retries`` times.  The ``k``-th retransmission waits
    ``backoff_base * backoff_factor**(k-1)`` ticks after the failed
    attempt.  Messages for crashed destinations are parked instead of
    burning retries against a dead radio; ``max_parked`` bounds that
    buffer across all destinations (a real sender has finite memory) --
    parking beyond the bound evicts the *oldest* parked message, which
    is charged as a drop.  ``None`` leaves the buffer unbounded.
    """

    max_retries: int = 3
    backoff_base: int = 1
    backoff_factor: int = 2
    max_parked: "int | None" = None

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ParameterError(
                f"max_retries must be >= 0, got {self.max_retries}")
        require_positive_int("backoff_base", self.backoff_base)
        require_positive_int("backoff_factor", self.backoff_factor)
        if self.max_parked is not None:
            require_positive_int("max_parked", self.max_parked)

    def backoff_ticks(self, attempts: int) -> int:
        """Ticks to wait after the ``attempts``-th transmission failed."""
        return self.backoff_base * self.backoff_factor ** max(0, attempts - 1)


@dataclass
class PendingMessage:
    """One tracked data message awaiting acknowledgement."""

    seq: int
    sender: int
    dest: int
    message: Message
    submitted_tick: int
    attempts: int = 0            # transmissions so far
    next_attempt: int = 0        # tick of the next (re)transmission
    parked: bool = False         # buffered while the destination is down
    delivered_to_app: bool = False   # receiver-side dedup flag
    acked: bool = False


@dataclass
class ReliableTransport:
    """Protocol state: the pending table plus lifetime statistics."""

    config: TransportConfig
    _pending: "dict[int, PendingMessage]" = field(default_factory=dict)
    _next_seq: int = 0
    #: Retransmissions performed (attempts beyond each message's first).
    n_retransmissions: int = 0
    #: Messages given up on after exhausting their retry budget.
    n_expired: int = 0
    #: Messages dropped because their sender crashed while they waited.
    n_sender_crashes: int = 0
    #: Parked messages flushed after their destination recovered.
    n_park_flushes: int = 0
    #: Parked messages evicted because the park buffer hit ``max_parked``.
    n_park_evictions: int = 0

    # ------------------------------------------------------------------

    @property
    def n_pending(self) -> int:
        """Messages currently awaiting acknowledgement or parking."""
        return len(self._pending)

    @property
    def n_parked(self) -> int:
        """Messages currently buffered for a crashed destination."""
        return sum(1 for entry in self._pending.values() if entry.parked)

    def submit(self, sender: int, dest: int, message: Message,
               tick: int) -> PendingMessage:
        """Track a new outgoing message; it is due immediately."""
        entry = PendingMessage(seq=self._next_seq, sender=sender, dest=dest,
                               message=message, submitted_tick=tick,
                               next_attempt=tick)
        self._next_seq += 1
        self._pending[entry.seq] = entry
        return entry

    def collect_due(self, tick: int,
                    is_down: "Callable[[int, int], bool]") -> "list[PendingMessage]":
        """Entries to (re)transmit at ``tick``, in submission order.

        Parked entries whose destination recovered are flushed; entries
        whose *sender* is down are dropped (a crash loses the sender's
        volatile retransmission buffer).  Entries submitted mid-tick by
        behaviours are transmitted inline by the simulator and never
        pass through here.
        """
        due: "list[PendingMessage]" = []
        for seq in list(self._pending):
            entry = self._pending[seq]
            if is_down(entry.sender, tick):
                del self._pending[seq]
                self.n_sender_crashes += 1
                if obs.ACTIVE:
                    obs.emit("transport.sender_crash", seq_no=entry.seq,
                             sender=entry.sender, tick=tick,
                             **lineage_fields(entry.message))
                continue
            if entry.parked:
                if not is_down(entry.dest, tick):
                    entry.parked = False
                    entry.next_attempt = tick
                    self.n_park_flushes += 1
                    if obs.ACTIVE:
                        obs.emit("transport.flush", seq_no=entry.seq,
                                 dest=entry.dest, tick=tick,
                                 **lineage_fields(entry.message))
                    due.append(entry)
                continue
            if entry.next_attempt <= tick:
                due.append(entry)
        return due

    def park(self, entry: PendingMessage) -> "PendingMessage | None":
        """Buffer ``entry`` until its destination recovers.

        When the buffer is bounded (``config.max_parked``) and full, the
        oldest parked message (lowest sequence number) is evicted and
        returned so the caller can charge it as a drop; otherwise
        returns ``None``.
        """
        entry.parked = True
        if obs.ACTIVE:
            obs.emit("transport.park", seq_no=entry.seq, dest=entry.dest,
                     tick=entry.submitted_tick,
                     **lineage_fields(entry.message))
        limit = self.config.max_parked
        if limit is None:
            return None
        parked = sorted(seq for seq, e in self._pending.items() if e.parked)
        if len(parked) <= limit:
            return None
        evicted = self._pending.pop(parked[0])
        self.n_park_evictions += 1
        if obs.ACTIVE:
            obs.emit("transport.park_evict", seq_no=evicted.seq,
                     dest=evicted.dest,
                     **lineage_fields(evicted.message))
        return evicted

    def note_attempt(self, entry: PendingMessage) -> None:
        """Account one physical transmission of ``entry``."""
        entry.attempts += 1
        if entry.attempts > 1:
            self.n_retransmissions += 1
            if obs.ACTIVE:
                obs.emit("transport.retransmit", seq_no=entry.seq,
                         attempt=entry.attempts,
                         **lineage_fields(entry.message))
                obs.metrics().counter("transport.retries").inc()

    def acknowledge(self, entry: PendingMessage) -> None:
        """The sender heard the ack: retire the entry."""
        entry.acked = True
        self._pending.pop(entry.seq, None)

    def schedule_or_expire(self, entry: PendingMessage, tick: int) -> bool:
        """After an unacknowledged attempt: back off, or give up.

        Returns ``True`` when a retransmission was scheduled and
        ``False`` when the entry expired (retry budget exhausted).
        """
        if entry.attempts >= 1 + self.config.max_retries:
            self._pending.pop(entry.seq, None)
            self.n_expired += 1
            if obs.ACTIVE:
                obs.emit("transport.expire", seq_no=entry.seq,
                         attempts=entry.attempts, tick=tick,
                         **lineage_fields(entry.message))
            return False
        entry.next_attempt = tick + self.config.backoff_ticks(entry.attempts)
        return True

    def stats(self) -> "dict[str, int]":
        """Lifetime protocol statistics (for benchmarks and reports)."""
        return {
            "retransmissions": self.n_retransmissions,
            "expired": self.n_expired,
            "sender_crashes": self.n_sender_crashes,
            "park_flushes": self.n_park_flushes,
            "park_evictions": self.n_park_evictions,
            "pending": self.n_pending,
            "parked": self.n_parked,
        }
