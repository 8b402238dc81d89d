"""One sender on one bottleneck: the single-flow view of the CC engine.

Models the path the paper emulated with its modified Mahimahi: a paced
sender, a droptail queue served at a time-varying rate, a propagation
delay per direction, and Bernoulli random loss on the data direction.

There is one packet event loop in the repo,
:class:`~repro.cc.multiflow.MultiFlowEmulator`.
:class:`PacketNetworkEmulator` is that engine with one flow, plus the
per-interval link statistics the adversary observes: the controller
(adversary or trace player) calls :meth:`PacketNetworkEmulator.run_interval`,
which advances simulated time by one interval (30 ms in the paper) and
returns that interval's :class:`IntervalStats`.  Each direction's delay
is the one in force when the packet enters that direction, as in a
Mahimahi delay shell (see docs/reproduction_notes.md).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.cc.link import TimeVaryingLink
from repro.cc.multiflow import MultiFlowEmulator
from repro.cc.protocols.base import Sender

__all__ = ["IntervalStats", "PacketNetworkEmulator"]


@dataclass
class IntervalStats:
    """Link statistics over one controller interval."""

    t_start: float
    t_end: float
    bandwidth_mbps: float
    latency_ms: float
    loss_rate: float
    bytes_delivered: int
    #: Delivered bytes over interval capacity, clamped to 1.0 -- the
    #: adversary's observation and reward input.
    utilization: float
    mean_queue_sojourn_s: float
    queue_delay_end_s: float
    drops_loss: int
    drops_queue: int
    #: The unclamped delivered/capacity ratio.  Exceeds 1.0 when a standing
    #: queue drains through an interval (bytes queued under earlier
    #: conditions egress on top of the interval's own capacity); the
    #: clamped ``utilization`` hides those drain intervals.
    utilization_raw: float = 0.0

    @property
    def throughput_mbps(self) -> float:
        span = self.t_end - self.t_start
        return self.bytes_delivered * 8.0 / span / 1e6 if span > 0 else 0.0


class PacketNetworkEmulator:
    """Couples one sender to one time-varying link.

    A view over ``MultiFlowEmulator([sender], link, seed)``: events,
    counters and the conservation identity (tested in
    tests/test_cc_network.py) are the engine's::

        packets_sent == packets_delivered + link.drops_loss
                        + link.drops_queue + len(link.queue) + acks_in_flight
    """

    def __init__(
        self,
        sender: Sender,
        link: TimeVaryingLink,
        seed: int = 0,
    ) -> None:
        self.sender = sender
        self.link = link
        self.engine = MultiFlowEmulator([sender], link, seed)
        self.history: list[IntervalStats] = []

    @property
    def now(self) -> float:
        return self.engine.now

    @property
    def packets_sent(self) -> int:
        return self.engine.packets_sent

    @property
    def packets_delivered(self) -> int:
        return self.engine.packets_delivered

    @property
    def acks_in_flight(self) -> int:
        return self.engine.acks_in_flight

    def run_until(self, t_end: float) -> None:
        """Process all events up to simulated time ``t_end``."""
        self.engine.run_until(t_end)

    def set_conditions(
        self, bandwidth_mbps: float, latency_ms: float, loss_rate: float
    ) -> None:
        self.link.set_conditions(bandwidth_mbps, latency_ms, loss_rate)

    def run_interval(self, dt: float) -> IntervalStats:
        """Advance ``dt`` seconds and return this interval's link stats."""
        if not (math.isfinite(dt) and dt > 0):
            raise ValueError(f"interval must be positive and finite, got {dt}")
        engine = self.engine
        link = self.link
        t_start = engine.now
        delivered = link.bytes_delivered
        drops_loss = link.drops_loss
        drops_queue = link.drops_queue
        engine.sojourn_sum = 0.0
        engine.sojourn_count = 0
        engine.run_until(t_start + dt)
        delivered = link.bytes_delivered - delivered
        utilization_raw = delivered / (link.rate_bps * dt / 8.0)
        stats = IntervalStats(
            t_start=t_start,
            t_end=engine.now,
            bandwidth_mbps=link.bandwidth_mbps,
            latency_ms=link.latency_ms,
            loss_rate=link.loss_rate,
            bytes_delivered=delivered,
            utilization=min(utilization_raw, 1.0),
            utilization_raw=utilization_raw,
            mean_queue_sojourn_s=(
                engine.sojourn_sum / engine.sojourn_count
                if engine.sojourn_count
                else 0.0
            ),
            queue_delay_end_s=link.queuing_delay_estimate_s(),
            drops_loss=link.drops_loss - drops_loss,
            drops_queue=link.drops_queue - drops_queue,
        )
        self.history.append(stats)
        return stats
