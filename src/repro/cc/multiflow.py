"""The packet-level CC engine: N senders sharing one bottleneck.

Section 5 points at adversarial goals beyond single-flow utilization --
"finding conditions in which the protocol causes the highest amount of
congestion", incast, unfairness.  Those need more than one flow through
the bottleneck: this engine runs N senders through one droptail queue,
and provides Jain's fairness index over their goodputs.  It is the repo's
only packet event loop; the single-flow API
(:class:`repro.cc.network.PacketNetworkEmulator`) is a one-flow view over
it.

Delay model: each direction's propagation delay is the one in force when
the packet enters that direction, as in a Mahimahi delay shell.  The data
leg is priced at egress; the ack leg at the receiver.  A receiver hop
landing inside the current ``run_until`` horizon schedules its ack
directly at ``+2 x one_way_delay`` -- conditions cannot change mid-window
(``set_conditions`` is only called between ``run_interval`` calls), so
both legs see the same delay and the folded ack time is the identical
float.  A hop that crosses the window boundary goes to a
*pending-delivers* list instead of the heap; each later ``run_until``
converts the entries whose deliver time falls inside its window, pricing
the return leg at the delay then in force.

Hot-path architecture: integer event kinds, pre-drawn Bernoulli loss
uniforms, a dedicated send-timer slot per flow instead of heap-resident
send events, inlined queue admission with a maintained byte counter, and
``__slots__`` flow records.  The bottleneck's egress timer lives in a
dedicated slot too: the link transmits one packet at a time, so at most
one egress is ever pending, and ``link.busy`` is exactly "the slot is
set" (synced back to the link whenever ``run_until`` returns).  The
event loop is fused: ``run_until`` picks the earliest of the heap head,
the egress slot and the send slots, and inlines the send/egress/ack
bodies directly, mirroring the hot counters (event counter, loss-block
cursor, conservation totals, link accumulators) and the egress slot in
locals and syncing them back on exit.  Only the rare RTO tick remains a
method call.  ``can_send`` and ``register_send`` are inlined from
:class:`~repro.cc.protocols.base.Sender`, so senders must not override
them.

Event kinds (all ordered by one ``(time, counter)`` key, with counters
assigned exactly as if every event went through the heap):

- ``SEND``   -- a flow's pacing timer fires; transmit if its cwnd allows
  (never heap-resident: each flow has a dedicated timer slot),
- ``EGRESS`` -- the head-of-line packet finishes transmission (never
  heap-resident: the link's one egress timer has a dedicated slot),
- ``ACK``    -- the ack reaches the owning sender,
- ``TICK``   -- periodic per-flow RTO check on a fixed ``tick_s`` grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from heapq import heappop, heappush

import numpy as np

from repro.cc.link import TimeVaryingLink
from repro.cc.packet import Packet
from repro.cc.protocols.base import Sender

__all__ = ["FlowStats", "MultiFlowEmulator", "jain_fairness"]

_TICK_S = 0.1

# Integer event kinds of the heap: the run_until dispatch reduces to a
# small-int compare.  SEND and EGRESS never enter the heap (dedicated
# timer slots) and DELIVER never exists as an event (in-window hops fold
# into the ack, boundary-crossing hops wait in the pending-delivers list).
_ACK, _TICK = 0, 1

#: Uniform draws fetched from the generator per block.  Blocks preserve
#: the exact per-packet draw sequence of the historical one-``random()``-
#: per-packet implementation: ``Generator.random(n)`` consumes the same
#: doubles in the same order as ``n`` scalar calls, and the loss-rate
#: comparison happens at consumption time, so mid-block ``loss_rate``
#: changes never perturb the stream.
_LOSS_BLOCK = 4096


def jain_fairness(rates) -> float:
    """Jain's index: (sum x)^2 / (n * sum x^2); 1.0 is perfectly fair.

    Rates must be non-negative -- the index is only meaningful over
    resource shares, and a negative rate can push it outside (0, 1]
    silently, so it raises :class:`ValueError` instead.
    """
    x = np.asarray(list(rates), dtype=float)
    if len(x) == 0:
        raise ValueError("need at least one rate")
    if np.any(x < 0):
        raise ValueError(f"rates must be non-negative, got {x[x < 0].tolist()}")
    if np.all(x == 0):
        return 1.0
    return float(x.sum() ** 2 / (len(x) * np.sum(x * x)))


@dataclass
class FlowStats:
    """Per-flow outcome over an interval or a whole run."""

    bytes_delivered: int
    throughput_mbps: float


class _Flow:
    """Hot per-flow record; one per sender, touched on every event."""

    __slots__ = (
        "sender",
        "ack_fn",
        "cwnd",
        "next_seq",
        "send_blocked",
        "last_progress",
        "delivered_bytes_interval",
        "delivered_bytes_total",
        "send_t",
        "send_c",
    )

    def __init__(self, sender: Sender) -> None:
        self.sender = sender
        #: Bound ``handle_ack`` (one descriptor lookup per flow, not per ack).
        self.ack_fn = sender.handle_ack
        #: Cached ``sender.cwnd_packets``.  Every protocol's cwnd depends
        #: only on state mutated inside ``handle_ack``/``handle_timeout``,
        #: so recomputing the property once after each of those calls is
        #: exactly the per-check property read the naive loop performed.
        self.cwnd = sender.cwnd_packets
        self.next_seq = 0
        self.send_blocked = False
        self.last_progress = 0.0
        self.delivered_bytes_interval = 0
        #: Cumulative delivered bytes (conservation: these sum to
        #: ``link.bytes_delivered`` across flows at any event boundary).
        self.delivered_bytes_total = 0
        # The pacing timer lives in this dedicated slot instead of the
        # heap: a flow has at most one pending send at any time (its send
        # chain is self-perpetuating and parks in ``send_blocked`` when
        # the window closes), so a (time, counter) pair replaces a heap
        # push+pop per packet.  The counter preserves the exact FIFO
        # tie-break order of the historical all-in-one-heap emulator.
        self.send_t: float | None = None
        self.send_c = 0


class MultiFlowEmulator:
    """N senders contending for one time-varying bottleneck.

    Conservation counters (exact at any event boundary, tested in
    tests/test_cc_multiflow.py)::

        packets_sent == packets_delivered + link.drops_loss
                        + link.drops_queue + len(link.queue) + acks_in_flight

    where ``packets_delivered`` counts acks handed back to senders and
    ``acks_in_flight`` counts packets past egress whose deliver/ack legs
    are still propagating.

    Parameters
    ----------
    tick_s:
        RTO-check period.  The tick grid is fixed at multiples of
        ``tick_s``; matrix cells pick values that do not alias the 30 ms
        adversary interval.  Default 0.1 s (the historical constant).
    start_stagger_s:
        Flow *i* starts sending at ``i * start_stagger_s``.
    start_times:
        Explicit per-flow start times (seconds), overriding the stagger
        -- this is the knob the adversarial scenario matrix uses for
        competing-flow start control.

    Start times and the stagger must be finite and non-negative, and
    ``run_until``/``run_interval`` take finite times only: a NaN start
    would stamp its packets at NaN and starve the other flows, and a NaN
    or infinite horizon would never end.  All raise :class:`ValueError`.
    """

    def __init__(
        self,
        senders: list[Sender],
        link: TimeVaryingLink,
        seed: int = 0,
        start_stagger_s: float = 0.0,
        tick_s: float = _TICK_S,
        start_times: list[float] | None = None,
    ) -> None:
        if not senders:
            raise ValueError("need at least one sender")
        tick_s = float(tick_s)
        if not math.isfinite(tick_s) or tick_s <= 0:
            raise ValueError(f"tick_s must be a positive finite float, got {tick_s}")
        if start_times is not None:
            if len(start_times) != len(senders):
                raise ValueError(
                    f"got {len(start_times)} start times for {len(senders)} senders"
                )
            if not all(math.isfinite(t) and t >= 0 for t in start_times):
                raise ValueError(
                    f"start times must be finite and non-negative: {start_times}"
                )
        if not (math.isfinite(start_stagger_s) and start_stagger_s >= 0):
            raise ValueError(
                f"start_stagger_s must be finite and non-negative, got {start_stagger_s}"
            )
        self.link = link
        self.rng = np.random.default_rng(seed)
        self.now = 0.0
        self.tick_s = tick_s
        self._events: list[tuple[float, int, int, Packet | None]] = []
        self._counter = 0
        # The egress timer slot: (time, counter) of the head-of-line
        # packet's transmission end, None while the link is idle.
        self._egress_t: float | None = None
        self._egress_c = 0
        # Packets past egress whose receiver hop crosses the current
        # window boundary: (deliver_time, counter, packet), converted to
        # ack events by the run_until window containing deliver_time (see
        # the module docstring).  The counter is the one the historical
        # deliver event would have carried; it orders conversions.
        self._pending_delivers: list[tuple[float, int, Packet]] = []
        self.flows = [_Flow(s) for s in senders]
        # Pre-drawn Bernoulli loss uniforms; see _LOSS_BLOCK.
        self._loss_block: list[float] = self.rng.random(_LOSS_BLOCK).tolist()
        self._loss_idx = 0
        # Conservation counters (see class docstring).
        self.packets_sent = 0
        self.packets_delivered = 0
        self.acks_in_flight = 0
        # Queue sojourn (service start minus ingress) of the packets that
        # reached egress: the sum of the positive ones and the count of
        # all.  Only callers reset them; the one-flow view zeroes both at
        # each interval start for its mean sojourn.
        self.sojourn_sum = 0.0
        self.sojourn_count = 0
        # Counter assignment order matches the historical implementation:
        # one send per flow (counters 1..N), then the first tick (N+1).
        for index, flow in enumerate(self.flows):
            self._counter += 1
            flow.send_t = (
                start_times[index] if start_times is not None
                else index * start_stagger_s
            )
            flow.send_c = self._counter
        self._counter += 1
        heappush(self._events, (tick_s, self._counter, _TICK, None))

    # -- events ------------------------------------------------------------------

    def run_until(self, t_end: float) -> None:
        """Process all events up to simulated time ``t_end``.

        The fused hot loop (see the module docstring): interleaves the
        heap with the egress slot and the per-flow send slots under the
        same (time, counter) key the heap uses -- so event order is
        identical to scheduling sends and egresses through the heap --
        and inlines the send/egress/ack bodies around the dispatch,
        mirroring the hot counters in locals.
        """
        if not math.isfinite(t_end):
            raise ValueError(f"t_end must be finite, got {t_end}")
        if t_end < self.now:
            raise ValueError("cannot run backwards in time")
        link = self.link
        events = self._events
        flows = self.flows
        counter = self._counter
        pending = self._pending_delivers
        # Constant for the whole window (set_conditions only runs between
        # run_interval calls).
        delay = link.one_way_delay_s
        loss_rate = link.loss_rate
        rate_bps = link.rate_bps
        queue_packets = link.queue_packets
        queue = link.queue
        # Convert the pending receiver hops this window reaches: the
        # return leg is priced at the delay now in force -- the same
        # float the historical deliver event read when it popped at
        # deliver_t inside this window.  Sorting on (deliver_t, counter)
        # reproduces the order those pops would have assigned fresh ack
        # counters in.  (A delay drop can make a later hop due before an
        # earlier still-crossing one, so the list is not always sorted.)
        if pending:
            due = [e for e in pending if e[0] <= t_end]
            if due:
                if len(due) == len(pending):
                    del pending[:]
                else:
                    self._pending_delivers = pending = [
                        e for e in pending if e[0] > t_end
                    ]
                due.sort()
                for deliver_t, _c, packet in due:
                    counter += 1
                    heappush(events, (deliver_t + delay, counter, _ACK, packet))
        loss_block = self._loss_block
        loss_idx = self._loss_idx
        packets_sent = self.packets_sent
        packets_delivered = self.packets_delivered
        acks_in_flight = self.acks_in_flight
        # Link accumulators mirrored in locals (nothing reads them
        # mid-window; synced back at exit).
        queue_bytes = link._queue_bytes
        bytes_delivered = link.bytes_delivered
        drops_loss = link.drops_loss
        drops_queue = link.drops_queue
        sojourn_sum = self.sojourn_sum
        sojourn_count = self.sojourn_count
        egress_t = self._egress_t
        egress_c = self._egress_c
        # Earliest pending send across the flow slots; rescanned after a
        # send fires (O(n_flows), N is a handful), compare-updated on the
        # unblock paths (the waking slot was empty, so the cached min
        # cannot already point at it).
        send_t: float | None = None
        send_c = 0
        send_i = -1
        rescan = True
        while True:
            if rescan:
                rescan = False
                send_t = None
                for i, fl in enumerate(flows):
                    t = fl.send_t
                    if t is not None and (
                        send_t is None
                        or t < send_t
                        or (t == send_t and fl.send_c < send_c)
                    ):
                        send_t = t
                        send_c = fl.send_c
                        send_i = i
            # -- egress slot ------------------------------------------
            if egress_t is not None and (
                send_t is None or egress_t < send_t or (
                    egress_t == send_t and egress_c < send_c
                )
            ) and (
                not events or egress_t < events[0][0] or (
                    egress_t == events[0][0] and egress_c < events[0][1]
                )
            ):
                if egress_t > t_end:
                    break
                now = egress_t
                # link.dequeue/start-service inlined.
                packet = queue.popleft()
                size = packet.size_bytes
                queue_bytes -= size
                bytes_delivered += size
                flow = flows[packet.owner]
                flow.delivered_bytes_interval += size
                flow.delivered_bytes_total += size
                sojourn = packet.service_start - packet.ingress_time
                if sojourn > 0.0:
                    sojourn_sum += sojourn
                sojourn_count += 1
                acks_in_flight += 1
                deliver_t = now + delay
                counter += 1
                if deliver_t <= t_end:
                    # In-window receiver hop: fold (both legs see the
                    # same frozen delay).
                    heappush(events, (deliver_t + delay, counter, _ACK, packet))
                else:
                    pending.append((deliver_t, counter, packet))
                if queue:
                    nxt = queue[0]
                    nxt.service_start = now
                    counter += 1
                    egress_t = now + nxt.size_bytes * 8.0 / rate_bps
                    egress_c = counter
                else:
                    egress_t = None
                continue
            if events:
                head = events[0]
                head_t = head[0]
                if send_t is None or head_t < send_t or (
                    head_t == send_t and head[1] < send_c
                ):
                    # -- heap event ------------------------------------
                    if head_t > t_end:
                        break
                    heappop(events)
                    now = head_t
                    if head[2] == _ACK:
                        packet = head[3]
                        acks_in_flight -= 1
                        packets_delivered += 1
                        owner = packet.owner
                        flow = flows[owner]
                        flow.ack_fn(packet, now)
                        sender = flow.sender
                        flow.cwnd = sender.cwnd_packets
                        flow.last_progress = now
                        # can_send() inlined (sole definition lives in
                        # base.Sender; no subclass overrides it).
                        if flow.send_blocked and len(sender.inflight) < flow.cwnd:
                            flow.send_blocked = False
                            counter += 1
                            flow.send_t = now
                            flow.send_c = counter
                            if send_t is None or now < send_t or (
                                now == send_t and counter < send_c
                            ):
                                send_t = now
                                send_c = counter
                                send_i = owner
                    else:  # _TICK (rare: every tick_s)
                        self.now = now
                        self._counter = counter
                        self._on_tick(None)
                        counter = self._counter
                        rescan = True  # the tick may have woken flows
                    continue
            if send_t is None or send_t > t_end:
                break
            # -- send timer (from the flow slot, never the heap) -------
            now = send_t
            flow = flows[send_i]
            flow.send_t = None
            rescan = True
            sender = flow.sender
            if len(sender.inflight) >= flow.cwnd:  # can_send() inlined
                flow.send_blocked = True
                continue
            seq = flow.next_seq
            mss = sender.mss
            packet = Packet(
                seq,
                mss,
                now,
                sender.delivered_bytes,
                sender.delivered_time,
            )
            flow.next_seq = seq + 1
            packets_sent += 1
            # register_send() inlined (sole definition in base.Sender).
            sender.inflight[seq] = packet
            if seq > sender.highest_seq_sent:
                sender.highest_seq_sent = seq
            if loss_idx == _LOSS_BLOCK:
                self._loss_block = loss_block = self.rng.random(_LOSS_BLOCK).tolist()
                loss_idx = 0
            u = loss_block[loss_idx]
            loss_idx += 1
            if u >= loss_rate:
                if len(queue) < queue_packets:
                    packet.ingress_time = now
                    # Tag the owner flow on the packet for demultiplexing.
                    packet.owner = send_i
                    # link.enqueue/start-service inlined.
                    queue.append(packet)
                    queue_bytes += mss
                    if egress_t is None:  # the link is idle
                        packet.service_start = now
                        counter += 1
                        egress_t = now + mss * 8.0 / rate_bps
                        egress_c = counter
                else:
                    drops_queue += 1
            else:
                drops_loss += 1
            rate = sender.pacing_rate_bps(now)
            if rate < 1e3:
                rate = 1e3
            counter += 1
            flow.send_t = now + mss * 8.0 / rate
            flow.send_c = counter
        self.now = t_end
        self._counter = counter
        self._egress_t = egress_t
        self._egress_c = egress_c
        link.busy = egress_t is not None
        self._loss_idx = loss_idx
        self.packets_sent = packets_sent
        self.packets_delivered = packets_delivered
        self.acks_in_flight = acks_in_flight
        link._queue_bytes = queue_bytes
        link.bytes_delivered = bytes_delivered
        link.drops_loss = drops_loss
        link.drops_queue = drops_queue
        self.sojourn_sum = sojourn_sum
        self.sojourn_count = sojourn_count

    def _on_tick(self, _packet: Packet | None) -> None:
        now = self.now
        for flow in self.flows:
            sender = flow.sender
            if sender.inflight and now - flow.last_progress > sender.rto_s():
                sender.handle_timeout(now)
                flow.cwnd = sender.cwnd_packets
                flow.last_progress = now
                if flow.send_blocked:
                    flow.send_blocked = False
                    self._counter += 1
                    flow.send_t = now
                    flow.send_c = self._counter
        self._counter += 1
        heappush(self._events, (now + self.tick_s, self._counter, _TICK, None))

    # -- controller API ---------------------------------------------------------------

    def set_conditions(self, bandwidth_mbps: float, latency_ms: float,
                       loss_rate: float) -> None:
        self.link.set_conditions(bandwidth_mbps, latency_ms, loss_rate)

    def run_interval(self, dt: float) -> list[FlowStats]:
        """Advance ``dt`` seconds; return per-flow delivery stats."""
        if not (math.isfinite(dt) and dt > 0):
            raise ValueError(f"interval must be positive and finite, got {dt}")
        for flow in self.flows:
            flow.delivered_bytes_interval = 0
        self.run_until(self.now + dt)
        return [
            FlowStats(
                bytes_delivered=flow.delivered_bytes_interval,
                throughput_mbps=flow.delivered_bytes_interval * 8.0 / dt / 1e6,
            )
            for flow in self.flows
        ]

    def fairness(self, stats: list[FlowStats]) -> float:
        return jain_fairness(s.throughput_mbps for s in stats)
