"""Benchmark: the CC emulator fast path and process-parallel rollouts.

Two layers, matching the two halves of the optimization work:

1. *Raw emulator*: packets/sec and intervals/sec of the packet-level
   event loop driving a BBR sender under random Table-1 adversarial
   conditions.  The baseline is a frozen copy of the pre-fast-path
   implementation (string event kinds, a separate ``deliver`` hop,
   per-packet ``rng.random()`` draws, list-append sojourn accumulation
   and an O(queue) byte sum), kept in this file so the comparison
   survives the source tree moving on.
2. *Adversary training loop*: ``collect_rollout`` steps/sec of the CC
   adversary PPO -- the scalar seed loop (baseline emulator, n_envs=1)
   against the fast path at n_envs=1 and SyncVecEnv/SubprocVecEnv
   widths.  On a single-core box the win comes from the emulator fast
   path and from amortizing the policy forward across envs, not from
   true core parallelism.

Guards (CI runs ``--smoke``):

- the raw fast path must be >= 2x the scalar baseline (enforced even in
  smoke mode: it is a single-process CPU loop with stable timing);
- the full run additionally requires >= 3x adversary steps/sec for the
  fast path + SubprocVecEnv at n_envs=8 vs the scalar seed loop.  This
  is a *parallelism* criterion, so it is enforced only on hosts with at
  least 4 cores: with one core the subprocess workers time-slice a
  single CPU and the backend is pure IPC overhead by construction
  (measured floor ~75 us per pipe round trip), which no amount of
  emulator optimization can parallelize away.

Run standalone (no pytest needed):

    PYTHONPATH=src python benchmarks/bench_cc_emulator.py [--smoke]
"""

from __future__ import annotations

import argparse
import heapq
import os
import time
from collections import deque
from contextlib import contextmanager
from pathlib import Path

import numpy as np

import repro.adversary.cc_env as cc_env_mod
from repro.adversary.cc_env import CC_ACTION_RANGES, CcAdversaryEnv
from repro.cc.network import IntervalStats, PacketNetworkEmulator
from repro.cc.link import TimeVaryingLink
from repro.cc.packet import Packet
from repro.cc.protocols.bbr import BBRSender
from repro.rl.ppo import PPO, PPOConfig

RESULTS_DIR = Path(__file__).resolve().parent.parent / "results"

_TICK_S = 0.1


# ---------------------------------------------------------------------------
# Frozen pre-fast-path implementation (the "scalar seed loop" baseline).
# Verbatim behaviour of the emulator, link and sender bookkeeping before
# the fast path landed; do not "improve" it -- its slowness is the point.
# ---------------------------------------------------------------------------


class ScalarBaselineBBR(BBRSender):
    """BBR with the seed-era base-class bookkeeping re-instated:
    an O(inflight) loss scan per ack and per-call property chains for
    cwnd/pacing (the live tree flattens both)."""

    _DUP_THRESHOLD = 3

    def register_send(self, packet):
        self.inflight[packet.seq] = packet
        self.highest_seq_sent = max(self.highest_seq_sent, packet.seq)

    def handle_ack(self, packet, now):
        if (
            packet.seq in self.inflight
            and packet.delivered_at_send >= self._next_round_delivered
        ):
            self.round_count += 1
            self._next_round_delivered = self.delivered_bytes + packet.size_bytes
        if packet.seq not in self.inflight:
            return
        del self.inflight[packet.seq]
        rtt = now - packet.sent_time
        self.last_rtt_s = rtt
        self.srtt_s = (
            rtt if self.srtt_s is None else 0.875 * self.srtt_s + 0.125 * rtt
        )
        self.delivered_bytes += packet.size_bytes
        self.delivered_time = now
        self.total_acked += 1
        interval = now - packet.delivered_time_at_send
        if interval > 0:
            rate = (self.delivered_bytes - packet.delivered_at_send) * 8.0 / interval
        else:
            rate = 0.0
        self.highest_seq_acked = max(self.highest_seq_acked, packet.seq)
        from repro.cc.packet import AckInfo

        ack = AckInfo(
            seq=packet.seq,
            now=now,
            rtt_s=rtt,
            delivered_bytes=self.delivered_bytes,
            delivery_rate_bps=rate,
            queue_sojourn_s=max(packet.service_start - packet.ingress_time, 0.0),
        )
        self.on_ack(ack)
        self._detect_losses(now)

    def on_ack(self, ack):
        # Seed BBR.on_ack: round accounting lived in a handle_ack wrapper
        # (inlined above), so on_ack only runs the filters/state machine.
        self._update_filters(ack)
        self._update_state(ack.now)

    def _update_filters(self, ack):
        if ack.delivery_rate_bps > 0:
            while self._bw_samples and self._bw_samples[-1][1] <= ack.delivery_rate_bps:
                self._bw_samples.pop()
            self._bw_samples.append((self.round_count, ack.delivery_rate_bps))
            cutoff = self.round_count - self.bw_window_rounds
            while self._bw_samples and self._bw_samples[0][0] < cutoff:
                self._bw_samples.popleft()

        # Kernel-style min filter: a strictly lower sample, or an expired
        # window, replaces the estimate and restamps it.  The pre-update
        # expiry flag is what triggers PROBE_RTT in ``_update_state``.
        self._rtprop_expired = (
            self._min_rtt_s is not None
            and ack.now - self._rtprop_stamp > self.rtprop_window_s
        )
        if self._min_rtt_s is None or ack.rtt_s < self._min_rtt_s or self._rtprop_expired:
            self._min_rtt_s = ack.rtt_s
            self._rtprop_stamp = ack.now

    def _update_state(self, now):
        if self.mode == self.STARTUP:
            self._check_full_pipe()
            if self.filled_pipe:
                self._set_mode(self.DRAIN, now)
        if self.mode == self.DRAIN and self.inflight_packets <= self._bdp_packets():
            self._set_mode(self.PROBE_BW, now)
            self.cycle_index = 0
            self._cycle_start = now
        if self.mode == self.PROBE_BW:
            rtprop = self.rtprop_s or 0.05
            if now - self._cycle_start > rtprop:
                self.cycle_index = (self.cycle_index + 1) % len(self.CYCLE_GAINS)
                self._cycle_start = now
        # PROBE_RTT entry: the RTprop estimate went stale (no sample at or
        # below the running minimum for a full window).
        if self.mode != self.PROBE_RTT and self._rtprop_expired:
            self._rtprop_expired = False
            self._set_mode(self.PROBE_RTT, now)
            self._probe_rtt_done = now + self.probe_rtt_duration_s
        if self.mode == self.PROBE_RTT and self._probe_rtt_done is not None:
            if now >= self._probe_rtt_done:
                self._rtprop_stamp = now
                self._probe_rtt_done = None
                if self.filled_pipe:
                    self._set_mode(self.PROBE_BW, now)
                    self.cycle_index = 0
                    self._cycle_start = now
                else:
                    self._set_mode(self.STARTUP, now)

    def _detect_losses(self, now):
        lost = [
            seq
            for seq in self.inflight
            if seq < self.highest_seq_acked - self._DUP_THRESHOLD
        ]
        for seq in sorted(lost):
            del self.inflight[seq]
            self.total_lost += 1
            self.on_packet_lost(seq, now)

    def pacing_rate_bps(self, now):
        return self.pacing_gain * self.max_bw_bps

    @property
    def cwnd_packets(self):
        if self.mode == self.PROBE_RTT:
            return self.min_cwnd_packets
        gain = self.HIGH_GAIN if self.mode == self.STARTUP else 2.0
        return max(int(gain * self._bdp_packets()), self.min_cwnd_packets)


class ScalarBaselineLink:
    """The original link: property-computed rates, O(n) queue-byte sums."""

    def __init__(self, bandwidth_mbps, latency_ms, loss_rate=0.0, queue_packets=120):
        self.queue_packets = int(queue_packets)
        self.queue = deque()
        self.busy = False
        self.bytes_delivered = 0
        self.drops_loss = 0
        self.drops_queue = 0
        self.set_conditions(bandwidth_mbps, latency_ms, loss_rate)

    def set_conditions(self, bandwidth_mbps, latency_ms, loss_rate):
        self.bandwidth_mbps = float(bandwidth_mbps)
        self.latency_ms = float(latency_ms)
        self.loss_rate = float(loss_rate)

    @property
    def rate_bps(self):
        return self.bandwidth_mbps * 1e6

    @property
    def one_way_delay_s(self):
        return self.latency_ms / 1000.0 / 2.0

    def service_time(self, packet):
        return packet.size_bytes * 8.0 / self.rate_bps

    @property
    def queue_full(self):
        return len(self.queue) >= self.queue_packets

    def queue_bytes(self):
        return sum(p.size_bytes for p in self.queue)

    def queuing_delay_estimate_s(self):
        return self.queue_bytes() * 8.0 / self.rate_bps


class ScalarBaselineEmulator:
    """The original event loop: string kinds, separate deliver event,
    one rng draw per packet, list-append interval accumulators."""

    def __init__(self, sender, link, seed=0):
        self.sender = sender
        self.link = link
        self.rng = np.random.default_rng(seed)
        self.now = 0.0
        self._events = []
        self._counter = 0
        self._next_seq = 0
        self._send_blocked = False
        self._last_progress = 0.0
        self._interval_bytes = 0
        self._interval_sojourns = []
        self._interval_drops_loss = 0
        self._interval_drops_queue = 0
        self.history = []
        self._schedule(0.0, "send", None)
        self._schedule(_TICK_S, "tick", None)

    def _schedule(self, t, kind, packet):
        self._counter += 1
        heapq.heappush(self._events, (t, self._counter, kind, packet))

    def run_until(self, t_end):
        if t_end < self.now:
            raise ValueError("cannot run backwards in time")
        while self._events and self._events[0][0] <= t_end:
            t, _count, kind, packet = heapq.heappop(self._events)
            self.now = t
            if kind == "send":
                self._on_send_timer()
            elif kind == "egress":
                self._on_egress()
            elif kind == "deliver":
                self._schedule(self.now + self.link.one_way_delay_s, "ack", packet)
            elif kind == "ack":
                self._on_ack(packet)
            elif kind == "tick":
                self._on_tick()
        self.now = t_end

    def _transmit(self):
        sender = self.sender
        packet = Packet(
            seq=self._next_seq,
            size_bytes=sender.mss,
            sent_time=self.now,
            delivered_at_send=sender.delivered_bytes,
            delivered_time_at_send=sender.delivered_time,
        )
        self._next_seq += 1
        sender.register_send(packet)
        if self.rng.random() < self.link.loss_rate:
            self.link.drops_loss += 1
            self._interval_drops_loss += 1
            return
        if self.link.queue_full:
            self.link.drops_queue += 1
            self._interval_drops_queue += 1
            return
        packet.ingress_time = self.now
        self.link.queue.append(packet)
        if not self.link.busy:
            self._start_service()

    def _on_send_timer(self):
        if not self.sender.can_send():
            self._send_blocked = True
            return
        self._transmit()
        rate = max(self.sender.pacing_rate_bps(self.now), 1e3)
        self._schedule(self.now + self.sender.mss * 8.0 / rate, "send", None)

    def _on_ack(self, packet):
        self.sender.handle_ack(packet, self.now)
        self._last_progress = self.now
        if self._send_blocked and self.sender.can_send():
            self._send_blocked = False
            self._schedule(self.now, "send", None)

    def _on_tick(self):
        sender = self.sender
        if sender.inflight and self.now - self._last_progress > sender.rto_s():
            sender.handle_timeout(self.now)
            self._last_progress = self.now
            if self._send_blocked:
                self._send_blocked = False
                self._schedule(self.now, "send", None)
        self._schedule(self.now + _TICK_S, "tick", None)

    def _start_service(self):
        self.link.busy = True
        head = self.link.queue[0]
        head.service_start = self.now
        self._schedule(self.now + self.link.service_time(head), "egress", None)

    def _on_egress(self):
        packet = self.link.queue.popleft()
        self.link.bytes_delivered += packet.size_bytes
        self._interval_bytes += packet.size_bytes
        self._interval_sojourns.append(
            max(packet.service_start - packet.ingress_time, 0.0)
        )
        self._schedule(self.now + self.link.one_way_delay_s, "deliver", packet)
        if self.link.queue:
            self._start_service()
        else:
            self.link.busy = False

    def set_conditions(self, bandwidth_mbps, latency_ms, loss_rate):
        self.link.set_conditions(bandwidth_mbps, latency_ms, loss_rate)

    def run_interval(self, dt):
        if dt <= 0:
            raise ValueError("interval must be positive")
        t_start = self.now
        self._interval_bytes = 0
        self._interval_sojourns = []
        self._interval_drops_loss = 0
        self._interval_drops_queue = 0
        self.run_until(t_start + dt)
        capacity_bytes = self.link.rate_bps * dt / 8.0
        stats = IntervalStats(
            t_start=t_start,
            t_end=self.now,
            bandwidth_mbps=self.link.bandwidth_mbps,
            latency_ms=self.link.latency_ms,
            loss_rate=self.link.loss_rate,
            bytes_delivered=self._interval_bytes,
            utilization=min(self._interval_bytes / capacity_bytes, 1.0),
            utilization_raw=self._interval_bytes / capacity_bytes,
            mean_queue_sojourn_s=(
                float(np.mean(self._interval_sojourns))
                if self._interval_sojourns
                else 0.0
            ),
            queue_delay_end_s=self.link.queuing_delay_estimate_s(),
            drops_loss=self._interval_drops_loss,
            drops_queue=self._interval_drops_queue,
        )
        self.history.append(stats)
        return stats


@contextmanager
def scalar_baseline_env():
    """Route CcAdversaryEnv onto the baseline emulator for one measurement."""
    orig_emu = cc_env_mod.PacketNetworkEmulator
    orig_link = cc_env_mod.TimeVaryingLink
    cc_env_mod.PacketNetworkEmulator = ScalarBaselineEmulator
    cc_env_mod.TimeVaryingLink = ScalarBaselineLink
    try:
        yield
    finally:
        cc_env_mod.PacketNetworkEmulator = orig_emu
        cc_env_mod.TimeVaryingLink = orig_link


# ---------------------------------------------------------------------------
# Layer 1: raw emulator throughput.
# ---------------------------------------------------------------------------


def measure_raw(emulator_cls, link_cls, sender_cls, n_intervals, seed=0):
    """(intervals/sec, packets/sec) of one emulator under random actions."""
    (bw_lo, bw_hi), (lat_lo, lat_hi), (loss_lo, loss_hi) = CC_ACTION_RANGES.values()
    sender = sender_cls()
    link = link_cls((bw_lo + bw_hi) / 2, (lat_lo + lat_hi) / 2, 0.0, queue_packets=120)
    emu = emulator_cls(sender, link, seed=seed)
    actions = np.random.default_rng(1).random((n_intervals, 3))
    start = time.perf_counter()
    for bw_u, lat_u, loss_u in actions:
        emu.set_conditions(
            bw_lo + (bw_hi - bw_lo) * bw_u,
            lat_lo + (lat_hi - lat_lo) * lat_u,
            loss_lo + (loss_hi - loss_lo) * loss_u,
        )
        emu.run_interval(0.03)
    elapsed = time.perf_counter() - start
    packets = getattr(emu, "packets_sent", None)
    if packets is None:
        packets = emu._next_seq
    return n_intervals / elapsed, packets / elapsed


# ---------------------------------------------------------------------------
# Layer 2: adversary rollout-collection throughput.
# ---------------------------------------------------------------------------


def measure_adversary(n_envs, backend, steps_per_rollout, repeats, baseline=False):
    """Wall-clock env-steps/sec of the CC adversary's collect_rollout."""
    n_steps = max(steps_per_rollout // n_envs, 8)
    cfg = PPOConfig(
        n_steps=n_steps,
        batch_size=n_steps * n_envs,
        n_envs=n_envs,
        hidden=(4,),
        init_log_std=-0.5,
        vec_backend=backend,
    )
    sender_cls = ScalarBaselineBBR if baseline else BBRSender
    env = CcAdversaryEnv(sender_cls, episode_intervals=200, seed=0)
    trainer = PPO(env, cfg, seed=0)
    try:
        trainer.collect_rollout()  # warm up (first reset, obs-rms init)
        start = time.perf_counter()
        for _ in range(repeats):
            trainer.collect_rollout()
        elapsed = time.perf_counter() - start
    finally:
        trainer.close()
    return n_steps * n_envs * repeats / elapsed


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="smoke-test sizes (CI): fewer intervals, steps and repeats",
    )
    args = parser.parse_args()
    raw_intervals = 300 if args.smoke else 3000
    steps_per_rollout = 128 if args.smoke else 512
    repeats = 1 if args.smoke else 3

    cores = os.cpu_count() or 1
    lines = [
        "CC emulator fast path + process-parallel rollouts",
        f"host cores: {cores}",
        "",
    ]

    # -- layer 1: raw emulator ------------------------------------------
    base_ips, base_pps = measure_raw(
        ScalarBaselineEmulator, ScalarBaselineLink, ScalarBaselineBBR, raw_intervals
    )
    fast_ips, fast_pps = measure_raw(
        PacketNetworkEmulator, TimeVaryingLink, BBRSender, raw_intervals
    )
    raw_speedup = fast_ips / base_ips
    lines += [
        "Raw emulator (BBR sender, random Table-1 actions):",
        f"{'variant':>18} {'intervals/s':>12} {'packets/s':>11} {'speedup':>8}",
        f"{'scalar baseline':>18} {base_ips:>12.0f} {base_pps:>11.0f} {1.0:>7.2f}x",
        f"{'fast path':>18} {fast_ips:>12.0f} {fast_pps:>11.0f} {raw_speedup:>7.2f}x",
        "",
    ]
    print("\n".join(lines))

    # -- layer 2: adversary steps/sec -----------------------------------
    grid = [
        ("scalar seed loop", 1, "sync", True),
        ("fast n_envs=1", 1, "sync", False),
        ("fast sync x8", 8, "sync", False),
        ("fast subproc x4", 4, "subproc", False),
        ("fast subproc x8", 8, "subproc", False),
    ]
    adv_lines = [
        "Adversary rollout collection (CC adversary vs BBR):",
        f"{'variant':>18} {'steps/sec':>12} {'speedup':>8}",
    ]
    print("\n".join(adv_lines))
    rates = {}
    for label, n_envs, backend, use_baseline in grid:
        if use_baseline:
            with scalar_baseline_env():
                rate = measure_adversary(
                    n_envs, backend, steps_per_rollout, repeats, baseline=True
                )
        else:
            rate = measure_adversary(n_envs, backend, steps_per_rollout, repeats)
        rates[label] = rate
        speedup = rate / rates["scalar seed loop"]
        row = f"{label:>18} {rate:>12.0f} {speedup:>7.2f}x"
        adv_lines.append(row)
        print(row)
    lines += adv_lines

    adv_speedup = rates["fast subproc x8"] / rates["scalar seed loop"]
    if cores < 4 and adv_speedup < 3.0:
        lines += [
            "",
            f"note: subproc x8 at {adv_speedup:.2f}x on a {cores}-core host --",
            "subprocess workers time-slice the same CPU, so the backend pays",
            "IPC without buying parallelism; the 3x bar applies to >=4-core",
            "hosts (see the module docstring).",
        ]

    table = "\n".join(lines) + "\n"
    RESULTS_DIR.mkdir(exist_ok=True)
    out = RESULTS_DIR / "bench_cc_emulator.txt"
    out.write_text(table)
    print(f"\nwrote {out}")

    # -- guards ----------------------------------------------------------
    status = 0
    if raw_speedup < 2.0:
        print(f"FAIL: raw fast path {raw_speedup:.2f}x below the 2x floor")
        status = 1
    if adv_speedup < 3.0:
        if args.smoke or cores < 4:
            print(
                f"NOTE: subproc x8 adversary speedup {adv_speedup:.2f}x below 3x "
                f"({cores} core(s) -- bar enforced on >=4-core hosts, full mode)"
            )
        else:
            print(f"FAIL: subproc x8 adversary speedup {adv_speedup:.2f}x below 3x")
            status = 1
    return status


if __name__ == "__main__":
    raise SystemExit(main())
