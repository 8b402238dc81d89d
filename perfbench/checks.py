"""Correctness checks, run on a workload's outputs before anything is timed.

Each check is a pure function of outputs and returns a list of failure
messages (empty = pass), so the benchmark's tests can feed it a
deliberately corrupted output.  The checks rest on invariants that hold
whatever the engines look like inside -- serial == batched, seeded
reruns are identical, Eq. 1's ``r_opt`` is an upper bound, conservation
of bytes, served == inline decisions -- not on golden digests that a
planned change of semantics would have to re-pin.
"""

from __future__ import annotations

import math

import numpy as np

#: Slack for ``r_opt - r_protocol >= 0``: both sides are sums of the same
#: per-chunk QoE terms, so only rounding separates them.
R_OPT_SLACK = 1e-9


def _same_bytes(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def compare_steps(reference: list, candidate: list, label: str) -> list[str]:
    """Bitwise equality of two rollout prefixes.

    Each prefix is a list of ``(obs, rewards, dones, infos)`` as returned
    by ``VecEnv.step``; infos are compared on their float entries.
    """
    if len(reference) != len(candidate):
        return [f"{label}: {len(candidate)} steps, expected {len(reference)}"]
    failures = []
    for t, (ref, got) in enumerate(zip(reference, candidate)):
        for part, a, b in zip(("obs", "rewards", "dones"), ref[:3], got[:3]):
            if not _same_bytes(a, b):
                failures.append(f"{label}: step {t} {part} differ")
        for lane, (ia, ib) in enumerate(zip(ref[3], got[3])):
            for key in ("r_opt", "r_protocol", "bandwidth_mbps", "quality"):
                if key in ia and float(ia[key]).hex() != float(ib.get(key, math.nan)).hex():
                    failures.append(f"{label}: step {t} lane {lane} {key} differ")
    return failures


def check_abr_steps(steps: list) -> list[str]:
    """Finite rewards and observations, and ``r_opt >= r_protocol`` per step."""
    failures = []
    for t, (obs, rewards, _dones, infos) in enumerate(steps):
        if not np.isfinite(obs).all():
            failures.append(f"step {t}: non-finite observation")
        if not np.isfinite(rewards).all():
            failures.append(f"step {t}: non-finite reward")
        for lane, info in enumerate(infos):
            gap = info["r_opt"] - info["r_protocol"]
            if not gap >= -R_OPT_SLACK:
                failures.append(
                    f"step {t} lane {lane}: r_opt - r_protocol = {gap!r} < -{R_OPT_SLACK}"
                )
    return failures


def interval_record(stats) -> tuple:
    """An ``IntervalStats`` as exact hex strings, for byte comparison."""
    return tuple(
        float(getattr(stats, f)).hex()
        for f in ("t_start", "t_end", "bandwidth_mbps", "latency_ms", "loss_rate",
                  "bytes_delivered", "utilization", "utilization_raw",
                  "mean_queue_sojourn_s", "queue_delay_end_s", "drops_loss",
                  "drops_queue")
    )


def compare_intervals(first: list, second: list) -> list[str]:
    """A seeded rerun must reproduce every interval's stats exactly."""
    if len(first) != len(second):
        return [f"rerun has {len(second)} intervals, expected {len(first)}"]
    return [
        f"interval {i}: rerun differs"
        for i, (a, b) in enumerate(zip(first, second))
        if interval_record(a) != interval_record(b)
    ]


def check_intervals(stats: list, queued_before: list[int]) -> list[str]:
    """Finite stats, and delivered bytes within capacity plus queued bytes.

    ``queued_before[i]`` is the bottleneck queue's byte count when
    interval ``i`` began: a link cannot deliver more than it can transmit
    in the interval plus what was already waiting for it.
    """
    failures = []
    for i, (s, queued) in enumerate(zip(stats, queued_before)):
        values = (s.t_start, s.t_end, s.bandwidth_mbps, s.latency_ms, s.loss_rate,
                  s.bytes_delivered, s.utilization, s.utilization_raw,
                  s.mean_queue_sojourn_s, s.queue_delay_end_s)
        if not all(math.isfinite(float(v)) for v in values):
            failures.append(f"interval {i}: non-finite stats")
            continue
        capacity = s.bandwidth_mbps * 1e6 * (s.t_end - s.t_start) / 8.0
        if s.bytes_delivered > capacity + queued + 1e-6:
            failures.append(
                f"interval {i}: delivered {s.bytes_delivered} B > capacity "
                f"{capacity:.1f} B + queued {queued} B"
            )
    return failures


def compare_qoe(batched: dict, serial: dict, indices: list[int]) -> list[str]:
    """Batched per-trace QoE equals the serial replay, bit for bit."""
    failures = []
    for name, values in serial.items():
        for k, i in enumerate(indices):
            a, b = batched[name][i], values[k]
            if float(a).hex() != float(b).hex():
                failures.append(f"{name} trace {i}: batched {a!r} != serial {b!r}")
    return failures


def check_qoe_finite(results: dict) -> list[str]:
    return [
        f"{name} trace {i}: non-finite QoE {v!r}"
        for name, values in results.items()
        for i, v in enumerate(values)
        if not math.isfinite(v)
    ]


def check_matrix(cells: list) -> list[str]:
    """Every cell finite, each flow's rate in [0, capacity], their sum too."""
    failures = []
    for cell in cells:
        label = f"{cell.protocol}/{cell.scenario}"
        rates = list(cell.throughput_mbps)
        values = rates + [cell.capacity_mbps, cell.capacity_fraction, cell.fairness_regret]
        if not all(math.isfinite(v) for v in values):
            failures.append(f"{label}: non-finite cell {values}")
            continue
        bound = cell.capacity_mbps * (1.0 + 1e-9)
        if min(rates) < 0.0 or sum(rates) > bound:
            failures.append(
                f"{label}: flow rates {rates} outside [0, capacity {cell.capacity_mbps}]"
            )
    return failures


def count_mismatches(got: list[int], reference: list[int]) -> int:
    """Positions where served decisions differ from the inline replay,
    plus any missing or extra decisions."""
    return sum(a != b for a, b in zip(got, reference)) + abs(len(got) - len(reference))

