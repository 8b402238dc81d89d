"""Pieces shared by the workloads: the timed block, unit results, and the
trace points of layers that more than one workload runs through."""

from __future__ import annotations

import time
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, field

import numpy as np

from repro.cc.protocols.base import Sender
from repro.rl.buffer import RolloutBuffer
from repro.rl.policy import ActorCritic
from repro.rl.ppo import PPO

from perfbench.harness import ROOT_SPAN, Tracer, patched

#: The congestion-control algorithm proper.  ``can_send``/``register_send``
#: and cwnd reads are window bookkeeping the emulators inline or call per
#: event; they stay with the event loop.
SENDER_METHODS = ("handle_ack", "handle_timeout", "pacing_rate_bps")


@dataclass
class Unit:
    """One fixed quantum of a workload's work.

    ``parts`` times the throughput-bearing pieces of the unit by name
    (PPO iterations, evaluation calls, the closed loop); ``ops`` is the
    number of operations those pieces complete.  Every unit of a run
    has the same parts and the same ``ops``.
    """

    wall_s: float
    ops: int
    parts: dict[str, float]
    #: Latency samples of the workload's operation, in seconds; empty when
    #: the operation is the unit itself.
    latencies_s: list[float]
    attempted: int
    #: Operations that failed their check (see each workload's docstring).
    failed: int = 0
    #: A message per failure kind, for the report.
    failures: list[str] = field(default_factory=list)
    #: Workload-specific figures for the report (per-part rates, ...).
    extra: dict = field(default_factory=dict)
    #: Set-up the unit does before its parts, such as building the trainer
    #: or the service; part of ``setup_s``, not of the parts.
    setup_s: float = 0.0


@contextmanager
def measured(tracer: Tracer | None, points=(), patches=()):
    """Time the block under ``patches``; with a tracer, also patch the
    layers and open the root span.

    ``points`` are ``(owner, attribute, span name, leaf)`` for
    :meth:`Tracer.instrument`; ``patches`` are ``(owner, attribute, make)``
    for :func:`patched`, for boundaries that also time or count work.
    The block gets a dict whose ``"wall_s"`` is set on exit.
    """
    box: dict = {}
    with ExitStack() as stack:
        if tracer is not None:
            stack.enter_context(tracer.instrument(points))
        stack.enter_context(patched(patches))
        if tracer is not None:
            tracer.begin(ROOT_SPAN)
        start = time.perf_counter()
        try:
            yield box
        finally:
            box["wall_s"] = time.perf_counter() - start
            if tracer is not None:
                tracer.end()


def checked_steps(vec_cls, latencies: list[float], bad: list[int]) -> tuple:
    """A patch of ``vec_cls.step`` that times each step and checks it.

    A lane step whose reward or observation is non-finite is a failure.
    """

    def make(original):
        def step(vec, actions):
            start = time.perf_counter()
            obs, rewards, dones, infos = original(vec, actions)
            latencies.append(time.perf_counter() - start)
            ok = np.isfinite(rewards) & np.isfinite(obs).all(axis=1)
            if not ok.all():
                bad.append(int((~ok).sum()))
            return obs, rewards, dones, infos

        return step

    return (vec_cls, "step", make)


def timed_training(train) -> tuple[float, dict[str, float]]:
    """Run ``train(callback)``, a library training entry point.

    Returns its set-up time (from the call until ``PPO.learn`` starts:
    building envs and trainer) and each PPO iteration's wall time
    (rollout plus update), keyed by its index.
    """
    marks: list[float] = []

    def learn(original):
        def timed(trainer, *args, **kwargs):
            marks.append(time.perf_counter())
            return original(trainer, *args, **kwargs)

        return timed

    start = time.perf_counter()
    with patched([(PPO, "learn", learn)]):
        train(lambda _trainer, _stats: marks.append(time.perf_counter()))
    iterations = {f"iteration{i}": b - a for i, (a, b) in enumerate(zip(marks, marks[1:]))}
    return marks[0] - start, iterations


#: Spans of :func:`ppo_points` whose self time a PPO metric reports.
PPO_SPANS = ("ppo.rollout", "ppo.act", "ppo.gae", "ppo.update")


def ppo_points() -> list[tuple]:
    """Rollout loop, policy forward in the rollout, GAE and the update."""
    return [
        (PPO, "collect_rollout", "ppo.rollout", False),
        (ActorCritic, "act_batch", "ppo.act", False),
        (RolloutBuffer, "compute_gae", "ppo.gae", False),
        (PPO, "update", "ppo.update", False),
    ]


def ppo_metrics(tracer: Tracer, n_units: int) -> dict:
    return {
        "ppo.act_s": tracer.self_s["ppo.act"] / n_units,
        "ppo.rollout_self_s": tracer.self_s["ppo.rollout"] / n_units,
        "ppo.gae_s": tracer.self_s["ppo.gae"] / n_units,
        "ppo.update_s": tracer.self_s["ppo.update"] / n_units,
        "ppo.updates": tracer.calls["ppo.update"] / n_units,
    }


def sender_points(classes, name: str) -> list[tuple]:
    """Leaf points on every sender method a class defines itself."""
    points = []
    for cls in dict.fromkeys([Sender, *classes]):
        for method in SENDER_METHODS:
            if method in vars(cls):
                points.append((cls, method, name, True))
    return points


def packet_counting(tracer: Tracer, span: str, prefix: str):
    """``make`` for an emulator's ``run_interval``: a span, plus the packets
    it sent (and, for single-flow stats, bytes and drops) counted."""

    def make(original):
        timed = tracer.wrap(original, span)

        def run_interval(emulator, dt):
            sent = emulator.packets_sent
            stats = timed(emulator, dt)
            tracer.count(f"{prefix}.packets_sent", emulator.packets_sent - sent)
            if hasattr(stats, "bytes_delivered"):
                tracer.count(f"{prefix}.bytes_delivered", stats.bytes_delivered)
                tracer.count(f"{prefix}.drops_queue", stats.drops_queue)
                tracer.count(f"{prefix}.drops_loss", stats.drops_loss)
            return stats

        return run_interval

    return make
