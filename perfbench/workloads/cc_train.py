"""cc_adversary_train: PPO trains a link adversary against BBR.

``train_cc_adversary(BBRSender)`` with the in-process sync backend, 4
envs and 1,000-interval episodes.  The packet event loop and BBR's
sender logic dominate; ``r_opt`` and the ABR simulator never run, and
the same PPO code drives a 4-unit net, so a PPO change shows up
differently here than in the ABR workload.

A unit is one ``train_cc_adversary`` call of four PPO iterations
(4 x 512 x 4 env steps); building its envs and trainer counts as set-up.
The operation is one env step (one 30 ms interval of one emulator); its
latency is one ``SyncVecEnv.step`` over all 4 envs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.adversary.cc_env import (
    CcAdversaryEnv,
    default_cc_adversary_config,
    train_cc_adversary,
)
from repro.cc.network import PacketNetworkEmulator
from repro.cc.protocols.bbr import BBRSender
from repro.rl.vec_env import SyncVecEnv

from perfbench import checks
from perfbench.harness import Tracer
from perfbench.workloads.common import (
    PPO_SPANS,
    Unit,
    checked_steps,
    measured,
    packet_counting,
    ppo_metrics,
    ppo_points,
    sender_points,
    timed_training,
)

N_ENVS = 4
EPISODE_INTERVALS = 1000
UNIT_ITERATIONS = 4
#: Intervals replayed twice for the seeded-rerun check.
RERUN_INTERVALS = 300

ALIASES = {"ops_per_s": "train_steps_per_s", "op_p50_ms": "env_step_p50_ms",
           "op_p90_ms": "env_step_p90_ms"}

LAYER_METRICS = (
    "ppo.act_s", "ppo.rollout_self_s", "ppo.gae_s", "ppo.update_s", "ppo.updates",
    "cc_env.step_self_s", "cc.emulator_s", "cc.sender_s", "cc.packets_sent",
    "cc.bytes_delivered", "cc.drops_queue", "cc.drops_loss", "cc.packets_per_s",
    "cc.emulator_share",
)
#: Spans whose self time the metrics above report.
LAYER_SPANS = PPO_SPANS + ("cc_env.step", "cc.emulator", "cc.sender")


@dataclass
class State:
    seed: int


def setup(seed: int) -> State:
    # train_cc_adversary builds everything else; see run_unit.
    return State(seed)


def _replay(seed: int, actions: np.ndarray) -> tuple[list, list[int]]:
    """Drive one env through ``actions``; its interval stats and the
    queued bytes at the start of each interval."""
    env = CcAdversaryEnv(BBRSender, episode_intervals=EPISODE_INTERVALS, seed=seed)
    env.reset()
    queued = []
    for action in actions:
        queued.append(env.emulator.link.queue_bytes())
        env.step(action)
    return list(env.emulator.history), queued


def check(state: State) -> list[str]:
    actions = np.random.default_rng(state.seed).uniform(-1.0, 1.0, size=(RERUN_INTERVALS, 3))
    first, queued = _replay(state.seed, actions)
    second, _ = _replay(state.seed, actions)
    failures = checks.compare_intervals(first, second)
    failures += checks.check_intervals(first, queued)
    return failures


def run_unit(state: State, tracer: Tracer | None = None) -> Unit:
    latencies: list[float] = []
    bad: list[int] = []
    steps = UNIT_ITERATIONS * default_cc_adversary_config().n_steps * N_ENVS
    points = ppo_points() + [(CcAdversaryEnv, "step", "cc_env.step", False)]
    points += sender_points([BBRSender], "cc.sender")
    patches = [checked_steps(SyncVecEnv, latencies, bad)]
    if tracer is not None:
        patches.append((PacketNetworkEmulator, "run_interval",
                        packet_counting(tracer, "cc.emulator", "cc")))
    with measured(tracer, points, patches) as box:
        setup_s, parts = timed_training(lambda callback: train_cc_adversary(
            BBRSender, total_steps=steps, seed=state.seed,
            episode_intervals=EPISODE_INTERVALS, n_envs=N_ENVS, callback=callback,
        ))
    failed = sum(bad)
    failures = [f"{failed} env steps with a non-finite reward or observation"] if failed else []
    return Unit(box["wall_s"], steps, parts, latencies, steps, failed, failures,
                setup_s=setup_s)


def layer_metrics(tracer: Tracer, n_units: int, wall_s: float) -> dict:
    emulator = tracer.self_s["cc.emulator"]
    sender = tracer.self_s["cc.sender"]
    return {
        **ppo_metrics(tracer, n_units),
        "cc_env.step_self_s": tracer.self_s["cc_env.step"] / n_units,
        "cc.emulator_s": emulator / n_units,
        "cc.sender_s": sender / n_units,
        "cc.packets_sent": tracer.counts["cc.packets_sent"] / n_units,
        "cc.bytes_delivered": tracer.counts["cc.bytes_delivered"] / n_units,
        "cc.drops_queue": tracer.counts["cc.drops_queue"] / n_units,
        "cc.drops_loss": tracer.counts["cc.drops_loss"] / n_units,
        "cc.packets_per_s": tracer.counts["cc.packets_sent"] / tracer.total_s["cc.emulator"],
        "cc.emulator_share": (emulator + sender) / wall_s,
    }


def shares(tracer: Tracer, wall_s: float) -> dict:
    """Where the time went, beside an earlier measurement on another host."""
    share = (tracer.self_s["cc.emulator"] + tracer.self_s["cc.sender"]) / wall_s
    return {"emulator + sender share": (share, "about 0.70")}
