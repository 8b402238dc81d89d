"""abr_adversary_train: PPO trains an ABR adversary against a frozen Pensieve.

``train_abr_adversary`` against ``make_demo_pensieve()`` on the 48-chunk
synthetic video, ``vec_backend="batched"``, 16 envs.  The Eq. 1 ``r_opt``
solve is the dominant layer here, the 32x16 net goes through the PPO
update, and no packet emulator or ``repro.serve`` code runs.

A unit is one ``train_abr_adversary`` call of four PPO iterations
(4 x 384 x 16 env steps), so every unit does the same work whatever the
code's speed; building its envs and trainer counts as set-up.  The
operation is one env step; its latency is one lockstep
``BatchedAbrVecEnv.step`` over all 16 lanes.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from repro.abr.batched import BatchedPensieve
from repro.abr.simulator import StreamingSession
from repro.abr.video import Video
from repro.adversary import batched_env
from repro.adversary.abr_env import (
    AbrAdversaryEnv,
    default_abr_adversary_config,
    train_abr_adversary,
)
from repro.adversary.batched_env import BatchedAbrVecEnv
from repro.rl.vec_env import SyncVecEnv
from repro.serve.service import make_demo_pensieve

from perfbench import checks
from perfbench.harness import Tracer
from perfbench.workloads.common import (
    PPO_SPANS,
    Unit,
    checked_steps,
    measured,
    ppo_metrics,
    ppo_points,
    timed_training,
)

N_ENVS = 16
N_CHUNKS = 48
UNIT_ITERATIONS = 4
#: Lockstep steps compared between the sync and batched backends; past
#: the 48-chunk episode end, so auto-reset is covered.
PREFIX_STEPS = 60

ALIASES = {"ops_per_s": "train_steps_per_s", "op_p50_ms": "env_step_p50_ms",
           "op_p90_ms": "env_step_p90_ms"}

LAYER_METRICS = (
    "ppo.act_s", "ppo.rollout_self_s", "ppo.gae_s", "ppo.update_s", "ppo.updates",
    "abr_env.step_self_s", "abr_env.target_s", "abr_env.sim_s", "abr_env.r_opt_s",
    "abr_env.r_opt_share", "abr_env.r_opt_lanes",
)
#: Spans whose self time the metrics above report.
LAYER_SPANS = PPO_SPANS + ("abr_env.step", "abr_env.target", "abr_env.sim", "abr_env.r_opt")


@dataclass
class State:
    seed: int
    video: Video
    target: object


def setup(seed: int) -> State:
    return State(seed, Video.synthetic(n_chunks=N_CHUNKS, seed=seed), make_demo_pensieve())


def _rollout_prefix(vec, seed: int) -> list:
    rng = np.random.default_rng(seed)
    steps = [(vec.reset(seed=seed), np.zeros(vec.n_envs), np.zeros(vec.n_envs, bool),
              [{} for _ in range(vec.n_envs)])]
    for _ in range(PREFIX_STEPS):
        steps.append(vec.step(rng.uniform(-1.0, 1.0, size=(vec.n_envs, 1))))
    return steps


def check(state: State) -> list[str]:
    def make_env():
        return AbrAdversaryEnv(copy.deepcopy(state.target), state.video)

    sync = _rollout_prefix(SyncVecEnv([make_env] * N_ENVS), state.seed)
    batched = _rollout_prefix(make_env().batched_vec_env(N_ENVS), state.seed)
    failures = checks.compare_steps(sync, batched, "sync vs batched")
    failures += checks.check_abr_steps(batched[1:])
    return failures


def _r_opt_counting(tracer: Tracer):
    def make(original):
        timed = tracer.wrap(original, "abr_env.r_opt")

        def solve(video, *, start_chunks, **kwargs):
            tracer.count("abr_env.r_opt_lanes", len(start_chunks))
            return timed(video, start_chunks=start_chunks, **kwargs)

        return solve

    return make


def run_unit(state: State, tracer: Tracer | None = None) -> Unit:
    latencies: list[float] = []
    bad: list[int] = []
    steps = UNIT_ITERATIONS * default_abr_adversary_config().n_steps * N_ENVS
    points = ppo_points() + [
        (BatchedAbrVecEnv, "step", "abr_env.step", False),
        (BatchedPensieve, "start", "abr_env.target", False),
        (BatchedPensieve, "select", "abr_env.target", False),
        (BatchedPensieve, "observe_round", "abr_env.target", False),
        (StreamingSession, "download_chunk", "abr_env.sim", True),
    ]
    patches = [checked_steps(BatchedAbrVecEnv, latencies, bad)]
    if tracer is not None:
        make = _r_opt_counting(tracer)
        patches += [
            (batched_env, "optimal_qoe_exhaustive_batch", make),
            (batched_env, "optimal_qoe_exhaustive_mixed", make),
        ]
    with measured(tracer, points, patches) as box:
        setup_s, parts = timed_training(lambda callback: train_abr_adversary(
            state.target, state.video, total_steps=steps, seed=state.seed,
            n_envs=N_ENVS, vec_backend="batched", callback=callback,
        ))
    failed = sum(bad)
    failures = [f"{failed} lane steps with a non-finite reward or observation"] if failed else []
    return Unit(box["wall_s"], steps, parts, latencies, steps, failed, failures,
                setup_s=setup_s)


def layer_metrics(tracer: Tracer, n_units: int, wall_s: float) -> dict:
    r_opt = tracer.self_s["abr_env.r_opt"]
    return {
        **ppo_metrics(tracer, n_units),
        "abr_env.step_self_s": tracer.self_s["abr_env.step"] / n_units,
        "abr_env.target_s": tracer.self_s["abr_env.target"] / n_units,
        "abr_env.sim_s": tracer.self_s["abr_env.sim"] / n_units,
        "abr_env.r_opt_s": r_opt / n_units,
        "abr_env.r_opt_share": r_opt / wall_s,
        "abr_env.r_opt_lanes": tracer.counts["abr_env.r_opt_lanes"] / n_units,
    }


def shares(tracer: Tracer, wall_s: float) -> dict:
    """Where the time went, beside an earlier measurement on another host."""
    return {"r_opt share": (tracer.self_s["abr_env.r_opt"] / wall_s, "about 0.41")}
