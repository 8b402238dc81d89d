"""The adaptive-video-streaming adversary environment (section 3).

Per time step (one video chunk):

1. the adversary chooses the link bandwidth for the next chunk download
   (action in [0.8, 4.8] Mbps -- the policy acts in normalized [-1, 1]
   units which the environment clips and scales, matching the paper's
   note that "exploration and clipping done by PPO will return the
   actions to the acceptable range"),
2. the frozen target protocol picks a bitrate from its own observation,
3. the chunk downloads at the chosen bandwidth, and
4. the adversary is rewarded with Equation 1, where ``r_opt`` is "the
   highest possible QoE over the last 4 network changes", ``r_protocol``
   the QoE the protocol actually obtained over those chunks, and
   ``p_smoothing`` "the absolute difference between the last two chosen
   bandwidths".

The adversary observes "the bitrate chosen by the protocol for the
previous chunk, the client buffer occupancy, the possible sizes of the
next chunk, the number of remaining chunks, and the throughput and
download time for the last downloaded video chunk", stacked over the last
10 steps.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from repro.abr.protocols.base import AbrPolicy
from repro.abr.protocols.optimal import (
    optimal_qoe_exhaustive,
    optimal_qoe_exhaustive_mixed,
)
from repro.abr.qoe import QoEWeights
from repro.abr.simulator import ControlledBandwidth, StreamingSession
from repro.abr.video import Video
from repro.adversary.reward import AdversaryReward, LastActionSmoothing
from repro.obs.metrics import MetricsRecorder
from repro.rl.env import Env
from repro.rl.ppo import PPO, PPOConfig
from repro.rl.spaces import Box
from repro.rl.vec_env import SubprocVecEnv, SyncVecEnv, VecEnv

__all__ = ["AbrAdversaryEnv", "AbrAdversaryResult", "train_abr_adversary"]

#: The paper's ABR adversary action range (section 3).
ABR_BW_LOW_MBPS = 0.8
ABR_BW_HIGH_MBPS = 4.8

#: "The adversary's state is the history of the last 10 observations."
HISTORY_LEN = 10

#: "r_opt is the highest possible QoE over the last 4 network changes."
OPT_WINDOW = 4


class AbrAdversaryEnv(Env):
    """An RL environment whose agent is the network, not the protocol."""

    #: Supported adversarial goals (section 5, "Different adversarial
    #: goals"): the default QoE-regret objective of Equation 1, or a
    #: rebuffering-specific objective ("an ABR adversary could be created
    #: with the specific goal of causing rebuffering").
    GOALS = ("qoe_regret", "rebuffer")

    def __init__(
        self,
        target: AbrPolicy,
        video: Video,
        weights: QoEWeights = QoEWeights(),
        smoothing_weight: float = 1.0,
        bw_low_mbps: float = ABR_BW_LOW_MBPS,
        bw_high_mbps: float = ABR_BW_HIGH_MBPS,
        history_len: int = HISTORY_LEN,
        opt_window: int = OPT_WINDOW,
        goal: str = "qoe_regret",
    ) -> None:
        if bw_low_mbps <= 0 or bw_high_mbps <= bw_low_mbps:
            raise ValueError("need 0 < bw_low < bw_high")
        if goal not in self.GOALS:
            raise ValueError(f"unknown goal {goal!r}; choose from {self.GOALS}")
        self.goal = goal
        self.target = target
        self.video = video
        self.weights = weights
        self.history_len = history_len
        self.opt_window = opt_window
        self.reward_fn = AdversaryReward(smoothing_weight=smoothing_weight)
        self.smoothing = LastActionSmoothing()
        self.bw_box = Box([bw_low_mbps], [bw_high_mbps])
        self.action_space = Box([-1.0], [1.0])
        self._frame_dim = 5 + video.n_bitrates
        dim = self._frame_dim * history_len
        self.observation_space = Box([-1e6] * dim, [1e6] * dim)
        self._session: StreamingSession | None = None
        self._bandwidth = ControlledBandwidth()
        self._frames: list[np.ndarray] = []
        # Per-chunk records needed to evaluate r_opt windows.
        self._chosen_bw: list[float] = []
        self._buffer_before: list[float] = []
        self._prev_quality_before: list[int | None] = []
        self._protocol_qoe: list[float] = []

    # -- featurization ----------------------------------------------------------

    def _frame(self) -> np.ndarray:
        """One observation frame from the target's point of view."""
        assert self._session is not None
        obs = self._session.observation()
        max_bitrate = float(self.video.bitrates_kbps[-1])
        last_bitrate = (
            0.0
            if obs.last_quality is None
            else self.video.bitrates_kbps[obs.last_quality] / max_bitrate
        )
        return np.concatenate(
            [
                [
                    last_bitrate,
                    obs.buffer_seconds / 10.0,
                    obs.chunks_remaining / max(self.video.n_chunks, 1),
                    obs.last_throughput_mbps() / 10.0,
                    obs.last_download_seconds / 10.0,
                ],
                obs.next_chunk_sizes / 1e6,
            ]
        )

    def _stacked(self) -> np.ndarray:
        frames = self._frames[-self.history_len :]
        pad = self.history_len - len(frames)
        if pad:
            frames = [np.zeros(self._frame_dim)] * pad + frames
        return np.concatenate(frames)

    # -- env API -------------------------------------------------------------------

    def reset(self, *, seed: int | None = None) -> np.ndarray:
        self._bandwidth = ControlledBandwidth()
        self._session = StreamingSession(self.video, self._bandwidth, weights=self.weights)
        self.target.reset(self.video)
        self.smoothing.reset()
        self._chosen_bw = []
        self._buffer_before = []
        self._prev_quality_before = []
        self._protocol_qoe = []
        self._frames = [self._frame()]
        return self._stacked()

    def action_to_bandwidth(self, action) -> float:
        """Map a raw (possibly out-of-range) policy action to Mbps."""
        return float(self.bw_box.scale_from_unit(np.asarray(action, dtype=float))[0])

    def _advance_world(self, action):
        """Everything in one step *except* the r_opt search.

        Returns the intermediates the reward needs: ``(bandwidth,
        smoothing, quality, result, start)`` with ``start`` the first chunk
        of the current r_opt window.  Split out so that
        :meth:`batch_step` can run the expensive exhaustive search once
        over a whole batch of envs.
        """
        session = self._session
        if session is None:
            raise RuntimeError("call reset() before step()")
        if session.done:
            raise RuntimeError("episode finished; call reset()")
        bandwidth = self.action_to_bandwidth(action)
        smoothing = self.smoothing(np.array([bandwidth]))
        self._bandwidth.set_mbps(bandwidth)

        self._buffer_before.append(session.buffer_seconds)
        self._prev_quality_before.append(session.prev_quality)
        self._chosen_bw.append(bandwidth)

        quality = self.target.select(session.observation())
        result = session.download_chunk(quality)
        self._protocol_qoe.append(result.qoe)
        self._frames.append(self._frame())

        window = min(self.opt_window, len(self._chosen_bw))
        start = len(self._chosen_bw) - window
        return bandwidth, smoothing, quality, result, start

    def _finish_step(
        self, bandwidth, smoothing, quality, result, start, r_opt
    ) -> tuple[np.ndarray, float, bool, dict]:
        """Assemble (obs, reward, done, info) once ``r_opt`` is known."""
        r_protocol = float(sum(self._protocol_qoe[start:]))
        if self.goal == "rebuffer":
            # Specific goal: cause stalls the optimum would have avoided.
            reward = self.reward_fn(result.rebuffer_seconds, 0.0, smoothing)
        else:
            reward = self.reward_fn(r_opt, r_protocol, smoothing)
        info = {
            "bandwidth_mbps": bandwidth,
            "quality": quality,
            "chunk_qoe": result.qoe,
            "r_opt": r_opt,
            "r_protocol": r_protocol,
            "smoothing": smoothing,
            "rebuffer": result.rebuffer_seconds,
        }
        assert self._session is not None
        return self._stacked(), reward, self._session.done, info

    def step(self, action) -> tuple[np.ndarray, float, bool, dict]:
        bandwidth, smoothing, quality, result, start = self._advance_world(action)
        r_opt, _plan = optimal_qoe_exhaustive(
            self.video,
            start_chunk=start,
            bandwidths_mbps=self._chosen_bw[start:],
            start_buffer_s=self._buffer_before[start],
            prev_quality=self._prev_quality_before[start],
            weights=self.weights,
        )
        return self._finish_step(bandwidth, smoothing, quality, result, start, r_opt)

    @staticmethod
    def batch_step(envs, actions):
        """Step a batch of :class:`AbrAdversaryEnv` in lockstep.

        The :class:`~repro.rl.vec_env.SyncVecEnv` fast path: worlds advance
        serially (cheap), then the exhaustive ``r_opt`` searches -- the
        dominant per-step cost -- run as one vectorized
        :func:`optimal_qoe_exhaustive_mixed` call per distinct
        (video, weights) pair, which itself groups mixed window lengths so
        a staggered batch still searches in as few lattice sweeps as there
        are distinct lengths.  Values are bitwise identical to per-env
        :meth:`step`.
        """
        pre = [env._advance_world(actions[i]) for i, env in enumerate(envs)]
        r_opts: list[float | None] = [None] * len(envs)
        groups: dict[tuple, list[int]] = {}
        for i, env in enumerate(envs):
            groups.setdefault((id(env.video), id(env.weights)), []).append(i)
        for idxs in groups.values():
            first = envs[idxs[0]]
            starts = [pre[i][4] for i in idxs]
            values = optimal_qoe_exhaustive_mixed(
                first.video,
                start_chunks=starts,
                bandwidth_windows=[envs[i]._chosen_bw[s:] for i, s in zip(idxs, starts)],
                start_buffers_s=[envs[i]._buffer_before[s] for i, s in zip(idxs, starts)],
                prev_qualities=[
                    envs[i]._prev_quality_before[s] for i, s in zip(idxs, starts)
                ],
                weights=first.weights,
            )
            for i, value in zip(idxs, values):
                r_opts[i] = float(value)
        return [
            env._finish_step(*p, r_opts[i]) for i, (env, p) in enumerate(zip(envs, pre))
        ]

    # -- conveniences -----------------------------------------------------------------

    def chosen_bandwidths(self) -> list[float]:
        """The bandwidths chosen so far this episode (one per chunk)."""
        return list(self._chosen_bw)

    def batched_vec_env(self, n_envs: int, seed: int | None = None) -> VecEnv:
        """The ``"batched"`` vec backend: this env's world, fully vectorized.

        Returns a :class:`~repro.adversary.batched_env.BatchedAbrVecEnv`
        configured like this env (same target/video/weights/goal/bounds)
        that advances ``n_envs`` worlds per step with one batched target
        call -- rollouts bitwise identical to
        ``SyncVecEnv([this env] * n_envs)``.  This instance itself is not
        consumed; it stays usable as a serial env.
        """
        from repro.adversary.batched_env import BatchedAbrVecEnv

        return BatchedAbrVecEnv(
            self.target,
            self.video,
            n_envs,
            weights=self.weights,
            smoothing_weight=self.reward_fn.smoothing_weight,
            bw_low_mbps=float(self.bw_box.low[0]),
            bw_high_mbps=float(self.bw_box.high[0]),
            history_len=self.history_len,
            opt_window=self.opt_window,
            goal=self.goal,
            seed=seed,
        )


@dataclass
class AbrAdversaryResult:
    """A trained ABR adversary with its environment and learning curve."""

    trainer: PPO
    env: AbrAdversaryEnv
    history: list[dict]


def default_abr_adversary_config() -> PPOConfig:
    """PPO defaults for the ABR adversary.

    The network is the paper's: "two fully connected hidden layers, the
    first with 32 neurons and the second with 16 neurons"; the learning
    rate is constant (the paper's one deviation from stable-baselines
    defaults).
    """
    return PPOConfig(
        n_steps=384,
        batch_size=96,
        n_epochs=4,
        learning_rate=7e-4,
        ent_coef=0.01,
        hidden=(32, 16),
        init_log_std=-0.3,
    )


def train_abr_adversary(
    target: AbrPolicy,
    video: Video,
    total_steps: int = 40_000,
    seed: int = 0,
    config: PPOConfig | None = None,
    smoothing_weight: float = 1.0,
    weights: QoEWeights = QoEWeights(),
    callback: Callable[[PPO, dict], None] | None = None,
    goal: str = "qoe_regret",
    n_envs: int = 1,
    vec_backend: str = "sync",
    recorder: MetricsRecorder | None = None,
) -> AbrAdversaryResult:
    """Train an adversary against a frozen ABR protocol.

    Rollouts are collected from ``n_envs`` env copies through one vec env
    (each copy with its own copy of the frozen target, sharing the video);
    a single env is simply a one-env vec env.  The run is fully determined
    by ``seed``.  ``vec_backend`` picks the collection backend: ``"sync"``
    (default) steps the copies in-process and exploits the batched
    ``r_opt`` solver, ``"subproc"`` gives each copy a worker process, and
    ``"batched"`` advances every world inside one fully vectorized
    :class:`~repro.adversary.batched_env.BatchedAbrVecEnv` -- a single
    batched target-policy call and one frame-ring scatter per step, the
    fastest choice by a wide margin for NN targets (see
    ``benchmarks/bench_vec_rollout.py``).  All three backends produce the
    same rollouts bit for bit; with subproc/batched the returned ``env``
    is a fresh local instance.  ``recorder`` receives the trainer's
    per-update diagnostics (see :class:`~repro.rl.ppo.PPO`); it never
    alters results.
    """
    cfg = config or default_abr_adversary_config()
    if n_envs != 1 or vec_backend != "sync":
        cfg = replace(cfg, n_envs=n_envs, vec_backend=vec_backend)

    def make_env() -> AbrAdversaryEnv:
        return AbrAdversaryEnv(
            copy.deepcopy(target), video, weights=weights,
            smoothing_weight=smoothing_weight, goal=goal,
        )

    vec: VecEnv
    if cfg.vec_backend == "subproc":
        vec = SubprocVecEnv([make_env] * cfg.n_envs)
        env = make_env()
    elif cfg.vec_backend == "batched":
        env = make_env()
        vec = env.batched_vec_env(cfg.n_envs)
    else:
        vec = SyncVecEnv([make_env] * cfg.n_envs)
        env = vec.envs[0]
    try:
        trainer = PPO(vec, cfg, seed=seed, recorder=recorder)
        history = trainer.learn(total_steps, callback=callback)
    finally:
        # An exception mid-training must not strand forked workers.
        if cfg.vec_backend == "subproc":
            vec.close()
    return AbrAdversaryResult(trainer=trainer, env=env, history=history)
