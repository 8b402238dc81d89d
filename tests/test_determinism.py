"""Golden determinism tests: seeded training is exactly reproducible.

Two layers of protection:

- *Run-to-run*: the same seed must give bitwise-identical weights and
  rewards across two fresh training runs, for single-env and vectorized
  collection, on both adversary environments.
- *Golden fingerprints*: short ABR/CC adversary trainings must reproduce
  fingerprints recorded on the pre-vectorization single-env implementation.
  These pin the n_envs=1 path to its historical behaviour -- if one of
  these fails, a change has silently altered the numerics of every past
  experiment (and every bench result under ``results/``).
"""

import numpy as np
import pytest

from repro.abr.protocols import BufferBased
from repro.abr.video import Video
from repro.adversary.abr_env import AbrAdversaryEnv, train_abr_adversary
from repro.adversary.cc_env import CcAdversaryEnv, train_cc_adversary
from repro.cc.protocols.bbr import BBRSender
from repro.rl.ppo import PPO, PPOConfig


def fingerprint(ppo: PPO) -> tuple[float, float]:
    """(sum of all weight sums, last mean episode reward) of a trainer."""
    weight_sum = float(sum(float(np.sum(w)) for w in ppo.policy.get_weights()))
    return weight_sum, float(ppo.history[-1]["mean_episode_reward"])


def abr_trainer(seed: int, n_envs: int = 1) -> PPO:
    video = Video.synthetic(n_chunks=16, seed=3)
    cfg = PPOConfig(
        n_steps=64, batch_size=32, hidden=(8,), init_log_std=-0.3, n_envs=n_envs
    )
    ppo = PPO(AbrAdversaryEnv(BufferBased(), video), cfg, seed=seed)
    ppo.learn(128 * n_envs)
    return ppo


def cc_trainer(seed: int, n_envs: int = 1, goal: str = "utilization") -> PPO:
    cfg = PPOConfig(
        n_steps=64, batch_size=32, hidden=(4,), init_log_std=-0.5, n_envs=n_envs
    )
    ppo = PPO(
        CcAdversaryEnv(BBRSender, episode_intervals=48, seed=5, goal=goal),
        cfg, seed=seed,
    )
    ppo.learn(128 * n_envs)
    return ppo


class TestRunToRunDeterminism:
    @pytest.mark.parametrize("n_envs", [1, 4])
    def test_abr_same_seed_same_weights(self, n_envs):
        a, b = abr_trainer(seed=7, n_envs=n_envs), abr_trainer(seed=7, n_envs=n_envs)
        for wa, wb in zip(a.policy.get_weights(), b.policy.get_weights()):
            assert np.array_equal(wa, wb)
        assert fingerprint(a) == fingerprint(b)

    @pytest.mark.parametrize("n_envs", [1, 4])
    def test_cc_same_seed_same_weights(self, n_envs):
        a, b = cc_trainer(seed=11, n_envs=n_envs), cc_trainer(seed=11, n_envs=n_envs)
        for wa, wb in zip(a.policy.get_weights(), b.policy.get_weights()):
            assert np.array_equal(wa, wb)
        assert fingerprint(a) == fingerprint(b)

    def test_different_seeds_differ(self):
        assert fingerprint(abr_trainer(seed=7)) != fingerprint(abr_trainer(seed=8))

    @pytest.mark.parametrize("n_envs", [1, 4])
    def test_train_abr_adversary_deterministic(self, n_envs):
        video = Video.synthetic(n_chunks=16, seed=3)
        cfg = PPOConfig(n_steps=64, batch_size=32, hidden=(8,), init_log_std=-0.3)

        def run():
            return train_abr_adversary(
                BufferBased(), video, total_steps=128 * n_envs, seed=3,
                config=cfg, n_envs=n_envs,
            )

        a, b = run(), run()
        for wa, wb in zip(
            a.trainer.policy.get_weights(), b.trainer.policy.get_weights()
        ):
            assert np.array_equal(wa, wb)

    @pytest.mark.parametrize("n_envs", [1, 4])
    def test_train_cc_adversary_deterministic(self, n_envs):
        cfg = PPOConfig(n_steps=64, batch_size=32, hidden=(4,), init_log_std=-0.5)

        def run():
            return train_cc_adversary(
                BBRSender, total_steps=128 * n_envs, seed=5, config=cfg,
                episode_intervals=48, n_envs=n_envs,
            )

        a, b = run(), run()
        for wa, wb in zip(
            a.trainer.policy.get_weights(), b.trainer.policy.get_weights()
        ):
            assert np.array_equal(wa, wb)


class TestGoldenFingerprints:
    """Recorded fingerprints pinning the n_envs=1 paths; see module docstring.

    Exact float equality is intentional: the single-env path is supposed to
    perform the very same operations in the very same order.  If a numpy
    upgrade ever changes elementwise numerics, re-record these values in
    the same commit that documents the upgrade.

    The ABR value dates from the pre-vectorization implementation.  The CC
    values were last re-pinned when the single-flow emulator became a
    one-flow view over ``MultiFlowEmulator``, the repo's one CC engine.
    Two semantics moved, both to the engine's:

    - the ack's return leg is priced at the one-way delay in force when
      the packet reaches the receiver (each direction's delay is the one
      in force on entry, as in a Mahimahi delay shell), no longer at the
      delay in force at egress.  The two differ only for packets whose
      flight spans an adversary latency change;
    - the RTO check runs on a fixed 100 ms grid from t = 0, no longer on
      a tick armed by the first transmit and disarmed while idle.

    Within the engine (pre-drawn loss uniforms, integer event dispatch,
    running-sum accumulators, O(1) queue-byte counters) every seeded run
    is draw-for-draw reproducible -- see TestRunToRunDeterminism.
    """

    ABR_GOLDEN = (4.7408447238551, 57.15224527291367)
    CC_GOLDEN = (-2.092510120000373, -0.14598131919426072)
    CC_CONGESTION_GOLDEN = (-2.1140658183802334, 3.2567197050813466)

    def test_abr_adversary_golden(self):
        assert fingerprint(abr_trainer(seed=7)) == self.ABR_GOLDEN

    def test_cc_adversary_golden(self):
        assert fingerprint(cc_trainer(seed=11)) == self.CC_GOLDEN

    def test_cc_adversary_congestion_goal_golden(self):
        assert (
            fingerprint(cc_trainer(seed=11, goal="congestion"))
            == self.CC_CONGESTION_GOLDEN
        )
