"""Tests for the CC adversary environment (repro.adversary.cc_env)."""

import numpy as np
import pytest

from repro.adversary.cc_env import (
    CC_ACTION_RANGES,
    CcAdversaryEnv,
    train_cc_adversary,
)
from repro.cc import BBRSender, CubicSender
from repro.rl.ppo import PPOConfig


@pytest.fixture
def env():
    return CcAdversaryEnv(BBRSender, episode_intervals=20, seed=0)


class TestTable1ActionSpace:
    def test_ranges_match_paper(self):
        assert CC_ACTION_RANGES["bandwidth_mbps"] == (6.0, 24.0)
        assert CC_ACTION_RANGES["latency_ms"] == (15.0, 60.0)
        assert CC_ACTION_RANGES["loss_rate"] == (0.0, 0.10)

    def test_action_mapping_clips_into_table1(self, env):
        bw, lat, loss = env.action_to_conditions(np.array([10.0, -10.0, 0.0]))
        assert bw == 24.0
        assert lat == 15.0
        assert loss == pytest.approx(0.05)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_action_rejected(self, env, bad):
        env.reset()
        with pytest.raises(ValueError):
            env.step(np.array([0.0, bad, 0.0]))
        assert env.action_log == []

    def test_interval_is_30ms(self, env):
        assert env.interval_s == pytest.approx(0.030)


class TestEpisode:
    def test_observation_is_two_dimensional(self, env):
        obs = env.reset()
        assert obs.shape == (2,)
        obs2, *_ = env.step(np.zeros(3))
        assert obs2.shape == (2,)

    def test_episode_length(self, env):
        env.reset()
        steps = 0
        done = False
        while not done:
            _o, _r, done, _i = env.step(np.zeros(3))
            steps += 1
        assert steps == 20

    def test_step_before_reset_raises(self):
        env = CcAdversaryEnv(BBRSender, episode_intervals=5)
        with pytest.raises(RuntimeError):
            env.step(np.zeros(3))

    def test_invalid_episode_length(self):
        with pytest.raises(ValueError):
            CcAdversaryEnv(BBRSender, episode_intervals=0)

    def test_fresh_sender_each_episode(self, env):
        env.reset()
        first = env.sender
        env.reset()
        assert env.sender is not first

    def test_logs_populated(self, env):
        env.reset()
        env.step(np.array([0.5, -0.5, -1.0]))
        assert len(env.action_log) == 1
        bw, lat, loss = env.condition_log[0]
        assert 6.0 <= bw <= 24.0 and 15.0 <= lat <= 60.0 and 0.0 <= loss <= 0.1

    def test_works_with_other_senders(self):
        env = CcAdversaryEnv(CubicSender, episode_intervals=5)
        env.reset()
        _o, r, _d, _i = env.step(np.zeros(3))
        assert np.isfinite(r)


class TestRewardStructure:
    def test_reward_formula(self, env):
        """reward = 1 - U - L - 0.01 * S (section 4)."""
        env.reset()
        _o, reward, _d, info = env.step(np.array([0.0, 0.0, 0.5]))
        expected = (
            1.0
            - info["utilization"]
            - info["loss_rate"]
            - 0.01 * info["smoothing"]
        )
        assert reward == pytest.approx(expected)

    def test_full_loss_choice_is_costly(self, env):
        """Choosing max loss costs the adversary 0.1 per step, deterring
        the trivial drop-everything attack."""
        env.reset()
        _o, _r, _d, info = env.step(np.array([0.0, 0.0, 1.0]))
        assert info["loss_rate"] == pytest.approx(0.10)

    def test_utilization_in_unit_range(self, env):
        env.reset()
        done = False
        while not done:
            _o, _r, done, info = env.step(np.zeros(3))
            assert 0.0 <= info["utilization"] <= 1.0


class TestTraining:
    def test_short_training_runs(self):
        cfg = PPOConfig(n_steps=64, batch_size=32, hidden=(4,))
        result = train_cc_adversary(
            BBRSender, total_steps=128, seed=0, config=cfg, episode_intervals=32
        )
        assert result.trainer.total_steps == 128
        assert len(result.history) == 2
