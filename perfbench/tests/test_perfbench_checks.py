"""Each correctness check passes on real outputs and fails on corrupted ones."""

import copy
from dataclasses import replace

import numpy as np

from perfbench import checks
from repro.abr.protocols.buffer_based import BufferBased
from repro.abr.video import Video
from repro.adversary.abr_env import AbrAdversaryEnv
from repro.adversary.cc_env import CcAdversaryEnv
from repro.cc.matrix import MatrixCell
from repro.cc.protocols.bbr import BBRSender


def _abr_rollout(steps=6, lanes=3):
    video = Video.synthetic(n_chunks=8, seed=0)
    vec = AbrAdversaryEnv(BufferBased(), video).batched_vec_env(lanes)
    vec.reset(seed=0)
    rng = np.random.default_rng(0)
    return [vec.step(rng.uniform(-1, 1, size=(lanes, 1))) for _ in range(steps)]


def test_rollout_comparison_catches_a_flipped_reward():
    steps = _abr_rollout()
    assert checks.compare_steps(steps, copy.deepcopy(steps), "x") == []
    corrupted = copy.deepcopy(steps)
    corrupted[3][1][1] = -corrupted[3][1][1] or 1.0
    assert checks.compare_steps(steps, corrupted, "x") == ["x: step 3 rewards differ"]


def test_rollout_comparison_catches_a_changed_r_opt():
    steps = _abr_rollout()
    corrupted = copy.deepcopy(steps)
    corrupted[2][3][0]["r_opt"] += 1e-12
    assert checks.compare_steps(steps, corrupted, "x") == ["x: step 2 lane 0 r_opt differ"]


def test_abr_step_invariants():
    steps = _abr_rollout()
    assert checks.check_abr_steps(steps) == []
    broken = copy.deepcopy(steps)
    info = broken[4][3][2]
    info["r_opt"] = info["r_protocol"] - 1e-6
    broken[1][1][0] = np.nan
    failures = checks.check_abr_steps(broken)
    assert len(failures) == 2
    assert "non-finite reward" in failures[0] and "r_opt - r_protocol" in failures[1]


def _cc_intervals(n=40):
    env = CcAdversaryEnv(BBRSender, episode_intervals=n, seed=3)
    env.reset()
    queued = []
    rng = np.random.default_rng(3)
    for _ in range(n):
        queued.append(env.emulator.link.queue_bytes())
        env.step(rng.uniform(-1, 1, size=3))
    return list(env.emulator.history), queued


def test_interval_checks():
    stats, queued = _cc_intervals()
    again, _ = _cc_intervals()
    assert checks.compare_intervals(stats, again) == []
    assert checks.check_intervals(stats, queued) == []

    changed = list(again)
    changed[7] = replace(changed[7], bytes_delivered=changed[7].bytes_delivered + 1)
    assert checks.compare_intervals(stats, changed) == ["interval 7: rerun differs"]

    capacity = stats[5].bandwidth_mbps * 1e6 * (stats[5].t_end - stats[5].t_start) / 8
    inflated = list(stats)
    inflated[5] = replace(stats[5], bytes_delivered=int(capacity + queued[5]) + 1500)
    inflated[9] = replace(stats[9], utilization=float("nan"))
    failures = checks.check_intervals(inflated, queued)
    assert len(failures) == 2
    assert failures[0].startswith("interval 5: delivered")
    assert failures[1] == "interval 9: non-finite stats"


def test_qoe_checks():
    batched = {"bb": [1.0, 2.0, 3.0], "mpc": [0.5, 0.25, 0.125]}
    serial = {"bb": [1.0, 3.0], "mpc": [0.5, 0.125]}
    assert checks.compare_qoe(batched, serial, [0, 2]) == []
    serial["mpc"][1] = np.nextafter(0.125, 1.0)
    assert len(checks.compare_qoe(batched, serial, [0, 2])) == 1
    assert checks.check_qoe_finite(batched) == []
    batched["bb"][1] = float("inf")
    assert checks.check_qoe_finite(batched) == ["bb trace 1: non-finite QoE inf"]


def test_matrix_check():
    cell = MatrixCell(
        protocol="bbr", scenario="pair-same", flows=("bbr", "bbr"), start_times=(0.0, 0.0),
        throughput_mbps=(6.0, 7.5), capacity_mbps=15.0, capacity_fraction=0.4,
        fairness=0.99, fairness_regret=0.01,
    )
    assert checks.check_matrix([cell]) == []
    over = replace(cell, throughput_mbps=(8.0, 7.5))
    negative = replace(cell, throughput_mbps=(-0.1, 7.5))
    nan = replace(cell, fairness_regret=float("nan"))
    assert len(checks.check_matrix([over, negative, nan])) == 3


def test_decision_mismatches_are_counted():
    reference = [0, 1, 2, 2, 5]
    assert checks.count_mismatches(list(reference), reference) == 0
    assert checks.count_mismatches([0, 1, 3, 2, 5], reference) == 1
    assert checks.count_mismatches([0, 1, 2], reference) == 2

