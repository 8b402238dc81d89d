"""Tests for the offline-optimal solvers (repro.abr.protocols.optimal)."""

import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.abr.protocols import (
    MPC,
    BufferBased,
    RateBased,
    best_plans,
    optimal_plan_dp,
    optimal_qoe_exhaustive,
    plan_totals,
    run_session,
)
from repro.abr.protocols import optimal
from repro.abr.protocols.optimal import optimal_qoe_exhaustive_batch
from repro.abr.qoe import QoEWeights, chunk_qoe
from repro.abr.simulator import BUFFER_CAP_S, LINK_RTT_S, PACKET_PAYLOAD_PORTION
from repro.abr.video import Video
from repro.traces.trace import Trace


@pytest.fixture
def video():
    return Video.synthetic(n_chunks=12, seed=0)


def simulate_plan(video, plan, bandwidths, start_buffer=0.0, prev_quality=None,
                  weights=QoEWeights()):
    """Reference simulation of a fixed plan under per-chunk bandwidth."""
    buffer = start_buffer
    prev = prev_quality
    total = 0.0
    for k, q in enumerate(plan):
        rate = bandwidths[k] * 1e6 / 8.0 * PACKET_PAYLOAD_PORTION
        dl = video.chunk_size(k, q) / rate + LINK_RTT_S
        rebuf = max(dl - buffer, 0.0)
        buffer = min(max(buffer - dl, 0.0) + video.chunk_seconds, BUFFER_CAP_S)
        prev_kbps = None if prev is None else float(video.bitrates_kbps[prev])
        total += chunk_qoe(float(video.bitrates_kbps[q]), rebuf, prev_kbps, weights)
        prev = q
    return total


class TestExhaustive:
    def test_matches_brute_force(self, video):
        bandwidths = np.array([1.0, 3.5, 0.9])
        best, plan = optimal_qoe_exhaustive(video, 0, bandwidths, 2.0, 1)
        brute = max(
            simulate_plan(video, p, bandwidths, 2.0, 1)
            for p in itertools.product(range(video.n_bitrates), repeat=3)
        )
        assert best == pytest.approx(brute)
        assert simulate_plan(video, plan, bandwidths, 2.0, 1) == pytest.approx(best)

    def test_rejects_empty_and_long_windows(self, video):
        with pytest.raises(ValueError):
            optimal_qoe_exhaustive(video, 0, [], 0.0, None)
        with pytest.raises(ValueError):
            optimal_qoe_exhaustive(video, 0, np.ones(9), 0.0, None)

    def test_rejects_nonpositive_bandwidth(self, video):
        with pytest.raises(ValueError):
            optimal_qoe_exhaustive(video, 0, [1.0, 0.0], 0.0, None)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_bandwidth(self, video, bad):
        with pytest.raises(ValueError, match="bandwidths"):
            optimal_qoe_exhaustive(video, 0, [1.0, bad], 2.0, 1)
        with pytest.raises(ValueError, match="bandwidths"):
            optimal_qoe_exhaustive_batch(video, [0], [[1.0, bad]], [5.0], [None])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -5.0])
    def test_rejects_bad_start_buffer(self, video, bad):
        with pytest.raises(ValueError, match="start buffers"):
            optimal_qoe_exhaustive(video, 0, [1.0, 2.0], bad, 1)
        with pytest.raises(ValueError, match="start buffers"):
            optimal_qoe_exhaustive_batch(video, [0, 1], [[1.0, 2.0]] * 2, [1.0, bad],
                                         [None, 2])

    def test_rejects_window_past_video_end(self, video):
        with pytest.raises(ValueError):
            optimal_qoe_exhaustive(video, video.n_chunks - 1, [1.0, 1.0], 0.0, None)

    @given(
        st.lists(st.floats(0.8, 4.8), min_size=4, max_size=4),
        st.floats(0.0, 30.0),
        st.sampled_from([None, 0, 2, 5]),
    )
    @settings(max_examples=25, deadline=None)
    def test_optimum_dominates_any_fixed_plan(self, bandwidths, buffer, prev):
        """The claimed optimum is >= any specific plan (here: constant plans)."""
        video = Video.synthetic(n_chunks=8, seed=1)
        best, _ = optimal_qoe_exhaustive(video, 0, bandwidths, buffer, prev)
        for q in range(video.n_bitrates):
            fixed = simulate_plan(video, [q] * 4, bandwidths, buffer, prev)
            assert best >= fixed - 1e-9


class TestDP:
    def test_plan_value_consistent(self):
        video = Video.synthetic(n_chunks=16, seed=2)
        rng = np.random.default_rng(0)
        bandwidths = rng.uniform(0.8, 4.8, video.n_chunks)
        total, plan = optimal_plan_dp(video, bandwidths)
        # The reported total must equal the exact simulation of the plan.
        assert total == pytest.approx(simulate_plan(video, plan, bandwidths))

    def test_dp_close_to_exhaustive_on_short_video(self):
        video = Video.synthetic(n_chunks=6, seed=3)
        bandwidths = np.array([1.0, 4.0, 0.9, 3.0, 2.0, 1.5])
        exact, _ = optimal_qoe_exhaustive(video, 0, bandwidths, 0.0, None)
        dp_total, _ = optimal_plan_dp(video, bandwidths, buffer_step_s=0.1)
        assert dp_total <= exact + 1e-9  # DP is a feasible (conservative) plan
        assert dp_total >= exact - 0.5  # ... and close to it

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0])
    def test_bad_bandwidth_rejected(self, bad):
        video = Video.synthetic(n_chunks=5, seed=0)
        with pytest.raises(ValueError, match="bandwidths"):
            optimal_plan_dp(video, [1.0, 2.0, bad, 1.0, 1.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -1.0])
    def test_bad_start_buffer_rejected(self, bad):
        video = Video.synthetic(n_chunks=5, seed=0)
        with pytest.raises(ValueError, match="start buffers"):
            optimal_plan_dp(video, np.ones(5), start_buffer_s=bad)

    def test_wrong_bandwidth_count_rejected(self):
        video = Video.synthetic(n_chunks=5, seed=0)
        with pytest.raises(ValueError):
            optimal_plan_dp(video, np.ones(3))

    def test_optimal_beats_all_protocols(self):
        """r_opt >= r_protocol: the foundation of the adversary's reward."""
        video = Video.synthetic(n_chunks=24, seed=4)
        rng = np.random.default_rng(1)
        bandwidths = rng.uniform(0.8, 4.8, video.n_chunks)
        trace = Trace.from_steps(bandwidths, video.chunk_seconds)
        opt, _ = optimal_plan_dp(video, bandwidths)
        for policy in (MPC(), BufferBased(), RateBased()):
            result = run_session(video, trace, policy)
            assert opt >= result.qoe_total - 1e-6

    def test_low_bandwidth_start_strategy(self):
        """On a rising trace, the optimum starts low and climbs (cf. Fig 3)."""
        video = Video.synthetic(n_chunks=12, seed=5)
        bandwidths = np.linspace(0.8, 4.8, 12)
        _total, plan = optimal_plan_dp(video, bandwidths)
        assert plan[0] <= 1
        assert max(plan[-4:]) >= 4


def reference_totals(downloads, start_buffers, prev_values, has_prev, qualities,
                     weights, buffer_cap, chunk_seconds):
    """Plan-by-plan simulation in ``itertools.product`` order, one lane at a
    time, with the smoothing term skipped (not zeroed) on a first chunk."""
    n_lanes, steps, n_b = downloads.shape
    rows = []
    for lane in range(n_lanes):
        row = []
        for plan in itertools.product(range(n_b), repeat=steps):
            buffer = float(start_buffers[lane])
            total = 0.0
            prev = float(prev_values[lane]) if has_prev[lane] else None
            for k, c in enumerate(plan):
                download = float(downloads[lane, k, c])
                rebuffer = max(download - buffer, 0.0)
                buffer = min(max(buffer - download, 0.0) + chunk_seconds, buffer_cap)
                quality = float(qualities[c])
                total += quality - weights.rebuffer_penalty * rebuffer
                if prev is not None:
                    total -= weights.smooth_penalty * abs(quality - prev)
                prev = quality
            row.append(total)
        rows.append(row)
    return np.array(rows).reshape(n_lanes, n_b**steps)


@st.composite
def kernel_cases(draw):
    steps = draw(st.integers(1, 6))
    # Keep the pure-Python reference small: at most 729 plans per lane.
    n_b = draw(st.integers(2, max(n for n in range(2, 7) if n**steps <= 729)))
    n_lanes = draw(st.integers(1, 10))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    downloads = rng.uniform(0.1, 12.0, (n_lanes, steps, n_b))
    start_buffers = rng.uniform(0.0, 40.0, n_lanes)
    qualities = np.sort(rng.uniform(0.0, 5.0, n_b))
    prev = [draw(st.one_of(st.none(), st.integers(0, n_b - 1))) for _ in range(n_lanes)]
    prev_values = np.array([0.0 if p is None else qualities[p] for p in prev])
    has_prev = np.array([p is not None for p in prev])
    weights = QoEWeights(rebuffer_penalty=draw(st.floats(0.0, 10.0)),
                         smooth_penalty=draw(st.floats(0.0, 3.0)))
    buffer_cap = draw(st.sampled_from([BUFFER_CAP_S, 12.0, np.inf]))
    chunk_seconds = draw(st.sampled_from([1.0, 4.0]))
    # Small budgets force several lane tiles, down to one lane per tile.
    tile_plans = draw(st.sampled_from([1, 1000, optimal._TILE_PLANS]))
    case = (downloads, start_buffers, prev_values, has_prev, qualities, weights,
            buffer_cap, chunk_seconds)
    return tile_plans, case


class TestPlanTotals:
    @given(kernel_cases())
    @settings(max_examples=60, deadline=None)
    def test_matches_product_order_reference_bitwise(self, drawn):
        tile_plans, case = drawn
        with mock.patch.object(optimal, "_TILE_PLANS", tile_plans):
            totals = plan_totals(*case)
        expected = reference_totals(*case)
        assert totals.shape == expected.shape
        assert totals.tobytes() == expected.tobytes()
        # MPC's decision: the first step of the first-max plan.
        n_b, steps = case[0].shape[2], case[0].shape[1]
        plans = list(itertools.product(range(n_b), repeat=steps))
        for lane in range(len(totals)):
            row = expected[lane].tolist()
            first = plans[row.index(max(row))][0]
            assert int(np.argmax(totals[lane])) // n_b ** (steps - 1) == first


@st.composite
def search_cases(draw):
    steps = draw(st.integers(1, 6))
    # The pure-Python reference scans lanes x plans: at most 70 x 729.
    n_b = draw(st.integers(2, max(n for n in range(2, 7) if n**steps <= 729)))
    n_lanes = draw(st.integers(1, 70))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    downloads = rng.uniform(0.1, 12.0, (n_lanes, steps, n_b))
    qualities = np.sort(rng.uniform(0.0, 5.0, n_b))
    rebuffer_penalty = draw(st.floats(0.0, 10.0))
    smooth_penalty = draw(st.floats(0.0, 3.0))
    if draw(st.booleans()):
        # Forced ties: two rungs of equal size and score, and penalties
        # that may be zero, so distinct plans reach bitwise-equal totals.
        c = draw(st.integers(1, n_b - 1))
        downloads[:, :, c] = downloads[:, :, c - 1]
        qualities[c] = qualities[c - 1]
        rebuffer_penalty *= draw(st.sampled_from([0.0, 1.0]))
        smooth_penalty *= draw(st.sampled_from([0.0, 1.0]))
    start_buffers = rng.uniform(0.0, 40.0, n_lanes)
    prev = [draw(st.one_of(st.none(), st.integers(0, n_b - 1))) for _ in range(n_lanes)]
    prev_values = np.array([0.0 if p is None else qualities[p] for p in prev])
    has_prev = np.array([p is not None for p in prev])
    weights = QoEWeights(rebuffer_penalty=rebuffer_penalty, smooth_penalty=smooth_penalty)
    buffer_cap = draw(st.sampled_from([BUFFER_CAP_S, 12.0, np.inf]))
    chunk_seconds = draw(st.sampled_from([1.0, 4.0]))
    # 0 prunes every multi-step search, however small; the default
    # leaves the small ones on the dense path.
    prune_min = draw(st.sampled_from([0, optimal._PRUNE_MIN_PLANS]))
    case = (downloads, start_buffers, prev_values, has_prev, qualities, weights,
            buffer_cap, chunk_seconds)
    return prune_min, case


class TestBestPlans:
    @given(search_cases())
    @settings(max_examples=50, deadline=None)
    def test_matches_product_order_reference_bitwise(self, drawn):
        prune_min, case = drawn
        with mock.patch.object(optimal, "_PRUNE_MIN_PLANS", prune_min):
            best, index = best_plans(*case)
        expected = reference_totals(*case)
        rows = [row.tolist() for row in expected]
        firsts = [row.index(max(row)) for row in rows]
        assert best.tobytes() == np.array([max(row) for row in rows]).tobytes()
        assert index.tolist() == firsts

    @pytest.mark.parametrize("n_lanes,steps", [(64, 5), (32, 5), (16, 4), (64, 4)])
    def test_pruned_mpc_shapes_match_full_scan(self, n_lanes, steps):
        """Benchmark-sized searches take the pruned path and still return
        the full scan's row max and first argmax."""
        assert n_lanes * 6**steps >= optimal._PRUNE_MIN_PLANS
        video = Video.synthetic(n_chunks=12, seed=7)
        rng = np.random.default_rng(n_lanes * steps)
        rates = rng.uniform(0.2, 6.0, n_lanes) * 1e6 / 8.0 * PACKET_PAYLOAD_PORTION
        downloads = (video.chunk_sizes_bytes[None, :steps] / rates[:, None, None]
                     + LINK_RTT_S)
        qualities = np.array([QoEWeights().quality(b) for b in video.bitrates_kbps])
        prev = rng.integers(0, 6, n_lanes)
        case = (downloads, rng.uniform(0.0, 30.0, n_lanes), qualities[prev],
                rng.random(n_lanes) < 0.8, qualities, QoEWeights(), np.inf,
                video.chunk_seconds)
        totals = plan_totals(*case)
        with mock.patch.object(optimal, "plan_totals", side_effect=AssertionError):
            best, index = best_plans(*case)
        assert best.tobytes() == totals.max(axis=1).tobytes()
        assert np.array_equal(index, totals.argmax(axis=1))
