"""Tests for the rule-based ABR protocols (BB, rate-based, MPC)."""

import numpy as np
import pytest

from repro.abr.protocols import MPC, BufferBased, RateBased, run_session
from repro.abr.protocols.rate_based import harmonic_mean_mbps
from repro.abr.simulator import AbrObservation, ControlledBandwidth, StreamingSession
from repro.abr.video import Video
from repro.traces.trace import Trace


@pytest.fixture
def video():
    return Video.synthetic(n_chunks=20, seed=0)


def make_obs(video, buffer_s, history=None, last_quality=None, chunk_index=0):
    return AbrObservation(
        chunk_index=chunk_index,
        last_quality=last_quality,
        buffer_seconds=buffer_s,
        last_chunk_bytes=history[-1][0] if history else 0.0,
        last_download_seconds=history[-1][1] if history else 0.0,
        next_chunk_sizes=video.chunk_sizes_bytes[chunk_index].copy(),
        chunks_remaining=video.n_chunks - chunk_index,
        throughput_history=history or [],
    )


class TestBufferBased:
    def test_below_reservoir_picks_lowest(self, video):
        bb = BufferBased(reservoir_s=5.0, cushion_s=10.0)
        bb.reset(video)
        assert bb.select(make_obs(video, 2.0)) == 0

    def test_above_cushion_picks_highest(self, video):
        bb = BufferBased(reservoir_s=5.0, cushion_s=10.0)
        bb.reset(video)
        assert bb.select(make_obs(video, 15.0)) == video.n_bitrates - 1
        assert bb.select(make_obs(video, 40.0)) == video.n_bitrates - 1

    def test_linear_interpolation_in_band(self, video):
        bb = BufferBased(reservoir_s=5.0, cushion_s=10.0)
        bb.reset(video)
        picks = [bb.select(make_obs(video, b)) for b in np.linspace(5.0, 14.99, 25)]
        assert picks == sorted(picks)  # monotone in buffer
        assert picks[0] == 0 and picks[-1] == video.n_bitrates - 2

    def test_switching_band(self):
        bb = BufferBased(reservoir_s=10.0, cushion_s=5.0)
        assert bb.switching_band == (10.0, 15.0)

    def test_requires_reset(self, video):
        with pytest.raises(RuntimeError):
            BufferBased().select(make_obs(video, 5.0))

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            BufferBased(reservoir_s=-1.0)
        with pytest.raises(ValueError):
            BufferBased(cushion_s=0.0)


class TestRateBased:
    def test_no_history_picks_lowest(self, video):
        rb = RateBased()
        rb.reset(video)
        assert rb.select(make_obs(video, 5.0)) == 0

    def test_picks_highest_under_prediction(self, video):
        rb = RateBased()
        rb.reset(video)
        # History at exactly 2 Mbps -> highest ladder rate <= 2000 kbps is 1850.
        history = [(2.0e6 / 8.0, 1.0)] * 5
        choice = rb.select(make_obs(video, 5.0, history=history))
        assert video.bitrates_kbps[choice] == 1850

    def test_safety_factor(self, video):
        rb = RateBased(safety=0.5)
        rb.reset(video)
        history = [(2.0e6 / 8.0, 1.0)] * 5
        choice = rb.select(make_obs(video, 5.0, history=history))
        assert video.bitrates_kbps[choice] == 750  # <= 1000 kbps

    def test_invalid_safety(self):
        with pytest.raises(ValueError):
            RateBased(safety=0.0)

    @pytest.mark.parametrize("window", [0, -1, 2.5, 5.0, True, None, "5"])
    def test_invalid_window(self, window):
        # window=0 would slice history[-0:], i.e. average everything.
        with pytest.raises(ValueError, match="window"):
            RateBased(window=window)

    @pytest.mark.parametrize("window", [0, -1, 2.5])
    def test_harmonic_mean_rejects_bad_window(self, window):
        with pytest.raises(ValueError, match="window"):
            harmonic_mean_mbps([(2.0e6 / 8.0, 1.0)] * 3, window)

    def test_harmonic_mean_accepts_numpy_window(self):
        history = [(1.0e6 / 8.0, 1.0), (2.0e6 / 8.0, 1.0), (4.0e6 / 8.0, 1.0)]
        assert harmonic_mean_mbps(history, np.int64(1)) == pytest.approx(4.0)
        assert harmonic_mean_mbps(history, 2) == pytest.approx(2 / (1 / 2 + 1 / 4))


class TestMPC:
    def test_first_decision_is_conservative(self, video):
        mpc = MPC()
        mpc.reset(video)
        assert mpc.select(make_obs(video, 0.0)) == 0

    def test_high_throughput_high_buffer_picks_high(self, video):
        mpc = MPC()
        mpc.reset(video)
        history = [(5.0e6 / 8.0, 1.0)] * 5  # 5 Mbps measured
        choice = mpc.select(
            make_obs(video, 25.0, history=history, last_quality=5, chunk_index=5)
        )
        assert choice >= 4

    def test_low_throughput_picks_low(self, video):
        mpc = MPC()
        mpc.reset(video)
        history = [(0.4e6 / 8.0, 1.0)] * 5  # 0.4 Mbps measured
        choice = mpc.select(
            make_obs(video, 2.0, history=history, last_quality=0, chunk_index=5)
        )
        assert choice == 0

    def test_robust_discount_reduces_choice(self, video):
        """After a large prediction error, robust MPC is more conservative."""
        plain = MPC(robust=False)
        robust = MPC(robust=True)
        for mpc in (plain, robust):
            mpc.reset(video)
            # First call installs a prediction of ~4 Mbps.
            mpc.select(make_obs(video, 10.0, history=[(4.0e6 / 8.0, 1.0)] * 5,
                                last_quality=2, chunk_index=3))
        # Actual throughput then measured far below the prediction.
        obs = make_obs(video, 10.0, history=[(4.0e6 / 8.0, 1.0)] * 4 + [(1.0e6 / 8.0, 1.0)],
                       last_quality=2, chunk_index=4)
        assert robust.select(obs) <= plain.select(obs)

    def test_requires_reset(self, video):
        with pytest.raises(RuntimeError):
            MPC().select(make_obs(video, 5.0))

    def test_invalid_horizon(self):
        with pytest.raises(ValueError):
            MPC(horizon=0)

    @pytest.mark.parametrize("horizon", [-2, 2.5, 3.0, False])
    def test_non_integer_or_negative_horizon(self, horizon):
        # int(2.5) would truncate the horizon to 2 silently.
        with pytest.raises(ValueError, match="horizon"):
            MPC(horizon=horizon)

    @pytest.mark.parametrize("window", [0, -1, 2.5])
    def test_invalid_window(self, window):
        with pytest.raises(ValueError, match="window"):
            MPC(window=window)

    def test_numpy_integers_accepted(self):
        mpc = MPC(horizon=np.int64(3), window=np.int32(4))
        assert (mpc.horizon, mpc.window) == (3, 4)
        assert type(mpc.horizon) is int and type(mpc.window) is int

    def test_horizon_truncated_at_video_end(self, video):
        mpc = MPC(horizon=5)
        mpc.reset(video)
        obs = make_obs(video, 10.0, history=[(2e6 / 8, 1.0)] * 5,
                       last_quality=2, chunk_index=video.n_chunks - 2)
        assert 0 <= mpc.select(obs) < video.n_bitrates


class TestProtocolOrdering:
    def test_mpc_beats_bb_on_benign_traces(self):
        """On stable traces, lookahead control should dominate BB."""
        video = Video.synthetic(n_chunks=48, seed=3)
        trace = Trace.constant(3.0, 500.0)
        mpc_q = run_session(video, trace, MPC()).qoe_mean
        bb_q = run_session(video, trace, BufferBased()).qoe_mean
        assert mpc_q > bb_q

    def test_all_protocols_complete_on_harsh_trace(self):
        video = Video.synthetic(n_chunks=20, seed=4)
        trace = Trace.from_steps([0.2, 3.0, 0.1, 4.0] * 10, 4.0)
        for policy in (MPC(), BufferBased(), RateBased()):
            result = run_session(video, trace, policy)
            assert len(result.qualities) == video.n_chunks


def _mpc_decisions(mpc, video):
    """MPC's decisions over a fixed sweep of mid-session observations."""
    sweep = [(5, 15.0, 5.0, 2), (6, 2.0, 0.5, 1), (7, 30.0, 20.0, None),
             (video.n_chunks - 2, 8.0, 3.0, 0)]
    decisions = []
    for chunk_index, buffer_s, mbps, last_quality in sweep:
        history = [(mbps * 1e6 / 8.0, 1.0)] * 5
        obs = make_obs(video, buffer_s, history=history, last_quality=last_quality,
                       chunk_index=chunk_index)
        decisions.append(mpc.select(obs))
    return decisions


def _fresh_mpc_decisions(video, **kwargs):
    mpc = MPC(**kwargs)
    mpc.reset(video)
    return _mpc_decisions(mpc, video)


class TestMpcLadderReset:
    """Regression: a reset must fully re-target MPC to the new video.

    MPC once cached its plan tables keyed on the wrong quantity, so stale
    6-rung plans survived a switch to a narrower ladder and indexed past
    its bitrates.  Whatever MPC keeps across resets, a reused instance
    must decide exactly like a fresh one.
    """

    def test_repeat_reset_matches_fresh_mpc(self, video):
        mpc = MPC()
        mpc.reset(video)
        _mpc_decisions(mpc, video)
        mpc.reset(video)
        assert _mpc_decisions(mpc, video) == _fresh_mpc_decisions(video)

    def test_narrow_ladder_matches_fresh_mpc(self, video):
        narrow = Video.synthetic(n_chunks=20, seed=1, bitrates_kbps=(300, 750, 1200))
        mpc = MPC(horizon=3)
        mpc.reset(video)
        _mpc_decisions(mpc, video)
        mpc.reset(narrow)
        decisions = _mpc_decisions(mpc, narrow)
        assert all(0 <= q < narrow.n_bitrates for q in decisions)
        assert narrow.n_bitrates - 1 in decisions  # the top rung is reachable
        assert decisions == _fresh_mpc_decisions(narrow, horizon=3)

    def test_switch_back_to_wide_ladder_matches_fresh_mpc(self, video):
        narrow = Video.synthetic(n_chunks=20, seed=1, bitrates_kbps=(300, 750, 1200))
        mpc = MPC(horizon=3)
        for v in (video, narrow, video):
            mpc.reset(v)
            decisions = _mpc_decisions(mpc, v)
        assert decisions == _fresh_mpc_decisions(video, horizon=3)
        assert max(decisions) >= narrow.n_bitrates  # past the narrow ladder
