"""Tests for the time-varying link (repro.cc.link)."""

import pytest

from repro.cc.link import TimeVaryingLink
from repro.cc.packet import MSS_BYTES, Packet


def make_packet(seq=0):
    return Packet(seq=seq, size_bytes=MSS_BYTES, sent_time=0.0,
                  delivered_at_send=0, delivered_time_at_send=0.0)


class TestTimeVaryingLink:
    def test_condition_validation(self):
        link = TimeVaryingLink(10.0, 40.0)
        with pytest.raises(ValueError):
            link.set_conditions(0.0, 40.0, 0.0)
        with pytest.raises(ValueError):
            link.set_conditions(10.0, -1.0, 0.0)
        with pytest.raises(ValueError):
            link.set_conditions(10.0, 40.0, 1.5)

    @pytest.mark.parametrize(
        "bandwidth, latency",
        [(float("nan"), 40.0), (float("inf"), 40.0), (10.0, float("nan")),
         (10.0, float("inf"))],
    )
    def test_non_finite_conditions_rejected(self, bandwidth, latency):
        link = TimeVaryingLink(10.0, 40.0)
        with pytest.raises(ValueError):
            link.set_conditions(bandwidth, latency, 0.0)
        with pytest.raises(ValueError):
            TimeVaryingLink(bandwidth, latency)
        # The rejected tuple leaves the previous conditions in force.
        assert (link.bandwidth_mbps, link.latency_ms) == (10.0, 40.0)

    def test_queue_size_validation(self):
        with pytest.raises(ValueError):
            TimeVaryingLink(10.0, 40.0, queue_packets=0)

    def test_service_time(self):
        link = TimeVaryingLink(12.0, 40.0)
        # 1500 bytes at 12 Mbps = 1 ms.
        assert link.service_time(make_packet()) == pytest.approx(0.001)

    def test_one_way_delay_is_half_latency(self):
        link = TimeVaryingLink(12.0, 40.0)
        assert link.one_way_delay_s == pytest.approx(0.020)

    def test_queue_full(self):
        link = TimeVaryingLink(12.0, 40.0, queue_packets=2)
        assert not link.queue_full
        link.enqueue(make_packet(0))
        link.enqueue(make_packet(1))
        assert link.queue_full

    def test_queuing_delay_estimate(self):
        link = TimeVaryingLink(12.0, 40.0)
        for i in range(10):
            link.enqueue(make_packet(i))
        # 10 * 1500 bytes at 12 Mbps = 10 ms.
        assert link.queuing_delay_estimate_s() == pytest.approx(0.010)

    def test_enqueue_dequeue_track_queue_bytes(self):
        link = TimeVaryingLink(12.0, 40.0)
        link.enqueue(make_packet(0))
        link.enqueue(make_packet(1))
        assert link.queue_bytes() == 2 * MSS_BYTES
        out = link.dequeue()
        assert out.seq == 0
        assert link.queue_bytes() == MSS_BYTES
        link.dequeue()
        assert link.queue_bytes() == 0

    def test_conditions_update(self):
        link = TimeVaryingLink(12.0, 40.0)
        link.set_conditions(24.0, 15.0, 0.05)
        assert link.bandwidth_mbps == 24.0
        assert link.latency_ms == 15.0
        assert link.loss_rate == 0.05
