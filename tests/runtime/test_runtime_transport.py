"""Unit tests for the in-memory transport, its latency models and
availability schedule, and the wire codec."""

import numpy as np
import pytest

from repro.faults.plan import FaultPlan, FaultSpec
from repro.p2p.messages import BatchAck, MessageBatch, PagerankUpdate
from repro.runtime.mailbox import Mailbox
from repro.runtime.transport import (
    KIND_ACK,
    KIND_BATCH,
    Envelope,
    ExponentialLatency,
    FixedLatency,
    InMemoryTransport,
    OnOffSchedule,
    UniformLatency,
    decode_envelope,
    encode_envelope,
)


def batch(sender=0, receiver=1, n=2) -> MessageBatch:
    return MessageBatch(
        sender_peer=sender,
        receiver_peer=receiver,
        updates=[
            PagerankUpdate(target_doc=10 + i, source_doc=3, value=0.5 + i, version=i)
            for i in range(n)
        ],
    )


def wired(num_peers=2, **kwargs):
    transport = InMemoryTransport(**kwargs)
    boxes = [Mailbox(p) for p in range(num_peers)]
    for p, box in enumerate(boxes):
        transport.connect(p, box)
    return transport, boxes


class TestInMemoryTransport:
    def test_delivers_after_latency(self):
        transport, boxes = wired(latency=FixedLatency(2.0))
        transport.send_batch(batch(), flight_id=0, attempt=1, now=0.0)
        assert transport.next_due() == 2.0
        assert transport.deliver_due(1.0) == 0
        assert transport.deliver_due(2.0) == 1
        envelope = boxes[1].drain()[0]
        assert envelope.kind == KIND_BATCH
        assert envelope.flight_id == 0
        assert transport.delivered_messages == 2

    def test_delivery_order_is_time_then_sequence(self):
        transport, boxes = wired(latency=FixedLatency(1.0))
        for fid in range(4):
            transport.send_batch(batch(), flight_id=fid, attempt=1, now=0.0)
        transport.deliver_due(1.0)
        assert [e.flight_id for e in boxes[1].drain()] == [0, 1, 2, 3]

    def test_zero_latency_rejected(self):
        transport, _ = wired(latency=FixedLatency(0.0))
        with pytest.raises(ValueError, match="strictly positive"):
            transport.send_batch(batch(), flight_id=0, attempt=1, now=0.0)

    def test_bad_pass_time_rejected(self):
        with pytest.raises(ValueError, match="pass_time"):
            InMemoryTransport(pass_time=0.0)

    def test_unconnected_receiver_raises(self):
        transport = InMemoryTransport()
        transport.connect(0, Mailbox(0))
        transport.send_batch(batch(), flight_id=0, attempt=1, now=0.0)
        with pytest.raises(KeyError):
            transport.deliver_due(10.0)

    def test_fault_plan_drops_deterministically(self):
        faults = FaultPlan(FaultSpec(drop_rate=1.0), seed=1)
        transport, boxes = wired(faults=faults)
        transport.send_batch(batch(), flight_id=0, attempt=1, now=0.0)
        assert transport.pending == 0
        assert transport.stats.dropped_updates == 2

    def test_ack_travels_and_can_drop(self):
        transport, boxes = wired()
        transport.send_ack(
            BatchAck(flight_id=7, sender_peer=1, receiver_peer=0), now=0.0
        )
        transport.deliver_due(5.0)
        envelope = boxes[0].drain()[0]
        assert envelope.kind == KIND_ACK and envelope.flight_id == 7

        lossy = FaultPlan(FaultSpec(ack_drop_rate=1.0), seed=2)
        transport2, _ = wired(faults=lossy)
        transport2.send_ack(
            BatchAck(flight_id=7, sender_peer=1, receiver_peer=0), now=0.0
        )
        assert transport2.pending == 0
        assert transport2.stats.acks_dropped == 1

    def test_down_peer_holds_delivery_until_return(self):
        availability = OnOffSchedule(2, mean_up=5.0, mean_down=5.0, seed=3)
        # Find a time at which peer 1 is down.
        t = 0.0
        while availability.is_up(1, t):
            t += 0.25
        up_at = availability.next_up(1, t)
        transport, boxes = wired(
            latency=FixedLatency(0.001), availability=availability
        )
        transport.send_batch(batch(), flight_id=0, attempt=1, now=t)
        assert transport.deliver_due(t + 0.002) == 0
        assert transport.deferred_deliveries == 1
        assert transport.next_due() == pytest.approx(up_at)
        assert transport.deliver_due(up_at) == 1
        assert len(boxes[1]) == 1


class TestLatencyModels:
    def test_fixed(self):
        rng = np.random.default_rng(0)
        m = FixedLatency(1.5)
        assert m(rng, 0, 1) == 1.5

    def test_uniform_bounds(self):
        rng = np.random.default_rng(0)
        m = UniformLatency(0.5, 1.5)
        draws = [m(rng, 0, 1) for _ in range(200)]
        assert min(draws) >= 0.5
        assert max(draws) <= 1.5

    def test_exponential_mean(self):
        rng = np.random.default_rng(0)
        m = ExponentialLatency(2.0)
        draws = [m(rng, 0, 1) for _ in range(5000)]
        assert np.mean(draws) == pytest.approx(2.0, rel=0.1)

    def test_validation(self):
        with pytest.raises(ValueError):
            FixedLatency(-1.0)
        with pytest.raises(ValueError):
            UniformLatency(2.0, 1.0)
        with pytest.raises(ValueError):
            ExponentialLatency(0.0)


class TestOnOffSchedule:
    def test_onoff_schedule_structure(self):
        sched = OnOffSchedule(5, mean_up=10.0, mean_down=5.0, seed=0)
        assert sched.stationary_availability == pytest.approx(10 / 15)
        # next_up is monotone and idempotent when up
        for peer in range(5):
            for t in (0.0, 3.7, 42.0):
                up_at = sched.next_up(peer, t)
                assert up_at >= t
                assert sched.next_up(peer, up_at) == up_at
                assert sched.is_up(peer, up_at)

    def test_onoff_schedule_has_downtime(self):
        sched = OnOffSchedule(20, mean_up=5.0, mean_down=5.0, seed=1)
        down_seen = any(
            not sched.is_up(p, t)
            for p in range(20)
            for t in np.linspace(0, 100, 50)
        )
        assert down_seen

    def test_onoff_validation(self):
        with pytest.raises(ValueError):
            OnOffSchedule(0)
        with pytest.raises(ValueError):
            OnOffSchedule(3, mean_up=0.0)
        sched = OnOffSchedule(3, seed=0)
        with pytest.raises(IndexError):
            sched.next_up(9, 0.0)


class TestWireCodec:
    def test_batch_round_trip(self):
        original = Envelope(
            kind=KIND_BATCH, sender=0, receiver=1, payload=batch(),
            flight_id=9, attempt=3, send_time=1.5,
        )
        line = encode_envelope(original)
        assert line.endswith(b"\n")
        decoded = decode_envelope(line)
        assert decoded == original

    def test_ack_round_trip(self):
        original = Envelope(
            kind=KIND_ACK, sender=1, receiver=0,
            payload=BatchAck(flight_id=9, sender_peer=1, receiver_peer=0),
            flight_id=9, send_time=2.0,
        )
        assert decode_envelope(encode_envelope(original)) == original

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown envelope kind"):
            decode_envelope(b'{"kind":"gossip"}\n')
