"""Property tests of the shared ack/retry/abandon state machine.

:class:`~repro.faults.FlightTable` is driven in passes by the simulator
and in clock units by the runtime, so its behaviour must not depend on
the time unit: a script of launches, acks, clock advances, crash wipes
and forgiveness yields the same retransmit/abandon sequence and the
same ledger at time unit 1 as at time unit k with every time scaled by
k.  Its running unacked count must always equal the updates in the
live flights.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import FlightTable, ReliabilityConfig
from repro.p2p.messages import MessageBatch, PagerankUpdate

PEERS = 3

_configs = st.builds(
    ReliabilityConfig,
    ack_timeout_passes=st.integers(1, 3),
    backoff_factor=st.sampled_from([1.0, 1.5, 2.0]),
    max_retries=st.integers(0, 4),
    max_retry_delay_passes=st.integers(1, 6),
)

_ops = st.one_of(
    st.tuples(
        st.just("launch"),
        st.integers(0, PEERS - 1),
        st.integers(0, PEERS - 1),
        st.integers(1, 4),
    ),
    st.tuples(st.just("ack"), st.integers(0, 7)),
    st.tuples(st.just("advance"), st.integers(0, 5)),
    st.tuples(st.just("wipe"), st.one_of(st.none(), st.integers(0, PEERS - 1))),
    st.tuples(
        st.just("forgive"),
        st.one_of(st.none(), st.integers(0, PEERS - 1)),
        st.one_of(st.none(), st.integers(0, PEERS - 1)),
    ),
)


def _batch(sender, receiver, n, salt):
    return MessageBatch(
        sender_peer=sender,
        receiver_peer=receiver,
        updates=[
            PagerankUpdate(
                target_doc=i, source_doc=salt, value=0.1 * (salt + i + 1), version=0
            )
            for i in range(n)
        ],
    )


def _replay(config, script, unit):
    """Run ``script`` on a table with time unit ``unit``; return the
    observable trace with times divided back by ``unit``."""
    table = FlightTable(config, time_unit=unit)
    now = 0
    trace = []
    for step, op in enumerate(script):
        kind = op[0]
        if kind == "launch":
            flight = table.launch(_batch(op[1], op[2], op[3], step), now * unit)
            trace.append(("launch", flight.flight_id, flight.next_retry / unit))
        elif kind == "ack":
            live = sorted(f.flight_id for f in table)
            fid = live[op[1] % len(live)] if live else op[1]
            trace.append(("ack", fid, table.ack(fid)))
        elif kind == "advance":
            now += op[1]
            retransmit, abandoned = table.due(now * unit)
            trace.append((
                "due",
                [(f.flight_id, f.attempts, f.next_retry / unit) for f in retransmit],
                [f.flight_id for f in abandoned],
            ))
        elif kind == "wipe":
            trace.append(("wipe", table.wipe(op[1])))
        else:
            trace.append(("forgive", table.forgive(sender=op[1], receiver=op[2])))
        assert table.unacked_updates == sum(len(f.batch) for f in table)
        assert table.unacked_flights == len(list(table))
        assert table.abandoned_updates == sum(table.ledger().values())
        nxt = table.next_due()
        trace.append(None if nxt is None else nxt / unit)
    return trace, table.ledger(), table.abandoned_mass, table.retries


@settings(max_examples=200, deadline=None)
@given(
    config=_configs,
    script=st.lists(_ops, max_size=40),
    scale=st.integers(2, 16),
)
def test_time_unit_only_scales_the_clock(config, script, scale):
    assert _replay(config, script, 1) == _replay(config, script, scale)


def test_budget_exhaustion_fills_the_ledger():
    config = ReliabilityConfig(ack_timeout_passes=1, max_retries=2)
    table = FlightTable(config, time_unit=10.0)
    table.launch(_batch(0, 1, 3, 0), 0.0)
    sequence = []
    while table.unacked_flights:
        retransmit, abandoned = table.due(table.next_due())
        sequence.append((len(retransmit), len(abandoned)))
    assert sequence == [(1, 0), (1, 0), (0, 1)]
    assert table.retries == 2
    assert table.ledger() == {(0, 1): 3}
    assert table.abandoned_mass == pytest.approx(0.6)
    table.settle(_batch(0, 1, 3, 0))
    assert table.ledger() == {} and table.abandoned_updates == 0


def test_forgive_by_sender_and_by_receiver():
    config = ReliabilityConfig(ack_timeout_passes=1, max_retries=0)
    table = FlightTable(config)
    for sender, receiver in ((0, 1), (0, 2), (1, 2)):
        table.launch(_batch(sender, receiver, 2, sender), 0)
    table.due(1)
    assert table.ledger() == {(0, 1): 2, (0, 2): 2, (1, 2): 2}
    assert table.forgive(receiver=2) == 4
    assert table.forgive(sender=0) == 2
    assert table.ledger() == {} and table.abandoned_mass == 0.0


def test_time_unit_must_be_positive():
    with pytest.raises(ValueError, match="time_unit"):
        FlightTable(ReliabilityConfig(), time_unit=0)
