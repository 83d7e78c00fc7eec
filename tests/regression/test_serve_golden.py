"""Golden regression: a small open-loop serving ladder must reproduce
its recorded reports exactly.

Four offered rates over one 300-document, 10-peer corpus, with a
two-slot entry-peer queue and a 20 ms per-hop service time, so the
ladder runs from an idle system through shedding with retries to
queries dropped after the retry budget.  Every engine on the path is
deterministic, so each rate's report digest (a hash over every query's
timing, attempts and hit count), counters, latency figures, location
cache counters and final-rank digest are fixed numbers.  A change that
moves any query's timing, attempts or hits fails here.

When a change is *intentional*, rerun the ladder with ``_run`` below
and commit the new values together with the reason for the change.
"""

import hashlib
from typing import NamedTuple, Tuple

import numpy as np
import pytest

from repro.serve import ServeConfig, ServeSession


class _Golden(NamedTuple):
    digest: str
    rank_digest: str
    #: offered, completed, cache_hits, shed, retries, dropped,
    #: rank_refreshes, index_update_messages, traffic_doc_ids,
    #: bytes_on_wire, dht_hops, peak_queue_depth
    counters: Tuple[int, ...]
    #: latency_p50, latency_p99, latency_max
    latency: Tuple[float, float, float]
    #: location-cache hits, misses, routed hops (summed over peers)
    location_cache: Tuple[int, int, int]


_RANK_DIGEST = "f1c5239f998b42bcba4ce26ba23df06489504405a7a09338baba10e55063ac32"

GOLDEN = {
    50.0: _Golden(
        digest="e9ffd538439f31dd0e3259dc482ffe89e8bd7c2d903ddc2fb80b270679499af3",
        rank_digest=_RANK_DIGEST,
        counters=(105, 105, 58, 1, 1, 0, 4, 4515, 1817, 35896, 93, 2),
        latency=(0.0006249999999999867, 0.07756879937533333, 0.0868598803858932),
        location_cache=(53, 89, 198),
    ),
    200.0: _Golden(
        digest="d7fa685224a566fa2cfa44c81c323247af2bf50e4870f8beeda9a04daaf284cb",
        rank_digest=_RANK_DIGEST,
        counters=(413, 413, 304, 37, 37, 0, 4, 4515, 4324, 95960, 161, 2),
        latency=(0.0003906249999999778, 0.0855433320130731, 0.0914073421747994),
        location_cache=(191, 173, 387),
    ),
    800.0: _Golden(
        digest="77bfbb2994e7a86364ef977f6c959b7e78cd6e799ace762d0bf63e4125548ca6",
        rank_digest=_RANK_DIGEST,
        counters=(1608, 1608, 1323, 526, 526, 0, 4, 4515, 11900, 280616, 177, 2),
        latency=(0.00031249999999993783, 0.0866362928166243, 0.09104902938872517),
        location_cache=(1109, 272, 616),
    ),
    3200.0: _Golden(
        digest="e33274ced57ffdb7e0fc39ee93cfc434bf70857de332bddccd7d3a8f4dd3981a",
        rank_digest=_RANK_DIGEST,
        counters=(6382, 6207, 5485, 4747, 4572, 175, 4, 4515, 29275, 812696, 141, 2),
        latency=(0.00023437500000000888, 0.08692167193738069, 0.093152752323582),
        location_cache=(6495, 418, 953),
    ),
}


def _run(qps: float) -> _Golden:
    config = ServeConfig(
        docs=300,
        peers=10,
        seed=7,
        qps=qps,
        duration=2.0,
        num_distinct=100,
        queue_capacity=2,
        service_time=0.02,
    )
    session = ServeSession(config)
    r = session.run()
    ranks = np.ascontiguousarray(r.runtime.ranks, dtype=np.float64)
    return _Golden(
        digest=r.digest,
        rank_digest=hashlib.sha256(ranks.tobytes()).hexdigest(),
        counters=(
            r.offered, r.completed, r.cache_hits, r.shed, r.retries,
            r.dropped, r.rank_refreshes, r.index_update_messages,
            r.traffic_doc_ids, r.bytes_on_wire, r.dht_hops,
            r.peak_queue_depth,
        ),
        latency=(r.latency_p50, r.latency_p99, r.latency_max),
        location_cache=session.router.location_cache_stats(),
    )


@pytest.mark.parametrize("qps", sorted(GOLDEN))
def test_serve_ladder_matches_golden(qps):
    assert _run(qps) == GOLDEN[qps]

