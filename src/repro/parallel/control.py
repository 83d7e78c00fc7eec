"""Replicated control decisions of the sharded engine's pass protocol.

Every party of a parallel run — the parent and each worker process —
takes the per-pass mode and stop decisions *independently* from the
same inputs: the per-shard statistics matrix all shards publish before
the pass barrier (§2.3 step 3's "has my neighbourhood quiesced?"
check, taken here at shard granularity).  Because the functions are
pure and the inputs are identical bytes, every party always agrees —
no control messages, no coordinator, no race.  The column constants
index the shared ``stats`` matrix (one row per shard, float64; counts
are exact up to 2^53).  See docs/PERFORMANCE.md "Sharded execution
model" for the protocol walk-through.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "COL_ACTIVE",
    "COL_MESSAGES",
    "COL_MAX_CHANGE",
    "COL_COMPUTED",
    "COL_PUBLISHED",
    "COL_DEFERRED",
    "COL_RESENT",
    "COL_DROPPED",
    "COL_PENDING",
    "COL_DIRTY",
    "COL_CUT",
    "COL_COMPUTE_S",
    "N_STAT_COLS",
    "static_pass_is_dense",
    "static_should_stop",
    "churn_should_stop",
]

COL_ACTIVE = 0      #: documents above epsilon this pass
COL_MESSAGES = 1    #: cross-peer update messages (Table 3 accounting)
COL_MAX_CHANGE = 2  #: max per-document relative change in the shard
COL_COMPUTED = 3    #: documents recomputed (live documents, churn path)
COL_PUBLISHED = 4   #: entries the shard wrote to its published region
COL_DEFERRED = 5    #: stored updates outstanding at the end of the pass (§3.1)
COL_RESENT = 6      #: store-and-resend deliveries completed
COL_DROPPED = 7     #: deliveries lost to injected faults
COL_PENDING = 8     #: 1.0 if any edge still holds a parked update
COL_DIRTY = 9       #: 1.0 if any document has an unfolded delivery
COL_CUT = 10        #: published-row out-edges crossing a shard boundary
COL_COMPUTE_S = 11  #: shard compute seconds this pass (metrics only)
N_STAT_COLS = 12


def static_pass_is_dense(
    pass_index: int, prev_published_total: int, num_docs: int
) -> bool:
    """Whether pass ``pass_index`` recomputes every document.

    The same gate the serial engine applies: the first pass is always
    dense, and later passes fall back to dense while the previous
    pass's publisher set would make the selective frontier cover most
    of the graph.  Identical inputs at every party → identical choice.
    """
    return pass_index == 0 or 4 * prev_published_total > num_docs


def static_should_stop(stats: np.ndarray) -> bool:
    """Strong convergence on the static path: no document anywhere
    crossed epsilon this pass."""
    return int(stats[:, COL_ACTIVE].sum()) == 0


def churn_should_stop(stats: np.ndarray) -> bool:
    """Strong convergence on the churn path: nothing active, nothing
    parked for an absent peer, nothing delivered-but-not-recomputed."""
    return (
        int(stats[:, COL_ACTIVE].sum()) == 0
        and int(stats[:, COL_PENDING].sum()) == 0
        and int(stats[:, COL_DIRTY].sum()) == 0
    )
