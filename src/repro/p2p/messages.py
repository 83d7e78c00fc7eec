"""Pagerank update messages and per-peer batching (paper §2.3, §4.6.1).

The protocol has a single message type: *pagerank update* — "document
X's contribution to you is now v".  The paper's traffic accounting
(§4.6.1) prices each at 24 bytes: a 128-bit target GUID plus a 64-bit
rank value; and its execution-time model assumes peers batch all
updates bound for the same destination peer within a pass into one
network call.  Both conventions are encoded here so every layer prices
traffic identically.

Updates exist in two shapes.  :class:`PagerankUpdate` is the record
view of one message, and :class:`UpdateBlock` holds many as numpy
columns.  A peer's pass publishes one block; :class:`Outbox` turns
blocks into record batches only for consumers that need records.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Dict, Iterator, List, Sequence, Tuple, Union

import numpy as np

__all__ = [
    "MESSAGE_SIZE_BYTES",
    "ACK_SIZE_BYTES",
    "PagerankUpdate",
    "UpdateBlock",
    "MessageBatch",
    "BatchAck",
    "Outbox",
]

#: Bytes per pagerank update message: 128-bit GUID + 64-bit value (§4.6.1).
MESSAGE_SIZE_BYTES = 24

#: Bytes per batch acknowledgement: a 64-bit flight id plus the 64-bit
#: sender/receiver pair.  Reliability-layer overhead, never part of the
#: paper's 24-byte update accounting (docs/PROTOCOL.md §13).
ACK_SIZE_BYTES = 24


@dataclass(frozen=True)
class PagerankUpdate:
    """One pagerank update message.

    Attributes
    ----------
    target_doc:
        Document the update is addressed to (the link target).
    source_doc:
        Document whose rank changed (the link source).  Receivers need
        it to know *which* in-link's contribution to replace.
    value:
        The sender's new rank.  Deletion updates carry the negated rank
        (§3.1); the sign is data, not protocol.
    version:
        Per-source publish sequence number.  The paper's message format
        (GUID + value) has no ordering information, but with realistic
        latencies two updates from the same document can arrive out of
        order, and applying the older one last leaves the receiver
        permanently stale — a failure mode this reproduction's
        asynchronous simulator actually hit.  Receivers keep only the
        highest version per source (:meth:`repro.p2p.peer.Peer.receive`).
    """

    target_doc: int
    source_doc: int
    value: float
    version: int = 0

    @property
    def size_bytes(self) -> int:
        """Wire size under the paper's 24-byte accounting."""
        return MESSAGE_SIZE_BYTES


@dataclass(frozen=True)
class UpdateBlock:
    """Many update messages as parallel numpy columns.

    Row ``i`` is the update
    ``PagerankUpdate(target_doc[i], source_doc[i], value[i], version[i])``
    bound for peer ``dest_peer[i]``.  A peer stages its whole pass as
    one block (one out-link gather), and the simulator delivers a
    pass's blocks with one vectorized receive per receiving peer.
    """

    dest_peer: np.ndarray
    target_doc: np.ndarray
    source_doc: np.ndarray
    value: np.ndarray
    version: np.ndarray

    def __len__(self) -> int:
        return int(self.target_doc.size)

    @property
    def size_bytes(self) -> int:
        """Wire size under the paper's 24-byte accounting."""
        return len(self) * MESSAGE_SIZE_BYTES

    def take(self, rows: Union[np.ndarray, slice]) -> "UpdateBlock":
        """The block restricted to ``rows`` (an index array, a boolean
        mask or a slice), in that order."""
        return UpdateBlock(
            self.dest_peer[rows],
            self.target_doc[rows],
            self.source_doc[rows],
            self.value[rows],
            self.version[rows],
        )

    def records(self) -> List[PagerankUpdate]:
        """The rows as :class:`PagerankUpdate` records, in row order."""
        return [
            PagerankUpdate(t, s, x, v)
            for t, s, x, v in zip(
                self.target_doc.tolist(),
                self.source_doc.tolist(),
                self.value.tolist(),
                self.version.tolist(),
            )
        ]

    @classmethod
    def concat(cls, blocks: Sequence["UpdateBlock"]) -> "UpdateBlock":
        """Rows of every block, block after block."""
        if len(blocks) == 1:
            return blocks[0]
        if not blocks:
            return cls.from_records([])
        return cls(
            *(np.concatenate([getattr(b, f.name) for b in blocks]) for f in fields(cls))
        )

    @classmethod
    def from_records(
        cls, rows: Sequence[Tuple[int, PagerankUpdate]]
    ) -> "UpdateBlock":
        """A block of ``(dest_peer, update)`` pairs, in order."""
        return cls(
            np.array([d for d, _ in rows], dtype=np.int64),
            np.array([u.target_doc for _, u in rows], dtype=np.int64),
            np.array([u.source_doc for _, u in rows], dtype=np.int64),
            np.array([u.value for _, u in rows], dtype=np.float64),
            np.array([u.version for _, u in rows], dtype=np.int64),
        )


@dataclass
class MessageBatch:
    """All updates one peer sends to one other peer within a pass.

    The §4.6.1 transfer model serialises one network call per
    (sender, receiver) pair per pass; the batch is that call's payload.
    """

    sender_peer: int
    receiver_peer: int
    updates: List[PagerankUpdate] = field(default_factory=list)

    def add(self, update: PagerankUpdate) -> None:
        self.updates.append(update)

    def __len__(self) -> int:
        return len(self.updates)

    def __iter__(self) -> Iterator[PagerankUpdate]:
        return iter(self.updates)

    @property
    def size_bytes(self) -> int:
        """Total payload bytes (updates only; headers ignored, as in
        the paper's estimate)."""
        return len(self.updates) * MESSAGE_SIZE_BYTES


@dataclass(frozen=True)
class BatchAck:
    """Receiver's acknowledgement of one delivered batch flight.

    Part of the reliable-delivery layer (:mod:`repro.faults.transport`),
    not of the paper's protocol: ``flight_id`` is the transport-level
    transfer id being confirmed.  Acks are priced separately
    (:data:`ACK_SIZE_BYTES`) and never count toward the paper's update
    traffic model.
    """

    flight_id: int
    sender_peer: int
    receiver_peer: int

    @property
    def size_bytes(self) -> int:
        return ACK_SIZE_BYTES


class Outbox:
    """Per-peer staging area that groups updates by destination peer.

    Usage per pass: the peer stages every update it generates — one
    record at a time (:meth:`stage`) or a whole pass as a columnar
    block (:meth:`stage_block`) — then the network layer drains them:
    :meth:`batches` yields one :class:`MessageBatch` per destination,
    in first-staging order, and :meth:`take_block` yields everything as
    one columnar block.  Either way each destination sees its updates
    in staging order.
    """

    def __init__(self, owner_peer: int) -> None:
        self.owner_peer = owner_peer
        self._by_dest: Dict[int, MessageBatch] = {}
        # Blocks staged after every record in ``_by_dest``: a record
        # staged behind a block first folds the block into records.
        self._blocks: List[UpdateBlock] = []

    def stage(self, dest_peer: int, update: PagerankUpdate) -> None:
        """Queue ``update`` for ``dest_peer``."""
        if self._blocks:
            self._fold_blocks()
        batch = self._by_dest.get(dest_peer)
        if batch is None:
            batch = self._by_dest[dest_peer] = MessageBatch(self.owner_peer, dest_peer)
        batch.add(update)

    def stage_block(self, block: UpdateBlock) -> None:
        """Queue every row of ``block`` for its ``dest_peer``."""
        if len(block):
            self._blocks.append(block)

    def _fold_blocks(self) -> None:
        """Materialise the pending blocks as per-destination records."""
        by_dest = self._by_dest
        for block in self._blocks:
            for dest, update in zip(block.dest_peer.tolist(), block.records()):
                batch = by_dest.get(dest)
                if batch is None:
                    batch = by_dest[dest] = MessageBatch(self.owner_peer, dest)
                batch.updates.append(update)
        self._blocks.clear()

    def batches(self) -> List[MessageBatch]:
        """Drain and return all staged batches."""
        self._fold_blocks()
        out = list(self._by_dest.values())
        self._by_dest.clear()
        return out

    def take_block(self) -> UpdateBlock:
        """Drain everything staged as one block: the record batches
        first, then the blocks staged after them."""
        rows = [
            (dest, u) for dest, batch in self._by_dest.items() for u in batch.updates
        ]
        blocks = ([UpdateBlock.from_records(rows)] if rows else []) + self._blocks
        self._by_dest.clear()
        self._blocks.clear()
        return UpdateBlock.concat(blocks)

    def wipe(self) -> int:
        """Discard everything staged (crash-with-state-loss semantics).

        Returns the number of updates destroyed, for the fault layer's
        state-loss accounting.
        """
        lost = len(self)
        self._by_dest.clear()
        self._blocks.clear()
        return lost

    def __len__(self) -> int:
        """Total staged updates across all destinations."""
        return sum(len(b) for b in self._by_dest.values()) + sum(
            len(b) for b in self._blocks
        )

    @property
    def destinations(self) -> Tuple[int, ...]:
        """Destination peers, in first-staging order."""
        dests = dict.fromkeys(self._by_dest)
        for block in self._blocks:
            dests.update(dict.fromkeys(block.dest_peer.tolist()))
        return tuple(dests)
