"""Peer state machine for the protocol-level simulator (paper Fig. 1).

Each :class:`Peer` is "a simple state machine exchanging messages"
(§2.3): it stores a subset of the documents, recomputes their ranks
from the contributions it has *received*, and stages update messages
for out-links on other peers whenever a document's relative change
exceeds ε.  Intra-peer link updates are applied by publishing the new
value locally — visible to co-located consumers next pass without any
network message — but note that, per the pseudocode, publishing too is
gated by ε: a document that did not change significantly exposes its
previous value everywhere.

This class is intentionally plain-Python and per-document: it is the
readable reference implementation of the protocol, cross-validated
against the vectorized engine by the integration tests, and it is what
the asynchronous peer runtime (:mod:`repro.runtime`) drives.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.core.kernels import expand_rows, kernel_backend, relative_change
from repro.graphs.linkgraph import LinkGraph
from repro.p2p.messages import Outbox, PagerankUpdate

__all__ = ["Peer", "PassOutcome"]


@dataclass(frozen=True)
class PassOutcome:
    """What one peer did in one compute pass.

    Attributes
    ----------
    active_documents:
        Local documents whose relative change exceeded ε (and hence
        published/sent updates).
    max_rel_change:
        Largest relative change among local documents this pass.
    staged_updates:
        Update messages staged for other peers.
    published_docs:
        The documents that published this pass.  The simulator needs
        them to mark *co-located* link targets as awaiting a recompute
        (remote targets are marked at delivery time instead).
    """

    active_documents: int
    max_rel_change: float
    staged_updates: int
    published_docs: Tuple[int, ...] = ()


class Peer:
    """One peer: local documents, received contributions, outbox.

    Parameters
    ----------
    peer_id:
        Dense peer identifier.
    documents:
        The document ids this peer stores.
    graph:
        The global link graph.  A real peer only knows its documents'
        links; the simulator hands every peer the same immutable graph
        purely as the container of that local information (out-links of
        local docs, in-links needed for recompute).
    init_rank:
        Initial rank; a global protocol constant, so contributions from
        documents never heard from are assumed to be at it.
    honor_versions:
        When true (default) reordered stale updates are discarded using
        the per-source version numbers; false reproduces the paper's
        unversioned wire format, where the last arrival wins even if it
        is older (the reordering hazard the ablation benchmarks
        measure).
    """

    def __init__(
        self,
        peer_id: int,
        documents: Iterable[int],
        graph: LinkGraph,
        *,
        init_rank: float = 1.0,
        honor_versions: bool = True,
    ) -> None:
        self.peer_id = int(peer_id)
        self.documents = np.asarray(sorted(int(d) for d in documents), dtype=np.int64)
        self.graph = graph
        self.init_rank = float(init_rank)
        self.honor_versions = bool(honor_versions)
        self._local = set(int(d) for d in self.documents)
        #: Current rank of each local document.
        self.rank: Dict[int, float] = {int(d): self.init_rank for d in self.documents}
        #: Last value each local document exposed to its consumers.
        self.published: Dict[int, float] = dict(self.rank)
        #: Last received value per remote in-linking document.
        self.remote_values: Dict[int, float] = {}
        #: Version of the value held in :attr:`remote_values`.
        self._remote_versions: Dict[int, int] = {}
        #: Per-local-document publish sequence numbers.
        self._publish_version: Dict[int, int] = {}
        #: Stored updates awaiting absent receivers: peer -> updates.
        self.deferred: Dict[int, List[PagerankUpdate]] = {}
        self.outbox = Outbox(self.peer_id)
        # Reciprocal out-degrees, multiplied rather than divided so the
        # floating-point operations match the vectorized engine bit for
        # bit (the integration tests assert exact rank equality).
        out_deg = graph.out_degrees()
        self._inv_out = np.zeros(graph.num_nodes, dtype=np.float64)
        nz = out_deg > 0
        self._inv_out[nz] = 1.0 / out_deg[nz]
        # Per-peer reverse sub-CSR shard (``csr`` kernel backend only).
        # Built lazily from the global reverse graph; invalidated when
        # the local document set changes (surrender/adopt).  The shard
        # accumulates with np.bincount, whose sequential accumulation
        # order over ``in_links(doc)`` is bit-identical to the
        # per-edge Python loop in :meth:`_fresh_rank`.
        self._use_csr = kernel_backend() == "csr"
        self._lsrc: Optional[np.ndarray] = None  # flat in-link sources
        self._lrow: Optional[np.ndarray] = None  # local row id per in-link
        self._lslot: Optional[np.ndarray] = None  # visible-slot per in-link
        self._lw: Optional[np.ndarray] = None  # 1/outdeg per in-link
        self._rank_arr: Optional[np.ndarray] = None  # rank, documents order
        self._vis_ids: Optional[np.ndarray] = None  # global ids, sorted
        self._vis_index: Optional[Dict[int, int]] = None  # global id -> slot
        self._visible: Optional[np.ndarray] = None  # compact visible values

    # ------------------------------------------------------------------
    def _invalidate_shard(self) -> None:
        """Drop the vectorized shard; the next pass rebuilds it."""
        self._lsrc = None
        self._lrow = None
        self._lslot = None
        self._lw = None
        self._rank_arr = None
        self._vis_ids = None
        self._vis_index = None
        self._visible = None

    def _ensure_shard(self) -> None:
        """Build the per-peer reverse sub-CSR over the local documents.

        The shard is the flattened concatenation of
        ``graph.in_links(doc)`` for the sorted local documents, plus a
        *compact* visible-value array covering exactly the global ids
        this peer ever reads (its in-link sources and its own docs) —
        O(local in-edges) memory rather than O(N) per peer.
        """
        if self._lsrc is not None:
            return
        docs = self.documents
        rev = self.graph.reverse()
        pos, lens = expand_rows(rev.indptr, docs)
        lsrc = rev.indices[pos]
        self._lsrc = lsrc
        self._lrow = np.repeat(np.arange(docs.size, dtype=np.int64), lens)
        self._lw = self._inv_out[lsrc]
        need = np.unique(np.concatenate([lsrc, docs])) if docs.size else docs
        self._vis_ids = need
        self._vis_index = {int(g): i for i, g in enumerate(need)}
        visible = np.empty(need.size, dtype=np.float64)
        for i, g in enumerate(need):
            visible[i] = self.visible_value(int(g))
        self._visible = visible
        self._lslot = np.searchsorted(need, lsrc)
        self._rank_arr = np.array(
            [self.rank[int(d)] for d in docs], dtype=np.float64
        )

    # ------------------------------------------------------------------
    def owns(self, doc: int) -> bool:
        """True if this peer stores ``doc``."""
        return doc in self._local

    def visible_value(self, doc: int) -> float:
        """The value of ``doc`` as this peer currently sees it."""
        if doc in self._local:
            return self.published[doc]
        return self.remote_values.get(doc, self.init_rank)

    def receive(self, update: PagerankUpdate) -> bool:
        """Fold one received update into local knowledge.

        Updates carry per-source versions; a reordered older update is
        discarded rather than overwriting fresher knowledge, and a
        replayed *equal*-version update (a §3.1 resend, a reliability-
        layer retransmit, or an adversarial replay) is suppressed
        without touching state — delivery is idempotent (the wire
        provides no ordering or at-most-once guarantee — see
        :class:`repro.p2p.messages.PagerankUpdate`).

        Returns True if the update mutated local knowledge, False if it
        was suppressed as stale or duplicate (the reliable-delivery
        layer counts suppressions).
        """
        if self.honor_versions:
            held = self._remote_versions.get(update.source_doc, -1)
            if update.version < held:
                return False
            if update.version == held and update.source_doc in self.remote_values:
                return False
            self._remote_versions[update.source_doc] = update.version
        self.remote_values[update.source_doc] = update.value
        if self._visible is not None and update.source_doc not in self._local:
            slot = self._vis_index.get(update.source_doc)  # type: ignore[union-attr]
            if slot is not None:
                self._visible[slot] = update.value
        return True

    def receive_batch(self, updates: Iterable[PagerankUpdate]) -> int:
        """Receive many updates; returns how many mutated state."""
        applied = 0
        for u in updates:
            if self.receive(u):
                applied += 1
        return applied

    # ------------------------------------------------------------------
    def compute_pass(
        self,
        damping: float,
        epsilon: float,
        peer_of: np.ndarray,
    ) -> PassOutcome:
        """Recompute every local document; stage updates for changes > ε.

        Parameters
        ----------
        damping, epsilon:
            Algorithm parameters.
        peer_of:
            Document → peer array, used to split each document's
            out-links into local (free) and remote (message) targets.

        Returns
        -------
        PassOutcome
        """
        if self._use_csr:
            return self._compute_pass_csr(damping, epsilon, peer_of)
        active = 0
        staged = 0
        max_change = 0.0
        new_ranks: Dict[int, float] = {}
        # Two-phase update: all local documents read the *previous*
        # published values (synchronous-pass semantics, matching the
        # vectorized engine), then publish together.
        for doc in self.documents:
            doc = int(doc)
            new_ranks[doc] = self._fresh_rank(doc, damping)

        published: List[int] = []
        for doc, new in new_ranks.items():
            old = self.rank[doc]
            rel = abs(old - new) / new if new != 0 else 0.0
            self.rank[doc] = new
            if rel > max_change:
                max_change = rel
            if rel > epsilon:
                active += 1
                self.published[doc] = new
                published.append(doc)
                staged += self._stage_updates(doc, new, peer_of)
        return PassOutcome(
            active_documents=active,
            max_rel_change=max_change,
            staged_updates=staged,
            published_docs=tuple(published),
        )

    def _compute_pass_csr(
        self,
        damping: float,
        epsilon: float,
        peer_of: np.ndarray,
    ) -> PassOutcome:
        """Sharded pass: one bincount segment-sum over the local
        in-link shard instead of a per-edge Python loop.

        Bit-identical to the naive path: bincount accumulates each
        row's contributions sequentially in ``in_links(doc)`` order,
        ``damping * total + (1 - damping)`` commutes with the scalar
        expression in :meth:`_fresh_rank`, and the publish loop walks
        active documents in the same ascending order.
        """
        self._ensure_shard()
        assert self._visible is not None and self._rank_arr is not None
        docs = self.documents
        k = docs.size
        contrib = self._visible[self._lslot] * self._lw
        sums = np.bincount(self._lrow, weights=contrib, minlength=k)
        new = sums * damping
        new += 1.0 - damping
        old = self._rank_arr
        rel = relative_change(old, new)
        max_change = float(rel.max()) if k else 0.0
        # Sync the rank dict only where the bits actually changed.
        for i in np.flatnonzero(new != old):
            self.rank[int(docs[i])] = float(new[i])
        self._rank_arr = new
        staged = 0
        published: List[int] = []
        vis_index = self._vis_index
        assert vis_index is not None
        for i in np.flatnonzero(rel > epsilon):
            doc = int(docs[i])
            value = float(new[i])
            self.published[doc] = value
            self._visible[vis_index[doc]] = value
            published.append(doc)
            staged += self._stage_updates(doc, value, peer_of)
        return PassOutcome(
            active_documents=len(published),
            max_rel_change=max_change,
            staged_updates=staged,
            published_docs=tuple(published),
        )

    # ------------------------------------------------------------------
    def _fresh_rank(self, doc: int, damping: float) -> float:
        """Recompute ``doc``'s rank from currently visible values."""
        total = 0.0
        for src in self.graph.in_links(doc):
            src = int(src)
            total += self.visible_value(src) * self._inv_out[src]
        return (1.0 - damping) + damping * total

    def _stage_updates(self, doc: int, value: float, peer_of: np.ndarray) -> int:
        """Stage update messages for ``doc``'s remote out-links."""
        staged = 0
        version = self._publish_version.get(doc, 0) + 1
        self._publish_version[doc] = version
        for target in self.graph.out_links(doc):
            target = int(target)
            target_peer = int(peer_of[target])
            if target_peer != self.peer_id:
                self.outbox.stage(
                    target_peer,
                    PagerankUpdate(
                        target_doc=target,
                        source_doc=doc,
                        value=value,
                        version=version,
                    ),
                )
                staged += 1
        return staged

    def recompute_document(
        self,
        doc: int,
        damping: float,
        epsilon: float,
        peer_of: np.ndarray,
        *,
        gate: str = "published",
    ) -> Tuple[float, bool]:
        """Event-driven single-document recompute (Fig. 1's message
        handler): recompute ``doc`` now, and if the relative change
        exceeds ε publish it and stage updates for remote out-links.

        Returns ``(relative_change, published)``.  Used by the
        asynchronous peer runtime, where recomputation is triggered
        per received message rather than per global pass.

        ``gate`` selects what the change is measured against:

        * ``"published"`` (default) — the last value this document
          actually announced.  Sub-ε changes then *accumulate* until
          they cross ε, so consumers are never more than ε-stale.
        * ``"rank"`` — the last computed rank, the literal reading of
          Figure 1's ``relerr = abs(oldrank - newrank)/newrank``.
          Under fine-grained asynchronous interleaving many tiny
          arrivals can each stay below ε while their sum drifts
          arbitrarily far from what consumers saw — a protocol hazard
          this reproduction surfaced; see DESIGN.md.
        """
        if doc not in self._local:
            raise KeyError(f"peer {self.peer_id} does not store document {doc}")
        if gate not in ("published", "rank"):
            raise ValueError(f"gate must be 'published' or 'rank', got {gate!r}")
        new = self._fresh_rank(doc, damping)
        old = self.published[doc] if gate == "published" else self.rank[doc]
        rel = abs(old - new) / new if new != 0 else 0.0
        self.rank[doc] = new
        if self._rank_arr is not None:
            self._rank_arr[int(np.searchsorted(self.documents, doc))] = new
        if rel > epsilon:
            self.published[doc] = new
            if self._visible is not None:
                assert self._vis_index is not None
                self._visible[self._vis_index[doc]] = new
            self._stage_updates(doc, new, peer_of)
            return rel, True
        return rel, False

    # ------------------------------------------------------------------
    # Store-and-resend support (§3.1)
    # ------------------------------------------------------------------
    def defer(self, dest_peer: int, updates: List[PagerankUpdate]) -> None:
        """Store updates whose receiver is currently absent.

        Only the newest value per (source, target) pair is kept — an
        older stored update is obsolete the moment a fresh one exists.
        """
        store = self.deferred.setdefault(dest_peer, [])
        fresh = {(u.source_doc, u.target_doc) for u in updates}
        store[:] = [u for u in store if (u.source_doc, u.target_doc) not in fresh]
        store.extend(updates)

    def take_deferred(self, dest_peer: int) -> List[PagerankUpdate]:
        """Pop all stored updates for a peer that has reappeared."""
        return self.deferred.pop(dest_peer, [])

    @property
    def deferred_count(self) -> int:
        """Total stored updates across destinations (the §3.1 state
        bound: at most the sum of local documents' out-links)."""
        return sum(len(v) for v in self.deferred.values())

    def crash_volatile(self) -> int:
        """Crash-with-state-loss: wipe the outbox and the §3.1 deferred
        store (volatile memory), keeping rank/published/version state
        (persistent storage survives a crash).

        Distinct from a graceful departure, where deferred updates are
        preserved for resend on return.  Returns the number of updates
        destroyed, for the fault layer's state-loss accounting.
        """
        lost = self.outbox.wipe()
        lost += self.deferred_count
        self.deferred.clear()
        return lost

    def reboot_republish(self, peer_of: np.ndarray) -> int:
        """Crash recovery: re-announce every local document's persisted
        published value to its remote consumers.

        A rebooted peer cannot know which of its staged or in-flight
        sends survived the crash, so it conservatively replays the
        current value at its *current* publish version.  Receivers that
        already saw it suppress the equal-version replay (delivery is
        idempotent — :meth:`receive`); any consumer the crash robbed of
        an update applies it, healing the permanent staleness a bare
        wipe would leave.  Returns the number of updates staged.
        """
        staged = 0
        for doc in self.documents:
            doc = int(doc)
            version = self._publish_version.get(doc, 0)
            if version == 0:
                # Never published past the globally known initial value.
                continue
            value = self.published[doc]
            for target in self.graph.out_links(doc):
                target = int(target)
                target_peer = int(peer_of[target])
                if target_peer != self.peer_id:
                    self.outbox.stage(
                        target_peer,
                        PagerankUpdate(
                            target_doc=target,
                            source_doc=doc,
                            value=value,
                            version=version,
                        ),
                    )
                    staged += 1
        return staged

    def republish_to(self, dest_peer: int, peer_of: np.ndarray) -> int:
        """Anti-entropy catch-up toward one recovered neighbor: stage
        the current published value of every local document that links
        into ``dest_peer``'s holdings, at the current publish version.

        The directional counterpart of :meth:`reboot_republish` — after
        a supervised restart the *recovered* peer re-announces its own
        values, while its live neighbors call this so the recovered
        peer's view of *them* is refreshed too (it may have crashed
        before their latest updates arrived, and those flights may have
        been abandoned meanwhile — docs/PROTOCOL.md §15.4).  Replays
        are equal-version idempotent at the receiver.  Returns the
        number of updates staged.
        """
        staged = 0
        for doc in self.documents:
            doc = int(doc)
            version = self._publish_version.get(doc, 0)
            if version == 0:
                continue
            value = self.published[doc]
            for target in self.graph.out_links(doc):
                target = int(target)
                if int(peer_of[target]) == dest_peer:
                    self.outbox.stage(
                        dest_peer,
                        PagerankUpdate(
                            target_doc=target,
                            source_doc=doc,
                            value=value,
                            version=version,
                        ),
                    )
                    staged += 1
        return staged

    # ------------------------------------------------------------------
    # Document migration (DHT re-homing support)
    # ------------------------------------------------------------------
    def surrender_documents(self, docs) -> Dict[int, tuple]:
        """Remove ``docs`` from this peer, returning their state.

        Used by the simulator's §3.1 re-homing: when this peer is
        declared long-term absent, the DHT's successor takes over its
        documents.  Returns ``{doc: (rank, published, publish_version)}``;
        the version counters travel with the state so versioned updates
        stay monotone across owners.
        """
        state: Dict[int, tuple] = {}
        moving = set(int(d) for d in docs)
        missing = moving - self._local
        if missing:
            raise KeyError(f"peer {self.peer_id} does not store {sorted(missing)}")
        # Sorted so the returned dict's order is canonical no matter how
        # the caller ordered ``docs`` — adopters insert in this order.
        for doc in sorted(moving):
            state[doc] = (
                self.rank.pop(doc),
                self.published.pop(doc),
                self._publish_version.pop(doc, 0),
            )
            self._local.discard(doc)
        self.documents = np.asarray(sorted(self._local), dtype=np.int64)
        self._invalidate_shard()
        return state

    def export_inlink_knowledge(self, docs) -> List[PagerankUpdate]:
        """Package this peer's view of ``docs``' in-link sources.

        A migrating document is worthless without the contribution
        values it was being computed from; re-homing sends these along
        as ordinary versioned updates so the new owner merges them
        under the standard newest-wins rule.  Sources this peer has
        never heard from are omitted (the receiver keeps its own view
        or the protocol initial value).
        """
        updates: List[PagerankUpdate] = []
        for doc in docs:
            doc = int(doc)
            for src in self.graph.in_links(doc):
                src = int(src)
                if src in self._local:
                    value = self.published[src]
                    version = self._publish_version.get(src, 0)
                elif src in self.remote_values:
                    value = self.remote_values[src]
                    version = self._remote_versions.get(src, 0)
                else:
                    continue
                updates.append(
                    PagerankUpdate(
                        target_doc=doc, source_doc=src, value=value, version=version
                    )
                )
        return updates

    def adopt_documents(self, state: Dict[int, tuple]) -> None:
        """Take over documents surrendered by another peer.

        ``state`` maps doc -> (rank, published, publish_version), the
        tuple :meth:`surrender_documents` produced.
        """
        for doc, (rank, published, version) in state.items():
            doc = int(doc)
            if doc in self._local:
                raise ValueError(f"peer {self.peer_id} already stores {doc}")
            self._local.add(doc)
            self.rank[doc] = float(rank)
            self.published[doc] = float(published)
            if version:
                self._publish_version[doc] = int(version)
        self.documents = np.asarray(sorted(self._local), dtype=np.int64)
        self._invalidate_shard()
