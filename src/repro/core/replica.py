"""The Leopard replica: composition of all protocol components (paper §IV).

``LeopardReplica`` is a sans-io :class:`repro.interfaces.ProtocolCore`; the
same class plays leader and non-leader (the role follows from the current
view).  It wires together:

* datablock preparation (Algorithm 1) — event-driven, paced by mempool fill
  level and NIC backpressure, so a saturated replica emits datablocks exactly
  as fast as its bandwidth drains them and an idle one runs no timer;
* the two-round agreement on BFTblocks (Algorithm 2) with threshold-
  signature votes flowing to the leader;
* the ready round + erasure-coded retrieval (Algorithm 3);
* checkpointing/garbage collection (Algorithm 4) and the PBFT-style
  view-change (Appendix A).
"""

from __future__ import annotations

from dataclasses import replace as dc_replace
from typing import Callable, Hashable

from repro.core.agreement import (
    CONFIRMED,
    InstanceStore,
    PROPOSED,
    VoteAggregator,
    commit_payload,
)
from repro.core.checkpoint import CheckpointManager
from repro.core.config import LeopardConfig
from repro.core.datablock_pool import DatablockPool, ReadyTracker
from repro.core.ledger import Ledger
from repro.core.mempool import Mempool
from repro.core.recovery import RECOVERY_MESSAGES, RecoveryHost
from repro.core.retrieval import RetrievalManager
from repro.core.viewchange import ViewChangeManager
from repro.crypto.keys import KeyRegistry
from repro.interfaces import (
    Broadcast,
    CancelTimer,
    Effect,
    Executed,
    Send,
    SetTimer,
    Trace,
)
from repro.messages.client import Ack, RequestBundle
from repro.messages.leopard import (
    BFTblock,
    CheckpointProof,
    CheckpointShare,
    ChunkResponse,
    Datablock,
    NewViewMsg,
    Proof,
    Query,
    Ready,
    ROUND_COMMIT,
    ROUND_PREPARE,
    TimeoutMsg,
    Vote,
    ViewChangeMsg,
    checkpoint_payload,
)
from repro.messages.recovery import StateSnapshot

#: Slack (seconds) on generation deadlines: a one-shot timer fires at
#: ``now + (deadline - now)``, which can land an ulp short of ``deadline``,
#: and must then cut the block, not re-arm a zero-delay timer.
_GEN_SLACK = 1e-6


class LeopardReplica(RecoveryHost):
    """One Leopard replica (leader or non-leader, per the current view)."""

    def __init__(self, replica_id: int, config: LeopardConfig,
                 registry: KeyRegistry) -> None:
        self.node_id = replica_id
        self.config = config
        self.registry = registry
        self.signer = registry.signer(replica_id)
        self.scheme = registry.scheme
        self.view = 1

        self.mempool = Mempool()
        self.pool = DatablockPool()
        self.store = InstanceStore(config.max_parallel_instances)
        self.aggregator = VoteAggregator(self.scheme)
        self.ready = ReadyTracker(config.quorum)
        self.retrieval = RetrievalManager(config.n, config.f, replica_id)
        self.checkpoints = CheckpointManager(
            config.checkpoint_period, self.scheme)
        self.ledger = Ledger(self.pool, replica_id)
        self.vc = ViewChangeManager(
            config.n, config.f, replica_id, registry, self.scheme)
        self._init_recovery(self.ledger.history,
                            self._verify_checkpoint_proof)

        self.next_sn = 1
        self.datablock_counter = 1
        self.total_executed = 0
        self.confirm_count = 0
        self._last_progress_count = 0
        self._missing_links: dict[int, set[bytes]] = {}
        self._link_waiters: dict[bytes, set[int]] = {}
        self._db_recv_time: dict[bytes, float] = {}
        self._unexecuted_dbs: set[bytes] = set()
        self._own_unexecuted: set[bytes] = set()
        self.vc_triggered_at: float | None = None
        self.vc_entered_at: float | None = None
        self._ready_since: float | None = None
        #: When the one pending "gen" timer fires (None: none armed).
        self._gen_deadline: float | None = None
        # Adaptive retrieval timer (the paper: "the timer can be
        # adaptively set based on past network profiling"): an EWMA of
        # observed datablock delivery delay, so saturation-era queueing
        # does not masquerade as a missing datablock.
        self._delivery_delay_ewma = 0.3
        #: Injected by the simulator host: seconds of local egress backlog.
        self.backlog_probe: Callable[[], float] = lambda: 0.0

    def attach_perf(self, counters) -> None:
        """Share a run-wide :class:`repro.perf.PerfCounters` sink.

        Routes this replica's data-plane instrumentation (erasure coding,
        Merkle hashing in the retrieval path) into the experiment's
        metrics, so runs report coding/hashing wall-clock breakdowns
        alongside protocol throughput/latency.
        """
        self.retrieval.perf = counters

    # ------------------------------------------------------------------
    # Role helpers
    # ------------------------------------------------------------------

    @property
    def current_leader(self) -> int:
        """Leader of the current view."""
        return self.config.leader_of(self.view)

    @property
    def is_leader(self) -> bool:
        """Whether this replica leads the current view."""
        return self.current_leader == self.node_id

    @property
    def normal_mode(self) -> bool:
        """False while a view-change is in progress."""
        return not self.vc.in_viewchange

    # ------------------------------------------------------------------
    # ProtocolCore surface
    # ------------------------------------------------------------------

    def start(self, now: float) -> list[Effect]:
        """Take up the view's role (and catch-up, after a restart)."""
        self._gen_deadline = None  # a host starts a core with no timer set
        effects = self._take_up_role(now)
        effects.extend(self._catch_up_on_start(now))
        return effects

    def _take_up_role(self, now: float) -> list[Effect]:
        """What the current view asks of this replica: watch progress;
        tick proposals if it leads, cut the datablocks due if it does not."""
        effects: list[Effect] = [
            SetTimer("progress", self.config.progress_timeout)]
        if self.is_leader:
            effects.append(
                SetTimer("propose", self.config.proposal_interval))
        effects.extend(self._pump_generation(now))
        return effects

    def on_timer(self, key: Hashable, now: float) -> list[Effect]:
        """Dispatch a timer firing."""
        if key == "gen":
            self._gen_deadline = None
            return self._pump_generation(now)
        if key == "propose":
            return self._on_propose_timer(now)
        if key == "progress":
            return self._on_progress_timer(now)
        if isinstance(key, tuple) and key[0] == "retr":
            return self._on_retrieval_timer(key[1], now)
        if isinstance(key, tuple) and key[0] == "rcv":
            return self.recovery.on_timer(key, now)
        return []

    def on_message(self, sender: int, msg, now: float) -> list[Effect]:
        """Dispatch one delivered message by type."""
        if isinstance(msg, Datablock):
            return self._on_datablock(sender, msg, now)
        if isinstance(msg, RequestBundle):
            return self._on_bundle(sender, msg, now)
        if isinstance(msg, Ready):
            return self._on_ready(sender, msg, now)
        if isinstance(msg, BFTblock):
            return self._on_bftblock(sender, msg, now)
        if isinstance(msg, Vote):
            return self._on_vote(sender, msg, now)
        if isinstance(msg, Proof):
            return self._on_proof(sender, msg, now)
        if isinstance(msg, Query):
            return self._on_query(sender, msg, now)
        if isinstance(msg, ChunkResponse):
            return self._on_chunk_response(sender, msg, now)
        if isinstance(msg, CheckpointShare):
            return self._on_checkpoint_share(sender, msg, now)
        if isinstance(msg, CheckpointProof):
            return self._on_checkpoint_proof(sender, msg, now)
        if isinstance(msg, TimeoutMsg):
            return self._on_timeout_msg(sender, msg, now)
        if isinstance(msg, ViewChangeMsg):
            return self._on_viewchange_msg(sender, msg, now)
        if isinstance(msg, NewViewMsg):
            return self._on_new_view(sender, msg, now)
        if isinstance(msg, RECOVERY_MESSAGES):
            return self._on_recovery_msg(sender, msg, now)
        return []

    # ------------------------------------------------------------------
    # Crash recovery: what differs from the shared RecoveryHost glue
    # ------------------------------------------------------------------

    def _make_snapshot(self) -> StateSnapshot:
        return StateSnapshot(self.ledger.last_executed,
                             self.ledger.history.state_digest(),
                             self.checkpoints.latest_proof)

    def _verify_checkpoint_proof(self, proof: CheckpointProof) -> bool:
        return self.scheme.verify(
            proof.signature,
            checkpoint_payload(proof.sn, proof.state_digest))

    def _install_recovered(self, entries) -> None:
        self.ledger.install_entries(entries)
        self.store.advance_watermark(self.ledger.last_executed)
        self.next_sn = max(self.next_sn, self.ledger.last_executed + 1)

    def _on_caught_up(self, now: float) -> list[Effect]:
        effects: list[Effect] = []
        anchor = self.recovery.anchor
        if anchor is not None:
            effects.extend(self._adopt_checkpoint(anchor, now))
        effects.extend(self._try_execute(now))
        return effects

    # ------------------------------------------------------------------
    # Datablock preparation (Algorithm 1)
    # ------------------------------------------------------------------

    def _on_bundle(self, sender: int, bundle: RequestBundle, now: float
                   ) -> list[Effect]:
        self.mempool.add_bundle(bundle)
        return self._pump_generation(now)

    def _pump_generation(self, now: float) -> list[Effect]:
        """Cut every datablock that is due.  Runs whenever a cut condition
        can have changed: a bundle arrives, the flow-control window
        releases, a view is entered, the core starts, the "gen" timer
        fires.  That one-shot timer covers the two causes that are a matter
        of time alone: the oldest request reaching ``max_batch_delay`` and
        the NIC backlog draining to ``max_backlog``."""
        effects: list[Effect] = []
        if self.is_leader or not self.normal_mode:
            return effects
        config = self.config
        mempool = self.mempool
        while mempool.total_requests > 0:
            delay = 0.0
            if mempool.total_requests < config.datablock_size:
                delay = (mempool.oldest_submission()
                         + config.max_batch_delay - now)
            if delay <= _GEN_SLACK:
                if (len(self._own_unexecuted)
                        >= config.max_outstanding_datablocks):
                    break  # no timer: the window's release pumps again
                delay = self.backlog_probe() - config.max_backlog
                if delay <= _GEN_SLACK:
                    effects.extend(self._generate_datablock(now))
                    continue
                # The simulated backlog drains at exactly 1 s/s; the live
                # estimate can be wrong, and must not make this spin.
                delay = max(delay, config.generation_interval)
            pending = self._gen_deadline
            if pending is None or now + delay + _GEN_SLACK < pending:
                self._gen_deadline = now + delay
                effects.append(SetTimer("gen", delay))
            break
        return effects

    def _generate_datablock(self, now: float) -> list[Effect]:
        spans = self.mempool.take(self.config.datablock_size)
        count = sum(span.count for span in spans)
        datablock = Datablock(
            creator=self.node_id,
            counter=self.datablock_counter,
            request_count=count,
            payload_size=self.config.payload_size,
            spans=spans,
            created_at=now,
        )
        self.datablock_counter += 1
        self._own_unexecuted.add(datablock.digest())
        effects: list[Effect] = [Broadcast(datablock)]
        if self.config.trace_phases and spans:
            waited = max(0.0, now - min(s.submitted_at for s in spans))
            effects.append(Trace("phase", {
                "phase": "generation", "duration": waited}))
        effects.extend(self._accept_datablock(datablock, now, local=True))
        return effects

    def _on_datablock(self, sender: int, datablock: Datablock, now: float
                      ) -> list[Effect]:
        if not self.pool.add(datablock):
            return []
        return self._accept_datablock(datablock, now, local=False)

    def _accept_datablock(self, datablock: Datablock, now: float,
                          local: bool, recovered: bool = False
                          ) -> list[Effect]:
        """Common path once a datablock lands in the pool."""
        block_digest = datablock.digest()
        if local:
            self.pool.add(datablock)
        effects: list[Effect] = []
        self._db_recv_time[block_digest] = now
        self._unexecuted_dbs.add(block_digest)
        if not local and not recovered:
            delay = max(0.0, now - datablock.created_at)
            self._delivery_delay_ewma = (
                0.9 * self._delivery_delay_ewma + 0.1 * delay)
            if self.config.trace_phases:
                effects.append(Trace("phase", {
                    "phase": "dissemination", "duration": delay}))
        if self.retrieval.awaiting(block_digest):
            self.retrieval.cancel(block_digest)
            effects.append(CancelTimer(("retr", block_digest)))
        effects.extend(self._announce_ready(block_digest))
        effects.extend(self._resume_waiting(block_digest, now))
        return effects

    def _announce_ready(self, block_digest: bytes) -> list[Effect]:
        if self.is_leader:
            self.ready.record_ready(block_digest, self.node_id)
            self.ready.mark_held(block_digest)
            return []
        if not self.normal_mode:
            return []  # re-announced on entering the next view
        return [Send(self.current_leader, Ready(block_digest))]

    def _on_ready(self, sender: int, msg: Ready, now: float) -> list[Effect]:
        if self.is_leader:
            self.ready.record_ready(msg.block_digest, sender)
        return []

    # ------------------------------------------------------------------
    # Agreement (Algorithm 2)
    # ------------------------------------------------------------------

    def _on_propose_timer(self, now: float) -> list[Effect]:
        if not self.is_leader:
            return []  # deposed: the tick dies with the role
        effects: list[Effect] = [
            SetTimer("propose", self.config.proposal_interval)]
        if not self.normal_mode:
            return effects
        if self.ready.ready_count == 0:
            self._ready_since = None
            return effects
        if self._ready_since is None:
            self._ready_since = now
        max_links = self.config.bftblock_max_links
        overdue = now - self._ready_since >= self.config.max_proposal_delay
        # Batch links per BFTblock: propose full blocks immediately, and
        # flush a partial block only once the oldest link has waited
        # max_proposal_delay (the τ amortization of Fig. 7).
        proposed = False
        while (self.ready.ready_count >= max_links
               and self.store.in_window(self.next_sn)):
            effects.extend(
                self._propose(self.ready.take_links(max_links), now))
            proposed = True
        if (overdue and self.ready.ready_count > 0
                and self.store.in_window(self.next_sn)):
            effects.extend(
                self._propose(self.ready.take_links(max_links), now))
            proposed = True
        if proposed:
            # Links still queued start a fresh batching window.
            self._ready_since = now if self.ready.ready_count > 0 else None
        return effects

    def _propose(self, links: tuple[bytes, ...], now: float) -> list[Effect]:
        unsigned = BFTblock(self.view, self.next_sn, links)
        share = self.signer.sign(unsigned.digest())
        block = dc_replace(unsigned, leader_share=share, proposed_at=now)
        self.next_sn += 1
        instance = self.store.admit(block, now)
        self._release_window(block)
        effects: list[Effect] = [Broadcast(block)]
        if instance is not None:
            effects.extend(self._vote_round1(instance, now))
        return effects

    def _on_bftblock(self, sender: int, block: BFTblock, now: float
                     ) -> list[Effect]:
        """VRFBFTBLOCK (Algorithm 2, lines 36-42) plus link checking."""
        if not self.normal_mode or block.view != self.view:
            return []
        if sender != self.current_leader:
            return []
        share = block.leader_share
        if share is None or share.signer != self.current_leader:
            return []
        if not self.scheme.verify_share(share, block.digest()):
            return []
        if not self.store.in_window(block.sn):
            return []
        instance = self.store.admit(block, now)
        if instance is None:
            return []
        self._release_window(block)
        effects = self._check_links_and_vote(instance, now)
        for proof in self.store.drain_buffered(block.digest()):
            effects.extend(self._apply_proof(instance, proof, now))
        # Last, so the datablocks the release allows queue behind the votes.
        effects.extend(self._pump_generation(now))
        return effects

    def _release_window(self, block: BFTblock) -> None:
        """Flow control release: once the leader has linked one of our
        datablocks it is in the pipeline — generation may proceed (waiting
        for execution instead would convoy behind sn-ordering)."""
        for link in block.links:
            self._own_unexecuted.discard(link)

    def _check_links_and_vote(self, instance, now: float) -> list[Effect]:
        block = instance.block
        missing = [link for link in block.links if link not in self.pool]
        if not missing:
            return self._vote_round1(instance, now)
        effects: list[Effect] = []
        self._missing_links[block.sn] = set(missing)
        for link in missing:
            self._link_waiters.setdefault(link, set()).add(block.sn)
            if self.retrieval.note_missing(link, now):
                effects.append(SetTimer(
                    ("retr", link), self._retrieval_delay()))
        return effects

    def _retrieval_delay(self) -> float:
        """Adaptive query timer: generous while delivery lags (queueing),
        tight when the network is prompt (§IV-A1's profiling-based timer)."""
        return max(self.config.retrieval_timeout,
                   4.0 * self._delivery_delay_ewma)

    def _vote_round1(self, instance, now: float) -> list[Effect]:
        block = instance.block
        if not self.store.record_vote_lock(
                self.view, block.sn, block.digest()):
            return []
        payload = block.digest()
        vote = Vote(ROUND_PREPARE, payload, payload,
                    self.signer.sign(payload))
        return self._cast_vote(instance, vote, now)

    def _cast_vote(self, instance, vote: Vote, now: float) -> list[Effect]:
        if not self.is_leader:
            return [Send(self.current_leader, vote)]
        return self._count_vote(instance, self.node_id, vote, now)

    def _on_vote(self, sender: int, vote: Vote, now: float) -> list[Effect]:
        if not self.is_leader or not self.normal_mode:
            return []
        instance = self.store.by_digest(vote.block_digest)
        if instance is None:
            # No live instance (below the watermark, or replaced): a
            # quorum could not produce a proof, so the vote is not kept.
            return []
        return self._count_vote(instance, sender, vote, now)

    def _count_vote(self, instance, sender: int, vote: Vote, now: float
                    ) -> list[Effect]:
        combined = self.aggregator.add_vote(sender, vote, instance.sn)
        if combined is None:
            return []
        prior = instance.notarization if vote.round == ROUND_COMMIT else None
        proof = Proof(vote.round, vote.block_digest, vote.signed_payload,
                      combined, prior)
        effects: list[Effect] = [Broadcast(proof)]
        effects.extend(self._apply_proof(instance, proof, now))
        return effects

    def _on_proof(self, sender: int, proof: Proof, now: float
                  ) -> list[Effect]:
        if not self.normal_mode:
            return []
        instance = self.store.by_digest(proof.block_digest)
        if instance is None:
            # The proof outran its BFTblock (jitter reordering); hold it.
            self.store.buffer_proof(proof)
            return []
        return self._apply_proof(instance, proof, now)

    def _apply_proof(self, instance, proof: Proof, now: float
                     ) -> list[Effect]:
        block = instance.block
        if proof.round == ROUND_PREPARE:
            if proof.signed_payload != block.digest():
                return []
            if not self.scheme.verify(proof.signature, proof.signed_payload):
                return []
            instance.apply_notarization(proof.signature)
            payload2 = commit_payload(proof.signature)
            vote2 = Vote(ROUND_COMMIT, block.digest(), payload2,
                         self.signer.sign(payload2))
            return self._cast_vote(instance, vote2, now)
        # Second round: confirmation.
        notarization = (instance.notarization
                        if instance.notarization is not None
                        else proof.prior_signature)
        if notarization is None:
            return []
        if not self.scheme.verify(notarization, block.digest()):
            return []
        if proof.signed_payload != commit_payload(notarization):
            return []
        if not self.scheme.verify(proof.signature, proof.signed_payload):
            return []
        if not instance.apply_confirmation(
                proof.signature, notarization, now):
            return []
        self.confirm_count += 1
        self.ledger.confirm(block)
        effects: list[Effect] = []
        if self.config.trace_phases:
            effects.append(Trace("confirmed", {
                "sn": block.sn, "latency": now - instance.proposed_at}))
        effects.extend(self._try_execute(now))
        return effects

    # ------------------------------------------------------------------
    # Execution, acknowledgements, checkpoints
    # ------------------------------------------------------------------

    def _try_execute(self, now: float) -> list[Effect]:
        result = self.ledger.execute_ready()
        effects: list[Effect] = []
        if result.executed_requests > 0:
            self.total_executed += result.executed_requests
            effects.append(Executed(
                result.executed_requests,
                info=tuple(entry.sn for entry in result.blocks)))
        for span in result.acked_spans:
            effects.append(Send(span.client_id, Ack(
                span.client_id, span.bundle_id, span.count,
                span.submitted_at, now)))
        for entry in result.blocks:
            for link in entry.links:
                self._unexecuted_dbs.discard(link)
                self._own_unexecuted.discard(link)
                received = self._db_recv_time.pop(link, None)
                if received is None or not self.config.trace_phases:
                    continue
                effects.append(Trace("phase", {
                    "phase": "agreement",
                    "duration": max(0.0, now - received)}))
        if result.blocks:
            effects.extend(self._maybe_checkpoint(now))
            # A confirmed successor may be waiting on retrieved datablocks.
            effects.extend(self._request_execution_blockers(now))
            effects.extend(self._pump_generation(now))
        return effects

    def _request_execution_blockers(self, now: float) -> list[Effect]:
        effects: list[Effect] = []
        for link in self.ledger.missing_for_execution():
            if self.retrieval.note_missing(link, now):
                effects.append(SetTimer(
                    ("retr", link), self._retrieval_delay()))
        return effects

    def _maybe_checkpoint(self, now: float) -> list[Effect]:
        executed = self.ledger.last_executed
        if not self.checkpoints.due(executed):
            return []
        share = self.checkpoints.make_share(
            self.node_id, self.signer, executed,
            self.ledger.history.state_digest())
        if not self.is_leader:
            return [Send(self.current_leader, share)]
        proof = self.checkpoints.on_share(self.node_id, share)
        if proof is None:
            return []
        return [Broadcast(proof)] + self._adopt_checkpoint(proof, now)

    def _on_checkpoint_share(self, sender: int, share: CheckpointShare,
                             now: float) -> list[Effect]:
        if not self.is_leader or not self.normal_mode:
            return []
        proof = self.checkpoints.on_share(sender, share)
        if proof is None:
            return []
        return [Broadcast(proof)] + self._adopt_checkpoint(proof, now)

    def _on_checkpoint_proof(self, sender: int, proof: CheckpointProof,
                             now: float) -> list[Effect]:
        return self._adopt_checkpoint(proof, now)

    def _adopt_checkpoint(self, proof: CheckpointProof, now: float
                          ) -> list[Effect]:
        if not self.checkpoints.on_proof(proof):
            return []
        self.store.advance_watermark(proof.sn)
        self.aggregator.forget_through(proof.sn)
        self.ready.forget(self.ledger.collect_garbage(proof.sn))
        if self.checkpoints.stable_sn > self.ledger.last_executed \
                and not self.ledger.is_confirmed(
                    self.ledger.last_executed + 1):
            # The cluster checkpointed past us and the next position is
            # not even confirmed locally: we missed history — catch up.
            return self.recovery.note_gap(now)
        return []

    # ------------------------------------------------------------------
    # Retrieval (Algorithm 3)
    # ------------------------------------------------------------------

    def _on_retrieval_timer(self, block_digest: bytes, now: float
                            ) -> list[Effect]:
        if not self.retrieval.awaiting(block_digest):
            return []
        query = self.retrieval.build_query(now)
        if query is None:
            return []
        if self.config.retrieval_mode == "leader":
            # Ablation: the "intuitive solution" of §IV-A2 — ask only the
            # leader, which re-sends whole datablocks.
            return [Send(self.current_leader, query)]
        return [Broadcast(query)]

    def _on_query(self, sender: int, query: Query, now: float
                  ) -> list[Effect]:
        if self.config.retrieval_mode == "erasure":
            responses = self.retrieval.make_responses(
                sender, query, self.pool)
            return [Send(sender, response) for response in responses]
        # Ablation modes: answer with whole datablock copies.
        effects: list[Effect] = []
        for block_digest in query.block_digests:
            datablock = self.pool.get(block_digest)
            if datablock is None:
                continue
            if not self.retrieval.mark_answered(block_digest, sender):
                continue
            effects.append(Send(sender, datablock))
        return effects

    def _on_chunk_response(self, sender: int, response: ChunkResponse,
                           now: float) -> list[Effect]:
        recovered = self.retrieval.on_response(response, now)
        if recovered is None:
            return []
        if not self.pool.add_recovered(recovered):
            return []
        effects = [CancelTimer(("retr", recovered.digest()))]
        effects.extend(self._accept_datablock(
            recovered, now, local=False, recovered=True))
        return effects

    def _resume_waiting(self, block_digest: bytes, now: float
                        ) -> list[Effect]:
        """A datablock arrived; unblock votes and execution waiting on it."""
        effects: list[Effect] = []
        for sn in sorted(self._link_waiters.pop(block_digest, ())):
            missing = self._missing_links.get(sn)
            if missing is None:
                continue
            missing.discard(block_digest)
            if missing:
                continue
            del self._missing_links[sn]
            instance = self.store.instances.get(sn)
            if instance is not None and self.normal_mode \
                    and instance.block.view == self.view:
                effects.extend(self._vote_round1(instance, now))
        effects.extend(self._try_execute(now))
        return effects

    # ------------------------------------------------------------------
    # View-change (Appendix A)
    # ------------------------------------------------------------------

    def _pending_work(self) -> bool:
        return (bool(self.store.unconfirmed())
                or self.mempool.total_requests > 0
                or bool(self._unexecuted_dbs))

    def _on_progress_timer(self, now: float) -> list[Effect]:
        effects: list[Effect] = [
            SetTimer("progress", self.config.progress_timeout)]
        if self.vc.in_viewchange:
            # The view-change itself stalled: escalate to the next view.
            effects.extend(self._start_viewchange(
                (self.vc.target_view or self.view) + 1, now))
            return effects
        stalled = (self.confirm_count == self._last_progress_count
                   and self._pending_work())
        self._last_progress_count = self.confirm_count
        if stalled:
            effects.extend(self._start_viewchange(self.view + 1, now))
        return effects

    def _start_viewchange(self, target_view: int, now: float
                          ) -> list[Effect]:
        if target_view <= self.view:
            return []
        self.vc.in_viewchange = True
        self.vc.target_view = target_view
        if self.vc_triggered_at is None:
            self.vc_triggered_at = now
        effects: list[Effect] = []
        timeout_view = target_view - 1
        if not self.vc.already_timed_out(timeout_view):
            timeout_msg = self.vc.make_timeout(timeout_view)
            self.vc.on_timeout(self.node_id, timeout_msg)
            effects.append(Broadcast(timeout_msg))
        vc_msg = self.vc.make_viewchange_msg(
            target_view, self.checkpoints.latest_proof,
            self.store.notarized_or_better())
        new_leader = self.config.leader_of(target_view)
        if new_leader == self.node_id:
            quorum_set = self.vc.collect_viewchange(self.node_id, vc_msg)
            if quorum_set is not None:
                effects.extend(
                    self._broadcast_new_view(target_view, quorum_set, now))
        else:
            effects.append(Send(new_leader, vc_msg))
        return effects

    def _on_timeout_msg(self, sender: int, msg: TimeoutMsg, now: float
                        ) -> list[Effect]:
        if msg.view < self.view:
            return []
        amplified = self.vc.on_timeout(sender, msg)
        if not amplified:
            return []
        if self.vc.in_viewchange and (self.vc.target_view or 0) \
                >= msg.view + 1:
            return []
        return self._start_viewchange(msg.view + 1, now)

    def _on_viewchange_msg(self, sender: int, msg: ViewChangeMsg, now: float
                           ) -> list[Effect]:
        if msg.new_view <= self.view:
            return []
        if self.config.leader_of(msg.new_view) != self.node_id:
            return []
        quorum_set = self.vc.collect_viewchange(sender, msg)
        if quorum_set is None:
            return []
        return self._broadcast_new_view(msg.new_view, quorum_set, now)

    def _broadcast_new_view(self, target_view: int,
                            quorum_set: list[ViewChangeMsg], now: float
                            ) -> list[Effect]:
        new_view_msg = self.vc.build_new_view(target_view, quorum_set)
        effects: list[Effect] = [Broadcast(new_view_msg)]
        effects.extend(self._enter_view(new_view_msg, now))
        return effects

    def _on_new_view(self, sender: int, msg: NewViewMsg, now: float
                     ) -> list[Effect]:
        if msg.new_view <= self.view:
            return []
        if not self.vc.validate_new_view(
                sender, msg, self.config.leader_of(msg.new_view)):
            return []
        return self._enter_view(msg, now)

    def _enter_view(self, new_view_msg: NewViewMsg, now: float
                    ) -> list[Effect]:
        self.view = new_view_msg.new_view
        if self.vc_entered_at is None:
            self.vc_entered_at = now
        self.vc.reset_for_view(self.view)
        self._last_progress_count = self.confirm_count
        effects: list[Effect] = []
        # Adopt the best checkpoint carried by the view-change set.
        for vc_msg in new_view_msg.view_changes:
            if vc_msg.checkpoint is not None:
                effects.extend(
                    self._adopt_checkpoint(vc_msg.checkpoint, now))
        # Redo agreement for carried blocks; fill gaps with dummies.
        max_sn = self.store.low_watermark
        for block in new_view_msg.redo:
            max_sn = max(max_sn, block.sn)
            instance = self.store.force_admit(block, now)
            self._release_window(block)
            if instance is None:
                continue
            self._missing_links.pop(block.sn, None)
            effects.extend(self._check_links_and_vote(instance, now))
        if self.is_leader:
            live = self.store.instances
            self.next_sn = max(
                [self.store.low_watermark, max_sn,
                 self.ledger.last_executed] + list(live)) + 1
        # Re-announce readiness for unlinked datablocks to the new leader.
        linked: set[bytes] = set()
        for instance in self.store.instances.values():
            linked.update(instance.block.links)
        for block_digest in self.pool.digests():
            if block_digest not in linked:
                effects.extend(self._announce_ready(block_digest))
        effects.extend(self._take_up_role(now))
        return effects
