"""Chained-HotStuff replica (the paper's main comparison system, [30]).

Modelled after ``libhotstuff``, the implementation the paper benchmarks:

* a stable leader batches *full request payloads* into each block and
  broadcasts it — the O(n) leader dissemination cost of Eq. (1);
* replicas send one signature vote per block to the leader (linear,
  pipelined: one round per block amortized);
* the 2f+1-vote quorum certificate for height h rides inside block h+1
  (chaining), and a block commits on a three-consecutive-QC chain;
* the leader proposes responsively: a new block as soon as the previous
  proposal's QC forms, which keeps its egress NIC saturated — making the
  protocol's throughput track C_tx/((n-1)·payload), the leader bottleneck
  the paper demonstrates in Fig. 2.

A minimal round-robin pacemaker provides leader rotation on timeout; all
paper comparisons run it fault-free, as the paper does.
"""

from __future__ import annotations

from typing import Hashable

from repro.baselines.hotstuff.config import HotStuffConfig
from repro.core.mempool import Mempool
from repro.core.recovery import (
    RECOVERY_MESSAGES,
    ExecutionLog,
    RecoveryHost,
)
from repro.crypto.hashing import digest as sha_digest
from repro.interfaces import Broadcast, Effect, Executed, Send, SetTimer
from repro.messages.client import Ack, RequestBundle
from repro.messages.hotstuff import HSBlock, HSNewView, HSVote, QuorumCert
from repro.messages.recovery import StateSnapshot

GENESIS_DIGEST = sha_digest(b"hotstuff-genesis")

#: Heights kept below the executed one.  Every read of ``blocks``,
#: ``qcs`` and ``_votes`` is at a height above the executed one (the
#: three-chain, proposals and votes all live above the QC tip, which is
#: two above it); this margin only keeps the newest executed blocks on
#: hand.  ``_digest_at`` answers older heights from ``exec_log``.
KEEP_BELOW_EXECUTED = 8


class HotStuffReplica(RecoveryHost):
    """One chained-HotStuff replica (leader or follower by view)."""

    def __init__(self, replica_id: int, config: HotStuffConfig) -> None:
        self.node_id = replica_id
        self.config = config
        self.view = 1
        self.mempool = Mempool()
        #: height -> block, for heights above ``_forgotten``.
        self.blocks: dict[int, HSBlock] = {}
        #: height -> QC, for genesis and heights above ``_forgotten``.
        self.qcs: dict[int, QuorumCert] = {0: QuorumCert(
            GENESIS_DIGEST, 0, config.quorum)}
        self._votes: dict[int, set[int]] = {}
        #: Every height at or below this one (genesis aside) is pruned.
        self._forgotten = 0
        self._proposed_height = 0
        self._qc_height = 0
        self.committed_height = 0
        self.executed_height = 0
        self.total_executed = 0
        self._last_commit_marker = 0
        self.exec_log = ExecutionLog()
        #: Out-of-chain blocks held while catching up, replayed after the
        #: transferred prefix installs (capped so a byzantine flood of
        #: future blocks cannot balloon memory).
        self._pending_blocks: dict[int, tuple[HSBlock, bool]] = {}
        self._init_recovery(self.exec_log)

    # ------------------------------------------------------------------

    @property
    def is_leader(self) -> bool:
        """Whether this replica leads the current view."""
        return self.config.leader_of(self.view) == self.node_id

    @property
    def current_leader(self) -> int:
        """Leader of the current view."""
        return self.config.leader_of(self.view)

    def start(self, now: float) -> list[Effect]:
        """Bootstrap: the initial leader tries to propose immediately."""
        effects: list[Effect] = [
            SetTimer("progress", self.config.progress_timeout)]
        if self.is_leader:
            effects.append(SetTimer(
                "propose", self.config.idle_repropose_delay))
        effects.extend(self._catch_up_on_start(now))
        return effects

    def on_timer(self, key: Hashable, now: float) -> list[Effect]:
        """Proposal retry and pacemaker timers."""
        if key == "propose":
            return self._maybe_propose(now)
        if key == "progress":
            return self._on_progress_timer(now)
        if isinstance(key, tuple) and key[0] == "rcv":
            return self.recovery.on_timer(key, now)
        return []

    def on_message(self, sender: int, msg, now: float) -> list[Effect]:
        """Dispatch one delivered message."""
        if isinstance(msg, RequestBundle):
            return self._on_bundle(msg, now)
        if isinstance(msg, HSBlock):
            return self._on_block(sender, msg, now)
        if isinstance(msg, HSVote):
            return self._on_vote(sender, msg, now)
        if isinstance(msg, HSNewView):
            return self._on_new_view(sender, msg, now)
        if isinstance(msg, RECOVERY_MESSAGES):
            return self._on_recovery_msg(sender, msg, now)
        return []

    # ------------------------------------------------------------------
    # Crash recovery: what differs from the shared RecoveryHost glue
    # ------------------------------------------------------------------

    def _make_snapshot(self) -> StateSnapshot:
        return StateSnapshot(self.executed_height,
                             self.exec_log.state_digest())

    def _digest_at(self, height: int) -> bytes | None:
        """The chain digest at ``height``: live block, recovered entry,
        or genesis — ``None`` when that history is simply missing."""
        if height == 0:
            return GENESIS_DIGEST
        block = self.blocks.get(height)
        if block is not None:
            return block.digest()
        return self.exec_log.digest_of(height)

    def _install_recovered(self, entries) -> None:
        self.exec_log.install(entries)
        target = self.exec_log.last_executed
        self.executed_height = max(self.executed_height, target)
        self.committed_height = max(self.committed_height, target)
        for height in [h for h in self._pending_blocks
                       if h <= self.executed_height]:
            del self._pending_blocks[height]

    def _defer_block(self, block: HSBlock, vote: bool, now: float
                     ) -> list[Effect]:
        """Hold an out-of-chain block: we are behind, not it."""
        if block.height <= self.executed_height + 1 \
                or len(self._pending_blocks) >= 1024:
            return []
        self._pending_blocks[block.height] = (block, vote)
        return self.recovery.note_gap(now)

    def _on_caught_up(self, now: float) -> list[Effect]:
        """Replay the blocks held while we lacked their history."""
        effects: list[Effect] = []
        for height in sorted(self._pending_blocks):
            held = self._pending_blocks.pop(height, None)
            if held is None or height <= self.executed_height:
                continue
            block, vote = held
            effects.extend(self._accept_block(block, now, vote=vote))
        return effects

    # ------------------------------------------------------------------
    # Leader side
    # ------------------------------------------------------------------

    def _on_bundle(self, bundle: RequestBundle, now: float) -> list[Effect]:
        self.mempool.add_bundle(bundle)
        if (self.is_leader
                and self._proposed_height == self._qc_height):
            return self._maybe_propose(now)
        return []

    def _maybe_propose(self, now: float) -> list[Effect]:
        """Propose the next block if the previous QC formed (responsive)."""
        if not self.is_leader:
            return []
        if self._proposed_height > self._qc_height:
            return []  # previous proposal's QC still outstanding
        if self.mempool.total_requests == 0:
            return [SetTimer("propose", self.config.idle_repropose_delay)]
        height = self._proposed_height + 1
        parent = self._digest_at(height - 1)
        if parent is None:
            return []  # missing parent history: cannot extend the chain
        spans = self.mempool.take(self.config.batch_size)
        block = HSBlock(
            height=height,
            parent_digest=parent,
            justify=self.qcs.get(height - 1),
            request_count=sum(span.count for span in spans),
            payload_size=self.config.payload_size,
            spans=spans,
            proposed_at=now,
        )
        self._proposed_height = height
        effects: list[Effect] = [Broadcast(block)]
        effects.extend(self._accept_block(block, now))
        # The leader votes for its own proposal.
        self._votes.setdefault(height, set()).add(self.node_id)
        return effects

    def _on_vote(self, sender: int, vote: HSVote, now: float
                 ) -> list[Effect]:
        if not self.is_leader:
            return []
        block = self.blocks.get(vote.height)
        if block is None or block.digest() != vote.block_digest:
            return []
        voters = self._votes.setdefault(vote.height, set())
        voters.add(sender)
        if len(voters) < self.config.quorum or vote.height <= self._qc_height:
            return []
        qc = QuorumCert(vote.block_digest, vote.height, self.config.quorum)
        self.qcs[vote.height] = qc
        self._qc_height = max(self._qc_height, vote.height)
        effects = self._advance_commit(now)
        effects.extend(self._maybe_propose(now))
        return effects

    # ------------------------------------------------------------------
    # Replica side
    # ------------------------------------------------------------------

    def _on_block(self, sender: int, block: HSBlock, now: float
                  ) -> list[Effect]:
        if sender != self.current_leader:
            return []
        return self._accept_block(block, now, vote=True)

    def _accept_block(self, block: HSBlock, now: float, vote: bool = False
                      ) -> list[Effect]:
        height = block.height
        if height <= self.executed_height:
            return []
        superseded = self.blocks.get(height)
        if superseded is not None and height <= self._qc_height:
            return []
        if height > 1:
            parent_digest = self._digest_at(height - 1)
            if parent_digest is None:
                # Out-of-chain because *we* lack history (post-restart):
                # hold the block and solicit a state transfer.
                return self._defer_block(block, vote, now)
            if parent_digest != block.parent_digest:
                return []  # genuinely out-of-chain proposal
        justify = block.justify
        if justify is not None:
            if justify.signer_count < self.config.quorum:
                return []
            if justify.height > 0:
                expected = self._digest_at(justify.height)
                if expected is None:
                    return self._defer_block(block, vote, now)
                if justify.block_digest != expected:
                    return []
            if justify.height > self._forgotten:
                self.qcs.setdefault(justify.height, justify)
            self._qc_height = max(self._qc_height, justify.height)
        if superseded is not None:
            # Only a later view's leader proposes a height twice: the
            # earlier proposal never certified (its votes went to the old
            # leader), so it and everything above it are abandoned, with
            # any votes collected for them, and this one is voted for.
            for table in (self.blocks, self._votes):
                for stale in [h for h in table if h >= height]:
                    del table[stale]
        self.blocks[height] = block
        effects = self._advance_commit(now)
        if vote:
            effects.append(Send(self.current_leader, HSVote(
                height, block.digest(), self.node_id)))
        return effects

    def _advance_commit(self, now: float) -> list[Effect]:
        """Three-chain commit: QCs at k, k+1, k+2 commit height k."""
        advanced = False
        while (self.committed_height + 1 in self.qcs
               and self.committed_height + 2 in self.qcs
               and self.committed_height + 3 in self.qcs):
            self.committed_height += 1
            advanced = True
        # A tail QC pair also commits once the chain ends (final heights
        # are only reachable in drain/shutdown scenarios; tests cover it).
        if not advanced:
            return []
        return self._execute(now)

    def _execute(self, now: float) -> list[Effect]:
        effects: list[Effect] = []
        executed = 0
        executed_heights: list[int] = []
        acks: list[Effect] = []
        while self.executed_height < self.committed_height:
            self.executed_height += 1
            executed_heights.append(self.executed_height)
            block = self.blocks[self.executed_height]
            self.exec_log.append(self.executed_height, block.digest(),
                                 block.request_count)
            executed += block.request_count
            if self.is_leader:
                for span in block.spans:
                    acks.append(Send(span.client_id, Ack(
                        span.client_id, span.bundle_id, span.count,
                        span.submitted_at, now)))
        if executed > 0:
            self.total_executed += executed
            effects.append(Executed(executed,
                                    info=tuple(executed_heights)))
            effects.extend(acks)
        self._forget_through(self.executed_height - KEEP_BELOW_EXECUTED)
        return effects

    def _forget_through(self, height: int) -> None:
        """Prune every height in ``(0, height]`` from the three tables.

        Runs right after a commit, when the QC tip is at least two above
        the executed height, so none of them is read again: a late vote
        finds no block, a re-sent block is already executed, and a
        justify that low never re-enters ``qcs``.
        """
        if height <= self._forgotten:
            return
        self._forgotten = height
        for table in (self.blocks, self.qcs, self._votes):
            for stale in [h for h in table if 0 < h <= height]:
                del table[stale]

    # ------------------------------------------------------------------
    # Pacemaker (minimal round-robin rotation)
    # ------------------------------------------------------------------

    def _on_progress_timer(self, now: float) -> list[Effect]:
        effects: list[Effect] = [
            SetTimer("progress", self.config.progress_timeout)]
        has_pending = (self.mempool.total_requests > 0
                       or self._proposed_height > self.committed_height)
        if (self.committed_height == self._last_commit_marker
                and has_pending):
            self.view += 1
            high = self.qcs.get(self._qc_height)
            effects.append(Broadcast(HSNewView(self.view, high)))
            if self.is_leader:
                effects.extend(self._lead_view(now))
        self._last_commit_marker = self.committed_height
        return effects

    def _lead_view(self, now: float) -> list[Effect]:
        """Take up a new view's leadership: propose on top of the highest
        QC, since nothing proposed above it in an earlier view certified."""
        self._proposed_height = self._qc_height
        return self._maybe_propose(now)

    def _on_new_view(self, sender: int, msg: HSNewView, now: float
                     ) -> list[Effect]:
        if msg.view <= self.view:
            return []
        self.view = msg.view
        if msg.high_qc is not None \
                and msg.high_qc.height > self._qc_height:
            self.qcs.setdefault(msg.high_qc.height, msg.high_qc)
            self._qc_height = msg.high_qc.height
        if self.is_leader:
            return self._lead_view(now)
        return []
