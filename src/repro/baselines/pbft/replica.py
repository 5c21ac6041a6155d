"""PBFT replica — the BFT-SMaRt stand-in for the paper's Fig. 1 ([4], [8]).

The classic three-phase commit with *all-to-all* vote broadcasts:

* the leader batches full payloads into a pre-prepare and broadcasts it
  (same O(n) leader dissemination as HotStuff);
* every replica broadcasts a prepare, waits for 2f matching prepares,
  broadcasts a commit, and executes at 2f+1 commits — the O(n²) vote
  complexity of the paper's Table I;
* instances run in parallel under a watermark window; the leader proposes
  on a timer whenever requests are pending.

No view-change is modelled (the paper's Fig. 1 measurements are
fault-free); the trigger surface exists for tests via ``stalled()``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable

from repro.baselines.pbft.config import PbftConfig
from repro.core.mempool import Mempool
from repro.core.recovery import (
    RECOVERY_MESSAGES,
    ExecutionLog,
    RecoveryHost,
)
from repro.interfaces import Broadcast, Effect, Executed, Send, SetTimer
from repro.messages.client import Ack, RequestBundle
from repro.messages.pbft import Commit, Prepare, PrePrepare
from repro.messages.recovery import StateSnapshot


@dataclass
class _Instance:
    block: PrePrepare
    prepares: set[int] = field(default_factory=set)
    commits: set[int] = field(default_factory=set)
    prepared: bool = False
    committed: bool = False


class PbftReplica(RecoveryHost):
    """One PBFT replica (leader or backup)."""

    def __init__(self, replica_id: int, config: PbftConfig) -> None:
        self.node_id = replica_id
        self.config = config
        self.view = 1
        self.mempool = Mempool()
        self.instances: dict[int, _Instance] = {}
        #: Votes that outran their pre-prepare (big blocks serialize far
        #: more slowly than votes fly); drained when the block arrives.
        self._early_votes: dict[int, list[tuple[int, object]]] = {}
        self.next_sn = 1
        self.executed_sn = 0
        self.total_executed = 0
        self.exec_log = ExecutionLog()
        self._init_recovery(self.exec_log)

    @property
    def is_leader(self) -> bool:
        """Whether this replica leads the current view."""
        return self.config.leader_of(self.view) == self.node_id

    @property
    def current_leader(self) -> int:
        """Leader of the current view."""
        return self.config.leader_of(self.view)

    def start(self, now: float) -> list[Effect]:
        """Arm the leader's proposal timer (and catch-up after restart)."""
        effects: list[Effect] = [
            SetTimer("propose", self.config.proposal_interval)]
        effects.extend(self._catch_up_on_start(now))
        return effects

    def on_timer(self, key: Hashable, now: float) -> list[Effect]:
        """Leader proposal tick."""
        if isinstance(key, tuple) and key[0] == "rcv":
            return self.recovery.on_timer(key, now)
        if key != "propose":
            return []
        effects: list[Effect] = [
            SetTimer("propose", self.config.proposal_interval)]
        if not self.is_leader:
            return effects
        while (self.mempool.total_requests > 0
               and self.next_sn <= self.executed_sn + self.config.window):
            spans = self.mempool.take(self.config.batch_size)
            block = PrePrepare(
                view=self.view,
                sn=self.next_sn,
                request_count=sum(span.count for span in spans),
                payload_size=self.config.payload_size,
                spans=spans,
                proposed_at=now,
            )
            self.next_sn += 1
            effects.append(Broadcast(block))
            effects.extend(self._admit(block, now))
        return effects

    def on_message(self, sender: int, msg, now: float) -> list[Effect]:
        """Dispatch one delivered message."""
        if isinstance(msg, RequestBundle):
            self.mempool.add_bundle(msg)
            return []
        if isinstance(msg, PrePrepare):
            if sender != self.current_leader or msg.view != self.view:
                return []
            return self._admit(msg, now)
        if isinstance(msg, (Prepare, Commit)):
            return self._on_vote(sender, msg, now)
        if isinstance(msg, RECOVERY_MESSAGES):
            return self._on_recovery_msg(sender, msg, now)
        return []

    # ------------------------------------------------------------------
    # Crash recovery: what differs from the shared RecoveryHost glue
    # ------------------------------------------------------------------

    def _make_snapshot(self) -> StateSnapshot:
        return StateSnapshot(self.executed_sn, self.exec_log.state_digest())

    def _install_recovered(self, entries) -> None:
        self.exec_log.install(entries)
        self.executed_sn = self.exec_log.last_executed
        for sn in [sn for sn in self.instances if sn <= self.executed_sn]:
            del self.instances[sn]
        for sn in [sn for sn in self._early_votes
                   if sn <= self.executed_sn]:
            del self._early_votes[sn]
        self.next_sn = max(self.next_sn, self.executed_sn + 1)

    def _on_caught_up(self, now: float) -> list[Effect]:
        # Committed instances above the installed prefix may now run.
        return self._execute(now)

    def _admit(self, block: PrePrepare, now: float) -> list[Effect]:
        if block.sn in self.instances or block.sn <= self.executed_sn:
            return []
        instance = _Instance(block)
        self.instances[block.sn] = instance
        prepare = Prepare(self.view, block.sn, block.digest(), self.node_id)
        instance.prepares.add(self.node_id)
        effects: list[Effect] = [Broadcast(prepare)]
        for sender, vote in self._early_votes.pop(block.sn, ()):
            effects.extend(self._on_vote(sender, vote, now))
        if not instance.prepared \
                and len(instance.prepares) >= self.config.quorum:
            effects.extend(self._check_progress(instance, now))  # f = 0
        return effects

    def _on_vote(self, sender: int, msg: Prepare | Commit, now: float
                 ) -> list[Effect]:
        instance = self.instances.get(msg.sn)
        if instance is None:
            self._buffer_early(sender, msg)
            return []
        if msg.view != self.view:
            return []
        if msg.block_digest != instance.block.digest():
            return []
        if isinstance(msg, Prepare):
            votes, reached = instance.prepares, instance.prepared
        else:
            votes, reached = instance.commits, instance.committed
        votes.add(sender)
        # A count changes only here and in _admit / _check_progress (the
        # replica's own votes, each checked at once), so a phase can only
        # complete on the vote that reaches its quorum.
        if reached or len(votes) < self.config.quorum:
            return []
        return self._check_progress(instance, now)

    def _check_progress(self, instance: _Instance, now: float
                        ) -> list[Effect]:
        effects: list[Effect] = []
        if (not instance.prepared
                and len(instance.prepares) >= self.config.quorum):
            instance.prepared = True
            commit = Commit(self.view, instance.block.sn,
                            instance.block.digest(), self.node_id)
            instance.commits.add(self.node_id)
            effects.append(Broadcast(commit))
        if (not instance.committed
                and len(instance.commits) >= self.config.quorum):
            instance.committed = True
            effects.extend(self._execute(now))
        return effects

    def _execute(self, now: float) -> list[Effect]:
        effects: list[Effect] = []
        executed = 0
        executed_sns: list[int] = []
        while True:
            instance = self.instances.get(self.executed_sn + 1)
            if instance is None or not instance.committed:
                break
            self.executed_sn += 1
            executed_sns.append(self.executed_sn)
            block = instance.block
            self.exec_log.append(
                self.executed_sn, block.digest(), block.request_count)
            executed += block.request_count
            if self.is_leader:
                for span in block.spans:
                    effects.append(Send(span.client_id, Ack(
                        span.client_id, span.bundle_id, span.count,
                        span.submitted_at, now)))
            del self.instances[self.executed_sn]
        if executed > 0:
            self.total_executed += executed
            effects.insert(0, Executed(executed, info=tuple(executed_sns)))
        if (self.executed_sn + 1) not in self.instances and any(
                i.committed and i.block.sn > self.executed_sn + 1
                for i in self.instances.values()):
            # A committed instance sits above a hole we never admitted:
            # history passed us by — solicit a state transfer.
            effects.extend(self.recovery.note_gap(now))
        return effects

    def _buffer_early(self, sender: int, msg) -> None:
        if msg.view != self.view or msg.sn <= self.executed_sn:
            return
        if msg.sn > self.executed_sn + 4 * self.config.window:
            return  # far outside any plausible window: drop
        bucket = self._early_votes.setdefault(msg.sn, [])
        if len(bucket) < 4 * self.config.n:
            bucket.append((sender, msg))

    def stalled(self) -> bool:
        """Diagnostic: pending work with no committable instance."""
        return (self.mempool.total_requests > 0
                and not any(i.committed for i in self.instances.values()))
