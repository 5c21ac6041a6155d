"""Sans-io replica tests driven through the InstantLoop (no bandwidth/CPU
model): protocol logic only."""

from __future__ import annotations

from dataclasses import replace as dc_replace

from repro.core.replica import LeopardReplica
from repro.interfaces import Broadcast, Send, SetTimer
from repro.messages.client import RequestBundle
from repro.messages.leopard import BFTblock, Datablock, Vote
from tests.support import InstantLoop


def make_cluster(config4, registry4):
    replicas = {i: LeopardReplica(i, config4, registry4) for i in range(4)}
    loop = InstantLoop(replicas, replica_ids=list(range(4)))
    return replicas, loop


def submit(loop, target, count=50, client=100, bundle_id=1, at=None):
    bundle = RequestBundle(client, bundle_id, count, 128,
                           at if at is not None else loop.now)
    loop.deliver_external(client, target, bundle)


class TestHappyPath:
    def test_requests_confirm_and_execute(self, config4, registry4):
        replicas, loop = make_cluster(config4, registry4)
        loop.start_all()
        submit(loop, target=0, count=50)
        loop.run(1.0)
        # Every replica executed the 50 requests exactly once.
        for replica in replicas.values():
            assert replica.total_executed == 50
        assert loop.executed[2] == 50

    def test_client_receives_acks(self, config4, registry4):
        replicas, loop = make_cluster(config4, registry4)
        loop.start_all()
        submit(loop, target=0, count=50, client=100)
        loop.run(1.0)
        acks = [t for t in loop.traces if t[1] == "ack"]
        assert not acks  # acks go to node 100, outside the loop's cores

    def test_logs_identical_across_replicas(self, config4, registry4):
        replicas, loop = make_cluster(config4, registry4)
        loop.start_all()
        for bundle_id in range(1, 6):
            submit(loop, target=(bundle_id % 3) or 3, count=50,
                   bundle_id=bundle_id)
            loop.run(0.2)
        loop.run(1.0)
        logs = [[e.block_digest for e in r.ledger.log]
                for r in replicas.values()]
        assert logs[0] == logs[1] == logs[2] == logs[3]
        assert len(logs[0]) >= 1

    def test_leader_is_view_1_mod_n(self, config4, registry4):
        replicas, _ = make_cluster(config4, registry4)
        assert replicas[1].is_leader
        assert not replicas[0].is_leader

    def test_partial_datablock_after_max_batch_delay(self, config4,
                                                     registry4):
        replicas, loop = make_cluster(config4, registry4)
        loop.start_all()
        submit(loop, target=0, count=7)  # below datablock_size = 50
        loop.run(1.0)
        assert all(r.total_executed == 7 for r in replicas.values())


class TestValidation:
    def test_bftblock_from_non_leader_ignored(self, config4, registry4):
        replicas, loop = make_cluster(config4, registry4)
        loop.start_all()
        loop.run(0.05)
        rogue = BFTblock(1, 1, (), registry4.signer(3).sign(b"x"))
        effects = replicas[0].on_message(3, rogue, loop.now)
        assert effects == []

    def test_bftblock_with_bad_share_ignored(self, config4, registry4):
        replicas, loop = make_cluster(config4, registry4)
        loop.start_all()
        loop.run(0.05)
        unsigned = BFTblock(1, 1, ())
        bad = BFTblock(1, 1, (), registry4.signer(3).sign(unsigned.digest()))
        assert replicas[0].on_message(1, bad, loop.now) == []

    def test_bftblock_wrong_view_ignored(self, config4, registry4):
        replicas, loop = make_cluster(config4, registry4)
        loop.start_all()
        unsigned = BFTblock(7, 1, ())
        share = registry4.signer(1).sign(unsigned.digest())
        from dataclasses import replace
        block = replace(unsigned, leader_share=share)
        assert replicas[0].on_message(1, block, 0.0) == []

    def test_votes_ignored_by_non_leader(self, config4, registry4):
        replicas, _ = make_cluster(config4, registry4)
        vote = Vote(1, b"d" * 32, b"d" * 32, registry4.signer(0).sign(b"d" * 32))
        assert replicas[2].on_message(0, vote, 0.0) == []

    def test_duplicate_datablock_counter_ignored(self, config4, registry4):
        replicas, loop = make_cluster(config4, registry4)
        loop.start_all()
        first = Datablock(0, 1, 10, 128, ())
        second = Datablock(0, 1, 20, 128, ())  # same counter, new content
        replicas[2].on_message(0, first, 0.0)
        effects = replicas[2].on_message(0, second, 0.0)
        assert effects == []
        assert replicas[2].pool.get(first.digest()) is not None
        assert replicas[2].pool.get(second.digest()) is None


class TestVoteDiscipline:
    def test_no_vote_for_block_with_missing_links(self, config4, registry4):
        replicas, loop = make_cluster(config4, registry4)
        loop.start_all()
        missing = Datablock(0, 1, 10, 128, ())
        unsigned = BFTblock(1, 1, (missing.digest(),))
        share = registry4.signer(1).sign(unsigned.digest())
        from dataclasses import replace
        block = replace(unsigned, leader_share=share)
        effects = replicas[2].on_message(1, block, 0.0)
        from repro.interfaces import Send, SetTimer
        votes = [e for e in effects if isinstance(e, Send)
                 and isinstance(e.msg, Vote)]
        timers = [e for e in effects if isinstance(e, SetTimer)]
        assert votes == []
        assert timers  # the retrieval timer was armed

    def test_vote_after_datablock_arrives(self, config4, registry4):
        replicas, loop = make_cluster(config4, registry4)
        loop.start_all()
        missing = Datablock(0, 1, 10, 128, ())
        unsigned = BFTblock(1, 1, (missing.digest(),))
        share = registry4.signer(1).sign(unsigned.digest())
        from dataclasses import replace
        block = replace(unsigned, leader_share=share)
        replicas[2].on_message(1, block, 0.0)
        effects = replicas[2].on_message(0, missing, 0.1)
        from repro.interfaces import Send
        votes = [e for e in effects if isinstance(e, Send)
                 and isinstance(e.msg, Vote)]
        assert len(votes) == 1
        assert votes[0].dest == 1


def datablocks(effects):
    return [e.msg for e in effects
            if isinstance(e, Broadcast) and isinstance(e.msg, Datablock)]


def timer_delays(effects, key):
    return [e.delay for e in effects
            if isinstance(e, SetTimer) and e.key == key]


def bundle(count, bundle_id=1, at=0.0):
    return RequestBundle(100, bundle_id, count, 128, at)


def linking(registry, sn, links, view=1):
    """A BFTblock of the view's leader that links ``links``."""
    unsigned = BFTblock(view, sn, tuple(links))
    share = registry.signer(view % 4).sign(unsigned.digest())
    return dc_replace(unsigned, leader_share=share)


class TestSaturationControls:
    """Flow control, driven the way a host drives it: bundles arrive,
    the window releases, the one-shot timer fires."""

    def test_window_limits_outstanding_datablocks(self, config4, registry4):
        config = dc_replace(config4, max_outstanding_datablocks=2)
        replica = LeopardReplica(0, config, registry4)
        replica.start(0.0)
        effects = replica.on_message(100, bundle(500), 0.0)
        cut = datablocks(effects)
        assert len(cut) == 2  # window-capped despite 10 possible
        # Blocked on the window, not on time: nothing to poll for.
        assert not timer_delays(effects, "gen")
        # The leader links one of them: exactly one slot reopens, and the
        # vote leaves before the datablock that fills it.
        effects = replica.on_message(
            1, linking(registry4, 1, [cut[0].digest()]), 0.01)
        assert len(datablocks(effects)) == 1
        kinds = [type(e.msg) for e in effects
                 if isinstance(e, (Send, Broadcast))]
        assert kinds.index(Vote) < kinds.index(Datablock)

    def test_backlog_probe_pauses_generation(self, config4, registry4):
        replica = LeopardReplica(0, config4, registry4)
        replica.backlog_probe = lambda: 10.0  # pretend a huge NIC queue
        replica.start(0.0)
        effects = replica.on_message(100, bundle(500), 0.0)
        assert not datablocks(effects)
        # One re-check, when the queue is predicted to reach max_backlog.
        assert timer_delays(effects, "gen") == [10.0 - config4.max_backlog]
        replica.backlog_probe = lambda: 0.0
        effects = replica.on_timer("gen", 10.0 - config4.max_backlog)
        assert len(datablocks(effects)) == 10
        assert not timer_delays(effects, "gen")


class GenTimerHost:
    """Tracks the "gen" timer like a host would and checks the arming
    contract: one live timer, re-armed only for a strictly earlier
    deadline."""

    def __init__(self, replica):
        self.replica = replica
        self.deadline = None
        self.armed = 0
        self.cut = []

    def absorb(self, effects, now):
        for delay in timer_delays(effects, "gen"):
            assert delay > 0.0
            assert self.deadline is None or now + delay < self.deadline
            self.deadline = now + delay
            self.armed += 1
        self.cut.extend(datablocks(effects))
        return effects

    def message(self, sender, msg, now):
        return self.absorb(self.replica.on_message(sender, msg, now), now)

    def fire(self):
        now, self.deadline = self.deadline, None
        return self.absorb(self.replica.on_timer("gen", now), now)


class TestGenerationWakeups:
    """One test per event that can make a datablock due (Algorithm 1 is
    event-driven: no cause, no work)."""

    def test_idle_replica_arms_no_generation_timer(self, config4,
                                                   registry4):
        for replica_id in range(4):
            replica = LeopardReplica(replica_id, config4, registry4)
            effects = replica.start(0.0)
            assert not timer_delays(effects, "gen")
            # Only the leader ticks proposals.
            assert bool(timer_delays(effects, "propose")) \
                == replica.is_leader

    def test_full_on_arrival(self, config4, registry4):
        host = GenTimerHost(LeopardReplica(0, config4, registry4))
        host.replica.start(0.0)
        host.message(100, bundle(50), 0.004)
        assert [db.request_count for db in host.cut] == [50]
        assert host.cut[0].created_at == 0.004
        assert host.deadline is None

    def test_overdue_one_shot(self, config4, registry4):
        host = GenTimerHost(LeopardReplica(0, config4, registry4))
        host.replica.start(0.0)
        host.message(100, bundle(7, at=0.0), 0.005)
        assert not host.cut
        # Armed for the instant the oldest request reaches
        # max_batch_delay (0.02), not for the next polling tick.
        assert host.deadline == 0.005 + (0.02 - 0.005)
        # A second partial bundle rides the pending timer.
        host.message(100, bundle(7, bundle_id=2, at=0.006), 0.007)
        assert host.armed == 1
        host.fire()
        assert [db.request_count for db in host.cut] == [14]
        assert host.deadline is None

    def test_timer_firing_an_ulp_early_still_cuts(self, config4, registry4):
        replica = LeopardReplica(0, config4, registry4)
        replica.start(0.0)
        replica.on_message(100, bundle(7, at=0.1), 0.1)
        early = 0.1 + config4.max_batch_delay - 1e-12
        effects = replica.on_timer("gen", early)
        assert len(datablocks(effects)) == 1
        assert not timer_delays(effects, "gen")

    def test_one_live_timer_across_mixed_causes(self, config4, registry4):
        host = GenTimerHost(LeopardReplica(0, config4, registry4))
        backlog = [0.5]
        host.replica.backlog_probe = lambda: backlog[0]
        host.replica.start(0.0)
        # Full but backpressured: timer for the predicted drain.
        host.message(100, bundle(50), 0.0)
        assert host.deadline == 0.5 - config4.max_backlog
        # More arrivals while blocked re-arm nothing (GenTimerHost
        # asserts every arm is strictly earlier than the pending one).
        for i in range(2, 6):
            host.message(100, bundle(10, bundle_id=i, at=0.001 * i),
                         0.001 * i)
        assert host.armed == 1
        # The estimate was wrong (queue barely over): re-check no faster
        # than generation_interval.
        backlog[0] = config4.max_backlog + 1e-4
        effects = host.fire()
        assert timer_delays(effects, "gen") == [config4.generation_interval]
        backlog[0] = 0.0
        host.fire()
        # The full block and the (by now overdue) remainder.
        assert [db.request_count for db in host.cut] == [50, 40]
        assert host.deadline is None

    def test_release_by_bftblock_link(self, config4, registry4):
        config = dc_replace(config4, max_outstanding_datablocks=1)
        host = GenTimerHost(LeopardReplica(0, config, registry4))
        host.replica.start(0.0)
        host.message(100, bundle(100), 0.0)
        assert len(host.cut) == 1 and host.deadline is None
        # A block linking someone else's datablock releases nothing.
        other = Datablock(2, 1, 10, 128, ())
        host.message(2, other, 0.001)
        host.message(1, linking(registry4, 1, [other.digest()]), 0.002)
        assert len(host.cut) == 1
        host.message(1, linking(registry4, 2, [host.cut[0].digest()]),
                     0.003)
        assert len(host.cut) == 2
        assert host.cut[1].created_at == 0.003

    def test_release_by_execution(self, config4, registry4):
        config = dc_replace(config4, max_outstanding_datablocks=1)
        host = GenTimerHost(LeopardReplica(0, config, registry4))
        replica = host.replica
        replica.start(0.0)
        host.message(100, bundle(100), 0.0)
        assert len(host.cut) == 1
        # Confirmed without this replica ever seeing the BFTblock (it
        # learns the position some other way): execution is the release.
        replica.ledger.confirm(BFTblock(1, 1, (host.cut[0].digest(),)))
        host.absorb(replica._try_execute(0.004), 0.004)
        assert replica.total_executed == 50
        assert len(host.cut) == 2

    def test_enter_view_as_non_leader_and_as_leader(self, config4,
                                                    registry4):
        from repro.messages.leopard import NewViewMsg
        new_view = NewViewMsg(2, (), (), registry4.signer(2).sign(b"nv"))
        for replica_id in (0, 2):
            replica = LeopardReplica(replica_id, config4, registry4)
            replica.start(0.0)
            replica.vc.in_viewchange = True
            # Arrivals during a view-change wait for the next view.
            effects = replica.on_message(100, bundle(50), 0.1)
            assert not datablocks(effects)
            assert not timer_delays(effects, "gen")
            effects = replica._enter_view(new_view, 0.2)
            if replica_id == 2:  # leads view 2: ticks, never generates
                assert timer_delays(effects, "propose") \
                    == [config4.proposal_interval]
                assert not datablocks(effects)
            else:
                assert not timer_delays(effects, "propose")
                assert len(datablocks(effects)) == 1

    def test_deposed_leader_stops_ticking(self, config4, registry4):
        replica = LeopardReplica(1, config4, registry4)
        replica.start(0.0)
        assert timer_delays(replica.on_timer("propose", 0.01), "propose")
        replica.view = 2
        assert replica.on_timer("propose", 0.02) == []

    def test_restart_with_resubmitted_bundles(self, config4, registry4):
        replica = LeopardReplica(0, config4, registry4)
        replica.begin_recovery()
        effects = replica.start(5.0)
        assert not timer_delays(effects, "gen")
        assert not timer_delays(effects, "propose")
        # A partial bundle re-submitted long after its original
        # submission is overdue on arrival: cut at once, no timer.
        effects = replica.on_message(100, bundle(7, at=1.0), 5.1)
        assert [db.request_count for db in datablocks(effects)] == [7]
        assert not timer_delays(effects, "gen")

    def test_start_rearms_a_timer_the_host_dropped(self, config4,
                                                   registry4):
        # start() means "no timer of yours is pending": a bundle that
        # beat the boot must not be stranded behind a forgotten deadline.
        replica = LeopardReplica(0, config4, registry4)
        assert timer_delays(
            replica.on_message(100, bundle(7, at=0.0), 0.001), "gen")
        effects = replica.start(0.002)
        assert timer_delays(effects, "gen") == [0.02 - 0.002]
