"""Live-runtime tests for the baseline protocols (ISSUE 4).

The paper's comparative claims (Figs. 1/2/6/9) require PBFT and HotStuff
to run on the *same* transport and measurement harness as Leopard.  These
tests boot each baseline on a real localhost TCP cluster: commits flow
end-to-end, the run survives a mid-run replica crash, and every baseline
message class survives the wire framing with exact size parity.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.messages.client import Ack, RequestBundle
from repro.messages.hotstuff import HSBlock, HSNewView, HSVote, QuorumCert
from repro.messages.leopard import BundleSpan
from repro.messages.pbft import Commit, Prepare, PrePrepare
from repro.net import LiveCluster
from repro.net.protocols import default_live_config_for, get_protocol
from repro.net.transport import Listener
from repro.sim.network import NicStats
from repro.wire import codec
from tests.net.test_transport import receiver

BASELINES = ("pbft", "hotstuff")
DIGEST = bytes(range(32))
SPANS = (BundleSpan(4, 1, 100, 0.25),)


def run(coro):
    return asyncio.run(coro)


async def wait_for_commits(cluster, floor, deadline=8.0):
    """Poll until the measure replica commits past ``floor``."""
    waited = 0.0
    while waited < deadline:
        await asyncio.sleep(0.25)
        waited += 0.25
        if cluster.committed_requests() > floor:
            return cluster.committed_requests()
    return cluster.committed_requests()


class TestBaselineLiveCommits:
    @pytest.mark.parametrize("protocol", BASELINES)
    def test_commits_requests_over_tcp(self, protocol):
        async def scenario():
            cluster = LiveCluster(4, client_count=1, protocol=protocol,
                                  total_rate=2000.0, bundle_size=100,
                                  seed=7)
            try:
                await cluster.start()
                await cluster.run(2.0)
            finally:
                await cluster.stop()
            return cluster

        cluster = run(scenario())
        committed = cluster.committed_requests()
        assert committed >= 100, (
            f"{protocol}: only {committed} requests committed")
        # Acks crossed the wire back to the client.
        assert cluster.metrics.latencies
        # Real vote traffic moved through the measure replica's socket.
        stats = cluster.nodes[cluster.measure_replica].router.stats
        assert stats.sent_bytes.get("vote", 0) > 0
        assert stats.recv_bytes.get("block", 0) > 0

    @pytest.mark.parametrize("protocol", BASELINES)
    def test_report_declares_protocol(self, protocol):
        async def scenario():
            cluster = LiveCluster(4, client_count=1, protocol=protocol,
                                  total_rate=1000.0, bundle_size=50)
            try:
                await cluster.start()
                await cluster.run(1.0)
            finally:
                await cluster.stop()
            return cluster.report()

        report = run(scenario())
        assert report["protocol"] == protocol
        assert report["backend"] == "live"
        assert report["deployment"]["mode"] == "in-process"
        assert report["throughput_rps"] > 0


class TestBaselineCrashLiveness:
    @pytest.mark.parametrize("protocol", BASELINES)
    def test_replica_crash_mid_run_liveness_preserved(self, protocol):
        """Kill one non-leader follower; 2f+1 survivors keep committing."""
        async def scenario():
            cluster = LiveCluster(4, client_count=1, protocol=protocol,
                                  total_rate=2000.0, bundle_size=100,
                                  seed=7)
            victim = next(
                replica_id for replica_id in range(4)
                if replica_id not in (cluster.leader,
                                      cluster.measure_replica))
            try:
                await cluster.start()
                before_kill = await wait_for_commits(cluster, 0)
                await cluster.kill_replica(victim)
                after_kill = await wait_for_commits(cluster, before_kill)
            finally:
                await cluster.stop()
            return before_kill, after_kill, victim

        before_kill, after_kill, victim = run(scenario())
        assert before_kill > 0, f"{protocol}: no commits before the crash"
        assert after_kill > before_kill, (
            f"{protocol}: commits stalled after killing replica "
            f"{victim}: {before_kill} -> {after_kill}")


#: One instance per message class a PBFT or HotStuff deployment puts on
#: the wire (consensus messages plus the shared client classes).
BASELINE_WIRE_CORPUS = [
    PrePrepare(1, 4, 100, 128, SPANS, proposed_at=0.5),
    Prepare(1, 4, DIGEST, 2),
    Commit(1, 4, DIGEST, 2),
    HSBlock(7, DIGEST, QuorumCert(DIGEST, 6, 3), 100, 128, SPANS, 0.5),
    HSVote(7, DIGEST, 2),
    HSNewView(3, QuorumCert(DIGEST, 2, 3)),
    HSNewView(4, None),
    RequestBundle(4, 3, 100, 128, 0.25),
    Ack(4, 3, 100, 0.25, 1.0),
]


class TestBaselineWireFraming:
    """Codec coverage audit: every baseline class under stream framing."""

    @pytest.mark.parametrize(
        "msg", BASELINE_WIRE_CORPUS,
        ids=lambda m: type(m).__name__)
    def test_survives_stream_framing_with_size_parity(self, msg):
        frame = codec.encode(9, msg)
        assert len(frame) == msg.size_bytes()

        async def scenario():
            received = []
            connection = receiver(Listener(
                lambda sender, msg: received.append((sender, msg)),
                NicStats()))
            half = len(frame) // 2  # the frame straddles two reads
            connection.data_received(frame[:half])
            connection.data_received(frame[half:])
            return received

        assert run(scenario()) == [(9, msg)]

    def test_every_baseline_core_class_registered(self):
        """The classes the baseline replicas emit all have codecs."""
        registered = set(codec.registered_message_types())
        needed = {PrePrepare, Prepare, Commit, HSBlock, HSVote,
                  HSNewView, RequestBundle, Ack}
        assert needed <= registered


class TestProtocolRegistry:
    def test_unknown_protocol_rejected(self):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError):
            get_protocol("tendermint")

    @pytest.mark.parametrize("protocol", ("leopard", *BASELINES))
    def test_default_configs_build(self, protocol):
        config = default_live_config_for(protocol, 4)
        assert config.n == 4
        assert config.leader_of(1) in range(4)

    def test_mismatched_config_rejected(self):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError):
            LiveCluster(7, protocol="pbft",
                        config=default_live_config_for("pbft", 4))
