"""End-to-end live-cluster tests: real TCP sockets, real clocks.

Acceptance (ISSUE 2): a localhost n=4, f=1 cluster commits client
requests end-to-end over real sockets, keeps committing after one
replica is killed mid-run, and emits the simulator's metrics schema.
"""

from __future__ import annotations

import asyncio
import math

import pytest

from repro.harness.cluster import build_leopard_cluster
from repro.net import LiveCluster
from repro.net.live import run_live
from repro.protocols import default_live_config_for


def run(coro):
    return asyncio.run(coro)


class TestLiveCommits:
    def test_cluster_commits_requests_over_tcp(self):
        async def scenario():
            cluster = LiveCluster(4, client_count=1, total_rate=2000.0,
                                  bundle_size=100, seed=7)
            await cluster.start()
            try:
                await cluster.run(2.0)
            finally:
                await cluster.stop()
            return cluster

        cluster = run(scenario())
        committed = cluster.committed_requests()
        assert committed >= 100, f"only {committed} requests committed"
        # Client-side latency samples arrived (acks crossed the wire).
        assert cluster.metrics.latencies
        # Real bytes moved through replica sockets, bucketed by class.
        stats = cluster.nodes[cluster.measure_replica].router.stats
        assert stats.sent_bytes.get("vote", 0) > 0
        assert stats.recv_bytes.get("proof", 0) > 0

    def test_all_honest_replicas_converge(self):
        async def scenario():
            cluster = LiveCluster(4, client_count=1, total_rate=2000.0,
                                  bundle_size=100, seed=7)
            await cluster.start()
            try:
                await cluster.run(2.0)
                # Grace for in-flight proofs to land everywhere.
                await asyncio.sleep(0.3)
            finally:
                await cluster.stop()
            return cluster

        cluster = run(scenario())
        executed = [cluster.committed_requests(replica_id)
                    for replica_id in range(4)]
        assert min(executed) > 0
        # Replicas may differ by in-flight tail, not by orders of magnitude.
        assert min(executed) >= 0.5 * max(executed)

    def test_replica_crash_mid_run_liveness_preserved(self):
        """Kill one non-leader replica; the remaining 3 keep committing."""
        async def wait_for_commits(cluster, floor, deadline=8.0):
            """Poll until the measure replica commits past ``floor``.

            Polling (rather than one fixed sleep) keeps the test robust
            on loaded single-core CI hosts where wall-clock pacing jitters.
            """
            waited = 0.0
            while waited < deadline:
                await asyncio.sleep(0.25)
                waited += 0.25
                if cluster.committed_requests() > floor:
                    return cluster.committed_requests()
            return cluster.committed_requests()

        async def scenario():
            cluster = LiveCluster(4, client_count=1, total_rate=2000.0,
                                  bundle_size=100, seed=7)
            # Kill a replica that is neither the leader, the measurement
            # point, nor any client's submission target: the protocol
            # must survive its crash with no help from client re-routing
            # (these clients do not resubmit).
            primaries = {client.primary for client in cluster.clients}
            victim = next(
                replica_id for replica_id in range(4)
                if replica_id not in primaries
                and replica_id not in (cluster.leader,
                                       cluster.measure_replica))
            await cluster.start()
            try:
                before_kill = await wait_for_commits(cluster, 0)
                killed_at = cluster.committed_requests(victim)
                await cluster.kill_replica(victim)
                after_kill = await wait_for_commits(cluster, before_kill)
            finally:
                await cluster.stop()
            return before_kill, after_kill, killed_at, cluster, victim

        before_kill, after_kill, killed_at, cluster, victim = run(scenario())
        assert before_kill > 0, "no commits before the crash"
        assert after_kill > before_kill, (
            f"commits stalled after killing replica {victim}: "
            f"{before_kill} -> {after_kill}")
        # The dead replica stopped executing where it was.
        assert cluster.committed_requests(victim) == killed_at


class TestLiveReport:
    """Both tests read one live run's report."""

    @pytest.fixture(scope="class")
    def live_report(self):
        return run(run_live(
            n=4, client_count=1, duration=1.5, total_rate=2000.0,
            bundle_size=100))

    def test_report_matches_sim_schema(self, live_report):
        """Live and simulated runs emit the same report structure."""
        sim_cluster = build_leopard_cluster(4, seed=0, warmup=0.1)
        sim_cluster.run(1.0)
        sim_report = sim_cluster.report()

        # The shared schema: identical keys at the top and nested levels
        # (transport health and deployment topology are live-only).
        assert set(live_report) - {"transport", "deployment"} \
            == set(sim_report)
        assert set(live_report["latency_s"]) == set(sim_report["latency_s"])
        assert set(live_report["perf"]) == set(sim_report["perf"])
        for node_report in live_report["bytes_by_class"].values():
            assert set(node_report) == {"sent", "recv"}
        assert live_report["backend"] == "live"
        assert sim_report["backend"] == "sim"
        assert live_report["protocol"] == sim_report["protocol"]

    def test_report_values_sane(self, live_report):
        assert live_report["throughput_rps"] > 0
        assert not math.isnan(live_report["latency_s"]["mean"])
        assert 0 < live_report["latency_s"]["p50"] < 5.0
        assert live_report["transport"]["decode_errors"] == 0
        assert live_report["transport"]["unroutable_frames"] == 0
        # The write counters outlive the routers' teardown.
        transport = live_report["transport"]
        assert 0 < transport["socket_writes"] <= transport["frames_sent"]
        assert 0 < transport["direct_frames"] <= transport["frames_sent"]
        # Vote traffic flows replica->leader; datablocks are broadcast by
        # the client's assigned replica and received by everyone else.
        measure = live_report["measure_replica"]
        node_bytes = live_report["bytes_by_class"][measure]
        assert node_bytes["sent"].get("vote", 0) > 0
        assert node_bytes["recv"].get("datablock", 0) > 0


class TestBootFailureTeardown:
    """A replica crashing during boot must not orphan bound listeners."""

    def test_bind_failure_mid_start_closes_all_listeners(self, monkeypatch):
        from repro.net.transport import Router

        real_start = Router.start

        async def failing_start(self, handler):
            if self.node_id == 2:
                raise OSError("injected bind failure")
            await real_start(self, handler)

        monkeypatch.setattr(Router, "start", failing_start)

        async def scenario():
            cluster = LiveCluster(4, client_count=1, total_rate=1000.0,
                                  bundle_size=50)
            with pytest.raises(OSError, match="injected"):
                await cluster.start()
            return cluster

        cluster = run(scenario())
        # Every listener that did bind was closed before the error
        # propagated; every router refuses further sends.
        for node in cluster.nodes.values():
            listener = node.router.listener
            assert listener is None or listener._server is None
            assert node.crashed

    def test_boot_hook_failure_closes_all_listeners(self, monkeypatch):
        from repro.net.node import LiveNode

        real_boot = LiveNode.boot

        def failing_boot(self):
            if self.node_id == 1:
                raise RuntimeError("injected core boot failure")
            real_boot(self)

        monkeypatch.setattr(LiveNode, "boot", failing_boot)

        async def scenario():
            cluster = LiveCluster(4, client_count=1, total_rate=1000.0,
                                  bundle_size=50)
            with pytest.raises(RuntimeError, match="injected"):
                await cluster.start()
            return cluster

        cluster = run(scenario())
        for node in cluster.nodes.values():
            listener = node.router.listener
            assert listener is None or listener._server is None

    def test_run_live_cleans_up_when_start_raises(self, monkeypatch):
        """The run_live entry point tears down even when boot fails."""
        from repro.net import live as live_mod
        from repro.net.transport import Router

        real_start = Router.start
        seen: list[LiveCluster] = []

        async def failing_start(self, handler):
            if self.node_id == 3:
                raise OSError("injected bind failure")
            await real_start(self, handler)

        monkeypatch.setattr(Router, "start", failing_start)
        real_init = live_mod.LiveCluster.__init__

        def spying_init(self, *args, **kwargs):
            real_init(self, *args, **kwargs)
            seen.append(self)

        monkeypatch.setattr(live_mod.LiveCluster, "__init__", spying_init)
        with pytest.raises(OSError, match="injected"):
            run(live_mod.run_live(n=4, duration=0.5, total_rate=1000.0,
                                  bundle_size=50))
        (cluster,) = seen
        for node in cluster.nodes.values():
            listener = node.router.listener
            assert listener is None or listener._server is None


class TestLiveConfig:
    def test_default_config_valid_at_smoke_scale(self):
        config = default_live_config_for("leopard", 4)
        assert config.n == 4
        assert config.f == 1
        assert config.quorum == 3

    def test_mismatched_config_rejected(self):
        from repro.errors import ConfigError
        with pytest.raises(ConfigError):
            LiveCluster(7, config=default_live_config_for("leopard", 4))
