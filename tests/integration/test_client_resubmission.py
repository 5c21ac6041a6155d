"""Client re-submission (paper §IV-A1): a censored client re-routes its
requests to another replica after a timeout and eventually gets acks."""

from __future__ import annotations

from repro.core.client import assign_replica
from repro.core.config import LeopardConfig
from repro.harness import build_leopard_cluster
from repro.faults import DropIncoming


class TestAssignment:
    def test_assignment_avoids_leader(self):
        for key in range(20):
            assert assign_replica(key, n=7, leader=1) != 1

    def test_attempts_rotate(self):
        targets = {assign_replica(5, n=7, leader=1, attempt=a)
                   for a in range(6)}
        assert len(targets) == 6  # all non-leader replicas eventually

    def test_deterministic(self):
        assert assign_replica(9, 7, 1) == assign_replica(9, 7, 1)


class TestResubmission:
    def test_censored_client_eventually_acked(self):
        """A replica that swallows client requests (censorship) forces the
        client's timeout path; re-submission to the next replica succeeds."""
        n = 4
        config = LeopardConfig(
            n=n, datablock_size=50, bftblock_max_links=5,
            max_batch_delay=0.05, progress_timeout=15.0)
        # Client node n targets assign_replica(4, 4, 1) -> replica 2;
        # make replica 2 drop all client traffic.
        censor = DropIncoming(frozenset({"client"}))
        cluster = build_leopard_cluster(
            n=n, seed=21, config=config, warmup=0.0, total_rate=4_000,
            resubmit=True, faults={2: censor})
        for client in cluster.clients:
            client.client_timeout = 0.5
        cluster.run(6.0)
        censored = [c for c in cluster.clients if c.primary == 2]
        assert censored, "expected at least one client aimed at replica 2"
        for client in censored:
            assert client.resubmissions > 0
            assert client.acked_requests > 0

    def test_no_resubmission_when_healthy(self):
        n = 4
        config = LeopardConfig(
            n=n, datablock_size=50, bftblock_max_links=5,
            max_batch_delay=0.05)
        cluster = build_leopard_cluster(
            n=n, seed=22, config=config, warmup=0.0, total_rate=4_000,
            resubmit=True)
        for client in cluster.clients:
            client.client_timeout = 2.0
        cluster.run(4.0)
        assert sum(c.resubmissions for c in cluster.clients) == 0
        assert all(c.acked_requests > 0 for c in cluster.clients)

    def test_resubmitted_bundles_are_deduplicated_per_replica(self):
        """The mempool rejects exact re-submissions it has already packed,
        bounding duplicate execution to distinct-replica paths."""
        n = 4
        config = LeopardConfig(
            n=n, datablock_size=50, bftblock_max_links=5,
            max_batch_delay=0.05)
        cluster = build_leopard_cluster(
            n=n, seed=23, config=config, warmup=0.0, total_rate=4_000,
            resubmit=True)
        for client in cluster.clients:
            client.client_timeout = 0.01  # fires before any ack can land
        cluster.run(3.0)
        duplicates = sum(
            r.mempool.duplicates_rejected for r in cluster.replicas)
        assert duplicates > 0  # hair-trigger re-sent to the same replica
