"""Ablation: the three retrieval designs §IV-A2 discusses.

``erasure`` is the paper's committee + Reed--Solomon design; ``full`` asks
the committee for whole copies; ``leader`` is the rejected "intuitive
solution" where only the leader re-sends.  All three restore liveness —
the difference (which the paper argues analytically) is who pays.
"""

from __future__ import annotations

import pytest

from repro.core.config import LeopardConfig
from repro.harness import build_leopard_cluster
from repro.faults import SelectiveDisseminator


def run_mode(mode: str, n: int = 7, seed: int = 31):
    config = LeopardConfig(
        n=n, datablock_size=200, bftblock_max_links=5,
        max_batch_delay=0.05, max_proposal_delay=0.05,
        retrieval_timeout=0.1, retrieval_mode=mode,
        progress_timeout=10.0)
    leader = 1
    victim = 2
    faulty = 3
    targets = frozenset(
        r for r in range(n) if r not in (victim, faulty))
    cluster = build_leopard_cluster(
        n=n, seed=seed, config=config, warmup=0.5, total_rate=20_000,
        faults={faulty: SelectiveDisseminator(targets)})
    cluster.run(5.0)
    return cluster


@pytest.fixture(scope="module")
def mode_runs():
    return {mode: run_mode(mode) for mode in ("erasure", "full", "leader")}


class TestAllModesRecover:
    @pytest.mark.parametrize("mode", ["erasure", "full", "leader"])
    def test_victim_executes(self, mode_runs, mode):
        victim = mode_runs[mode].replicas[2]
        assert victim.total_executed > 0

    @pytest.mark.parametrize("mode", ["erasure", "full", "leader"])
    def test_logs_consistent(self, mode_runs, mode):
        cluster = mode_runs[mode]
        honest = [r for r in cluster.replicas if r.node_id != 3]
        logs = [[e.block_digest for e in r.ledger.log] for r in honest]
        shortest = min(len(log) for log in logs)
        assert shortest > 0
        for position in range(shortest):
            assert len({log[position] for log in logs}) == 1

    def test_erasure_mode_actually_decodes(self, mode_runs):
        victim = mode_runs["erasure"].replicas[2]
        assert victim.retrieval.recovered_count > 0


class TestWhoPays:
    def test_leader_resends_only_in_copy_modes(self, mode_runs):
        """The leader re-sends whole datablocks in the `leader` mode (the
        re-centralisation of §IV-A2's "intuitive solution") and as a
        committee member in `full` mode — never in the erasure design,
        where it ships only chunk responses."""
        leader_egress = {
            mode: cluster.network.stats(1).sent_bytes.get("datablock", 0)
            for mode, cluster in mode_runs.items()}
        assert leader_egress["leader"] > 0
        assert leader_egress["erasure"] == 0

    def test_full_copies_waste_victim_ingress(self, mode_runs):
        """In `full` mode every committee holder ships a whole copy, so
        the victim receives redundant data; `leader` mode delivers one
        copy per block."""
        def victim_recovery_ingress(cluster):
            return cluster.network.stats(2).recv_bytes.get("datablock", 0)

        full_bytes = victim_recovery_ingress(mode_runs["full"])
        leader_bytes = victim_recovery_ingress(mode_runs["leader"])
        assert full_bytes > 1.5 * leader_bytes

    def test_erasure_is_cheapest_for_responders(self, mode_runs):
        """Per-responder bytes: one chunk (~α/(f+1)) vs a whole copy."""
        erasure = mode_runs["erasure"]
        full = mode_runs["full"]
        erasure_bytes = max(
            erasure.network.stats(r).sent_bytes.get("resp", 0)
            for r in range(7) if r != 2)
        responders = [r for r in range(7) if r not in (1, 2, 3)]
        # In full mode, re-sent copies ride the datablock class; compare
        # against the erasure run's identical topology.
        extra_full = []
        for r in responders:
            full_sent = full.network.stats(r).sent_bytes.get("datablock", 0)
            base_sent = erasure.network.stats(r).sent_bytes.get(
                "datablock", 0)
            extra_full.append(full_sent - base_sent)
        assert erasure_bytes > 0
        # At n=7 (f=2) a chunk is ~1/3 of a datablock; allow headroom.
        datablock_bytes = 200 * 128
        per_recovery_erasure = erasure_bytes \
            / max(1, erasure.replicas[2].retrieval.recovered_count)
        assert per_recovery_erasure < datablock_bytes
