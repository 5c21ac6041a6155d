"""Ablation: the three retrieval designs of §IV-A2.

The paper rejects the "intuitive solution" (ask the leader) analytically:
under the selective attack a leader could be forced to re-send O(n) whole
datablocks, eliminating the workload-balancing benefit.  This benchmark
measures exactly that, comparing:

* ``erasure`` — the shipped design: committee of holders, one (f+1, n)
  Reed-Solomon chunk + Merkle proof each;
* ``full``    — committee of holders, whole copies (no coding);
* ``leader``  — only the leader re-sends whole copies.
"""

from __future__ import annotations

from repro.core.config import LeopardConfig
from repro.harness import build_leopard_cluster
from repro.harness.tables import ExperimentResult
from repro.faults import SelectiveDisseminator


def ablation_retrieval_modes(n: int = 16, seed: int = 33
                             ) -> ExperimentResult:
    """Selective attack under each retrieval mode; who carries the bytes."""
    result = ExperimentResult(
        "ablation-retrieval",
        "retrieval designs under the selective attack (who pays)",
        ["mode", "victim_recovered", "victim_ingress_kb",
         "leader_resend_kb", "max_responder_kb"])
    victim, faulty, leader = 2, 3, 1
    for mode in ("erasure", "full", "leader"):
        config = LeopardConfig(
            n=n, datablock_size=500, bftblock_max_links=10,
            max_batch_delay=0.05, max_proposal_delay=0.05,
            retrieval_timeout=0.1, retrieval_mode=mode,
            progress_timeout=30.0)
        targets = frozenset(
            r for r in range(n) if r not in (victim, faulty))
        cluster = build_leopard_cluster(
            n=n, seed=seed, config=config, warmup=0.5, total_rate=30_000,
            faults={faulty: SelectiveDisseminator(targets)})
        cluster.run(5.0)
        victim_replica = cluster.replicas[victim]
        victim_stats = cluster.network.stats(victim)
        ingress = (victim_stats.recv_bytes.get("resp", 0)
                   + victim_stats.recv_bytes.get("datablock", 0))
        leader_resend = cluster.network.stats(leader).sent_bytes.get(
            "datablock", 0)
        responder_bytes = []
        for node in range(n):
            if node in (victim, faulty):
                continue
            stats = cluster.network.stats(node)
            resp = stats.sent_bytes.get("resp", 0)
            responder_bytes.append(resp)
        result.rows.append((
            mode, victim_replica.retrieval.recovered_count,
            ingress / 1e3, leader_resend / 1e3,
            max(responder_bytes) / 1e3))
    result.notes.append(
        "expected: only the `leader` mode re-centralises recovery bytes "
        "on the leader; `erasure` responders each ship ~alpha/(f+1)")
    return result


def test_ablation_retrieval_modes(benchmark, render):
    result = render(benchmark, ablation_retrieval_modes)
    rows = {row[0]: row for row in result.rows}
    assert rows["leader"][3] > 0          # leader re-sends whole blocks
    assert rows["erasure"][3] == 0        # never in the shipped design
    assert rows["erasure"][4] > 0         # committee chunks flow instead
