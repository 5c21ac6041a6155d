#!/usr/bin/env python3
"""Quickstart: a 4-replica Leopard cluster confirming client requests.

Builds the smallest optimal-resilience deployment (n = 3f+1 = 4), drives it
with a saturating client load for three simulated seconds, and prints the
numbers the paper cares about: server-side throughput, client-side latency,
and the (identical) replicated logs.

Run:  python examples/quickstart.py
"""

from __future__ import annotations

from repro.core.config import LeopardConfig
from repro.harness import build_leopard_cluster


def main() -> None:
    config = LeopardConfig(
        n=4,
        datablock_size=500,       # α: requests per datablock
        bftblock_max_links=20,    # τ: datablock links per BFTblock
        max_batch_delay=0.05,
    )
    cluster = build_leopard_cluster(
        n=4, seed=42, config=config, warmup=0.5, total_rate=60_000)

    print("running 3 simulated seconds of saturated load...")
    cluster.run(3.0)

    print(f"throughput : {cluster.throughput():>10,.0f} requests/second")
    print(f"latency    : {cluster.mean_latency():>10.3f} seconds (mean)")
    print(f"p95 latency: {cluster.metrics.latency_percentile(95):>10.3f} "
          f"seconds")
    leader_mbps = cluster.leader_bandwidth_bps() / 1e6
    print(f"leader NIC : {leader_mbps:>10.1f} Mbps "
          f"(the leader never ships request payloads)")

    print("\nreplicated logs (first 5 positions, all replicas):")
    for replica in cluster.replicas:
        role = "leader " if replica.is_leader else "replica"
        prefix = " ".join(
            entry.digest.hex()[:8]
            for entry in list(replica.ledger.log)[:5])
        print(f"  {role} {replica.node_id}: {prefix} "
              f"({len(replica.ledger.log)} blocks, "
              f"{replica.total_executed:,} requests executed)")

    logs = [[e.digest for e in r.ledger.log]
            for r in cluster.replicas]
    shortest = min(len(log) for log in logs)
    assert all(log[:shortest] == logs[0][:shortest] for log in logs), \
        "safety violation!"
    print("\nall honest logs agree on their common prefix — safety holds.")


if __name__ == "__main__":
    main()
