#!/usr/bin/env python3
"""A consortium supply chain on Leopard — the paper's §I motivation.

Sixteen organizations (replicas) run a permissioned ledger recording
shipment events.  Each organization's regional clients submit to their
nearest replica (the deterministic assignment µ of §IV-A1); every event is
confirmed by the BFT protocol and acknowledged back to the submitting
region.  One organization is Byzantine and tries the selective-
dissemination attack; the erasure-coded retrieval mechanism keeps the
ledger live without touching the leader.

Run:  python examples/supply_chain.py
"""

from __future__ import annotations

from repro.core.config import LeopardConfig
from repro.harness import build_leopard_cluster
from repro.faults import SelectiveDisseminator


REGIONS = [
    "Rotterdam", "Singapore", "Shanghai", "Los Angeles", "Hamburg",
    "Dubai", "Santos", "Busan", "Antwerp", "Qingdao", "Piraeus",
    "Savannah", "Felixstowe", "Colombo", "Manzanillo",
]


def main() -> None:
    n = 16
    config = LeopardConfig(
        n=n,
        datablock_size=400,
        bftblock_max_links=20,
        max_batch_delay=0.1,
        retrieval_timeout=0.2,
        progress_timeout=5.0,
    )
    leader = config.leader_of(1)
    # Organization 5 is Byzantine: it forwards its shipment batches to
    # just enough replicas for a ready quorum and starves the rest.
    faulty = 5
    victims = {3, 7}
    targets = frozenset(r for r in range(n)
                        if r != faulty and r not in victims)
    cluster = build_leopard_cluster(
        n=n, seed=7, config=config, warmup=0.5, total_rate=30_000,
        faults={faulty: SelectiveDisseminator(targets)})

    print(f"consortium of {n} organizations, leader is org {leader}")
    print(f"org {faulty} is Byzantine (selective dissemination; "
          f"orgs {sorted(victims)} are starved)\n")
    cluster.run(5.0)

    print(f"ledger throughput: {cluster.throughput():,.0f} events/second")
    print(f"regional ack latency: {cluster.mean_latency():.3f} s mean, "
          f"{cluster.metrics.latency_percentile(99):.3f} s p99\n")

    print("per-organization view of the ledger:")
    for replica in cluster.replicas:
        region = REGIONS[replica.node_id % len(REGIONS)]
        recovered = replica.retrieval.recovered_count
        note = ""
        if replica.node_id == faulty:
            note = "  <- Byzantine"
        elif recovered:
            note = f"  <- recovered {recovered} starved batches"
        print(f"  org {replica.node_id:2d} ({region:12s}): "
              f"{len(replica.ledger.log):4d} blocks, "
              f"{replica.total_executed:8,} events{note}")

    honest = [r for r in cluster.replicas if r.node_id != faulty]
    logs = [[e.block_digest for e in r.ledger.log] for r in honest]
    shortest = min(len(log) for log in logs)
    assert all(log[:shortest] == logs[0][:shortest] for log in logs)
    print("\nevery honest organization holds the same ledger prefix; the")
    print("starved organizations recovered the Byzantine org's batches via")
    print("(f+1, n) erasure-coded retrieval without overloading the leader.")


if __name__ == "__main__":
    main()
