#!/usr/bin/env python3
"""Byzantine-failure walkthrough: selective attack, then a leader crash.

Act 1 — a faulty non-leader replica runs the §IV-A2 selective attack,
sending its datablocks to the bare ready quorum; the starved replica
recovers them with (f+1, n) Reed--Solomon chunks and Merkle proofs
(Algorithm 3) and keeps voting.

Act 2 — the leader crashes; progress stalls; replicas exchange signed
timeouts, the round-robin successor collects 2f+1 view-change messages and
multicasts a new-view with a redo schedule (Appendix A); confirmation
resumes under the new leader.

Run:  python examples/byzantine_recovery.py
"""

from __future__ import annotations

from repro.core.config import LeopardConfig
from repro.harness import build_leopard_cluster
from repro.faults import Crash, SelectiveDisseminator


def main() -> None:
    n = 7
    config = LeopardConfig(
        n=n,
        datablock_size=200,
        bftblock_max_links=10,
        max_batch_delay=0.05,
        retrieval_timeout=0.15,
        progress_timeout=0.6,
        checkpoint_period=20,
    )
    leader = config.leader_of(1)        # replica 1
    faulty_creator = 3                  # runs the selective attack
    victim = 2                          # never receives 3's datablocks
    crash_at = 2.5                      # the leader dies mid-run

    targets = frozenset(
        r for r in range(n) if r not in (faulty_creator, victim))
    faults = {
        faulty_creator: SelectiveDisseminator(targets),
        leader: Crash(at=crash_at),
    }
    cluster = build_leopard_cluster(
        n=n, seed=99, config=config, warmup=0.2, total_rate=20_000,
        faults=faults)

    print(f"n={n} (f={config.f}); leader={leader}; "
          f"selective attacker={faulty_creator}; starved victim={victim}")
    print(f"leader will crash at t={crash_at}s\n")

    print("--- act 1: selective dissemination attack ---")
    cluster.run(2.4)
    victim_replica = cluster.replicas[victim]
    print(f"t={cluster.sim.now:.1f}s  victim recovered "
          f"{victim_replica.retrieval.recovered_count} datablocks via "
          f"erasure-coded retrieval;")
    resp_bytes = cluster.network.stats(victim).recv_bytes.get('resp', 0)
    print(f"         retrieval traffic at the victim: "
          f"{resp_bytes / 1e3:.1f} KB total")
    print(f"         victim executed {victim_replica.total_executed:,} "
          f"requests — liveness preserved, view still "
          f"{victim_replica.view}\n")

    print("--- act 2: leader crash and view-change ---")
    cluster.run(5.0)
    measure = cluster.replicas[cluster.measure_replica]
    honest = [r for r in cluster.replicas
              if r.node_id not in (leader,)]
    views = {r.node_id: r.view for r in honest}
    print(f"t={cluster.sim.now:.1f}s  views after the crash: {views}")
    if measure.vc_triggered_at and measure.vc_entered_at:
        print(f"         view-change took "
              f"{measure.vc_entered_at - measure.vc_triggered_at:.3f}s "
              f"after triggering "
              f"(triggered {measure.vc_triggered_at - crash_at:.2f}s "
              f"after the crash)")
    new_leader = cluster.replicas[2 % n]
    print(f"         new leader is replica {new_leader.node_id} "
          f"(round-robin successor)")
    before = measure.total_executed
    cluster.run(2.0)
    print(f"         requests executed since the new view: "
          f"{measure.total_executed - before:,} — confirmation resumed\n")

    logs = [[e.digest for e in r.ledger.log] for r in honest]
    shortest = min(len(log) for log in logs)
    assert all(log[:shortest] == logs[0][:shortest] for log in logs)
    print("honest logs agree across the attack and the view-change —")
    print("safety held while both recovery mechanisms restored liveness.")


if __name__ == "__main__":
    main()
