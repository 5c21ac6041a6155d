"""Timer-floor regression: a Leopard replica runs timers in proportion to
the work it does, not to the time that passes.

A replica that polled — a "gen" tick every ``generation_interval``, a
"propose" tick every ``proposal_interval`` whether or not it leads — would
make ~8 000 ``on_timer`` calls in the simulated second below (n = 16),
most of them on replicas with nothing to do.
"""

from __future__ import annotations

from collections import Counter

from repro.core.config import LeopardConfig
from repro.harness.cluster import build_leopard_cluster
from repro.interfaces import SetTimer
from repro.messages.leopard import Datablock

N = 16


class TimerLedger:
    """Wraps one replica core's entry points; counts timer traffic."""

    def __init__(self, core) -> None:
        self.fired: Counter = Counter()
        self.armed: Counter = Counter()
        self.datablocks = 0
        for name in ("start", "on_message", "on_timer"):
            setattr(core, name, self._wrap(getattr(core, name), name))

    def _wrap(self, method, name):
        def call(*args):
            if name == "on_timer":
                self.fired[args[0]] += 1
            effects = method(*args)
            for effect in effects:
                if isinstance(effect, SetTimer):
                    self.armed[effect.key] += 1
                elif isinstance(getattr(effect, "msg", None), Datablock):
                    self.datablocks += 1
            return effects
        return call


def test_timer_calls_scale_with_datablocks_not_with_time():
    config = LeopardConfig(n=N, datablock_size=100)
    cluster = build_leopard_cluster(
        n=N, seed=5, config=config, total_rate=20_000, bundle_size=40,
        prime=False, warmup=0.0)
    # One client never submits, so its replica sits idle all run.
    silent = cluster.clients[3]
    silent.stop_at = 1e-9
    idle = silent.primary
    ledgers = {replica.node_id: TimerLedger(replica)
               for replica in cluster.replicas}
    cluster.run(1.0)

    leader = cluster.leader
    assert idle != leader
    datablocks = sum(ledger.datablocks for ledger in ledgers.values())
    assert datablocks > 100  # a real paced workload ran
    assert cluster.replicas[0].total_executed > 10_000

    # A bundle of 40 never fills a datablock of 100 on arrival alone, so
    # both the full-on-arrival and the overdue one-shot paths ran.
    gen_fired = sum(ledger.fired["gen"] for ledger in ledgers.values())
    assert 0 < gen_fired <= datablocks

    # Only the leader ticks proposals, at its configured interval.
    propose_ticks = int(1.0 / config.proposal_interval)
    for node_id, ledger in ledgers.items():
        if node_id == leader:
            assert 0 < ledger.fired["propose"] <= propose_ticks
        else:
            assert "propose" not in ledger.armed
            assert "propose" not in ledger.fired

    # The whole cluster: O(datablocks + n), not O(n / interval).
    total = sum(sum(ledger.fired.values()) for ledger in ledgers.values())
    assert total <= datablocks + propose_ticks + N

    # The idle replica ran no generation timer at all; neither did the
    # leader, which never generates.
    for node_id in (idle, leader):
        assert "gen" not in ledgers[node_id].armed
        assert ledgers[node_id].datablocks == 0
