"""Multi-replica submission (paper §IV-A1's f+1-fanout option)."""

from __future__ import annotations

import pytest

from repro.core.client import LeopardClient
from repro.core.config import LeopardConfig
from repro.core.replica import LeopardReplica
from repro.interfaces import Send
from tests.support import InstantLoop


class TestFanoutValidation:
    def test_bounds(self):
        config = LeopardConfig(n=7)  # f = 2
        LeopardClient(10, config, rate=100, fanout=3)  # f+1 ok
        with pytest.raises(ValueError):
            LeopardClient(10, config, rate=100, fanout=4)
        with pytest.raises(ValueError):
            LeopardClient(10, config, rate=100, fanout=0)

    def test_fanout_sends_to_distinct_replicas(self):
        config = LeopardConfig(n=7)
        client = LeopardClient(10, config, rate=100, fanout=3)
        effects = client.on_timer("submit", 0.1)
        targets = [e.dest for e in effects if isinstance(e, Send)]
        assert len(targets) == 3
        assert len(set(targets)) == 3
        assert config.leader_of(1) not in targets


class TestFanoutEndToEnd:
    def test_duplicates_execute_but_liveness_holds(self, config4,
                                                   registry4):
        """With fanout 2, two replicas independently pack the same
        requests — the paper's stated throughput cost of the option —
        but clients still get acknowledgements (from both packers)."""
        replicas = {i: LeopardReplica(i, config4, registry4)
                    for i in range(4)}
        loop = InstantLoop(replicas, replica_ids=list(range(4)))
        loop.start_all()
        client = LeopardClient(100, config4, rate=1000, bundle_size=50,
                               fanout=2)
        for effect in client.on_timer("submit", 0.0):
            if isinstance(effect, Send):
                loop.deliver_external(100, effect.dest, effect.msg)
        loop.run(1.0)
        # Both copies were packed by distinct replicas: 2x execution.
        assert all(r.total_executed == 100 for r in replicas.values())
        # Logs remain identical (duplication is a workload property, not
        # a safety one).
        logs = [[e.digest for e in r.ledger.log]
                for r in replicas.values()]
        assert all(log == logs[0] for log in logs)
