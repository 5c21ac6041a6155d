"""Property-based adversarial network tests on the sans-io loop.

An adversary controlling message delivery to/from up to f replicas (drops,
but no forgery — the authenticated-channel model of §III-A) must never be
able to make two honest replicas' logs disagree.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.config import LeopardConfig
from repro.core.replica import LeopardReplica
from repro.crypto.keys import KeyRegistry
from repro.messages.client import RequestBundle
from tests.support import InstantLoop


@pytest.fixture(scope="module")
def registry():
    return KeyRegistry(4, 1, seed=42)


def fast_config():
    return LeopardConfig(
        n=4, datablock_size=40, bftblock_max_links=4,
        proposal_interval=0.01, generation_interval=0.001,
        max_batch_delay=0.02, retrieval_timeout=0.05,
        checkpoint_period=5, progress_timeout=0.4)


def prefix_consistent(replicas) -> bool:
    logs = [[e.digest for e in r.ledger.log] for r in replicas]
    shortest = min(len(log) for log in logs)
    return all(
        len({log[i] for log in logs}) == 1 for i in range(shortest))


class TestAdversarialDelivery:
    @settings(max_examples=12, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        faulty=st.sampled_from([0, 2, 3]),
        drop_classes=st.sets(
            st.sampled_from(
                ["datablock", "ready", "vote", "proof", "bftblock"]),
            min_size=1, max_size=3),
        direction=st.sampled_from(["in", "out", "both"]),
        seed=st.integers(min_value=0, max_value=100),
    )
    def test_safety_under_message_drops(self, registry, faulty,
                                        drop_classes, direction, seed):
        config = fast_config()
        replicas = {i: LeopardReplica(i, config, registry)
                    for i in range(4)}
        loop = InstantLoop(replicas, replica_ids=list(range(4)))

        def network_filter(src, dst, msg):
            if msg.msg_class not in drop_classes:
                return True
            if direction in ("out", "both") and src == faulty:
                return False
            if direction in ("in", "both") and dst == faulty:
                return False
            return True

        loop.filter = network_filter
        loop.start_all()
        for bundle_id in range(1, 5):
            target = [0, 2, 3][bundle_id % 3]
            loop.deliver_external(
                100, target,
                RequestBundle(100, bundle_id, 40, 128, loop.now))
            loop.run(0.3)
        loop.run(2.0)
        honest = [r for i, r in replicas.items() if i != faulty]
        assert prefix_consistent(honest)
        # With only one misbehaving replica (f = 1) the rest must make
        # progress: some honest replica executed something.
        assert any(r.total_executed > 0 for r in honest)

    @settings(max_examples=8, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(drop_fraction=st.integers(min_value=1, max_value=3),
           seed=st.integers(min_value=0, max_value=50))
    def test_safety_under_random_early_drops(self, registry,
                                             drop_fraction, seed):
        """Randomly dropping a fraction of ALL messages early on (pre-GST
        chaos) may stall progress but must never fork honest logs."""
        import random
        rng = random.Random(seed)
        config = fast_config()
        replicas = {i: LeopardReplica(i, config, registry)
                    for i in range(4)}
        loop = InstantLoop(replicas, replica_ids=list(range(4)))
        chaos_until = 0.5

        def network_filter(src, dst, msg):
            if loop.now > chaos_until:
                return True
            return rng.randrange(4) >= drop_fraction

        loop.filter = network_filter
        loop.start_all()
        for bundle_id in range(1, 4):
            loop.deliver_external(
                100, [0, 2, 3][bundle_id % 3],
                RequestBundle(100, bundle_id, 40, 128, loop.now))
            loop.run(0.2)
        loop.run(3.0)
        assert prefix_consistent(list(replicas.values()))
