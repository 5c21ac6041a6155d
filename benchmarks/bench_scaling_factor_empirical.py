"""Empirical scaling factor: measure SF = max_i c_i directly.

The paper defines the scaling factor (Definition 1) as the heaviest
per-replica communication, in bits, per confirmed request bit.  This
benchmark measures it from the simulator's byte accounting and checks the
closed-form predictions of §V-B: SF_Leopard ≈ 2 and flat in n;
SF_HotStuff ≈ n-1 at the leader and growing.
"""

from __future__ import annotations

from repro.harness import build_cluster, build_leopard_cluster
from repro.harness.experiments import _leopard_config
from repro.harness.tables import ExperimentResult


def empirical_scaling_factor(duration: float = 3.0) -> ExperimentResult:
    """Measured max per-replica bits per confirmed request bit."""
    result = ExperimentResult(
        "empirical-sf",
        "measured scaling factor (Definition 1) vs the §V-B closed form",
        ["protocol", "n", "measured_sf", "predicted_sf"])
    from repro.analysis import scaling_factor as sf
    for n in (16, 32):
        cluster = build_leopard_cluster(
            n=n, seed=41, config=_leopard_config(n))
        cluster.run(cluster.warmup + duration)
        confirmed_bits = (
            cluster.metrics.executed_requests.get(
                cluster.measure_replica, 0) * 128 * 8)
        heaviest = 0.0
        for node in range(n):
            stats = cluster.network.stats(node)
            heaviest = max(
                heaviest,
                (stats.total_sent() + stats.total_recv()) * 8.0)
        datablock, links = _leopard_config(n).datablock_size, \
            _leopard_config(n).bftblock_max_links
        params = sf.LeopardParameters(
            n=n, datablock_requests=datablock, bftblock_links=links)
        result.rows.append((
            "leopard", n,
            heaviest / confirmed_bits if confirmed_bits else float("nan"),
            sf.leopard_scaling_factor(params)))
    for n in (16, 32):
        cluster = build_cluster("hotstuff", n, seed=41)
        cluster.run(cluster.warmup + duration)
        confirmed_bits = (
            cluster.metrics.executed_requests.get(
                cluster.measure_replica, 0) * 128 * 8)
        heaviest = 0.0
        for node in range(n):
            stats = cluster.network.stats(node)
            heaviest = max(
                heaviest,
                (stats.total_sent() + stats.total_recv()) * 8.0)
        result.rows.append((
            "hotstuff", n,
            heaviest / confirmed_bits if confirmed_bits else float("nan"),
            float(sf.leader_based_scaling_factor(n))))
    result.notes.append(
        "measured SF includes warmup traffic, so it slightly exceeds the "
        "steady-state closed form; shapes must match: Leopard ~constant, "
        "HotStuff ~n-1")
    return result


def test_empirical_scaling_factor(benchmark, render):
    result = render(benchmark, empirical_scaling_factor)
    leopard = {r[1]: r[2] for r in result.rows if r[0] == "leopard"}
    hotstuff = {r[1]: r[2] for r in result.rows if r[0] == "hotstuff"}
    # Leopard's measured SF is a small constant, roughly flat in n.
    assert all(1.0 < v < 6.0 for v in leopard.values())
    assert abs(leopard[32] - leopard[16]) < 0.5 * leopard[16]
    # HotStuff's grows roughly linearly with n.
    assert hotstuff[32] > 1.5 * hotstuff[16]
    assert hotstuff[32] > 4 * leopard[32]
