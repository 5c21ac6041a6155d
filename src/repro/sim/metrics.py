"""Bandwidth views over the modelled :class:`repro.sim.network.Network`.

Per-node bandwidth, total and bucketed by message class, from the
:class:`repro.stats.NicStats` counters the modelled NICs keep — the
quantities behind Tables III and Figs. 2/11.  The backend-neutral
collector and report (:class:`repro.stats.MetricsCollector`,
:func:`repro.stats.standard_report`) live in :mod:`repro.stats`.
"""

from __future__ import annotations

from repro.sim.network import Network


def bandwidth_report(network: Network, node_id: int, duration: float
                     ) -> dict[str, dict[str, float]]:
    """Per-message-class send/receive bandwidth at ``node_id`` in bps."""
    stats = network.stats(node_id)
    if duration <= 0:
        duration = 1.0
    return {
        "send": {cls: bytes_ * 8.0 / duration
                 for cls, bytes_ in stats.sent_bytes.items()},
        "recv": {cls: bytes_ * 8.0 / duration
                 for cls, bytes_ in stats.recv_bytes.items()},
    }


def utilization_breakdown(network: Network, node_id: int
                          ) -> dict[str, dict[str, float]]:
    """Table III-style breakdown: share of the node's total traffic.

    Returns ``{"send": {class: fraction}, "recv": {class: fraction}}`` where
    fractions are of the node's combined (send + receive) bytes.
    """
    stats = network.stats(node_id)
    total = stats.total_sent() + stats.total_recv()
    if total == 0:
        return {"send": {}, "recv": {}}
    return {
        "send": {cls: bytes_ / total
                 for cls, bytes_ in stats.sent_bytes.items()},
        "recv": {cls: bytes_ / total
                 for cls, bytes_ in stats.recv_bytes.items()},
    }


def node_bandwidth_bps(network: Network, node_id: int, duration: float
                       ) -> float:
    """Total (send + receive) bandwidth utilization of a node in bps."""
    stats = network.stats(node_id)
    if duration <= 0:
        return 0.0
    return (stats.total_sent() + stats.total_recv()) * 8.0 / duration
