"""Discrete-event simulation substrate (the paper's EC2 testbed stand-in)."""

from repro.sim.events import EventQueue, EventRecord
from repro.sim.metrics import (
    bandwidth_report,
    node_bandwidth_bps,
    utilization_breakdown,
)
from repro.sim.network import Network, Nic, NicStats
from repro.sim.node import SimNode, zero_cpu
from repro.sim.runner import Simulation

__all__ = [
    "EventQueue",
    "EventRecord",
    "Network",
    "Nic",
    "NicStats",
    "SimNode",
    "Simulation",
    "bandwidth_report",
    "node_bandwidth_bps",
    "utilization_breakdown",
    "zero_cpu",
]
