"""Experiment harness: cluster builders, workloads, per-figure experiments."""

from repro.harness.cluster import (
    Cluster,
    build_cluster,
    build_leopard_cluster,
    build_pbft_cluster,
    throttle_all_replicas,
)
from repro.harness.experiments import ALL_EXPERIMENTS, full_scale
from repro.harness.tables import ExperimentResult, render_all

__all__ = [
    "ALL_EXPERIMENTS",
    "Cluster",
    "ExperimentResult",
    "build_cluster",
    "build_leopard_cluster",
    "build_pbft_cluster",
    "full_scale",
    "render_all",
    "throttle_all_replicas",
]
