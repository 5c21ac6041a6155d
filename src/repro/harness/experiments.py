"""One function per paper table/figure (see DESIGN.md §4 for the index).

Every function returns an :class:`ExperimentResult` whose rows mirror the
series the paper plots.  Scales are laptop-calibrated: the default
("quick") grids simulate the small/medium scales and extend the curve with
the calibrated analytical model (rows marked ``model``); setting the
environment variable ``REPRO_FULL=1`` unlocks the paper's full grids
(n up to 600), which take tens of minutes.
"""

from __future__ import annotations

import os

from repro.analysis.calibration import DEFAULT_COSTS, CostModel
from repro.core.config import LeopardConfig, table2_parameters
from repro.faults import Crash, SelectiveDisseminator
from repro.harness.cluster import (
    build_cluster,
    build_leopard_cluster,
    build_pbft_cluster,
)
from repro.harness.tables import ExperimentResult
from repro.sim.metrics import utilization_breakdown
from repro.sim.network import DEFAULT_BANDWIDTH_BPS


def full_scale() -> bool:
    """Whether the paper-scale grids are enabled (REPRO_FULL=1)."""
    return os.environ.get("REPRO_FULL") == "1"


# ----------------------------------------------------------------------
# Analytical ceilings (used for `model` rows extending simulated curves)
# ----------------------------------------------------------------------

def leopard_model_rps(n: int, costs: CostModel = DEFAULT_COSTS,
                      bandwidth_bps: float = DEFAULT_BANDWIDTH_BPS,
                      payload: int = 128) -> float:
    """Calibrated throughput ceiling for Leopard at scale ``n``."""
    cpu = 1.0 / costs.leopard_verify_exec_per_request
    nic = (bandwidth_bps / 2.0) / (payload * 8.0)
    return min(cpu, nic)


def hotstuff_model_rps(n: int, costs: CostModel = DEFAULT_COSTS,
                       bandwidth_bps: float = DEFAULT_BANDWIDTH_BPS,
                       payload: int = 128) -> float:
    """Calibrated ceiling for HotStuff: leader NIC egress vs leader CPU."""
    nic = (bandwidth_bps / 2.0) / (payload * 8.0 * max(1, n - 1))
    cpu = 1.0 / (costs.hotstuff_ingest_per_request
                 + costs.hotstuff_exec_per_request
                 + costs.per_send_byte * payload * (n - 1))
    return min(nic, cpu)


def pbft_model_rps(n: int, costs: CostModel = DEFAULT_COSTS,
                   bandwidth_bps: float = DEFAULT_BANDWIDTH_BPS,
                   payload: int = 128) -> float:
    """Calibrated ceiling for PBFT / BFT-SMaRt."""
    nic = (bandwidth_bps / 2.0) / (payload * 8.0 * max(1, n - 1))
    cpu = 1.0 / (costs.pbft_ingest_per_request
                 + costs.pbft_exec_per_request
                 + costs.per_send_byte * payload * (n - 1))
    return min(nic, cpu)


def _leopard_config(n: int, **overrides) -> LeopardConfig:
    datablock, links = table2_parameters(n)
    params = {"n": n, "datablock_size": datablock,
              "bftblock_max_links": links}
    params.update(overrides)
    return LeopardConfig(**params)


# ----------------------------------------------------------------------
# Fig. 1 — HotStuff & BFT-SMaRt throughput vs n (128 B / 1024 B payload)
# ----------------------------------------------------------------------

def fig1_baseline_scaling(duration: float = 3.0) -> ExperimentResult:
    """Throughput of the two baselines as scale grows (paper Fig. 1)."""
    result = ExperimentResult(
        "fig1", "baseline throughput vs n (HotStuff, BFT-SMaRt)",
        ["protocol", "payload", "n", "throughput_rps", "source"])
    hs_sim = (16, 32, 64) if not full_scale() else (16, 32, 64, 128, 256)
    pbft_sim = (16, 32) if not full_scale() else (16, 32, 64)
    model_ns = (128, 256, 400, 600)
    for payload in (128, 1024):
        from repro.baselines.hotstuff.config import HotStuffConfig
        from repro.baselines.pbft.config import PbftConfig
        for n in hs_sim:
            cluster = build_cluster(
                "hotstuff", n, seed=1,
                config=HotStuffConfig(n=n, payload_size=payload))
            cluster.run(cluster.warmup + duration)
            result.rows.append(
                ("hotstuff", payload, n, cluster.throughput(), "sim"))
        for n in model_ns:
            if n <= hs_sim[-1]:
                continue
            result.rows.append((
                "hotstuff", payload, n,
                hotstuff_model_rps(n, payload=payload), "model"))
        for n in pbft_sim:
            cluster = build_pbft_cluster(
                n=n, seed=1, config=PbftConfig(n=n, payload_size=payload))
            cluster.run(cluster.warmup + duration)
            result.rows.append(
                ("bft-smart", payload, n, cluster.throughput(), "sim"))
        for n in model_ns:
            if n <= pbft_sim[-1]:
                continue
            result.rows.append((
                "bft-smart", payload, n,
                pbft_model_rps(n, payload=payload), "model"))
    result.notes.append(
        "model rows extend simulated curves with the calibrated analytical "
        "ceiling (leader NIC/CPU bound); set REPRO_FULL=1 for larger grids")
    return result


# ----------------------------------------------------------------------
# Fig. 2 — HotStuff throughput + leader bandwidth vs n
# ----------------------------------------------------------------------

def fig2_leader_bottleneck(duration: float = 3.0) -> ExperimentResult:
    """HotStuff throughput vs the leader's bandwidth utilization (Fig. 2)."""
    result = ExperimentResult(
        "fig2", "HotStuff throughput and leader bandwidth vs n",
        ["n", "throughput_rps", "leader_bandwidth_gbps"])
    ns = (4, 16, 32, 64) if not full_scale() else (4, 16, 32, 64, 128, 256)
    for n in ns:
        cluster = build_cluster("hotstuff", n, seed=2)
        cluster.run(cluster.warmup + duration)
        result.rows.append((
            n, cluster.throughput(),
            cluster.leader_bandwidth_bps() / 1e9))
    result.notes.append(
        "expected shape: throughput decreases while leader bandwidth "
        "rises toward NIC saturation (paper Fig. 2)")
    return result


# ----------------------------------------------------------------------
# Table I — amortized complexity comparison (analytical)
# ----------------------------------------------------------------------

def table1_amortized_costs() -> ExperimentResult:
    """The paper's Table I, from the closed-form model."""
    from repro.analysis.scaling_factor import table1_rows

    result = ExperimentResult(
        "table1", "amortized cost when the leader is honest and after GST",
        ["protocol", "leader_comm", "replica_comm", "scaling_factor",
         "voting_optimistic", "voting_faulty"])
    for row in table1_rows():
        result.rows.append((
            row.protocol, row.leader_communication,
            row.replica_communication, row.scaling_factor,
            row.voting_rounds_optimistic, row.voting_rounds_faulty))
    return result


# ----------------------------------------------------------------------
# Fig. 6 — HotStuff throughput vs batch size
# ----------------------------------------------------------------------

def fig6_hotstuff_batch(duration: float = 3.0) -> ExperimentResult:
    """HotStuff throughput on varying batch sizes (paper Fig. 6)."""
    from repro.baselines.hotstuff.config import HotStuffConfig

    result = ExperimentResult(
        "fig6", "HotStuff throughput vs batch size",
        ["n", "batch_size", "throughput_rps"])
    ns = (32, 64) if not full_scale() else (32, 64, 128, 256)
    batches = (100, 200, 400, 800, 1200)
    for n in ns:
        for batch in batches:
            cluster = build_cluster(
                "hotstuff", n, seed=3,
                config=HotStuffConfig(n=n, batch_size=batch))
            cluster.run(cluster.warmup + duration)
            result.rows.append((n, batch, cluster.throughput()))
    result.notes.append("expected shape: rises with batch size, then flat")
    return result


# ----------------------------------------------------------------------
# Fig. 7 — Leopard throughput vs BFTblock size (τ)
# ----------------------------------------------------------------------

def fig7_bftblock_batch(duration: float = 3.0) -> ExperimentResult:
    """Leopard throughput on varying BFTblock sizes (paper Fig. 7)."""
    result = ExperimentResult(
        "fig7", "Leopard throughput vs BFTblock size (datablock links)",
        ["n", "bftblock_links", "throughput_rps"])
    ns = (32, 64) if not full_scale() else (32, 64, 128, 256, 400, 600)
    links_grid = (1, 5, 10, 50, 100, 400)
    for n in ns:
        for links in links_grid:
            config = _leopard_config(n, bftblock_max_links=links)
            cluster = build_leopard_cluster(n=n, seed=4, config=config)
            cluster.run(cluster.warmup + duration)
            result.rows.append((n, links, cluster.throughput()))
    result.notes.append(
        "expected shape: throughput rises then stabilizes; larger n needs "
        "a larger batch to amortize vote processing (paper Fig. 7)")
    return result


# ----------------------------------------------------------------------
# Fig. 8 — Leopard throughput vs datablock size (α)
# ----------------------------------------------------------------------

def fig8_datablock_batch(duration: float = 3.0) -> ExperimentResult:
    """Leopard throughput on varying datablock sizes (paper Fig. 8)."""
    result = ExperimentResult(
        "fig8", "Leopard throughput vs datablock size",
        ["bftblock_links", "n", "datablock_size", "throughput_rps"])
    small_ns = (32, 64) if not full_scale() else (32, 64, 128)
    large_ns = (64,) if not full_scale() else (256, 400, 600)
    sizes = (250, 500, 1000, 2000, 4000)
    for n in small_ns:
        for size in sizes:
            config = _leopard_config(
                n, datablock_size=size, bftblock_max_links=10)
            cluster = build_leopard_cluster(n=n, seed=5, config=config)
            cluster.run(cluster.warmup + duration)
            result.rows.append((10, n, size, cluster.throughput()))
    for n in large_ns:
        for size in (2000, 3000, 4000, 5000):
            config = _leopard_config(
                n, datablock_size=size, bftblock_max_links=100)
            cluster = build_leopard_cluster(n=n, seed=5, config=config)
            cluster.run(cluster.warmup + duration)
            result.rows.append((100, n, size, cluster.throughput()))
    result.notes.append(
        "top block: BFTblock size fixed at 10; bottom: fixed at 100 "
        "(paper Fig. 8)")
    return result


# ----------------------------------------------------------------------
# Table II — batch parameters used for the headline comparison
# ----------------------------------------------------------------------

def table2_batch_parameters() -> ExperimentResult:
    """The paper's Table II parameter choices."""
    result = ExperimentResult(
        "table2", "implementation parameters of batch sizes",
        ["n", "leopard_datablock", "leopard_bftblock", "hotstuff_batch"])
    for n in (32, 64, 128, 256, 400, 600):
        datablock, links = table2_parameters(n)
        hotstuff = 800 if n <= 300 else "-"
        result.rows.append((n, datablock, links, hotstuff))
    return result


# ----------------------------------------------------------------------
# Fig. 9 — the headline: Leopard vs HotStuff throughput at scale
# ----------------------------------------------------------------------

def fig9_throughput_scaling(duration: float = 3.0) -> ExperimentResult:
    """Leopard vs HotStuff throughput as n grows (paper Fig. 9)."""
    result = ExperimentResult(
        "fig9", "throughput of Leopard and HotStuff at different scales",
        ["protocol", "n", "throughput_rps", "source"])
    leo_sim = (16, 32, 64) if not full_scale() else (32, 64, 128, 256, 400, 600)
    hs_sim = (16, 32, 64) if not full_scale() else (32, 64, 128, 256, 300)
    model_ns = (128, 256, 300, 400, 600)
    for n in leo_sim:
        cluster = build_leopard_cluster(n=n, seed=6, config=_leopard_config(n))
        cluster.run(cluster.warmup + duration)
        result.rows.append(("leopard", n, cluster.throughput(), "sim"))
    for n in model_ns:
        if n <= leo_sim[-1]:
            continue
        result.rows.append(("leopard", n, leopard_model_rps(n), "model"))
    for n in hs_sim:
        cluster = build_cluster("hotstuff", n, seed=6)
        cluster.run(cluster.warmup + duration)
        result.rows.append(("hotstuff", n, cluster.throughput(), "sim"))
    for n in model_ns:
        if n <= hs_sim[-1] or n > 300:
            continue  # the paper's HotStuff could not run beyond n = 300
        result.rows.append(("hotstuff", n, hotstuff_model_rps(n), "model"))
    result.notes.append(
        "expected: Leopard ~flat at the 10^5 level up to n=600; HotStuff "
        "declining; ~5x gap at n=300 (paper Fig. 9)")
    return result


# ----------------------------------------------------------------------
# Fig. 10 — effectiveness of scaling up (throughput & latency vs bandwidth)
# ----------------------------------------------------------------------

def fig10_scaling_up(duration_factor: float = 6.0) -> ExperimentResult:
    """Throughput/latency under throttled per-replica bandwidth (Fig. 10)."""
    result = ExperimentResult(
        "fig10", "throughput and latency vs per-replica bandwidth",
        ["protocol", "n", "bandwidth_mbps", "goodput_mbps", "latency_s"])
    ns = (4, 16) if not full_scale() else (4, 16, 32, 64, 128)
    bandwidths = (20e6, 40e6, 80e6, 100e6, 200e6)
    for n in ns:
        for bw in bandwidths:
            payload_bits = 128 * 8
            # Offered load just below the throttled capacity so latency
            # reflects batching+dissemination, not unbounded queueing.
            leo_cap = min((bw / 2.0) / payload_bits,
                          leopard_model_rps(n))
            datablock = 2000
            dissemination = (datablock * payload_bits * (n - 1)) / (bw / 2.0)
            config = _leopard_config(
                n, datablock_size=datablock, bftblock_max_links=100,
                retrieval_timeout=max(0.5, 3.0 * dissemination),
                progress_timeout=max(5.0, 10.0 * dissemination),
                max_batch_delay=1.0)
            warmup = max(2.0, 3.0 * dissemination)
            cluster = build_leopard_cluster(
                n=n, seed=8, config=config, bandwidth_bps=bw,
                total_rate=0.9 * leo_cap, warmup=warmup)
            cluster.run(warmup + duration_factor * max(1.0, dissemination))
            result.rows.append((
                "leopard", n, bw / 1e6, cluster.throughput_bps() / 1e6,
                cluster.mean_latency()))
            hs_cap = min((bw / 2.0) / (payload_bits * (n - 1)),
                         hotstuff_model_rps(n, bandwidth_bps=bw))
            # HotStuff needs a 3-chain before anything commits; at
            # heavily throttled bandwidth block intervals stretch to
            # seconds, so give it a proportionally longer run.
            hs_block_interval = (800 * payload_bits * (n - 1)) / (bw / 2.0)
            hs_run = max(duration_factor, 8.0 * hs_block_interval)
            cluster = build_cluster(
                "hotstuff", n, seed=8, bandwidth_bps=bw,
                total_rate=0.9 * hs_cap, warmup=2.0)
            cluster.run(2.0 + hs_run)
            result.rows.append((
                "hotstuff", n, bw / 1e6, cluster.throughput_bps() / 1e6,
                cluster.mean_latency()))
    result.notes.append(
        "expected: goodput linear in bandwidth; Leopard slope ~1/2 at all "
        "n, HotStuff slope ~1/(n-1); Leopard latency above HotStuff, "
        "narrowing as bandwidth grows (paper Fig. 10)")
    return result


# ----------------------------------------------------------------------
# Table III — bandwidth utilization breakdown (n = 32)
# ----------------------------------------------------------------------

def table3_bandwidth_breakdown(duration: float = 3.0) -> ExperimentResult:
    """Per-message-class bandwidth shares at n = 32 (paper Table III)."""
    n = 32
    cluster = build_leopard_cluster(n=n, seed=9, config=_leopard_config(n))
    cluster.run(cluster.warmup + duration)
    result = ExperimentResult(
        "table3", "bandwidth utilization breakdown of Leopard (n=32)",
        ["role", "direction", "class", "percent"])
    for role, node in (("leader", cluster.leader),
                       ("replica", cluster.measure_replica)):
        breakdown = utilization_breakdown(cluster.network, node)
        for direction in ("send", "recv"):
            for cls, fraction in sorted(
                    breakdown[direction].items(),
                    key=lambda item: -item[1]):
                result.rows.append(
                    (role, direction, cls, 100.0 * fraction))
    result.notes.append(
        "expected: >96% of the leader's receive traffic is datablocks; "
        "votes under 1% (paper Table III)")
    return result


# ----------------------------------------------------------------------
# Table IV — latency breakdown (n = 32)
# ----------------------------------------------------------------------

def table4_latency_breakdown(duration: float = 4.0) -> ExperimentResult:
    """Per-phase latency shares at n = 32 (paper Table IV)."""
    n = 32
    cluster = build_leopard_cluster(
        n=n, seed=10, config=_leopard_config(n), trace_phases=True)
    cluster.run(cluster.warmup + duration)
    shares = cluster.metrics.phase_breakdown()
    result = ExperimentResult(
        "table4", "latency breakdown of Leopard (n=32)",
        ["phase", "percent"])
    for phase in ("generation", "dissemination", "agreement", "response"):
        result.rows.append((phase, 100.0 * shares.get(phase, 0.0)))
    result.notes.append(
        "expected: dissemination is the largest share (~50% in the "
        "paper), response under 1% (paper Table IV)")
    return result


# ----------------------------------------------------------------------
# Fig. 11 — leader bandwidth usage in both systems
# ----------------------------------------------------------------------

def fig11_leader_bandwidth(duration: float = 3.0) -> ExperimentResult:
    """Leader bandwidth in Leopard vs HotStuff (paper Fig. 11)."""
    result = ExperimentResult(
        "fig11", "bandwidth usage of the leader",
        ["protocol", "n", "leader_bandwidth_mbps"])
    ns = (4, 16, 32, 64) if not full_scale() else (4, 16, 32, 64, 128, 256)
    for n in ns:
        cluster = build_leopard_cluster(
            n=n, seed=11, config=_leopard_config(n))
        cluster.run(cluster.warmup + duration)
        result.rows.append(
            ("leopard", n, cluster.leader_bandwidth_bps() / 1e6))
    for n in ns:
        cluster = build_cluster("hotstuff", n, seed=11)
        cluster.run(cluster.warmup + duration)
        result.rows.append(
            ("hotstuff", n, cluster.leader_bandwidth_bps() / 1e6))
    result.notes.append(
        "expected: HotStuff's leader rises toward NIC saturation; "
        "Leopard's stays under ~0.5 Gbps at every scale (paper Fig. 11)")
    return result


# ----------------------------------------------------------------------
# Fig. 12 + Table V — retrieval cost and time
# ----------------------------------------------------------------------

def fig12_retrieval(datablock_requests: int = 2000) -> ExperimentResult:
    """Cost/time of retrieving one datablock (paper Fig. 12 + Table V)."""
    result = ExperimentResult(
        "fig12", "datablock retrieval: communication and time cost",
        ["n", "recover_kb", "respond_kb", "time_ms"])
    ns = (4, 7, 16, 32) if not full_scale() else (4, 7, 16, 32, 64, 128)
    for n in ns:
        config = _leopard_config(
            n, datablock_size=datablock_requests, bftblock_max_links=10,
            retrieval_timeout=0.02, progress_timeout=30.0,
            max_batch_delay=3.0)
        f = config.f
        leader = 1 % n
        # The faulty creator sends its datablocks to just enough replicas
        # for a ready quorum (leader + itself + 2f-1 others); the rest of
        # the honest replicas must retrieve (the §IV-A2 selective attack).
        faulty = next(r for r in range(n)
                      if r != leader and r != 2)
        others = [r for r in range(n)
                  if r not in (leader, faulty, 2)][: 2 * f - 1]
        targets = frozenset([leader] + others)
        cluster = build_leopard_cluster(
            n=n, seed=12, config=config, warmup=0.0,
            total_rate=min(40_000.0, 6_000.0 * (n - 1)),
            faults={faulty: SelectiveDisseminator(targets)})
        cluster.run(6.0)
        victim = cluster.replicas[2]
        stats = cluster.network.stats(2)
        recovered = victim.retrieval.recovered_count
        if recovered == 0:
            result.rows.append((n, float("nan"), float("nan"),
                                float("nan")))
            continue
        recover_kb = (stats.recv_bytes.get("resp", 0) / recovered) / 1e3
        responders = [r for r in targets if r != leader]
        respond_totals = []
        for responder in responders:
            sent = cluster.network.stats(responder).sent_bytes.get("resp", 0)
            answered = cluster.replicas[responder].retrieval.responses_sent
            if answered:
                respond_totals.append(sent / answered)
        respond_kb = (sum(respond_totals) / len(respond_totals) / 1e3
                      if respond_totals else float("nan"))
        times = [t for _, t in victim.retrieval.recovery_times]
        time_ms = 1000.0 * sum(times) / len(times)
        result.rows.append((n, recover_kb, respond_kb, time_ms))
    result.notes.append(
        "expected: recover cost ~flat in n (325->356 KB in the paper); "
        "respond cost collapsing (163->8 KB); time tens of ms "
        "(paper Fig. 12 + Table V; time here includes the query timer)")
    return result


# ----------------------------------------------------------------------
# Fig. 13 — view-change time and communication cost
# ----------------------------------------------------------------------

def fig13_viewchange() -> ExperimentResult:
    """View-change time/communication after a leader crash (Fig. 13)."""
    result = ExperimentResult(
        "fig13", "view-change time and communication cost",
        ["n", "time_s", "total_comm_mb", "leader_send_mb",
         "leader_recv_mb", "replica_send_kb", "replica_recv_kb"])
    ns = (4, 8, 13, 32) if not full_scale() else (4, 8, 13, 32, 64, 128, 400)
    for n in ns:
        config = _leopard_config(
            n, datablock_size=500, bftblock_max_links=10,
            progress_timeout=0.5)
        leader = 1 % n
        cluster = build_leopard_cluster(
            n=n, seed=13, config=config,
            total_rate=min(60_000.0, 6_000.0 * (n - 1)),
            warmup=0.0, faults={leader: Crash(at=1.0)})
        new_leader = 2 % n
        deadline = 60.0
        measure = cluster.replicas[cluster.measure_replica]
        while cluster.sim.now < deadline and measure.view < 2:
            cluster.run(0.5)
        if measure.vc_entered_at is None or measure.vc_triggered_at is None:
            result.rows.append((n,) + (float("nan"),) * 6)
            continue
        # Time cost: from the trigger to the first confirmation reached
        # under the new leader (covers the redo of outstanding blocks).
        exec_marker = cluster.metrics.last_execution.get(
            cluster.measure_replica, 0.0)
        while (cluster.sim.now < deadline
               and cluster.metrics.last_execution.get(
                   cluster.measure_replica, 0.0)
               <= max(exec_marker, measure.vc_entered_at)):
            cluster.run(0.25)
        resumed_at = cluster.metrics.last_execution.get(
            cluster.measure_replica, cluster.sim.now)
        elapsed = resumed_at - measure.vc_triggered_at
        total = 0
        for node in range(n):
            total += cluster.network.stats(node).sent_bytes.get(
                "viewchange", 0)
        lead_stats = cluster.network.stats(new_leader)
        replica_sends = []
        replica_recvs = []
        for node in range(n):
            if node in (leader, new_leader):
                continue
            stats = cluster.network.stats(node)
            replica_sends.append(stats.sent_bytes.get("viewchange", 0))
            replica_recvs.append(stats.recv_bytes.get("viewchange", 0))
        result.rows.append((
            n, elapsed, total / 1e6,
            lead_stats.sent_bytes.get("viewchange", 0) / 1e6,
            lead_stats.recv_bytes.get("viewchange", 0) / 1e6,
            sum(replica_sends) / max(1, len(replica_sends)) / 1e3,
            sum(replica_recvs) / max(1, len(replica_recvs)) / 1e3,
        ))
    result.notes.append(
        "expected: time grows with n but stays in seconds; total "
        "communication dominated by the new leader's O(n) new-view "
        "multicast (paper Fig. 13)")
    return result


ALL_EXPERIMENTS = {
    "fig1": fig1_baseline_scaling,
    "fig2": fig2_leader_bottleneck,
    "table1": table1_amortized_costs,
    "fig6": fig6_hotstuff_batch,
    "fig7": fig7_bftblock_batch,
    "fig8": fig8_datablock_batch,
    "table2": table2_batch_parameters,
    "fig9": fig9_throughput_scaling,
    "fig10": fig10_scaling_up,
    "table3": table3_bandwidth_breakdown,
    "table4": table4_latency_breakdown,
    "fig11": fig11_leader_bandwidth,
    "fig12": fig12_retrieval,
    "fig13": fig13_viewchange,
}
