"""CPU cost calibration: the stand-in for the paper's c5.xlarge vCPUs.

The paper's throughput numbers are jointly bandwidth- and CPU-bound.  The
network side is modelled by :mod:`repro.sim.network` (6 Gbps effective
shared NIC per node, DESIGN.md §2); this module models the compute side as
per-message costs charged by :class:`repro.sim.node.SimNode`.

Calibration targets (all shapes from the paper, magnitudes within its
regime):

* Leopard saturates around 10^5 requests/s at every scale — dominated by
  the per-request datablock verify+execute path (§VI-A, Figs. 7-9);
* HotStuff is leader-bound: per-copy block serialization makes leader CPU
  and NIC costs grow with (n-1), reproducing Figs. 1/2/6/9;
* threshold-BLS share verification is expensive (hundreds of µs), which is
  exactly why batching (τ, Fig. 7) and vote aggregation matter;
* BFT-SMaRt (PBFT baseline) carries a higher per-request software overhead
  and quadratic vote traffic, reproducing its Fig. 1 profile.

Every constant is a plain dataclass field: ablation benches perturb them to
show which resource binds where.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.interfaces import Message
from repro.messages.leopard import ROUND_PREPARE


@dataclass(frozen=True)
class CostModel:
    """Per-operation CPU costs in seconds."""

    #: Fixed cost to receive and dispatch any message.
    per_message: float = 2e-6
    #: Fixed cost to enqueue one outgoing message copy.
    per_send_message: float = 5e-7
    #: Serialization/kernel cost per byte sent (per copy).
    per_send_byte: float = 0.6e-9

    # -- Leopard ------------------------------------------------------
    #: Datablock receive: deserialize + hash + validity checks + (folded)
    #: eventual execution of each contained request.
    leopard_verify_exec_per_request: float = 9.5e-6
    #: Client request ingest at the receiving replica: mempool insert +
    #: datablock packing + (folded) execution of own requests.
    leopard_ingest_per_request: float = 4.5e-6

    # -- Threshold BLS (Leopard votes/proofs, §VI prototype) -----------
    share_sign: float = 3e-4
    share_verify: float = 5e-4
    combine: float = 1e-3
    proof_verify: float = 3e-4

    # -- HotStuff (libhotstuff uses fast ECDSA votes) -------------------
    hotstuff_ingest_per_request: float = 1e-6
    hotstuff_exec_per_request: float = 2e-6
    ecdsa_verify: float = 5e-5
    ecdsa_sign: float = 5e-5

    # -- PBFT / BFT-SMaRt ----------------------------------------------
    pbft_ingest_per_request: float = 1.2e-5
    pbft_exec_per_request: float = 2e-6
    mac_verify: float = 2e-6

    #: Erasure-coding throughput for retrieval responses (bytes/second).
    erasure_bytes_per_second: float = 4e8


DEFAULT_COSTS = CostModel()


def leopard_cpu_model(costs: CostModel = DEFAULT_COSTS):
    """CPU model for a Leopard replica (leader or non-leader)."""

    def model(msg: Message, receiving: bool) -> float:
        if not receiving:
            return (costs.per_send_message
                    + costs.per_send_byte * msg.size_bytes())
        cls = msg.msg_class
        if cls == "datablock":
            return (costs.per_message
                    + costs.leopard_verify_exec_per_request
                    * msg.request_count)
        if cls == "client":
            return (costs.per_message
                    + costs.leopard_ingest_per_request * msg.count)
        if cls == "vote":
            return costs.per_message + costs.share_verify
        if cls == "proof":
            cost = costs.per_message + costs.proof_verify
            if getattr(msg, "round", 0) == ROUND_PREPARE:
                cost += costs.share_sign  # the round-2 vote it triggers
            return cost
        if cls == "bftblock":
            return (costs.per_message + costs.share_verify
                    + costs.share_sign)
        if cls == "resp":
            return (costs.per_message
                    + len(msg.chunk_data) / costs.erasure_bytes_per_second)
        if cls == "query":
            return costs.per_message
        if cls == "checkpoint":
            return costs.per_message + costs.share_verify
        if cls == "viewchange":
            # Timeout/view-change/new-view validation: signature checks
            # plus per-entry notarization verification, approximated as a
            # per-byte sweep over the (potentially large) message.
            return (costs.per_message + costs.ecdsa_verify
                    + msg.size_bytes() * 2e-9)
        return costs.per_message

    return model


def hotstuff_cpu_model(costs: CostModel = DEFAULT_COSTS):
    """CPU model for a HotStuff replica."""

    def model(msg: Message, receiving: bool) -> float:
        if not receiving:
            return (costs.per_send_message
                    + costs.per_send_byte * msg.size_bytes())
        cls = msg.msg_class
        if cls == "client":
            return (costs.per_message
                    + costs.hotstuff_ingest_per_request * msg.count)
        if cls == "block":
            justify = getattr(msg, "justify", None)
            qc_cost = (costs.ecdsa_verify * min(
                3, justify.signer_count) if justify is not None else 0.0)
            # Batch QC verification: libhotstuff checks a sampled subset /
            # aggregate rather than all 2f+1 signatures on the hot path.
            return (costs.per_message + qc_cost + costs.ecdsa_sign
                    + costs.hotstuff_exec_per_request * msg.request_count)
        if cls == "vote":
            return costs.per_message + costs.ecdsa_verify
        return costs.per_message

    return model


def pbft_cpu_model(costs: CostModel = DEFAULT_COSTS):
    """CPU model for a PBFT / BFT-SMaRt replica."""

    def model(msg: Message, receiving: bool) -> float:
        if not receiving:
            return (costs.per_send_message
                    + costs.per_send_byte * msg.size_bytes())
        cls = msg.msg_class
        if cls == "client":
            return (costs.per_message
                    + costs.pbft_ingest_per_request * msg.count)
        if cls == "block":
            return (costs.per_message + costs.mac_verify
                    + costs.pbft_exec_per_request * msg.request_count)
        if cls == "vote":
            return costs.per_message + costs.mac_verify
        return costs.per_message

    return model


def client_cpu_model(costs: CostModel = DEFAULT_COSTS):
    """CPU model for client nodes (negligible work)."""

    def model(msg: Message, receiving: bool) -> float:
        if receiving:
            return costs.per_message
        return costs.per_send_message + costs.per_send_byte * msg.size_bytes()

    return model


# ---------------------------------------------------------------------------
# Live-vs-sim reconciliation
# ---------------------------------------------------------------------------

#: Cost constants each protocol's simulated throughput is most sensitive
#: to — the knobs a reconciliation run would retune.
RELEVANT_COSTS: dict[str, tuple[str, ...]] = {
    "leopard": ("leopard_verify_exec_per_request",
                "leopard_ingest_per_request", "share_sign",
                "share_verify", "combine", "proof_verify"),
    "hotstuff": ("hotstuff_ingest_per_request",
                 "hotstuff_exec_per_request", "ecdsa_verify",
                 "ecdsa_sign"),
    "pbft": ("pbft_ingest_per_request", "pbft_exec_per_request",
             "mac_verify"),
}

_COMMON_COSTS = ("per_message", "per_send_message", "per_send_byte")


def _delta(live_value: float, sim_value: float) -> dict:
    import math

    ratio = math.nan
    if sim_value and not math.isnan(sim_value) \
            and not math.isnan(live_value):
        ratio = live_value / sim_value
    return {"live": live_value, "sim": sim_value,
            "abs_delta": live_value - sim_value,
            "ratio_live_over_sim": ratio}


def compare_live_sim(spec, costs: CostModel = DEFAULT_COSTS) -> dict:
    """Run one :class:`repro.harness.spec.RunSpec` under both backends.

    The same point — the protocol's live configuration and client
    topology, offered load, payload and measurement window — is
    executed twice: once on the discrete-event simulator against the
    modelled NICs/CPUs (under ``costs``), once on the live asyncio
    runtime against real localhost sockets.  The returned reconciliation
    report embeds both :func:`repro.stats.standard_report` dicts and the
    throughput/latency deltas between them, next to the calibration
    constants those deltas would retune — the ROADMAP's live-vs-sim
    calibration study as a repeatable scenario.

    With a chaos ``spec.scenario``, *both* backends execute the same
    scripted fault timeline — crashes, restarts, partitions — so the
    comparison point is a degraded run rather than a clean one (the run
    is extended to cover the last event).  Shaping events are live-only
    and rejected for the sim side.

    Note the two backends measure *different machines*: the simulator
    models the paper's c5.xlarge fleet, the live run is this host with
    every node sharing one kernel.  The deltas quantify that gap; they
    are not expected to be zero.
    """
    from dataclasses import replace

    # Imported lazily: repro.harness imports this module's cost models.
    from repro.harness.spec import execute

    sim_report = execute(replace(spec, backend="sim", processes=False),
                         costs=costs)
    live_report = execute(replace(spec, backend="live"))

    deltas = {
        "throughput_rps": _delta(live_report["throughput_rps"],
                                 sim_report["throughput_rps"]),
        "latency_mean_s": _delta(live_report["latency_s"]["mean"],
                                 sim_report["latency_s"]["mean"]),
        "latency_p50_s": _delta(live_report["latency_s"]["p50"],
                                sim_report["latency_s"]["p50"]),
        "latency_p99_s": _delta(live_report["latency_s"]["p99"],
                                sim_report["latency_s"]["p99"]),
    }
    ratio = deltas["throughput_rps"]["ratio_live_over_sim"]
    constants = {name: getattr(costs, name)
                 for name in _COMMON_COSTS + RELEVANT_COSTS[spec.protocol]}
    return {
        "schema": 1,
        "kind": "live_vs_sim_calibration",
        "protocol": spec.protocol,
        "n": spec.n,
        "total_rate": spec.rate,
        "payload_size": spec.payload,
        "bundle_size": spec.bundle_size,
        "duration_s": spec.duration,
        "warmup_s": spec.warmup,
        "scenario": (sim_report["faults"] or {}).get("scenario"),
        "live": live_report,
        "sim": sim_report,
        "deltas": deltas,
        "calibration_constants": constants,
        # Multiplying the per-request cost constants by this factor would
        # bring the simulated throughput in line with the live host (a
        # first-order reconciliation: tput scales ~1/cost at CPU-bound
        # saturation).
        "suggested_cost_scale": (1.0 / ratio) if ratio and ratio == ratio
        and ratio > 0 else None,
    }


def compare_faulted_live_sim(spec, costs: CostModel = DEFAULT_COSTS,
                             max_degradation_gap: float = 2.0) -> dict:
    """Reconcile a *faulted* live-vs-sim point against its clean twin.

    Runs ``spec`` four times: clean and under its chaos scenario
    (default: the sim-compatible ``crash-restart`` builtin), each on
    both backends.  Raw throughput deltas between backends are
    host-dependent, so the gate is on the *degradation ratio* —
    faulted/clean throughput per backend — which normalizes the host
    out:

        gap = live_degradation / sim_degradation

    A gap near 1.0 means the simulator predicts the live runtime's
    response to the fault timeline, not just its clean steady state.
    The point passes when ``gap`` lies within
    ``[1/max_degradation_gap, max_degradation_gap]``.
    """
    import math
    from dataclasses import replace

    from repro.net.chaos import load_scenario

    spec = replace(spec, scenario=spec.scenario or "crash-restart")
    scenario = load_scenario(spec.scenario)
    clean = compare_live_sim(replace(spec, scenario=None), costs)
    faulted = compare_live_sim(spec, costs)

    def _degradation(which: str) -> float:
        base = clean[which]["throughput_rps"]
        hurt = faulted[which]["throughput_rps"]
        if not base or math.isnan(base) or math.isnan(hurt):
            return math.nan
        return hurt / base

    live_deg = _degradation("live")
    sim_deg = _degradation("sim")
    gap = math.nan
    if sim_deg and not math.isnan(sim_deg) and not math.isnan(live_deg):
        gap = live_deg / sim_deg
    within = (not math.isnan(gap) and gap > 0
              and 1.0 / max_degradation_gap <= gap <= max_degradation_gap)
    # Per-backend dip-and-recovery brackets from the schema-5 timeseries:
    # mean throughput before the first scenario event, inside the fault
    # window, and after the last event — the curve behind the single
    # degradation ratio the gate checks.
    from repro.obs.timeseries import bracket_throughput

    fault_at = scenario.events[0].at
    recover_at = scenario.events[-1].at
    timeline = {
        backend: bracket_throughput(section, fault_at, recover_at)
        for backend in ("live", "sim")
        if (section := faulted[backend].get("timeseries"))
    }
    return {
        "schema": 1,
        "kind": "faulted_live_vs_sim_calibration",
        "protocol": spec.protocol,
        "scenario": scenario.name,
        "n": spec.n,
        "total_rate": spec.rate,
        "clean": clean,
        "faulted": faulted,
        "degradation": {
            "live": live_deg,
            "sim": sim_deg,
            "gap_ratio_live_over_sim": gap,
            "max_degradation_gap": max_degradation_gap,
            "within_bound": within,
            "timeline": timeline or None,
        },
    }


# ---------------------------------------------------------------------------
# Grid sweeps and per-host cost presets
# ---------------------------------------------------------------------------

#: Default (n, rate, payload) sweep grid: small enough to gate in CI,
#: wide enough to expose rate- and shape-dependence of the scale factor.
DEFAULT_SWEEP_GRID: tuple[tuple[int, float, int], ...] = (
    (4, 1000.0, 128),
    (4, 2000.0, 128),
    (7, 2000.0, 128),
)

#: Committed per-host calibration presets (see :func:`save_host_preset`).
DEFAULT_PRESETS_PATH = "benchmarks/CALIBRATION_presets.json"


def scaled_costs(scale: float, protocol: str = "leopard",
                 costs: CostModel = DEFAULT_COSTS) -> CostModel:
    """Apply a reconciliation ``scale`` to the protocol's cost constants.

    Scales exactly the per-request constants the reconciliation report
    names (:data:`RELEVANT_COSTS` plus the shared per-message/per-byte
    costs) — the first-order correction that moves simulated saturation
    throughput onto the live host's.
    """
    from dataclasses import replace

    if scale <= 0 or scale != scale:
        raise ValueError(f"cost scale must be positive, got {scale!r}")
    fields = _COMMON_COSTS + RELEVANT_COSTS[protocol]
    return replace(costs, **{name: getattr(costs, name) * scale
                             for name in fields})


def sweep_live_sim(spec, grid: tuple[tuple[int, float, int], ...]
                   = DEFAULT_SWEEP_GRID,
                   costs: CostModel = DEFAULT_COSTS) -> dict:
    """Reconcile ``spec`` at each (n, rate, payload) point of ``grid``.

    Runs :func:`compare_live_sim` once per grid point and combines the
    per-point ``suggested_cost_scale`` values into one robust factor
    (geometric mean over the valid points) — the PR 4 follow-up: sweep
    the grid and fold the result back into committed per-host
    :class:`CostModel` presets (:func:`save_host_preset`).
    """
    import math
    from dataclasses import replace

    from repro.perf import host_fingerprint

    points = []
    scales = []
    for n, rate, payload in grid:
        point = compare_live_sim(
            replace(spec, n=n, rate=rate, payload=payload), costs)
        points.append(point)
        scale = point["suggested_cost_scale"]
        if scale is not None and scale > 0:
            scales.append(scale)
    combined = math.exp(sum(math.log(s) for s in scales)
                        / len(scales)) if scales else None
    return {
        "schema": 1,
        "kind": "calibration_sweep",
        "protocol": spec.protocol,
        "host": host_fingerprint(),
        "grid": [list(point) for point in grid],
        "points": points,
        "point_scales": scales,
        "combined_cost_scale": combined,
    }


def save_host_preset(sweep_report: dict, path: str = DEFAULT_PRESETS_PATH
                     ) -> dict:
    """Fold a sweep's combined scale into the committed preset file.

    The file maps ``host fingerprint -> protocol -> {scale, grid}``;
    :func:`host_cost_preset` reads it back on the measuring host.
    Returns the updated preset document.
    """
    import json
    from pathlib import Path

    target = Path(path)
    presets: dict = {}
    if target.exists():
        presets = json.loads(target.read_text())
    else:
        target.parent.mkdir(parents=True, exist_ok=True)
    scale = sweep_report.get("combined_cost_scale")
    if scale is None:
        raise ValueError("sweep produced no usable cost scale")
    host = sweep_report["host"]
    presets.setdefault(host, {})[sweep_report["protocol"]] = {
        "scale": scale,
        "grid": sweep_report["grid"],
        "points": len(sweep_report["points"]),
    }
    target.write_text(json.dumps(presets, indent=2, sort_keys=True) + "\n")
    return presets


def host_cost_preset(protocol: str = "leopard",
                     path: str = DEFAULT_PRESETS_PATH,
                     costs: CostModel = DEFAULT_COSTS) -> CostModel:
    """The calibrated :class:`CostModel` for *this* host, if committed.

    Looks the current host fingerprint up in the preset file and applies
    the stored reconciliation scale; falls back to ``costs`` unchanged
    when the file or the host entry is missing (presets are only
    meaningful on the machine that measured them).
    """
    import json
    from pathlib import Path

    from repro.perf import host_fingerprint

    target = Path(path)
    if not target.exists():
        return costs
    entry = json.loads(target.read_text()).get(
        host_fingerprint(), {}).get(protocol)
    if not entry:
        return costs
    return scaled_costs(entry["scale"], protocol, costs)
