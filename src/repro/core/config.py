"""Leopard protocol configuration (paper §IV, §VI and Table II).

The two batch parameters are the paper's α (datablock size, in requests)
and τ (BFTblock size, in datablock links); §VI-A studies both and Table II
lists the values used for the headline comparison, which
:func:`table2_parameters` reproduces.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError
from repro.messages.base import DEFAULT_PAYLOAD


@dataclass(frozen=True)
class LeopardConfig:
    """All tunables of one Leopard deployment.

    Attributes:
        n: number of replicas (3f + 1 for optimal resilience).
        f: fault bound; defaults to ⌊(n-1)/3⌋.
        payload_size: bytes per request.
        datablock_size: α — requests per datablock.
        bftblock_max_links: τ — max datablock links per BFTblock.
        max_parallel_instances: k — parallel agreement instances bound
            (watermark window; PBFT-style, §IV-A2).
        generation_interval: minimum re-check delay under NIC
            backpressure.  Datablocks are cut the moment they fall due,
            not on a polling tick; a backpressured replica re-checks when
            its backlog should have drained to ``max_backlog``, and this
            floor keeps a wrong (live) backlog estimate from spinning.
        max_batch_delay: cut a partial datablock once the oldest pending
            request has waited this long (latency guard; one-shot timer).
        max_backlog: NIC backpressure — pause datablock generation while
            the local egress queue exceeds this many seconds of work.
        max_outstanding_datablocks: flow control — pause generation while
            this many of the replica's own datablocks await confirmation
            (the datablock-plane analogue of PBFT's watermark window; it
            bounds in-flight data so saturated runs reach a steady state
            instead of unboundedly deep receive queues).  The default (-1)
            auto-scales as max(1, ceil(32/(n-1))): with many generators a
            smaller per-replica window keeps the same pipeline depth.
        proposal_interval: BFTblock proposal tick; armed only while the
            replica leads the view.
        max_proposal_delay: the leader proposes once τ links are ready or
            once the oldest ready link has waited this long — the batching
            that amortizes vote processing (Fig. 7, Table II).
        retrieval_timeout: wait for a missing datablock before multicasting
            a query (Algorithm 3 "Query" timer).
        retrieval_mode: how missing datablocks are recovered —
            ``"erasure"`` is the paper's committee + (f+1, n) Reed-Solomon
            design (Algorithm 3); ``"full"`` asks the committee for whole
            copies (no coding); ``"leader"`` is the "intuitive solution"
            of §IV-A2 that asks only the leader.  The non-default modes
            exist for the ablation benchmarks.
        checkpoint_period: checkpoint every this many serial numbers
            (k/2 per Appendix A).
        progress_timeout: view-change trigger — max time without
            confirmation progress while work is pending.
        trace_phases: emit latency-phase traces (Table IV) when True.
        quorum: 2f + 1 — votes needed for notarization, confirmation and
            readiness (derived).
    """

    n: int
    f: int = -1
    payload_size: int = DEFAULT_PAYLOAD
    datablock_size: int = 2000
    bftblock_max_links: int = 100
    max_parallel_instances: int = 100
    generation_interval: float = 0.002
    max_batch_delay: float = 0.15
    max_backlog: float = 0.08
    max_outstanding_datablocks: int = -1
    proposal_interval: float = 0.025
    max_proposal_delay: float = 0.25
    retrieval_timeout: float = 0.3
    retrieval_mode: str = "erasure"
    checkpoint_period: int = 50
    progress_timeout: float = 2.0
    trace_phases: bool = False

    def __post_init__(self) -> None:
        if self.n < 4:
            raise ConfigError("Leopard needs n >= 4 (f >= 1)")
        if self.f < 0:
            object.__setattr__(self, "f", (self.n - 1) // 3)
        if self.n < 3 * self.f + 1:
            raise ConfigError(f"n={self.n} cannot tolerate f={self.f}")
        if self.datablock_size < 1:
            raise ConfigError("datablock_size must be >= 1")
        if self.bftblock_max_links < 1:
            raise ConfigError("bftblock_max_links must be >= 1")
        if self.max_parallel_instances < 1:
            raise ConfigError("max_parallel_instances must be >= 1")
        if self.max_outstanding_datablocks < 0:
            auto = max(1, -(-32 // (self.n - 1)))
            object.__setattr__(self, "max_outstanding_datablocks", auto)
        if self.max_outstanding_datablocks < 1:
            raise ConfigError("max_outstanding_datablocks must be >= 1")
        if self.retrieval_mode not in ("erasure", "full", "leader"):
            raise ConfigError(
                f"unknown retrieval mode {self.retrieval_mode!r}")
        object.__setattr__(self, "quorum", 2 * self.f + 1)

    def leader_of(self, view: int) -> int:
        """Round-robin leader election: the (v mod n)-th replica."""
        return view % self.n


def table2_parameters(n: int) -> tuple[int, int]:
    """The (datablock_size, bftblock_max_links) pairs of the paper's Table II.

    Values between listed scales interpolate to the nearest listed n.
    """
    table = [
        (32, 2000, 100),
        (64, 2000, 100),
        (128, 3000, 300),
        (256, 4000, 300),
        (400, 4000, 400),
        (600, 4000, 400),
    ]
    best = min(table, key=lambda row: abs(row[0] - n))
    return best[1], best[2]
