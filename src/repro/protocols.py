"""Protocol registry: every per-protocol fact, for both backends.

A deployment of ``leopard``, ``pbft`` or ``hotstuff`` is built one way
whichever backend hosts it.  The simulator
(:func:`repro.harness.cluster.build_cluster`) and the live runtime
(:class:`repro.net.live.LiveCluster` in-process,
:mod:`repro.harness.procs` one process per replica) ask the protocol's
:class:`ProtocolSpec` which configuration to use, which replica and
client cores to build, and — on the simulator only — which CPU cost
model, offered load, warm-up and calendar bucket width fit it.  Nothing
else in the tree branches on a protocol's name.

Key material is re-dealt deterministically from the shared seed, so a
replica core built in a child process is indistinguishable from one
built in the parent, or in the simulator.  Factory imports are lazy:
importing this module costs nothing, which is why config parsing
(:mod:`repro.expt.config`) may read :data:`PROTOCOLS` from it.
"""

from __future__ import annotations

from dataclasses import replace as dc_replace

from repro.errors import ConfigError


class ProtocolSpec:
    """How to assemble one protocol's deployment, on either backend."""

    name: str

    def live_config(self, n: int, payload_size: int = 128,
                    datablock_size: int = 100):
        """A smoke-scale configuration (small batches, tight timers): a
        localhost run commits within milliseconds rather than amortizing
        paper-scale batches."""
        raise NotImplementedError

    def paper_config(self, n: int):
        """The paper-scale default configuration (the simulator's)."""
        raise NotImplementedError

    def make_context(self, config, seed: int):
        """Material every replica shares, deterministic in ``seed``."""
        return None

    def make_replica(self, replica_id: int, config, context, perf):
        """A replica core whose data-plane timers report into ``perf``
        (the run's :class:`repro.perf.PerfCounters`)."""
        raise NotImplementedError

    def make_client(self, client_id: int, config, rate: float,
                    bundle_size: int, **options):
        """A load generator aimed the way the protocol expects.
        ``options`` (``resubmit``, ``client_timeout``, ``trace_phases``)
        tune Leopard's client; the baselines' client has none."""
        raise NotImplementedError

    def live_clients(self, n: int) -> int:
        """Clients of the live topology, which every live-vs-sim
        comparison runs on both backends."""
        raise NotImplementedError

    # -- simulator defaults ------------------------------------------------

    def cpu_model(self, costs):
        """The replica CPU model under ``costs`` (a ``CostModel``)."""
        raise NotImplementedError

    def saturating_rate(self, config, costs, bandwidth_bps: float) -> float:
        """Offered load (requests/s) above the calibrated ceiling."""
        raise NotImplementedError

    def default_warmup(self, config, costs) -> tuple[float, object]:
        """``(warmup, config)``: the metrics warm-up, and the config the
        run should use with it."""
        raise NotImplementedError

    def sim_clients(self, n: int) -> int:
        """Default simulated client count."""
        raise NotImplementedError

    def bucket_hint(self, config, bundle_size: int) -> tuple[int, int]:
        """``(message bytes, fanout)`` that size the calendar buckets."""
        raise NotImplementedError

    def prime_burst(self, config) -> int:
        """Requests each client injects at t = 0 (0: no burst)."""
        return 0


class _Leopard(ProtocolSpec):
    name = "leopard"

    def live_config(self, n, payload_size=128, datablock_size=100):
        from repro.core.config import LeopardConfig

        return LeopardConfig(
            n=n,
            payload_size=payload_size,
            datablock_size=datablock_size,
            bftblock_max_links=10,
            generation_interval=0.005,
            max_batch_delay=0.05,
            proposal_interval=0.01,
            max_proposal_delay=0.05,
            retrieval_timeout=0.2,
            checkpoint_period=20,
            progress_timeout=2.0,
        )

    def paper_config(self, n):
        from repro.core.config import LeopardConfig

        return LeopardConfig(n=n)

    def make_context(self, config, seed):
        from repro.crypto.keys import KeyRegistry

        return KeyRegistry(config.n, config.f, seed=seed)

    def make_replica(self, replica_id, config, context, perf):
        from repro.core.replica import LeopardReplica

        replica = LeopardReplica(replica_id, config, context)
        replica.attach_perf(perf)
        return replica

    def make_client(self, client_id, config, rate, bundle_size, **options):
        from repro.core.client import LeopardClient

        return LeopardClient(client_id, config, rate=rate,
                             bundle_size=bundle_size, **options)

    def live_clients(self, n):
        # One client per non-leader replica, as in the paper.
        return max(1, n - 1)

    def cpu_model(self, costs):
        from repro.analysis.calibration import leopard_cpu_model

        return leopard_cpu_model(costs)

    def saturating_rate(self, config, costs, bandwidth_bps):
        return 1.6 / costs.leopard_verify_exec_per_request

    def default_warmup(self, config, costs):
        # The saturation ramp: the flow-control window admits W·(n-1)
        # datablocks in flight, which take roughly W·(n-1)·α·t_verify
        # seconds to stream through each data plane ("each lasting until
        # the measurement is stabilized", §VI).
        ramp = (config.max_outstanding_datablocks * (config.n - 1)
                * config.datablock_size
                * costs.leopard_verify_exec_per_request)
        warmup = 1.0 + 3.0 * ramp
        if config.progress_timeout < warmup:
            # The ramp at large n exceeds the default view-change
            # trigger; a fault-free stress run must not misread pipeline
            # fill as a dead leader (the paper: "the timer ... should be
            # set appropriately").
            config = dc_replace(config, progress_timeout=2.0 * warmup)
        return warmup, config

    sim_clients = live_clients

    def bucket_hint(self, config, bundle_size):
        # All-to-all dissemination: size buckets from one datablock copy.
        return config.datablock_size * config.payload_size, 1

    def prime_burst(self, config):
        # Full datablocks from the start: the paper stress-tests "with a
        # saturated request rate ... until the measurement is stabilized".
        return 2 * config.datablock_size


class _Baseline(ProtocolSpec):
    """The leader-based baselines: clients submit to the leader."""

    def make_client(self, client_id, config, rate, bundle_size,
                    **leopard_options):
        from repro.baselines.client import BaselineClient

        return BaselineClient(client_id, target=config.leader_of(1),
                              rate=rate, payload_size=config.payload_size,
                              bundle_size=bundle_size)

    def live_clients(self, n):
        return 1

    def request_cost(self, costs) -> float:
        """CPU seconds to ingest and execute one request."""
        raise NotImplementedError

    def saturating_rate(self, config, costs, bandwidth_bps):
        # Comfortably above both the CPU and the NIC ceiling.
        n = config.n
        nic_ceiling = (bandwidth_bps / 2.0) / (
            config.payload_size * 8.0 * max(1, n - 1))
        cpu_ceiling = 1.0 / (self.request_cost(costs)
                             + costs.per_send_byte * config.payload_size
                             * (n - 1))
        return 1.5 * min(nic_ceiling, cpu_ceiling)

    def default_warmup(self, config, costs):
        return 1.0, config

    def sim_clients(self, n):
        return 4

    def bucket_hint(self, config, bundle_size):
        # One sender, ~n× sparser events: a bucket spans a slice of the
        # leader's whole egress ramp.
        return config.payload_size * bundle_size, config.n - 1


class _Pbft(_Baseline):
    name = "pbft"

    def live_config(self, n, payload_size=128, datablock_size=100):
        from repro.baselines.pbft.config import PbftConfig

        # datablock_size (Leopard's alpha) doubles as the batch size so
        # one --datablock-size knob tunes every protocol's batching.
        return PbftConfig(n=n, payload_size=payload_size,
                          batch_size=datablock_size, window=20,
                          proposal_interval=0.005)

    def paper_config(self, n):
        from repro.baselines.pbft.config import PbftConfig

        return PbftConfig(n=n)

    def make_replica(self, replica_id, config, context, perf):
        from repro.baselines.pbft.replica import PbftReplica

        return PbftReplica(replica_id, config)

    def cpu_model(self, costs):
        from repro.analysis.calibration import pbft_cpu_model

        return pbft_cpu_model(costs)

    def request_cost(self, costs):
        return costs.pbft_ingest_per_request + costs.pbft_exec_per_request


class _HotStuff(_Baseline):
    name = "hotstuff"

    def live_config(self, n, payload_size=128, datablock_size=100):
        from repro.baselines.hotstuff.config import HotStuffConfig

        return HotStuffConfig(n=n, payload_size=payload_size,
                              batch_size=datablock_size,
                              idle_repropose_delay=0.005,
                              progress_timeout=2.0)

    def paper_config(self, n):
        from repro.baselines.hotstuff.config import HotStuffConfig

        return HotStuffConfig(n=n)

    def make_replica(self, replica_id, config, context, perf):
        from repro.baselines.hotstuff.replica import HotStuffReplica

        return HotStuffReplica(replica_id, config)

    def cpu_model(self, costs):
        from repro.analysis.calibration import hotstuff_cpu_model

        return hotstuff_cpu_model(costs)

    def request_cost(self, costs):
        return (costs.hotstuff_ingest_per_request
                + costs.hotstuff_exec_per_request)


_SPECS: dict[str, ProtocolSpec] = {
    spec.name: spec for spec in (_Leopard(), _Pbft(), _HotStuff())}

#: Every registered protocol; each runs on both backends.
PROTOCOLS = tuple(_SPECS)


def get_protocol(name: str) -> ProtocolSpec:
    """The :class:`ProtocolSpec` registered under ``name``.

    Raises:
        ConfigError: for an unknown protocol.
    """
    spec = _SPECS.get(name)
    if spec is None:
        raise ConfigError(
            f"unknown protocol {name!r}; "
            f"available: {', '.join(sorted(_SPECS))}")
    return spec


def default_live_config_for(protocol: str, n: int, payload_size: int = 128,
                            datablock_size: int = 100):
    """A smoke-scale live configuration for ``protocol`` at size ``n``."""
    return get_protocol(protocol).live_config(n, payload_size,
                                              datablock_size)
