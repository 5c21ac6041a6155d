"""Live-cluster runtime: asyncio TCP transport for the sans-io cores.

This package is the *real-deployment* execution backend promised by the
repo's layering: the same :class:`repro.interfaces.ProtocolCore` state
machines the discrete-event simulator drives (``repro.sim``) run here
behind real sockets —

* :mod:`repro.net.transport` — length-prefixed framing over asyncio TCP:
  a :class:`Listener` for inbound fan-in, a :class:`PeerConnection` per
  outbound link (reconnect with backoff, bounded write queue), and a
  :class:`Router` tying one node's links together with per-message-class
  byte accounting;
* :mod:`repro.net.node` — :class:`LiveNode`, the effect interpreter that
  hosts one unchanged protocol core (timers via the event loop, sends via
  the router, metrics via the shared collector), including the same
  fault-behaviour boundary the simulator applies;
* :mod:`repro.net.shaping` — in-transport WAN emulation:
  hot-swappable per-link rate/latency/loss policies and partitions
  (:class:`LinkPolicy` / :class:`LinkShaper`), applied by every peer
  connection's drain loop;
* :mod:`repro.net.chaos` — declarative chaos scenarios (scripted
  partition / heal / crash / restart / shape timelines) executable
  against either backend;
* :mod:`repro.net.live` — :class:`LiveCluster` / :func:`run_live`, which
  boot a full localhost deployment (n replicas + load clients) of any
  protocol and emit the same metrics schema as a simulated run.  One OS
  process per replica instead: :mod:`repro.harness.procs`.

Which cores and configs a deployment of ``leopard``, ``pbft`` or
``hotstuff`` uses comes from one registry, :mod:`repro.protocols`, that
the simulator builds from as well — so every protocol the paper compares
is assembled the same way on this transport and on the modelled one.
"""

from repro.net.chaos import (
    BUILTIN_SCENARIOS,
    ChaosEvent,
    ChaosScenario,
    load_scenario,
    run_scenario_live,
    schedule_scenario_sim,
)
from repro.net.live import LiveCluster, run_live, run_live_sync
from repro.net.node import LiveNode
from repro.net.shaping import LinkPolicy, LinkShaper
from repro.net.transport import Listener, PeerConnection, Router

__all__ = [
    "BUILTIN_SCENARIOS",
    "ChaosEvent",
    "ChaosScenario",
    "LinkPolicy",
    "LinkShaper",
    "Listener",
    "LiveCluster",
    "LiveNode",
    "PeerConnection",
    "Router",
    "load_scenario",
    "run_live",
    "run_live_sync",
    "run_scenario_live",
    "schedule_scenario_sim",
]
