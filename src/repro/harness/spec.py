"""One run description, parsed by every verb and executed by one function.

A :class:`RunSpec` names one point of the paper's grid — protocol,
size, offered load, batching — plus where it runs: the simulator, the
live runtime with every replica on one event loop, or the live runtime
with one OS process per replica.  ``run-live``, ``calibrate``, ``trace``
and the experiment service all build a ``RunSpec`` and hand it to
:func:`execute`; none of them maps a run onto a backend itself.

Each field declares its command-line flag once (:func:`add_run_options`
generates the argparse group), its default once, and its validation
once (``__post_init__`` raises :class:`repro.errors.ConfigError`).

``duration`` always counts *measured* seconds: a run lasts
``warmup + duration`` on every backend.
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass, field, fields
from typing import Any

from repro.errors import ConfigError
from repro.protocols import PROTOCOLS, get_protocol

BACKENDS = ("sim", "live")


def _option(default: Any, flag: str, help: str, **argparse_kwargs: Any):
    """A ``RunSpec`` field with its command-line flag."""
    return field(default=default, metadata=dict(
        flag=flag, help=help, **argparse_kwargs))


@dataclass(frozen=True)
class RunSpec:
    """One run: what to deploy, how to load it, and on which backend."""

    protocol: str = _option("leopard", "--protocol", "protocol to run",
                            choices=PROTOCOLS)
    backend: str = _option("sim", "--backend", "execution backend",
                           choices=BACKENDS)
    processes: bool = _option(
        False, "--processes",
        "live backend only: one OS process per replica instead of every "
        "core on one event loop", action="store_true")
    n: int = _option(4, "--replicas", "replica count n (3f+1)", type=int,
                     metavar="N")
    clients: int | None = _option(
        None, "--clients",
        "load-generating clients (default: the protocol's live "
        "topology, n-1 for Leopard and 1 for the baselines)", type=int)
    rate: float = _option(2000.0, "--rate",
                          "offered load, requests/second in total",
                          type=float)
    payload: int = _option(128, "--payload", "bytes per request payload",
                           type=int)
    datablock_size: int = _option(
        100, "--datablock-size",
        "requests per batch (the paper's alpha for Leopard, the block "
        "batch for the baselines)", type=int)
    bundle_size: int = _option(100, "--bundle-size",
                               "requests per client submission", type=int)
    duration: float = _option(
        2.0, "--duration",
        "measured seconds; the run lasts warmup + duration", type=float)
    warmup: float = _option(
        0.0, "--warmup",
        "seconds before measurement starts (must be 0 with --processes)",
        type=float)
    seed: int = _option(0, "--seed", "determinism seed", type=int)
    scenario: str | None = _option(
        None, "--scenario",
        "chaos scenario: a builtin name (smoke, partition-heal, "
        "crash-restart, crash-recover, slow-replica), a scenario file "
        "path, or inline 'at T op args' text", metavar="SPEC")

    def __post_init__(self) -> None:
        if self.protocol not in PROTOCOLS:
            raise ConfigError(f"unknown protocol {self.protocol!r}; "
                              f"choose from {list(PROTOCOLS)}")
        if self.backend not in BACKENDS:
            raise ConfigError(f"unknown backend {self.backend!r}; "
                              f"choose from {list(BACKENDS)}")
        if not isinstance(self.n, int) or self.n < 4:
            raise ConfigError(f"n must be >= 4 (3f+1), got {self.n!r}")
        for name, kind in (("rate", (int, float)), ("payload", int),
                           ("bundle_size", int), ("datablock_size", int)):
            value = getattr(self, name)
            if not isinstance(value, kind) or value <= 0:
                raise ConfigError(
                    f"{name} must be a positive number, got {value!r}")
        for name in ("duration", "warmup"):
            value = getattr(self, name)
            if not isinstance(value, (int, float)) or value < 0:
                raise ConfigError(
                    f"{name} must be a non-negative number, got {value!r}")
        if self.clients is not None and (
                not isinstance(self.clients, int) or self.clients < 1):
            raise ConfigError(
                f"clients must be >= 1, got {self.clients!r}")
        if self.processes and self.backend != "live":
            raise ConfigError("processes requires the live backend")
        if self.processes and self.warmup:
            raise ConfigError(
                "warmup must be 0 with processes: replica children "
                "cannot gate it on the measurement epoch")
        for name in ("rate", "duration", "warmup"):
            object.__setattr__(self, name, float(getattr(self, name)))

    @classmethod
    def from_args(cls, args: argparse.Namespace) -> RunSpec:
        """The spec an :func:`add_run_options` parser produced."""
        return cls(**{f.name: getattr(args, f.name) for f in fields(cls)})

    def live_config(self):
        """The protocol configuration every backend runs."""
        return get_protocol(self.protocol).live_config(
            self.n, self.payload, self.datablock_size)

    def client_count(self) -> int:
        """``clients``, or the protocol's live client topology."""
        if self.clients is not None:
            return self.clients
        return get_protocol(self.protocol).live_clients(self.n)


def add_run_options(parser: argparse.ArgumentParser, **fixed: Any) -> None:
    """Add one flag per :class:`RunSpec` field the verb does not fix.

    ``fixed`` fields get no flag; their values reach
    :meth:`RunSpec.from_args` as parser defaults.
    """
    group = parser.add_argument_group("run options")
    for spec_field in fields(RunSpec):
        if spec_field.name in fixed:
            continue
        options = dict(spec_field.metadata)
        flag, text = options.pop("flag"), options.pop("help")
        if spec_field.default is not None and "action" not in options:
            text += " (default %(default)s)"
        group.add_argument(flag, dest=spec_field.name,
                           default=spec_field.default, help=text,
                           **options)
    parser.set_defaults(**fixed)


def execute(spec: RunSpec, *, tracer=None, costs=None) -> dict:
    """Run ``spec`` on its backend and return its standard report.

    Every backend runs the protocol's live configuration (and, unless
    ``spec.clients`` is set, its live client topology) for ``warmup +
    duration`` seconds, with no mempool priming on the simulator (the
    live runtime has no such burst).  ``costs``
    is the simulator's :class:`repro.analysis.calibration.CostModel`;
    the live backends ignore it.
    """
    if spec.processes:
        from repro.harness.procs import run_live_processes

        return run_live_processes(spec, tracer=tracer)
    scenario = None
    if spec.scenario:
        from repro.net.chaos import load_scenario

        scenario = load_scenario(spec.scenario)
    point = dict(protocol=spec.protocol, n=spec.n,
                 client_count=spec.client_count(),
                 duration=spec.warmup + spec.duration,
                 total_rate=spec.rate, bundle_size=spec.bundle_size,
                 seed=spec.seed, warmup=spec.warmup, scenario=scenario,
                 tracer=tracer, config=spec.live_config())
    if spec.backend == "live":
        from repro.net.live import run_live_sync

        return run_live_sync(**point)
    from repro.harness.cluster import run_sim

    if costs is not None:
        point["costs"] = costs
    return run_sim(prime=False, **point)
