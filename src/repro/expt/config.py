"""Declarative experiment configs and trial-matrix expansion.

An experiment config is a YAML or JSON document naming a trial matrix::

    name: smoke
    description: 3 protocols x 2 backends
    repeats: 1
    base_seed: 0
    defaults:
      rate: 2000.0
      payload: 128
      duration: 1.0
      warmup: 0.25
    matrix:
      protocol: [leopard, pbft, hotstuff]
      backend:
        - {backend: sim, n: 64}
        - {backend: live, n: 4}

``matrix`` axes are combined as a cartesian product.  An axis value may
be a scalar (sets the field named by the axis) or a mapping (an
override bundle that must set at least the axis field itself — the
idiom for backend-dependent shapes like "live runs n=4, sim runs
n=64").  ``defaults`` fill every unset trial field; ``repeats`` clones
each cell with distinct repeat indices.

Each concrete trial gets a stable ``trial_id`` (filesystem-safe, unique
within the experiment — the runner's result filename and the store's
row key) and a deterministic per-trial ``seed`` derived from
``base_seed`` and the trial id, so a re-expanded config always names
the same seeds and a retried trial reruns with the seed it failed with.
"""

from __future__ import annotations

import itertools
import json
import re
import zlib
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Any

from repro.errors import ConfigError

#: Protocols the runner can dispatch (mirrors repro.net.protocols,
#: kept literal so config parsing stays import-light).
PROTOCOLS = ("leopard", "pbft", "hotstuff")
BACKENDS = ("sim", "live")

#: Matrix axes in canonical order (also the trial-id field order).
MATRIX_AXES = ("protocol", "backend", "n", "rate", "payload", "scenario")


@dataclass(frozen=True)
class Trial:
    """One concrete (protocol, shape, backend) execution of the matrix."""

    experiment: str
    protocol: str
    backend: str
    n: int
    rate: float
    payload: int
    duration: float
    warmup: float
    bundle_size: int
    datablock_size: int
    scenario: str | None
    repeat: int
    seed: int
    trial_id: str

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> Trial:
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(
                f"unknown trial fields: {sorted(unknown)}")
        return cls(**data)


@dataclass
class ExperimentConfig:
    """A parsed experiment document plus its expanded trial list."""

    name: str
    description: str = ""
    repeats: int = 1
    base_seed: int = 0
    defaults: dict[str, Any] = field(default_factory=dict)
    matrix: dict[str, list[Any]] = field(default_factory=dict)
    trials: list[Trial] = field(default_factory=list)


#: Trial fields a config may set (everything but the derived ones).
_SETTABLE = {"protocol", "backend", "n", "rate", "payload", "duration",
             "warmup", "bundle_size", "datablock_size", "scenario"}

_BUILTIN_DEFAULTS: dict[str, Any] = {
    "n": 4,
    "rate": 2000.0,
    "payload": 128,
    "duration": 1.0,
    "warmup": 0.25,
    "bundle_size": 100,
    "datablock_size": 100,
    "scenario": None,
}


def _slug(value: Any) -> str:
    """Filesystem-safe token for one trial-id component."""
    if isinstance(value, bool):
        return "on" if value else "off"
    if isinstance(value, float) and value == int(value):
        value = int(value)
    return re.sub(r"[^A-Za-z0-9.]+", "-", str(value)).strip("-") or "none"


def trial_id_for(cell: dict[str, Any], repeat: int, repeats: int) -> str:
    """Stable, unique, filesystem-safe id for one matrix cell."""
    parts = [
        _slug(cell["protocol"]),
        _slug(cell["backend"]),
        f"n{cell['n']}",
        f"r{_slug(cell['rate'])}",
        f"p{cell['payload']}",
    ]
    if cell.get("scenario"):
        parts.append(f"sc-{_slug(cell['scenario'])}")
    if repeats > 1:
        parts.append(f"rep{repeat}")
    return "_".join(parts)


def trial_seed(experiment: str, trial_id: str, base_seed: int = 0) -> int:
    """Deterministic per-trial seed: stable across re-expansions.

    Derived from the trial *identity* rather than its matrix position,
    so reordering or extending the matrix never reseeds existing
    trials (resume would otherwise silently invalidate old results).
    """
    digest = zlib.crc32(f"{experiment}:{trial_id}".encode())
    return (int(base_seed) + digest) & 0x7FFFFFFF


def _validate_cell(cell: dict[str, Any], where: str) -> None:
    unknown = set(cell) - _SETTABLE
    if unknown:
        raise ConfigError(
            f"{where}: unknown trial fields {sorted(unknown)}")
    if cell["protocol"] not in PROTOCOLS:
        raise ConfigError(
            f"{where}: unknown protocol {cell['protocol']!r}; "
            f"choose from {list(PROTOCOLS)}")
    if cell["backend"] not in BACKENDS:
        raise ConfigError(
            f"{where}: unknown backend {cell['backend']!r}; "
            f"choose from {list(BACKENDS)}")
    if int(cell["n"]) < 4:
        raise ConfigError(f"{where}: n must be >= 4 (3f+1), got {cell['n']}")
    for name, kind in (("rate", (int, float)), ("payload", int),
                       ("bundle_size", int), ("datablock_size", int)):
        if not isinstance(cell[name], kind) or cell[name] <= 0:
            raise ConfigError(
                f"{where}: {name} must be a positive number, "
                f"got {cell[name]!r}")
    for name in ("duration", "warmup"):
        if not isinstance(cell[name], (int, float)) or cell[name] < 0:
            raise ConfigError(
                f"{where}: {name} must be a non-negative number, "
                f"got {cell[name]!r}")


def expand(document: dict[str, Any], *, name: str | None = None
           ) -> ExperimentConfig:
    """Expand a parsed experiment document into concrete trials."""
    if not isinstance(document, dict):
        raise ConfigError(
            f"experiment config must be a mapping, got "
            f"{type(document).__name__}")
    unknown = set(document) - {"name", "description", "repeats",
                               "base_seed", "defaults", "matrix"}
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    exp_name = document.get("name") or name
    if not exp_name:
        raise ConfigError("experiment config needs a 'name'")
    matrix = document.get("matrix")
    if not matrix or not isinstance(matrix, dict):
        raise ConfigError("experiment config needs a non-empty 'matrix'")
    bad_axes = set(matrix) - set(MATRIX_AXES)
    if bad_axes:
        raise ConfigError(
            f"unknown matrix axes {sorted(bad_axes)}; "
            f"choose from {list(MATRIX_AXES)}")
    repeats = int(document.get("repeats", 1))
    if repeats < 1:
        raise ConfigError(f"repeats must be >= 1, got {repeats}")
    base_seed = int(document.get("base_seed", 0))
    defaults = dict(_BUILTIN_DEFAULTS)
    user_defaults = document.get("defaults") or {}
    bad_defaults = set(user_defaults) - _SETTABLE
    if bad_defaults:
        raise ConfigError(
            f"unknown default fields {sorted(bad_defaults)}")
    defaults.update(user_defaults)

    # Normalise every axis value into an override bundle.
    axes: list[tuple[str, list[dict[str, Any]]]] = []
    for axis in MATRIX_AXES:          # canonical order, stable trial ids
        if axis not in matrix:
            continue
        values = matrix[axis]
        if not isinstance(values, list) or not values:
            raise ConfigError(
                f"matrix axis {axis!r} must be a non-empty list")
        bundles = []
        for value in values:
            if isinstance(value, dict):
                if axis not in value:
                    raise ConfigError(
                        f"matrix axis {axis!r}: mapping entry must set "
                        f"{axis!r} itself, got {sorted(value)}")
                bundles.append(dict(value))
            else:
                bundles.append({axis: value})
        axes.append((axis, bundles))

    trials: list[Trial] = []
    seen: set[str] = set()
    for combo in itertools.product(*(bundles for _, bundles in axes)):
        cell = dict(defaults)
        for bundle in combo:
            cell.update(bundle)
        if "protocol" not in cell:
            raise ConfigError("matrix/defaults never set 'protocol'")
        if "backend" not in cell:
            raise ConfigError("matrix/defaults never set 'backend'")
        _validate_cell(cell, where=f"experiment {exp_name!r}")
        for repeat in range(repeats):
            trial_id = trial_id_for(cell, repeat, repeats)
            if trial_id in seen:
                raise ConfigError(
                    f"matrix produces duplicate trial {trial_id!r} "
                    "(two axis entries override to the same shape?)")
            seen.add(trial_id)
            trials.append(Trial(
                experiment=exp_name,
                protocol=cell["protocol"],
                backend=cell["backend"],
                n=int(cell["n"]),
                rate=float(cell["rate"]),
                payload=int(cell["payload"]),
                duration=float(cell["duration"]),
                warmup=float(cell["warmup"]),
                bundle_size=int(cell["bundle_size"]),
                datablock_size=int(cell["datablock_size"]),
                scenario=cell["scenario"],
                repeat=repeat,
                seed=trial_seed(exp_name, trial_id, base_seed),
                trial_id=trial_id,
            ))
    return ExperimentConfig(
        name=exp_name,
        description=str(document.get("description", "")),
        repeats=repeats,
        base_seed=base_seed,
        defaults=defaults,
        matrix={axis: list(bundles) for axis, bundles in axes},
        trials=trials,
    )


def load_config(path: str | Path) -> ExperimentConfig:
    """Load and expand a YAML/JSON experiment config file."""
    target = Path(path)
    if not target.exists():
        raise ConfigError(f"no experiment config at {target}")
    text = target.read_text(encoding="utf-8")
    if target.suffix in (".yaml", ".yml"):
        try:
            import yaml
        except ImportError as exc:        # pragma: no cover - env-specific
            raise ConfigError(
                f"{target} is YAML but PyYAML is not installed; "
                "use a .json config or install pyyaml") from exc
        try:
            document = yaml.safe_load(text)
        except yaml.YAMLError as exc:
            raise ConfigError(f"invalid YAML in {target}: {exc}") from exc
    else:
        try:
            document = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid JSON in {target}: {exc}") from exc
    return expand(document, name=target.stem)
