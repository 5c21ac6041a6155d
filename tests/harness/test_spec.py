"""One run description: the generated flags, defaults and validation."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import pytest

from repro.errors import ConfigError
from repro.harness import cli
from repro.harness.spec import RunSpec, execute

ROOT = Path(__file__).resolve().parents[2]

#: What each verb fixes instead of offering a flag.
FIXED = {"run-live": {"backend": "live"},
         "calibrate": {"backend": "sim", "processes": False, "clients": None},
         "trace": {"warmup": 0.0}}
PARSERS = {"run-live": cli._run_live_parser,
           "calibrate": cli._calibrate_parser, "trace": cli._trace_parser}


@pytest.mark.parametrize("verb", sorted(FIXED))
def test_no_flag_spec_is_the_default_spec(verb):
    args = PARSERS[verb]().parse_args([])
    assert RunSpec.from_args(args) == replace(RunSpec(), **FIXED[verb])


@pytest.mark.parametrize("verb", sorted(FIXED))
def test_every_unfixed_field_has_its_flag(verb):
    flags = {action.dest: action.option_strings
             for action in PARSERS[verb]()._actions}
    for spec_field in fields(RunSpec):
        if spec_field.name in FIXED[verb]:
            assert spec_field.name not in flags
        else:
            assert flags[spec_field.name] == [spec_field.metadata["flag"]]


def test_duration_is_measured_time_after_warmup(monkeypatch):
    from repro.harness import cluster

    seen = {}

    def fake_run_sim(protocol, n, duration, **options):
        seen.update(options, duration=duration)
        return {}

    monkeypatch.setattr(cluster, "run_sim", fake_run_sim)
    execute(RunSpec(duration=1.5, warmup=0.5))
    assert seen["duration"] == 2.0
    assert seen["warmup"] == 0.5
    assert seen["client_count"] == 3        # Leopard's live topology, n-1
    assert seen["prime"] is False


@pytest.mark.parametrize("fields_, error", [
    ({"protocol": "raft"}, "unknown protocol"),
    ({"backend": "cloud"}, "unknown backend"),
    ({"n": 2}, "n must be >= 4"),
    ({"rate": 0}, "rate must be a positive"),
    ({"bundle_size": 0}, "bundle_size must be a positive"),
    ({"payload": -1}, "payload must be a positive"),
    ({"duration": -1}, "duration must be a non-negative"),
    ({"warmup": -0.1}, "warmup must be a non-negative"),
    ({"clients": 0}, "clients must be >= 1"),
    ({"processes": True}, "processes requires the live backend"),
    ({"backend": "live", "processes": True, "warmup": 0.25},
     "warmup must be 0 with processes"),
])
def test_validation(fields_, error):
    with pytest.raises(ConfigError, match=error):
        RunSpec(**fields_)


@pytest.mark.parametrize("verb", sorted(FIXED))
@pytest.mark.parametrize("flags", [
    # A zero bundle once made the simulated client's submit timer re-arm
    # at the same instant forever.
    ["--bundle-size", "0"],
    ["--rate", "0"],
    ["--replicas", "2"],
    ["--duration", "-1"],
])
def test_verbs_reject_bad_runs_without_running(verb, flags):
    result = subprocess.run(
        [sys.executable, "-m", "repro.harness.cli", verb, *flags],
        cwd=ROOT, env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True, text=True, timeout=60)
    assert result.returncode == 2, result.stderr
    assert result.stderr.startswith("error: ")
    assert "Traceback" not in result.stderr


def test_sim_trace_hosts_the_requested_clients(capsys):
    assert cli.main(["trace", "--backend", "sim", "--clients", "2",
                 "--duration", "1", "--json"]) == 0
    lifecycles = json.loads(capsys.readouterr().out)["lifecycles"]
    assert lifecycles
    # Replicas are 0..3; the two clients follow them.
    assert {lifecycle["client"] for lifecycle in lifecycles} == {4, 5}
