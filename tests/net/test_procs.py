"""Multi-process deployment tests: port picking, reaping, end-to-end.

Satellite of ISSUE 4: the process supervisor must reap its children and
close sockets on **every** exit path — a crash during boot must not leave
orphaned replica processes holding listeners.
"""

from __future__ import annotations

import sys
import time

import pytest

from repro.harness.procs import (
    ProcessDeployment,
    ProcessSupervisor,
    pick_free_ports,
    run_live_processes,
)
from repro.harness.spec import RunSpec


class TestPickFreePorts:
    def test_ports_distinct_and_bindable(self):
        import socket

        ports = pick_free_ports(8)
        assert len(set(ports)) == 8
        for port in ports:
            sock = socket.socket()
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            sock.bind(("127.0.0.1", port))
            sock.close()


def _sleeper_cmd(seconds: float) -> list[str]:
    return [sys.executable, "-c",
            f"import time; time.sleep({seconds})"]


class TestProcessSupervisor:
    def test_context_exit_reaps_survivors(self):
        """Leaving the with-block kills and reaps long-running children."""
        with ProcessSupervisor(term_grace=5.0) as supervisor:
            for index in range(3):
                supervisor.spawn(f"sleeper-{index}", _sleeper_cmd(60))
            procs = list(supervisor.procs.values())
            assert all(proc.poll() is None for proc in procs)
        # All children dead and reaped (returncode populated, no zombie).
        assert all(proc.poll() is not None for proc in procs)

    def test_exception_path_still_reaps(self):
        procs = []
        with pytest.raises(RuntimeError):
            with ProcessSupervisor(term_grace=5.0) as supervisor:
                supervisor.spawn("sleeper", _sleeper_cmd(60))
                procs = list(supervisor.procs.values())
                raise RuntimeError("parent failed mid-deploy")
        assert all(proc.poll() is not None for proc in procs)

    def test_failed_reports_nonzero_exits(self):
        with ProcessSupervisor() as supervisor:
            supervisor.spawn(
                "crasher", [sys.executable, "-c", "import sys; sys.exit(3)"])
            supervisor.spawn("ok", [sys.executable, "-c", "pass"])
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline and not supervisor.failed():
                time.sleep(0.05)
            failed = supervisor.failed()
        assert failed == {"crasher": 3}

    def test_kill_is_expected_death(self):
        """A chaos SIGKILL must not surface as a failed child."""
        with ProcessSupervisor(term_grace=5.0) as supervisor:
            supervisor.spawn("victim", _sleeper_cmd(60))
            supervisor.kill("victim")
            assert supervisor.procs["victim"].poll() is not None
            assert supervisor.procs["victim"].returncode < 0  # signal death
            assert "victim" in supervisor.expected_exits
            assert supervisor.failed() == {}

    def test_respawn_relaunches_killed_child(self):
        with ProcessSupervisor(term_grace=5.0) as supervisor:
            first = supervisor.spawn("victim", _sleeper_cmd(60))
            supervisor.kill("victim")
            second = supervisor.respawn("victim")
            assert second is not first
            assert second.poll() is None  # alive again
            assert supervisor.respawns == 1
            # The respawned child is a live process again, so its death
            # would once more count as a failure.
            assert "victim" not in supervisor.expected_exits

    def test_respawn_retries_with_backoff(self, monkeypatch):
        """Transient launch failures are retried before giving up."""
        with ProcessSupervisor(term_grace=5.0) as supervisor:
            supervisor.spawn("victim", _sleeper_cmd(60))
            supervisor.kill("victim")
            real_spawn = ProcessSupervisor.spawn
            attempts = []

            def flaky_spawn(self, name, cmd, env=None, log_path=None):
                attempts.append(name)
                if len(attempts) < 3:
                    raise OSError("port still in TIME_WAIT")
                return real_spawn(self, name, cmd, env=env,
                                  log_path=log_path)

            monkeypatch.setattr(ProcessSupervisor, "spawn", flaky_spawn)
            proc = supervisor.respawn("victim")
            assert proc.poll() is None
            assert len(attempts) == 3
            assert supervisor.respawns == 1

    def test_respawn_gives_up_after_attempts(self, monkeypatch):
        with ProcessSupervisor(term_grace=5.0) as supervisor:
            supervisor.spawn("victim", _sleeper_cmd(60))
            supervisor.kill("victim")

            def doomed_spawn(self, name, cmd, env=None, log_path=None):
                raise OSError("address in use")

            monkeypatch.setattr(ProcessSupervisor, "spawn", doomed_spawn)
            with pytest.raises(RuntimeError, match="failed to respawn"):
                supervisor.respawn("victim")
            # Still an expected death: the health poll must not abort
            # the run over a fault the scenario itself injected.
            assert supervisor.failed() == {}


def processes_spec(**fields) -> RunSpec:
    """A one-client ``--processes`` run of ``fields``."""
    return RunSpec(backend="live", processes=True, clients=1, **fields)


class TestRunLiveProcesses:
    def test_non_process_scenario_ops_rejected(self):
        """Only crash/restart act on real processes; shaping ops need
        the in-process shaper and must be rejected before any spawn."""
        from repro.errors import ConfigError

        spec = processes_spec(
            duration=1.0, rate=4000.0, bundle_size=200,
            scenario="at 0.3 partition victim | rest; at 0.8 heal")
        with pytest.raises(ConfigError, match="crash/restart"):
            run_live_processes(spec)

    def test_measure_replica_matches_simulator(self):
        """With the first non-leader faulty, the process deployment
        measures the replica the simulator does — decided when it is
        built, before any child spawns."""
        from repro.faults import Mute
        from repro.harness.cluster import build_cluster

        faults = {0: Mute(frozenset({"vote"}))}
        deployment = ProcessDeployment(
            processes_spec(rate=2000.0, bundle_size=100), faults)
        sim = build_cluster("leopard", 4, faults=faults)
        assert deployment.measure_replica == sim.measure_replica == 2

    def test_leopard_commits_across_processes(self):
        """One OS process per replica commits real requests end-to-end,
        with a static fault shipped to its child as a plain-JSON spec."""
        from repro.faults import Mute

        victim = 3
        report = run_live_processes(
            processes_spec(duration=4.0, protocol="leopard",
                           rate=2000.0, bundle_size=100, seed=7),
            faults={victim: Mute(frozenset({"vote"}))})
        committed = report["executed_requests"].get(
            report["measure_replica"], 0)
        assert committed >= 100, f"only {committed} committed"
        # The fault crossed the process boundary and acted in the child.
        assert set(report["faults"]["injected"]) == {str(victim)}
        assert "vote" not in report["bytes_by_class"][victim]["sent"]
        # Every replica child exited cleanly and was reaped.
        assert report["deployment"]["mode"] == "processes"
        assert set(report["deployment"]["exit_codes"].values()) == {0}
        # Each child's own peak RSS came home in its summary.
        child_rss = report["deployment"]["replica_peak_rss_mb"]
        assert sorted(child_rss) == ["0", "1", "2", "3"]
        assert all(value > 0 for value in child_rss.values())
        # ... and so did its minor-fault count over the run.
        child_faults = report["deployment"]["replica_minor_faults"]
        assert sorted(child_faults) == ["0", "1", "2", "3"]
        assert all(value >= 0 for value in child_faults.values())
        assert report["deployment"]["minor_faults"] >= 0
        # Acks crossed process boundaries back to the parent's clients.
        assert report["acked_bundles"] > 0
        # Byte accounting was merged from the child summaries.
        measure_bytes = report["bytes_by_class"][report["measure_replica"]]
        assert measure_bytes["sent"].get("vote", 0) > 0
        assert measure_bytes["recv"].get("datablock", 0) > 0
        assert report["transport"]["decode_errors"] == 0
        # ... and so did its socket-write counters.
        transport = report["transport"]
        assert 0 < transport["socket_writes"] <= transport["frames_sent"]
        assert 0 < transport["direct_frames"] <= transport["frames_sent"]

    def test_crash_recover_restores_from_durable_snapshot(self):
        """Tentpole: a SIGKILLed replica child respawns, reloads its
        durable on-disk snapshot, then catches up over the wire and
        re-converges with the quorum's executed prefix."""
        from repro.core.recovery import assert_replica_converged

        report = run_live_processes(processes_spec(
            duration=4.0, protocol="leopard", rate=2000.0,
            bundle_size=100, seed=7, scenario="crash-recover"))
        recovery = report["recovery"]
        assert recovery is not None
        # Children persisted snapshots; the respawned victim booted from
        # one rather than seed-rebuilding an empty ledger.
        assert recovery["snapshots_persisted"] > 0
        assert recovery["restored_from_disk"], \
            "respawned child did not restore from its snapshot"
        victims = {rid: info for rid, info in recovery["replicas"].items()
                   if info.get("rounds", 0) > 0}
        assert victims, "no replica ran a recovery round"
        for rid, info in victims.items():
            assert info["complete"], f"replica {rid} never caught up"
            assert_replica_converged(report, int(rid))
        committed = report["executed_requests"].get(
            report["measure_replica"], 0)
        assert committed > 0

    def test_dead_replica_child_aborts_run_and_reaps(self, monkeypatch):
        """A replica crashing mid-run fails the deployment loudly."""
        import repro.harness.procs as procs_mod

        real_spawn = ProcessSupervisor.spawn

        def sabotaged_spawn(self, name, cmd, env=None, log_path=None):
            if name == "replica-2":
                cmd = [sys.executable, "-c",
                       "import sys; sys.exit(9)"]
            return real_spawn(self, name, cmd, env=env, log_path=log_path)

        monkeypatch.setattr(ProcessSupervisor, "spawn", sabotaged_spawn)
        with pytest.raises(RuntimeError, match="replica-2"):
            procs_mod.run_live_processes(processes_spec(
                duration=8.0, protocol="leopard", rate=1000.0,
                bundle_size=50))
