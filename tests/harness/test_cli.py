"""CLI entry-point tests."""

from __future__ import annotations

from repro.harness.cli import main


class TestCli:
    def test_list(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "fig9" in out
        assert "table3" in out

    def test_no_args_lists(self, capsys):
        assert main([]) == 0
        assert "available experiments" in capsys.readouterr().out

    def test_unknown_experiment(self, capsys):
        assert main(["fig99"]) == 2
        assert "unknown" in capsys.readouterr().err

    def test_runs_analytic_experiment(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "Leopard" in out
        assert "O(1)" in out


class TestRunLiveCli:
    def test_list_mentions_run_live(self, capsys):
        assert main(["--list"]) == 0
        assert "run-live" in capsys.readouterr().out

    def test_run_live_smoke(self, capsys):
        assert main([
            "run-live", "--replicas", "4", "--clients", "1",
            "--duration", "1.5", "--rate", "2000", "--bundle-size", "100",
            "--min-committed", "1"]) == 0
        out = capsys.readouterr().out
        assert "live run: n=4" in out
        assert "live smoke OK" in out

    def test_run_live_json_output(self, capsys):
        import json

        assert main([
            "run-live", "--replicas", "4", "--duration", "1.0",
            "--rate", "1000", "--bundle-size", "50", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["backend"] == "live"
        assert report["schema"] == 7
        assert report["events_processed"] > 0
        assert report["sim_events_per_sec"] > 0

    def test_run_live_min_committed_gate_fails_when_unmet(self, capsys):
        # An impossible bar: more commits than the offered load allows.
        assert main([
            "run-live", "--replicas", "4", "--duration", "1.0",
            "--rate", "1000", "--bundle-size", "50",
            "--min-committed", "10000000"]) == 1
        assert "FAIL" in capsys.readouterr().err

    def test_run_live_min_committed_gate_fails_on_transport_errors(
            self, capsys, monkeypatch):
        """A fault-free smoke that commits but counted a transport error
        fails: a receiver bug can kill a connection and still commit."""
        from repro.net import live

        run_live_sync = live.run_live_sync

        def one_handler_error(**kwargs):
            report = run_live_sync(**kwargs)
            report["transport"]["handler_errors"] += 1
            return report

        monkeypatch.setattr(live, "run_live_sync", one_handler_error)
        assert main([
            "run-live", "--replicas", "4", "--duration", "1.0",
            "--rate", "2000", "--bundle-size", "100",
            "--min-committed", "1"]) == 1
        captured = capsys.readouterr()
        assert ("FAIL: transport errors in a fault-free run: "
                "decode_errors=0 handler_errors=1") in captured.err
        assert "live smoke OK" not in captured.out

    def test_run_live_baseline_protocol(self, capsys):
        assert main([
            "run-live", "--protocol", "pbft", "--replicas", "4",
            "--duration", "1.5", "--rate", "2000",
            "--bundle-size", "100", "--min-committed", "1"]) == 0
        out = capsys.readouterr().out
        assert "live run: n=4 pbft over TCP [in-process]" in out
        assert "live smoke OK" in out

    def test_run_live_processes_mode(self, capsys, tmp_path):
        import json

        output = tmp_path / "live.json"
        assert main([
            "run-live", "--protocol", "leopard", "--processes",
            "--duration", "3.0", "--rate", "1500",
            "--bundle-size", "100", "--min-committed", "1",
            "--output", str(output)]) == 0
        out = capsys.readouterr().out
        assert "[processes]" in out
        assert "live smoke OK" in out
        report = json.loads(output.read_text())
        assert report["deployment"]["mode"] == "processes"
        assert set(report["deployment"]["exit_codes"].values()) == {0}


class TestCalibrateCli:
    def test_list_mentions_calibrate(self, capsys):
        assert main(["--list"]) == 0
        assert "calibrate" in capsys.readouterr().out

    def test_calibrate_smoke_with_artifact(self, capsys, tmp_path):
        import json

        output = tmp_path / "calibration.json"
        assert main([
            "calibrate", "--protocol", "hotstuff", "--duration", "1.0",
            "--rate", "1500", "--bundle-size", "100",
            "--warmup", "0.1", "--min-committed", "1",
            "--output", str(output)]) == 0
        out = capsys.readouterr().out
        assert "calibration: hotstuff n=4" in out
        assert "calibration smoke OK" in out
        report = json.loads(output.read_text())
        assert report["kind"] == "live_vs_sim_calibration"
        assert report["live"]["backend"] == "live"
        assert report["sim"]["backend"] == "sim"

    def test_calibrate_json_stdout(self, capsys):
        import json

        assert main([
            "calibrate", "--protocol", "leopard", "--duration", "0.8",
            "--rate", "1000", "--bundle-size", "50",
            "--warmup", "0.1", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["deltas"]["throughput_rps"]["live"] > 0


class TestChaosCli:
    def test_run_live_scenario_smoke(self, capsys, tmp_path):
        import json

        output = tmp_path / "chaos.json"
        assert main([
            "run-live", "--protocol", "leopard", "--duration", "1.5",
            "--rate", "2000", "--bundle-size", "100",
            "--scenario", "at 0.4 crash victim; at 1.0 restart victim",
            "--min-committed", "1", "--output", str(output)]) == 0
        out = capsys.readouterr().out
        assert "faults:" in out
        assert "restarts=1" in out
        report = json.loads(output.read_text())
        assert report["faults"]["scenario"] == "inline"
        assert report["faults"]["restarts"] == 1

    def test_unknown_scenario_lists_builtins(self, capsys):
        assert main([
            "run-live", "--duration", "0.5", "--scenario", "no-such"]) == 2
        err = capsys.readouterr().err
        assert "crash-restart" in err

    def test_calibrate_scenario_excludes_sweep(self, capsys):
        import pytest

        with pytest.raises(SystemExit) as excinfo:
            main(["calibrate", "--scenario", "crash-restart", "--sweep"])
        assert excinfo.value.code == 2

    def test_calibrate_faulted_gate(self, capsys, tmp_path):
        import json

        output = tmp_path / "faulted.json"
        assert main([
            "calibrate", "--protocol", "leopard",
            "--scenario", "at 0.4 crash victim; at 1.0 restart victim",
            "--duration", "1.2", "--rate", "2000",
            "--bundle-size", "100", "--warmup", "0.1",
            "--min-committed", "1", "--max-degradation-gap", "10.0",
            "--output", str(output)]) == 0
        out = capsys.readouterr().out
        assert "faulted calibration OK" in out
        report = json.loads(output.read_text())
        assert report["kind"] == "faulted_live_vs_sim_calibration"
        assert report["degradation"]["within_bound"] is True
