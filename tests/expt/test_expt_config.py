"""Tests for experiment-config parsing and trial-matrix expansion."""

from __future__ import annotations

import json

import pytest

from repro.errors import ConfigError
from repro.expt.config import (
    MATRIX_AXES,
    ExperimentConfig,
    Trial,
    expand,
    load_config,
    trial_seed,
)

BASIC = {
    "name": "unit",
    "repeats": 1,
    "matrix": {
        "protocol": ["leopard", "pbft"],
        "backend": [{"backend": "sim", "n": 8}, {"backend": "live", "n": 4}],
    },
}


class TestExpand:
    def test_cartesian_product(self):
        cfg = expand(BASIC)
        assert isinstance(cfg, ExperimentConfig)
        assert len(cfg.trials) == 4
        combos = {(t.protocol, t.backend, t.n) for t in cfg.trials}
        assert combos == {("leopard", "sim", 8), ("leopard", "live", 4),
                          ("pbft", "sim", 8), ("pbft", "live", 4)}

    def test_defaults_fill_unset_fields(self):
        cfg = expand(BASIC)
        trial = cfg.trials[0]
        assert trial.rate == 2000.0
        assert trial.payload == 128
        assert trial.bundle_size == 100
        assert trial.scenario is None

    def test_user_defaults_override_builtin(self):
        doc = dict(BASIC, defaults={"rate": 500.0, "bundle_size": 10})
        cfg = expand(doc)
        assert all(t.rate == 500.0 for t in cfg.trials)
        assert all(t.bundle_size == 10 for t in cfg.trials)

    def test_axis_mapping_overrides_compose(self):
        # A protocol-axis bundle override combines with backend-axis n.
        doc = dict(BASIC)
        doc["matrix"] = {
            "protocol": [{"protocol": "leopard", "bundle_size": 25}, "pbft"],
            "backend": [{"backend": "sim", "n": 64}],
        }
        cfg = expand(doc)
        by_proto = {t.protocol: t for t in cfg.trials}
        assert by_proto["leopard"].bundle_size == 25
        assert by_proto["leopard"].n == 64
        assert by_proto["pbft"].bundle_size == 100

    def test_repeats_clone_cells_with_distinct_ids(self):
        cfg = expand(dict(BASIC, repeats=3))
        assert len(cfg.trials) == 12
        ids = {t.trial_id for t in cfg.trials}
        assert len(ids) == 12
        assert {t.repeat for t in cfg.trials} == {0, 1, 2}

    def test_trial_ids_are_filesystem_safe(self):
        cfg = expand(dict(BASIC, repeats=2))
        for trial in cfg.trials:
            assert "/" not in trial.trial_id
            assert " " not in trial.trial_id

    def test_mapping_entry_must_set_its_own_axis(self):
        doc = dict(BASIC)
        doc["matrix"] = {"protocol": [{"bundle_size": 10}],
                        "backend": ["sim"]}
        with pytest.raises(ConfigError, match="must set 'protocol'"):
            expand(doc)

    def test_duplicate_trials_rejected(self):
        doc = dict(BASIC)
        doc["matrix"] = {"protocol": ["leopard", "leopard"],
                        "backend": ["sim"]}
        with pytest.raises(ConfigError, match="duplicate trial"):
            expand(doc)

    def test_unknown_axis_rejected(self):
        doc = dict(BASIC)
        doc["matrix"] = dict(BASIC["matrix"], color=["red"])
        with pytest.raises(ConfigError, match="unknown matrix axes"):
            expand(doc)

    @pytest.mark.parametrize("cell,error", [
        ({"protocol": "raft"}, "unknown protocol"),
        ({"backend": "cloud"}, "unknown backend"),
        # A config from when the simulator had selectable engines.
        ({"waves": True}, "unknown trial fields"),
        ({"n": 3}, "n must be >= 4"),
        ({"rate": -5.0}, "rate must be a positive"),
    ])
    def test_cell_validation(self, cell, error):
        doc = {"name": "bad", "matrix": {
            "protocol": [dict({"protocol": "leopard", "backend": "sim",
                               "n": 4}, **cell)]}}
        with pytest.raises(ConfigError, match=error):
            expand(doc)


class TestSeeds:
    def test_seed_depends_on_identity_not_position(self):
        # Reordering or extending the matrix never reseeds a trial.
        cfg_a = expand(BASIC)
        doc = dict(BASIC)
        doc["matrix"] = {
            "protocol": ["pbft", "leopard", "hotstuff"],   # reordered+grown
            "backend": list(reversed(BASIC["matrix"]["backend"])),
        }
        cfg_b = expand(doc)
        seeds_a = {t.trial_id: t.seed for t in cfg_a.trials}
        seeds_b = {t.trial_id: t.seed for t in cfg_b.trials}
        for trial_id, seed in seeds_a.items():
            assert seeds_b[trial_id] == seed

    def test_base_seed_shifts_every_trial(self):
        seeds_0 = {t.trial_id: t.seed for t in expand(BASIC).trials}
        seeds_7 = {t.trial_id: t.seed
                   for t in expand(dict(BASIC, base_seed=7)).trials}
        assert all(seeds_7[tid] != seeds_0[tid] for tid in seeds_0)

    def test_trial_seed_deterministic_and_bounded(self):
        seed = trial_seed("smoke", "leopard_sim_n64", 0)
        assert seed == trial_seed("smoke", "leopard_sim_n64", 0)
        assert 0 <= seed <= 0x7FFFFFFF
        assert seed != trial_seed("other", "leopard_sim_n64", 0)


class TestLoadConfig:
    def test_json_config(self, tmp_path):
        path = tmp_path / "exp.json"
        path.write_text(json.dumps(BASIC))
        cfg = load_config(path)
        assert cfg.name == "unit"
        assert len(cfg.trials) == 4

    def test_yaml_config(self, tmp_path):
        yaml = pytest.importorskip("yaml")
        path = tmp_path / "exp.yaml"
        path.write_text(yaml.safe_dump(BASIC))
        assert len(load_config(path).trials) == 4

    def test_name_falls_back_to_stem(self, tmp_path):
        doc = {k: v for k, v in BASIC.items() if k != "name"}
        path = tmp_path / "stemmed.json"
        path.write_text(json.dumps(doc))
        assert load_config(path).name == "stemmed"

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="no experiment config"):
            load_config(tmp_path / "nope.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="invalid JSON"):
            load_config(path)


class TestCommittedConfigs:
    """The configs CI actually runs must always expand."""

    def test_smoke_config(self):
        cfg = load_config("benchmarks/experiments/smoke.yaml")
        assert cfg.name == "smoke"
        assert len(cfg.trials) == 6
        assert {(t.protocol, t.backend) for t in cfg.trials} == {
            (p, b) for p in ("leopard", "pbft", "hotstuff")
            for b in ("sim", "live")}

    def test_full_config(self):
        cfg = load_config("benchmarks/experiments/full.yaml")
        assert cfg.name == "full"
        assert len(cfg.trials) == 36
        # Large-n sim cells stretch the window so leopard commits.
        assert all(t.duration >= 2.0 for t in cfg.trials
                   if t.backend == "sim" and t.n >= 150)

    def test_trial_roundtrips_through_dict(self):
        cfg = load_config("benchmarks/experiments/smoke.yaml")
        for trial in cfg.trials:
            assert Trial.from_dict(trial.to_dict()) == trial

    def test_smoke_trial_ids_and_seeds_are_stable(self):
        # Resume and the store key results by these: never reseed them.
        cfg = load_config("benchmarks/experiments/smoke.yaml")
        assert [(t.trial_id, t.seed) for t in cfg.trials] == [
            ("leopard_sim_n64_r2000_p128", 573594506),
            ("leopard_live_n4_r2000_p128", 149433280),
            ("pbft_sim_n64_r2000_p128", 708058628),
            ("pbft_live_n4_r2000_p128", 15494734),
            ("hotstuff_sim_n64_r2000_p128", 1836819709),
            ("hotstuff_live_n4_r2000_p128", 1201919159),
        ]

    def test_result_files_without_run_topology_fields_still_load(self):
        # Trial documents written before clients/processes existed.
        cfg = load_config("benchmarks/experiments/smoke.yaml")
        old = cfg.trials[0].to_dict()
        del old["clients"], old["processes"]
        assert Trial.from_dict(old) == cfg.trials[0]


def test_matrix_axes_are_trial_fields():
    field_names = {f for f in Trial.__dataclass_fields__}
    assert set(MATRIX_AXES) <= field_names
