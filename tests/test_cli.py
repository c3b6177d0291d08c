import json

import pytest

from dynsync.cli import (
    EXIT_CHECK_FAILED,
    EXIT_CONFIG_INVALID,
    EXIT_OK,
    ScenarioConfig,
    bundled_scenarios,
    derive_seed,
    load_config,
    main,
)
from dynsync.tvg import ScenarioError


def write_config(tmp_path, name="tiny", **overrides):
    cfg = {
        "name": name,
        "n": 2,
        "delta": 1,
        "horizon": 9,
        "seed": 1,
        "dynamics": {"kind": "static", "edges": [[0, 1]]},
        "scheduler": {"kind": "all-active"},
        "algorithm": {"name": "counter"},
        "checks": {"correctness": True, "liveness": 3},
    }
    cfg.update(overrides)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(cfg))
    return path


class TestConfigParsing:
    def test_unknown_top_level_key_rejected(self, tmp_path):
        path = write_config(tmp_path, horizon=5, typo_field=1)
        with pytest.raises(ScenarioError):
            load_config(str(path))

    def test_missing_section_rejected(self):
        with pytest.raises(ScenarioError):
            ScenarioConfig.from_dict({"n": 2, "delta": 1, "horizon": 1})

    def test_unknown_check_rejected(self, tmp_path):
        path = write_config(tmp_path, checks={"soundness": True})
        with pytest.raises(ScenarioError):
            load_config(str(path))

    def test_liveness_target_must_be_integer(self, tmp_path):
        path = write_config(tmp_path, checks={"liveness": "fast"})
        with pytest.raises(ScenarioError):
            load_config(str(path))

    def test_seed_override(self, tmp_path):
        path = write_config(tmp_path)
        assert load_config(str(path)).seed == 1
        assert load_config(str(path), seed_override=9).seed == 9

    def test_bundled_names_resolve(self):
        assert bundled_scenarios() == ["churn_mesh", "edge_agreement_cases", "static_triangle"]
        cfg = load_config("static_triangle")
        assert cfg.n == 3

    def test_unknown_scenario_name(self):
        with pytest.raises(ScenarioError):
            load_config("no_such_scenario")

    def test_derive_seed_is_stable_and_labeled(self):
        assert derive_seed(7, "dynamics") == derive_seed(7, "dynamics")
        assert derive_seed(7, "dynamics") != derive_seed(7, "scheduler")
        assert derive_seed(7, "dynamics") != derive_seed(8, "dynamics")


class TestRunCommand:
    def test_static_triangle_passes_with_identical_triangles(self, tmp_path):
        code = main(["run", "static_triangle", "--out", str(tmp_path)])
        assert code == EXIT_OK
        history = json.loads((tmp_path / "static_triangle.h.json").read_text())
        assert history["phases"] == 10
        assert history["steps"] == [[[0, 1], [0, 2], [1, 2]]] * 10
        report = (tmp_path / "static_triangle.report.txt").read_text()
        assert report.rstrip().endswith("RESULT PASS")
        assert report.count("CHECK") == 4

    def test_edge_agreement_cases_reproduce(self, tmp_path):
        """One scripted run exercising all four per-edge outcomes: clean ack
        agreement, one-sided block completion, exclusion after disconnection,
        and exclusion of a phase-ahead neighbor."""
        code = main(["run", "edge_agreement_cases", "--out", str(tmp_path)])
        assert code == EXIT_OK
        history = json.loads((tmp_path / "edge_agreement_cases.h.json").read_text())
        assert history["steps"] == [[[0, 1], [1, 2]], [[1, 4]]]
        assert history["completed"] == [2, 2, 2, 2, 2]

    def test_rerun_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["run", "edge_agreement_cases", "--out", str(a)]) == EXIT_OK
        assert main(["run", "edge_agreement_cases", "--out", str(b)]) == EXIT_OK
        for suffix in (".trace.jsonl", ".h.json", ".report.txt"):
            name = f"edge_agreement_cases{suffix}"
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_seed_override_changes_a_churn_trace(self, tmp_path):
        base = write_config(
            tmp_path,
            name="churny",
            n=4,
            delta=2,
            horizon=30,
            dynamics={"kind": "random-churn", "p_drop": 0.3, "p_add": 0.4},
            checks={"correctness": True},
        )
        assert main(["run", str(base), "--out", str(tmp_path / "s1")]) == EXIT_OK
        assert main(["run", str(base), "--out", str(tmp_path / "s2"), "--seed", "99"]) == EXIT_OK
        t1 = (tmp_path / "s1" / "churny.trace.jsonl").read_bytes()
        t2 = (tmp_path / "s2" / "churny.trace.jsonl").read_bytes()
        assert t1 != t2

    def test_check_selection_flag(self, tmp_path):
        path = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["run", str(path), "--out", str(out), "--checks", "correctness"]) == EXIT_OK
        report = (out / "tiny.report.txt").read_text()
        assert "CHECK correctness" in report
        assert "CHECK liveness" not in report

    def test_quiet_mode_prints_only_result(self, tmp_path, capsys):
        path = write_config(tmp_path)
        assert main(["run", str(path), "--out", str(tmp_path / "q"), "-q"]) == EXIT_OK
        assert capsys.readouterr().out.strip() == "RESULT PASS"

    def test_failed_check_exits_one(self, tmp_path, capsys):
        path = write_config(tmp_path, name="stuck", checks={"liveness": 50})
        code = main(["run", str(path), "--out", str(tmp_path / "f")])
        assert code == EXIT_CHECK_FAILED
        assert "CHECK liveness FAIL" in capsys.readouterr().out
        report = (tmp_path / "f" / "stuck.report.txt").read_text()
        assert report.rstrip().endswith("RESULT FAIL")

    def test_unknown_scenario_exits_config_invalid(self, tmp_path):
        assert main(["run", "missing", "--out", str(tmp_path)]) == EXIT_CONFIG_INVALID

    def test_degree_violation_in_scripted_stage_exits_config_invalid(self, tmp_path):
        path = write_config(
            tmp_path,
            name="overfull",
            n=3,
            delta=1,
            horizon=1,
            dynamics={"kind": "scripted", "stages": [[[0, 1], [1, 2]]]},
            scheduler={"kind": "all-active"},
        )
        assert main(["run", str(path), "--out", str(tmp_path)]) == EXIT_CONFIG_INVALID

    def test_scripted_activation_out_of_range_exits_config_invalid(self, tmp_path):
        path = write_config(
            tmp_path,
            name="ghost",
            scheduler={"kind": "scripted", "stages": [[7]] * 9},
        )
        assert main(["run", str(path), "--out", str(tmp_path)]) == EXIT_CONFIG_INVALID

    def test_invalid_json_exits_config_invalid(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["run", str(path), "--out", str(tmp_path)]) == EXIT_CONFIG_INVALID

    def test_unknown_check_selection_exits_config_invalid(self, tmp_path):
        path = write_config(tmp_path)
        code = main(["run", str(path), "--out", str(tmp_path), "--checks", "vibes"])
        assert code == EXIT_CONFIG_INVALID

    def test_scripted_dynamics_shorter_than_horizon_exits_config_invalid(self, tmp_path):
        path = write_config(
            tmp_path, name="short", dynamics={"kind": "scripted", "stages": [[[0, 1]]] * 8}
        )
        assert main(["run", str(path), "--out", str(tmp_path)]) == EXIT_CONFIG_INVALID

    def test_scripted_scheduler_shorter_than_horizon_exits_config_invalid(self, tmp_path):
        path = write_config(
            tmp_path, name="lazy", scheduler={"kind": "scripted", "stages": [[0, 1]] * 8}
        )
        assert main(["run", str(path), "--out", str(tmp_path)]) == EXIT_CONFIG_INVALID

    def test_algorithm_params_exit_config_invalid(self, tmp_path, capsys):
        path = write_config(tmp_path, algorithm={"name": "counter", "params": {"terminate_at": 3}})
        assert main(["run", str(path), "--out", str(tmp_path)]) == EXIT_CONFIG_INVALID
        assert "unknown algorithm keys: ['params']" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, payload",
    [
        ("run", {"scheduler": {"kind": "random-subset", "p_activate": "x"}}),
        ("run", {"scheduler": {"kind": "random-subset", "fairness_bound": "x"}}),
        ("run", {"scheduler": {"kind": "scripted", "stages": [5] * 9}}),
        ("run", {"scheduler": {"kind": "all-active", "seed": [1]}}),
        ("run", {"dynamics": {"kind": "random-churn", "p_drop": "x"}}),
        ("run", {"dynamics": {"kind": "random-churn", "seed": [1]}}),
        ("run", {"algorithm": {"name": "max-flood", "inputs": ["x", "y"]}}),
        ("run", {"dynamics": {"kind": "static", "edges": [[0, 1, 2]]}}),
        ("run", {"dynamics": {"kind": "static", "edges": [1]}}),
        ("run", {"dynamics": {"kind": "static", "edges": 1}}),
        ("run", {"dynamics": {"kind": "static", "edges": [[0, 1.5]]}}),
        ("synth", {"n": 2, "delta": 1, "steps": [[1]]}),
        ("synth", {"n": 2, "delta": 1, "steps": [1]}),
        ("run", {"name": None}),
        ("run", {"name": "../escaped"}),
        ("run", {"name": ".."}),
        ("run", {"checks": {"liveness": True}}),
        ("run", {"checks": {"correctness": 0}}),
    ],
)
def test_malformed_values_exit_config_invalid(tmp_path, capsys, command, payload):
    if command == "run":
        path = write_config(tmp_path, **payload)
    else:
        path = tmp_path / "history.json"
        path.write_text(json.dumps(payload))
    assert main([command, str(path), "--out", str(tmp_path / "out")]) == EXIT_CONFIG_INVALID
    assert capsys.readouterr().err.startswith(("config error: ", "invalid history: "))


class TestSynthCommand:
    def test_single_edge_roundtrip(self, tmp_path):
        h = tmp_path / "single.json"
        h.write_text(json.dumps({"n": 2, "delta": 1, "steps": [[[0, 1]]]}))
        assert main(["synth", str(h), "--out", str(tmp_path)]) == EXIT_OK
        report = (tmp_path / "single-synth.report.txt").read_text()
        assert "CHECK round-trip PASS" in report
        assert "CHECK phase-schedule PASS" in report
        scenario = json.loads((tmp_path / "single-synth.scenario.json").read_text())
        assert scenario["horizon"] == 3

    def test_written_scenario_reruns_byte_identical(self, tmp_path):
        h = tmp_path / "target.json"
        h.write_text(json.dumps({"n": 4, "delta": 2, "steps": [[[0, 1], [2, 3]], [], [[1, 2]]]}))
        synth, rerun = tmp_path / "synth", tmp_path / "rerun"
        assert main(["synth", str(h), "--out", str(synth)]) == EXIT_OK
        scenario = synth / "target-synth.scenario.json"
        assert main(["run", str(scenario), "--out", str(rerun)]) == EXIT_OK
        for suffix in (".trace.jsonl", ".h.json"):
            name = f"target-synth{suffix}"
            assert (rerun / name).read_bytes() == (synth / name).read_bytes()

    def test_empty_history_reaches_phase_three(self, tmp_path):
        h = tmp_path / "empty3.json"
        h.write_text(json.dumps({"n": 3, "delta": 1, "steps": [[], [], []]}))
        assert main(["synth", str(h), "--out", str(tmp_path)]) == EXIT_OK
        history = json.loads((tmp_path / "empty3-synth.h.json").read_text())
        assert history["phases"] == 3
        assert history["completed"] == [3, 3, 3]

    def test_overfull_history_is_invalid(self, tmp_path):
        h = tmp_path / "bad.json"
        h.write_text(json.dumps({"n": 3, "delta": 1, "steps": [[[0, 1], [1, 2]]]}))
        assert main(["synth", str(h), "--out", str(tmp_path)]) == EXIT_CONFIG_INVALID

    def test_missing_history_file(self, tmp_path):
        assert main(["synth", str(tmp_path / "nope.json"), "--out", str(tmp_path)]) == EXIT_CONFIG_INVALID


class TestDemoCommand:
    @pytest.mark.parametrize(
        "protocol", ["commit-on-propose", "never-propose", "ack-block-handshake"]
    )
    def test_known_protocols_emit_records(self, protocol, tmp_path):
        assert main(["demo", protocol, "--out", str(tmp_path)]) == EXIT_OK
        record = json.loads((tmp_path / f"{protocol}.demo.json").read_text())
        assert record["protocol"] == protocol
        assert "note" in record and "verdict" in record

    def test_unknown_protocol(self, tmp_path):
        assert main(["demo", "quorum", "--out", str(tmp_path)]) == EXIT_CONFIG_INVALID


def test_scenarios_subcommand_lists_bundled(capsys):
    assert main(["scenarios"]) == EXIT_OK
    names = capsys.readouterr().out.split()
    assert names == ["churn_mesh", "edge_agreement_cases", "static_triangle"]
