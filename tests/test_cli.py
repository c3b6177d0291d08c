import contextlib
import gc
import io
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dynsync.cli
from dynsync.cli import (
    EXIT_CHECK_FAILED,
    EXIT_CONFIG_INVALID,
    EXIT_INTERNAL,
    EXIT_OK,
    ScenarioConfig,
    bundled_scenarios,
    derive_seed,
    execute_scenario,
    load_config,
    main,
)
from dynsync.engine import InternalInvariantError
from dynsync.synchronizer import handshake
from dynsync.trace import RunTrace
from dynsync.tvg import ScenarioError
from dynsync.verify import check_trace


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

    def test_static_dynamics_repeat_the_edge_set(self, tmp_path):
        config = load_config(str(write_config(tmp_path, horizon=5)))
        assert config.build_graph().stages == (frozenset({(0, 1)}),) * 5

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
        # a selection names checks; the config's settings still apply
        assert main(["run", str(path), "--out", str(out), "--checks", "liveness"]) == EXIT_OK
        report = (out / "tiny.report.txt").read_text()
        assert "CHECK liveness PASS min phase reached 3 (target 3)" in report
        assert "CHECK correctness" not in report

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

    def test_scripted_activation_out_of_range_exits_config_invalid(self, tmp_path, capsys):
        path = write_config(
            tmp_path,
            name="ghost",
            scheduler={"kind": "scripted", "stages": [[7]] * 9},
        )
        assert main(["run", str(path), "--out", str(tmp_path)]) == EXIT_CONFIG_INVALID
        assert "stage 0: scripted activation out of range: [7]" in capsys.readouterr().err

    @pytest.mark.parametrize("chosen", [[0, "1"], [True], 1])
    def test_scripted_activation_that_is_not_an_integer_list_exits_config_invalid(
        self, tmp_path, capsys, chosen
    ):
        path = write_config(
            tmp_path, name="typo", scheduler={"kind": "scripted", "stages": [chosen] * 9}
        )
        assert main(["run", str(path), "--out", str(tmp_path)]) == EXIT_CONFIG_INVALID
        message = f"stage 0: scripted activation must be a list of integers: {chosen!r}"
        assert message in capsys.readouterr().err

    def test_invalid_json_exits_config_invalid(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["run", str(path), "--out", str(tmp_path)]) == EXIT_CONFIG_INVALID

    @pytest.mark.parametrize("root", ["list", "pairs"])
    @pytest.mark.parametrize("seed", [[], ["--seed", "3"]])
    def test_config_root_that_is_not_an_object_exits_config_invalid(
        self, tmp_path, capsys, root, seed
    ):
        # the pairs are a valid config's items, which dict() would accept
        path = write_config(tmp_path)
        pairs = list(json.loads(path.read_text()).items())
        path.write_text(json.dumps([1, 2] if root == "list" else pairs))
        assert main(["run", str(path), "--out", str(tmp_path), *seed]) == EXIT_CONFIG_INVALID
        assert capsys.readouterr().err == "config error: config root must be an object\n"

    DELTA_LIMIT = (
        "config error: delta 256 is over the limit of 255: "
        "the memory footprint stores delta and each port in one byte\n"
    )

    def test_delta_over_one_byte_exits_config_invalid(self, tmp_path, capsys):
        path = write_config(tmp_path, delta=256, horizon=4, checks={})
        assert main(["run", str(path), "--out", str(tmp_path)]) == EXIT_CONFIG_INVALID
        assert capsys.readouterr().err == self.DELTA_LIMIT
        assert not list(tmp_path.glob("*.trace.jsonl"))

    def test_delta_over_one_byte_exits_config_invalid_in_synth(self, tmp_path, capsys):
        history = tmp_path / "wide.json"
        history.write_text(json.dumps({"n": 2, "delta": 256, "steps": [[[0, 1]]]}))
        assert main(["synth", str(history), "--out", str(tmp_path)]) == EXIT_CONFIG_INVALID
        assert capsys.readouterr().err == self.DELTA_LIMIT

    def test_delta_of_one_byte_still_runs(self, tmp_path):
        path = write_config(tmp_path, delta=255)
        assert main(["run", str(path), "--out", str(tmp_path), "-q"]) == EXIT_OK

    def test_unknown_check_selection_exits_config_invalid(self, tmp_path):
        path = write_config(tmp_path)
        code = main(["run", str(path), "--out", str(tmp_path), "--checks", "vibes"])
        assert code == EXIT_CONFIG_INVALID

    @pytest.mark.parametrize(
        "checks, selection, message",
        [
            (5, None, "checks must be an object"),
            ({"soundness": True}, None, "unknown checks: ['soundness']"),
            (
                {"liveness": "fast"},
                None,
                "liveness check takes false or a non-negative integer target, got 'fast'",
            ),
            ({"fairness": None}, None, "fairness check takes a boolean, got None"),
            ({"fairness": True}, "vibes,bogus", "unknown checks requested: ['bogus', 'vibes']"),
        ],
    )
    def test_a_bad_check_request_keeps_its_message(
        self, tmp_path, capsys, checks, selection, message
    ):
        # the config and run --checks apply the rule check_trace applies
        path = write_config(tmp_path, checks=checks)
        selected = ["--checks", selection] if selection else []
        code = main(["run", str(path), "--out", str(tmp_path), *selected])
        assert code == EXIT_CONFIG_INVALID
        assert capsys.readouterr().err == f"config error: {message}\n"

    @pytest.mark.parametrize(
        "checks, selection, unset",
        [
            ({"correctness": True}, "liveness", ["liveness"]),
            ({"correctness": True, "fairness": False}, "fairness,correctness", ["fairness"]),
            ({}, "correctness,liveness", ["correctness", "liveness"]),
        ],
    )
    def test_a_selected_check_the_config_does_not_request_exits_config_invalid(
        self, tmp_path, capsys, checks, selection, unset
    ):
        path = write_config(tmp_path, checks=checks)
        out = tmp_path / "out"
        code = main(["run", str(path), "--out", str(out), "--checks", selection])
        assert code == EXIT_CONFIG_INVALID
        err = capsys.readouterr().err
        assert err == f"config error: checks requested but not configured: {unset}\n"
        assert not out.exists()

    @pytest.mark.parametrize("key", ["n", "delta", "horizon"])
    def test_a_size_over_sys_maxsize_exits_config_invalid(self, tmp_path, capsys, key):
        # a larger size cannot index a list
        path = write_config(tmp_path, **{key: 2**70})
        out = tmp_path / "out"
        assert main(["run", str(path), "--out", str(out)]) == EXIT_CONFIG_INVALID
        assert capsys.readouterr().err == (
            f"config error: {key} must be an integer from 1 to {sys.maxsize}, got {2**70}\n"
        )
        assert not out.exists()

    def test_a_scenario_too_large_for_memory_exits_config_invalid(
        self, tmp_path, capsys, monkeypatch
    ):
        def out_of_memory(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(dynsync.cli, "run", out_of_memory)
        out = tmp_path / "out"
        assert main(["run", "static_triangle", "--out", str(out)]) == EXIT_CONFIG_INVALID
        assert capsys.readouterr().err == "config error: the scenario does not fit in memory\n"
        assert not out.exists()

    def test_scripted_dynamics_shorter_than_horizon_exits_config_invalid(self, tmp_path, capsys):
        path = write_config(
            tmp_path, name="short", dynamics={"kind": "scripted", "stages": [[[0, 1]]] * 8}
        )
        assert main(["run", str(path), "--out", str(tmp_path)]) == EXIT_CONFIG_INVALID
        assert "scripted dynamics has 8 stages, horizon wants 9" in capsys.readouterr().err

    def test_scripted_scheduler_shorter_than_horizon_exits_config_invalid(self, tmp_path):
        path = write_config(
            tmp_path, name="lazy", scheduler={"kind": "scripted", "stages": [[0, 1]] * 8}
        )
        assert main(["run", str(path), "--out", str(tmp_path)]) == EXIT_CONFIG_INVALID

    def test_block_write_through_an_unoccupied_port_exits_internal(
        self, tmp_path, capsys, monkeypatch
    ):
        def dead_port_handshake(state, reads, detector):
            new, _, log = handshake(state, reads, detector)
            return new, (state.delta - 1,), log

        monkeypatch.setattr("dynsync.engine.handshake", dead_port_handshake)
        path = write_config(tmp_path, name="dead", delta=2)
        assert main(["run", str(path), "--out", str(tmp_path)]) == EXIT_INTERNAL
        err = capsys.readouterr().err
        assert "internal invariant violated: stage 0: node 0 block-writes through dead port 1" in err

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
        # JSON booleans are not integers or probabilities
        ("run", {"horizon": True}),
        ("run", {"seed": False}),
        ("run", {"n": True, "dynamics": {"kind": "static", "edges": []}}),
        ("run", {"delta": True}),
        ("run", {"algorithm": {"name": "max-flood", "inputs": [True, False]}}),
        ("run", {"scheduler": {"kind": "random-subset", "p_activate": True}}),
        ("run", {"scheduler": {"kind": "random-subset", "fairness_bound": True}}),
        ("run", {"dynamics": {"kind": "random-churn", "p_drop": True}}),
        ("run", {"dynamics": {"kind": "random-churn", "p_add": True}}),
        ("run", {"scheduler": {"kind": "all-active", "seed": True}}),
        ("run", {"dynamics": {"kind": "random-churn", "seed": True}}),
        ("run", {"scheduler": {"kind": "scripted", "stages": [[True]] * 9}}),
        ("synth", {"n": True, "delta": 1, "steps": [[]]}),
        # inputs for algorithms whose init ignores them
        ("run", {"algorithm": {"name": "counter", "inputs": [5, 9]}}),
        ("run", {"algorithm": {"name": "history-hash", "inputs": [5, 9]}}),
        # an initial churn edge past n must not reach the generator's loop
        ("run", {"dynamics": {"kind": "random-churn", "initial": [[0, 9]]}}),
        ("run", {"dynamics": {"kind": "oscillate"}}),
        # only random churn reads a dynamics seed
        ("run", {"dynamics": {"kind": "static", "edges": [[0, 1]], "seed": 3}}),
        ("run", {"dynamics": {"kind": "scripted", "stages": [[[0, 1]]] * 9, "seed": 3}}),
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


@pytest.mark.parametrize("name", bundled_scenarios())
def test_written_trace_read_back_passes_every_configured_check(tmp_path, name):
    """The path an offline check takes: the trace on disk, not the run's own
    in-memory copy, carries everything extraction and the checkers need, and
    checking it gives the CHECK lines of the run's report."""
    assert main(["run", name, "--out", str(tmp_path), "-q"]) == EXIT_OK
    trace = RunTrace.from_jsonl((tmp_path / f"{name}.trace.jsonl").read_bytes())
    results = check_trace(trace, load_config(name).checks)
    extracted = results.extracted
    written = json.loads((tmp_path / f"{name}.h.json").read_text())
    assert written["phases"] == extracted.compared_phases
    assert written["completed"] == extracted.completed
    assert written["steps"] == [sorted(map(list, step)) for step in extracted.steps]
    rendered = [f"CHECK {r.name} {'PASS' if r.ok else 'FAIL'} {r.detail}" for r in results]
    report = (tmp_path / f"{name}.report.txt").read_text().splitlines()
    assert rendered == [line for line in report if line.startswith("CHECK ")]


def test_a_failed_extraction_is_the_first_check_and_fails_the_run(tmp_path, monkeypatch, capsys):
    """Extraction is a check: a one-sided commit is reported before every
    other check, fails the two that need the history, and is the history
    file's error."""
    dropped, original = [], dynsync.cli.run

    def one_sided_run(*args, **kwargs):
        trace = original(*args, **kwargs)
        ev = next(ev for ev in trace.events if ev.get("committed_map"))
        port, neighbor = ev["committed_map"].pop()
        ev["committed"].remove(port)
        ev["pulled"].pop()
        dropped.append((ev["node"], ev["phase"], neighbor))
        return trace

    monkeypatch.setattr(dynsync.cli, "run", one_sided_run)
    assert main(["run", "static_triangle", "--out", str(tmp_path)]) == EXIT_CHECK_FAILED
    [(u, i, v)] = dropped
    msg = f"phase {i}: node {v} committed the edge to {u}, node {u} did not"
    lines = capsys.readouterr().out.splitlines()
    checks = [line for line in lines if line.startswith("CHECK ")]
    assert checks[0] == f"CHECK extraction FAIL {msg}"
    assert checks[1] == f"CHECK correctness FAIL history extraction failed: {msg}"
    assert checks[2] == f"CHECK strong-nontriviality FAIL history extraction failed: {msg}"
    assert [line.split()[1:3] for line in checks[3:]] == [
        ["liveness", "PASS"],
        ["fairness", "PASS"],
    ]
    assert "RESULT FAIL" in lines
    history = json.loads((tmp_path / "static_triangle.h.json").read_text())
    assert history == {
        "schema": "history/v1",
        "scenario": "static_triangle",
        "n": 3,
        "delta": 2,
        "error": msg,
    }


@pytest.mark.parametrize("name", bundled_scenarios())
def test_a_run_and_its_check_leave_no_cyclic_garbage(name, tmp_path, monkeypatch):
    """``main`` pauses the cyclic collector, which is safe only while
    refcounting alone frees everything a command allocates, the trace
    writer's work included."""
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        outcome = execute_scenario(load_config(name))
        data = outcome.trace.to_jsonl()
        del outcome
        assert gc.collect() == 0
        check_trace(RunTrace.from_jsonl(data), load_config(name).checks)
        assert gc.collect() == 0
        for cpus in (1, 2):
            choose_writer(monkeypatch, cpus)
            execute_scenario(load_config(name), tmp_path)
            assert gc.collect() == 0
            assert (tmp_path / f"{name}.trace.jsonl").read_bytes() == data
    finally:
        if was_enabled:
            gc.enable()


@pytest.mark.parametrize("enabled", [True, False])
def test_main_pauses_the_collector_and_restores_it(tmp_path, monkeypatch, enabled):
    seen = []

    def recording(*args, **kwargs):
        seen.append(gc.isenabled())
        return execute_scenario(*args, **kwargs)

    monkeypatch.setattr(dynsync.cli, "execute_scenario", recording)
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        assert main(["run", "static_triangle", "--out", str(tmp_path), "-q"]) == EXIT_OK
        assert gc.isenabled() is enabled
        bad = write_config(tmp_path, horizon="9")
        assert main(["run", str(bad), "--out", str(tmp_path)]) == EXIT_CONFIG_INVALID
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()
    assert seen == [False]


def choose_writer(monkeypatch, cpus: int) -> list[int]:
    """Make the CPU probe report ``cpus``, which picks the trace writer's
    path, and return the list of the pids of the writers forked from now."""
    forks, fork = [], os.fork

    def recording_fork():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(dynsync.cli, "cpus_available", lambda: cpus)
    monkeypatch.setattr(os, "fork", recording_fork)
    return forks


@pytest.fixture(params=[1, 2], ids=["inline-writer", "forked-writer"])
def writer(request, monkeypatch):
    """Each test that takes it runs once on each trace writer path."""
    forks = choose_writer(monkeypatch, request.param)
    return SimpleNamespace(forks=forks, forked=request.param > 1)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


README_TARGET = re.search(
    r"<<'EOF'\n(.*?\n)EOF", (Path(__file__).resolve().parents[1] / "README.md").read_text()
).group(1)


@pytest.mark.parametrize(
    "command",
    [["run", name] for name in bundled_scenarios()] + [["synth", "target.json"]],
    ids=" ".join,
)
def test_both_trace_writers_give_the_same_artifacts_and_output(
    tmp_path, monkeypatch, capsys, command
):
    monkeypatch.chdir(tmp_path)
    Path("target.json").write_text(README_TARGET)
    seen = []
    for cpus in (1, 2):
        forks = choose_writer(monkeypatch, cpus)
        assert main([*command, "--out", "out"]) == EXIT_OK
        assert len(forks) == (cpus > 1)
        assert_no_child_left()
        files = {path.name: path.read_bytes() for path in Path("out").iterdir()}
        seen.append((capsys.readouterr(), files))
        shutil.rmtree("out")
    assert seen[0] == seen[1]
    assert len(seen[0][1]) == (3 if command[0] == "run" else 4)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("name", ["static_triangle", "churn_mesh"])
def test_a_failed_trace_write_exits_config_invalid_before_the_history(
    tmp_path, capsys, writer, name
):
    # static_triangle's trace fits the file buffer, so the write fails on close
    (tmp_path / f"{name}.trace.jsonl").symlink_to("/dev/full")
    assert main(["run", name, "--out", str(tmp_path)]) == EXIT_CONFIG_INVALID
    assert capsys.readouterr() == ("", "config error: [Errno 28] No space left on device\n")
    assert [path.name for path in tmp_path.iterdir()] == [f"{name}.trace.jsonl"]
    assert len(writer.forks) == writer.forked
    assert_no_child_left()


def test_a_trace_path_that_cannot_be_opened_fails_before_any_fork(tmp_path, capsys, writer):
    path = tmp_path / "static_triangle.trace.jsonl"
    path.mkdir()
    assert main(["run", "static_triangle", "--out", str(tmp_path)]) == EXIT_CONFIG_INVALID
    assert capsys.readouterr().err == f"config error: [Errno 21] Is a directory: '{path}'\n"
    assert [p.name for p in tmp_path.iterdir()] == [path.name]
    assert writer.forks == []


@pytest.mark.parametrize("error", [InternalInvariantError, KeyboardInterrupt])
def test_a_check_that_raises_leaves_no_trace_and_no_child(
    tmp_path, capsys, monkeypatch, writer, error
):
    def broken_check(*args):
        raise error("the check broke")

    monkeypatch.setattr(dynsync.cli, "check_trace", broken_check)
    out = tmp_path / "out"
    if error is KeyboardInterrupt:
        with pytest.raises(KeyboardInterrupt):
            main(["run", "churn_mesh", "--out", str(out)])
    else:
        assert main(["run", "churn_mesh", "--out", str(out)]) == EXIT_INTERNAL
        assert capsys.readouterr().err == "internal invariant violated: the check broke\n"
    assert list(out.iterdir()) == []
    assert len(writer.forks) == writer.forked
    assert_no_child_left()


def test_an_unnamed_exception_is_an_internal_error_with_its_traceback(
    tmp_path, capsys, monkeypatch, writer
):
    def broken_check(*args):
        raise RuntimeError("the check broke")

    monkeypatch.setattr(dynsync.cli, "check_trace", broken_check)
    out = tmp_path / "out"
    assert main(["run", "churn_mesh", "--out", str(out)]) == EXIT_INTERNAL
    err = capsys.readouterr().err
    assert err.startswith("Traceback (most recent call last):\n")
    assert 'raise RuntimeError("the check broke")' in err
    assert err.endswith("internal invariant violated: RuntimeError('the check broke')\n")
    assert list(out.iterdir()) == []
    assert len(writer.forks) == writer.forked
    assert_no_child_left()


@pytest.mark.parametrize(
    "ending, message",
    [
        (lambda: 1 / 0, "exited with status 255"),
        (lambda: os.kill(os.getpid(), signal.SIGKILL), f"was killed by signal {signal.SIGKILL:d}"),
    ],
    ids=["raises", "killed"],
)
def test_a_forked_writer_that_ends_otherwise_is_an_internal_error(
    tmp_path, capfd, monkeypatch, ending, message
):
    choose_writer(monkeypatch, 2)
    monkeypatch.setattr(dynsync.cli, "write_trace", lambda trace, f: ending())
    assert main(["run", "static_triangle", "--out", str(tmp_path)]) == EXIT_INTERNAL
    err = capfd.readouterr().err
    assert err.endswith(f"internal invariant violated: the trace writer {message}\n")
    if message.startswith("exited"):
        assert err.startswith("trace writer: ZeroDivisionError(")
    assert not list(tmp_path.glob("*.h.json"))
    assert_no_child_left()


FUZZ_VALUES = [None, True, -1, 0, 2**70, 1.5, "x", [], {}, [[0, 0]], [[0, 9]]]


def value_paths(value, path=()):
    """The path of ``value`` and of every value nested in it, as key and
    index tuples."""
    yield path
    if isinstance(value, (dict, list)):
        for key, item in value.items() if isinstance(value, dict) else enumerate(value):
            yield from value_paths(item, (*path, key))


def replaced(value, path, by):
    if not path:
        return by
    copy = dict(value) if isinstance(value, dict) else list(value)
    copy[path[0]] = replaced(value[path[0]], path[1:], by)
    return copy


FUZZED = json.loads(
    (Path(dynsync.cli.__file__).parent / "scenarios" / "static_triangle.json").read_text()
)


@settings(max_examples=100, deadline=None)
@given(path=st.sampled_from(list(value_paths(FUZZED))), by=st.sampled_from(FUZZ_VALUES))
def test_a_config_with_one_value_replaced_ends_in_a_result_or_a_named_error(path, by):
    """Exit 0, or 1 with a failed check in the report, or 2, a named config
    error: never a traceback, and never 1 without a failed check."""
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "fuzzed.json"
        config.write_text(json.dumps(replaced(FUZZED, path, by)))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["run", str(config), "--out", str(Path(tmp) / "out")])
    assert code in (EXIT_OK, EXIT_CHECK_FAILED, EXIT_CONFIG_INVALID), err.getvalue()
    if code == EXIT_CHECK_FAILED:
        assert re.search(r"^CHECK \S+ FAIL ", out.getvalue(), re.MULTILINE)
    if code == EXIT_CONFIG_INVALID:
        assert err.getvalue().startswith("config error: ")


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

    def test_history_the_run_rejects_writes_nothing(self, tmp_path, capsys):
        h = tmp_path / "wide.json"
        h.write_text(json.dumps({"n": 2, "delta": 256, "steps": [[[0, 1]]]}))
        out = tmp_path / "out"
        assert main(["synth", str(h), "--out", str(out)]) == EXIT_CONFIG_INVALID
        assert "delta 256 is over the limit of 255" in capsys.readouterr().err
        assert not out.exists()

    def test_failed_check_still_writes_the_config(self, tmp_path, monkeypatch):
        build = dynsync.cli.build_weak_nontriviality
        # the dynamics hold no edge, so the round trip fails
        monkeypatch.setattr(
            dynsync.cli,
            "build_weak_nontriviality",
            lambda n, delta, steps: build(n, delta, [[]] * len(steps)),
        )
        h = tmp_path / "single.json"
        h.write_text(json.dumps({"n": 2, "delta": 1, "steps": [[[0, 1]]]}))
        assert main(["synth", str(h), "--out", str(tmp_path)]) == EXIT_CHECK_FAILED
        assert "CHECK round-trip FAIL" in (tmp_path / "single-synth.report.txt").read_text()
        scenario = json.loads((tmp_path / "single-synth.scenario.json").read_text())
        assert scenario["dynamics"]["stages"] == [[]] * 3

    @pytest.mark.parametrize("key", ["n", "delta"])
    def test_a_size_over_sys_maxsize_is_invalid(self, tmp_path, capsys, key):
        h = tmp_path / "huge.json"
        h.write_text(json.dumps({"n": 2, "delta": 1, "steps": [[[0, 1]]], key: 2**70}))
        out = tmp_path / "out"
        assert main(["synth", str(h), "--out", str(out)]) == EXIT_CONFIG_INVALID
        assert capsys.readouterr().err == (
            f"invalid history: history {key} must be an integer from 1 to {sys.maxsize}, "
            f"got {2**70}\n"
        )
        assert not out.exists()

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


def test_python_m_dynsync_runs_the_packaged_entry_point(tmp_path):
    src = str(Path(dynsync.cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}

    def dynsync_m(*args):
        return subprocess.run(
            [sys.executable, "-m", "dynsync", *args],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
        )

    ran = dynsync_m("run", "static_triangle", "--out", str(tmp_path / "out"), "-q")
    assert ran.returncode == EXIT_OK, ran.stderr
    assert ran.stdout == "RESULT PASS\n"
    listed = dynsync_m("scenarios")
    assert listed.returncode == EXIT_OK, listed.stderr
    assert listed.stdout.split() == ["churn_mesh", "edge_agreement_cases", "static_triangle"]


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs os.sched_setaffinity")
def test_python_m_dynsync_on_one_cpu_writes_the_trace_without_forking(tmp_path):
    src = str(Path(dynsync.cli.__file__).resolve().parents[1])
    # imported at start-up, before dynsync: any fork in the command raises
    site = tmp_path / "site"
    site.mkdir()
    (site / "sitecustomize.py").write_text(
        "import os\n\n\ndef fork():\n    raise AssertionError('forked')\n\n\nos.fork = fork\n"
    )
    guarded = {**os.environ, "PYTHONPATH": os.pathsep.join([str(site), src])}
    probe = subprocess.run(
        [sys.executable, "-c", "import os; os.fork()"], env=guarded, capture_output=True, text=True
    )
    assert "AssertionError: forked" in probe.stderr
    cpu = min(os.sched_getaffinity(0))

    def dynsync_run(out, env, preexec_fn=None):
        ran = subprocess.run(
            [sys.executable, "-m", "dynsync", "run", "churn_mesh", "--out", str(out)],
            env=env, preexec_fn=preexec_fn, capture_output=True, text=True, timeout=300,
        )
        assert ran.returncode == EXIT_OK, ran.stderr
        return {path.name: path.read_bytes() for path in out.iterdir()}

    # the affinity is set in the child between fork and exec
    pinned = dynsync_run(
        tmp_path / "pinned", guarded, preexec_fn=lambda: os.sched_setaffinity(0, {cpu})
    )
    free = dynsync_run(tmp_path / "free", {**os.environ, "PYTHONPATH": src})
    assert pinned == free
    assert sorted(free) == [f"churn_mesh{s}" for s in (".h.json", ".report.txt", ".trace.jsonl")]
