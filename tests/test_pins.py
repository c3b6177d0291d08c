"""Trace and history bytes are pinned by digest, so that a rewrite of the
engine or the synchronizer that changes a single artifact byte fails here.

The benchmark's tiny workloads are checked against the digests in
``perfbench/workloads.py``, loaded by path and left unchanged; the bundled
scenarios, with their reports, and the scenario config and artifacts
``dynsync synth`` writes for README's target history, against the digests
below.
"""
import hashlib
import importlib.util
import json
import re
import sys
from pathlib import Path

import pytest

from dynsync import cli

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ROOT / "perfbench" / "workloads.py"

# trace, history and report
BUNDLED = {
    "churn_mesh": (
        "4bd1ca230228345cb27b52fea27f8486082f7f85741aaa08438cac5bf959efda",
        "4a7dad5c59293ef965d94ba762878a4ed600749273dace8c3cffef0fc2d6d003",
        "447cc6b669ef1fe9732042606b18006d05c56f0ffe4c17869eb697153c68b7f3",
    ),
    "edge_agreement_cases": (
        "e13dcb9a0375828aff2f45118644238a432c98e289a012a26c11e0c32de2130f",
        "2c9592b53ffb58a09b6747221c466d0c573a5c1d8133d5f2c76ffd6d3d587923",
        "3ca87c68725f775a2447caf8d65dfe41a14f50715d21ee23503970f06fb41e97",
    ),
    "static_triangle": (
        "384e5fb9ecc85c1b62fa6393cf0d3e6a01109b80517fada29b63b267a0c7c394",
        "d366bad9195627d31368389c8fff83cc8251520694fa5ba0853363c00f0ffaae",
        "6a3f562cd6acd352d47a797669f26d0cd667b6b4813379db0862525b50286210",
    ),
}

# the four files ``dynsync synth`` writes for README's target.json
SYNTH = {
    "target-synth.h.json": "602752f47767e84f6ab58603eab2097fa3c1eab17f939daa2bbcdcc7808ebe51",
    "target-synth.report.txt": "b98eaa41741886f38932970abfee54d1e3d2ab18bdd65978965059e99fe6f770",
    "target-synth.scenario.json": "b8d9e83b1f1388414bd49c277dad406076b257e1ed04f69ff9ffd3d37161df01",
    "target-synth.trace.jsonl": "db5f1335488071bbae913d09ed06d4c25fb5eb015cc7d146a92620cfe930cbb3",
}


def load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up by name while the class is built
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def run_digests(scenario, name, out, capsys):
    """Run ``dynsync run SCENARIO`` into ``out`` and return the SHA-256 of
    the trace and history it wrote."""
    assert cli.main(["run", str(scenario), "--out", str(out), "-q"]) == 0
    assert capsys.readouterr().out.strip() == "RESULT PASS"
    return tuple(
        hashlib.sha256((out / f"{name}{suffix}").read_bytes()).hexdigest()
        for suffix in (".trace.jsonl", ".h.json")
    )


workloads = load_workloads()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_workload_matches_its_pins(name, tmp_path, capsys):
    config = tmp_path / f"{name}.json"
    spec = workloads.WORKLOADS[name].config(workloads.DEFAULT_SEED, "tiny")
    config.write_text(json.dumps(spec, sort_keys=True) + "\n", encoding="utf-8")
    pins = workloads.PINS[name, "tiny"]
    assert run_digests(config, name, tmp_path, capsys) == (pins["trace"], pins["history"])


@pytest.mark.parametrize("name", sorted(BUNDLED))
def test_bundled_scenario_matches_its_pins(name, tmp_path, capsys):
    trace, history, report = BUNDLED[name]
    assert run_digests(name, name, tmp_path, capsys) == (trace, history)
    written = (tmp_path / f"{name}.report.txt").read_bytes()
    assert hashlib.sha256(written).hexdigest() == report


def test_every_bundled_scenario_is_pinned():
    assert sorted(BUNDLED) == cli.bundled_scenarios()


def test_synth_of_the_readme_target_matches_its_pins(tmp_path, capsys):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    target = tmp_path / "target.json"
    target.write_text(re.search(r"<<'EOF'\n(.*?\n)EOF", readme, re.S).group(1), encoding="utf-8")
    out = tmp_path / "synth"
    assert cli.main(["synth", str(target), "--out", str(out), "-q"]) == 0
    assert capsys.readouterr().out.strip() == "RESULT PASS"
    written = {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in out.iterdir()}
    assert written == SYNTH
