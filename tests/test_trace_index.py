"""The per-node trace index: its lists and phase lookups agree with a plain
filter of the event list, it follows ``add``, and the checkers read it
instead of rescanning the trace once per node."""
import json

import pytest

from dynsync.algorithms import make_algorithm
from dynsync.engine import RunTrace, SchedulerPolicy, fairness_audit, run
from dynsync.tvg import DynamicsPolicy, ScenarioError, generate
from dynsync.verify import (
    check_correctness,
    check_liveness,
    check_pulled_consistency,
    check_sandwich,
    check_strong_nontriviality,
    extract_H,
)


def churn_trace(seed, n=6, delta=2, horizon=80):
    g = generate(
        DynamicsPolicy(kind="random-churn", seed=seed, p_drop=0.3, p_add=0.35), n, delta, horizon
    )
    sched = SchedulerPolicy(kind="random-subset", seed=seed + 1, p_activate=0.5, fairness_bound=4)
    algo = make_algorithm("history-hash")
    return run(g, sched, algo), algo


@pytest.mark.parametrize("seed", range(5))
def test_index_backed_accessors_match_a_brute_force_filter(seed):
    trace, _ = churn_trace(seed)
    index = trace.index
    actions = [ev for ev in trace.events if ev["kind"] == "action"]
    for u in range(trace.n):
        mine = [ev for ev in actions if ev["node"] == u]
        executes = [ev for ev in mine if ev["action"] == "execute"]
        assert list(trace.actions(node=u)) == mine
        assert index.executes[u] == executes
        assert index.inits[u] == [
            ev for ev in mine if ev["action"] == "handshake" and ev["branch"] == "init"
        ]
        for t in range(trace.horizon + 1):
            assert index.phase_at(u, t) == sum(1 for ev in executes if ev["t"] < t)
    assert trace.stage_events() == [ev for ev in trace.events if ev["kind"] == "stage"]
    min_phase = [
        min(
            sum(1 for ev in actions if ev["node"] == u and ev["action"] == "execute" and ev["t"] < t)
            for u in range(trace.n)
        )
        for t in range(trace.horizon + 1)
    ]
    assert index.phase_starts == [
        next(t for t, p in enumerate(min_phase) if p >= i) for i in range(min_phase[-1] + 1)
    ]


def test_index_follows_add():
    trace, _ = churn_trace(0)
    before = list(trace.index.executes[0])
    last_t = trace.events[-1]["t"]
    event = {"kind": "action", "t": last_t, "node": 0, "action": "execute", "phase": len(before)}
    trace.add(event)
    assert trace.index.executes[0] == before + [event]
    assert trace.index.phase_at(0, last_t + 1) == len(before) + 1


def test_index_holds_the_events_themselves():
    trace, _ = churn_trace(1)
    built = trace.index
    first = next(ev for ev in trace.events if ev.get("node") == 2 and ev["action"] == "execute")
    first["state"] = "forged"
    assert trace.index is built
    assert built.executes[2][0]["state"] == "forged"


def test_malformed_event_order_and_node_are_named_errors():
    trace, _ = churn_trace(2)
    lines = trace.to_jsonl().decode().splitlines()
    header, events = lines[0], lines[1:-1]
    swapped = RunTrace.from_jsonl("\n".join([header, events[-1], *events[:-1]]).encode())
    with pytest.raises(ScenarioError, match="follows stage"):
        swapped.index
    stray = json.loads(next(line for line in events if '"kind":"action"' in line))
    stray["node"] = trace.n
    outside = RunTrace.from_jsonl("\n".join([header, json.dumps(stray)]).encode())
    with pytest.raises(ScenarioError, match="action of node"):
        outside.index
    late = json.loads(next(line for line in events if '"action":"execute"' in line))
    late["t"] = trace.horizon + 5
    past = RunTrace.from_jsonl("\n".join([header, *events, json.dumps(late)]).encode())
    with pytest.raises(ScenarioError, match=f"stage {trace.horizon + 5}, horizon is"):
        past.index


def test_trace_missing_init_handshakes_is_a_named_error():
    trace, _ = churn_trace(4, n=5)
    assert trace.index.executes[2]
    lines = trace.to_jsonl().decode().splitlines()
    events = map(json.loads, lines)
    kept = [
        line
        for line, ev in zip(lines, events)
        if not (ev.get("node") == 2 and ev.get("branch") == "init")
    ]
    assert len(kept) < len(lines)
    stripped = RunTrace.from_jsonl("\n".join(kept).encode())
    with pytest.raises(ScenarioError, match="node 2: no init handshake for completed phase 0"):
        extract_H(stripped)


def scans_while_checking(monkeypatch, n):
    trace, algo = churn_trace(3, n=n, delta=3, horizon=60)
    calls = []
    for name in ("actions", "stage_events"):
        original = getattr(RunTrace, name)

        def counted(self, *args, _original=original, **kwargs):
            calls.append(1)
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(RunTrace, name, counted)
    extracted = extract_H(trace)
    check_correctness(trace, algo, extracted=extracted)
    check_sandwich(trace)
    check_pulled_consistency(trace, algo)
    check_strong_nontriviality(trace, extracted)
    check_liveness(trace, 1)
    fairness_audit(trace)
    monkeypatch.undo()
    return len(calls)


def test_checker_trace_scans_do_not_grow_with_n(monkeypatch):
    assert scans_while_checking(monkeypatch, 8) == scans_while_checking(monkeypatch, 16)
