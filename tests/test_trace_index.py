"""The per-node trace index: its lists and phase lookups agree with a plain
filter of the event list, building it refuses a malformed trace with a named
error, and the checkers read it instead of rescanning the trace once per
node."""
import functools
import json
import os
import re

import pytest

from dynsync.algorithms import make_algorithm
from dynsync.cli import execute_scenario, load_config
from dynsync.engine import run
from dynsync.trace import RunTrace, SchedulerPolicy, TraceIndex, fairness_audit
from dynsync.tvg import ScenarioError, TimeVaryingGraph, generate
from dynsync.verify import (
    CHECK_NAMES,
    check_correctness,
    check_liveness,
    check_pulled_consistency,
    check_sandwich,
    check_strong_nontriviality,
    check_trace,
    extract_H,
)

EVERY_CHECK = {"correctness": True, "strong-nontriviality": True, "liveness": 1, "fairness": True}


def churn_trace(seed, n=6, delta=2, horizon=80):
    g = generate(n, delta, horizon, seed=seed, p_drop=0.3, p_add=0.35)
    sched = SchedulerPolicy(kind="random-subset", seed=seed + 1, p_activate=0.5, fairness_bound=4)
    algo = make_algorithm("history-hash")
    return run(g, sched, algo), algo


def assert_every_check_raises(data, algo, message):
    """check_trace, extract_H and the six checkers each refuse the trace
    ``data``; the checkers that take inputs get those the header records."""
    checks = [
        lambda tr: check_trace(tr, EVERY_CHECK),
        extract_H,
        lambda tr: check_correctness(tr, algo, tr.header.get("inputs")),
        check_sandwich,
        lambda tr: check_pulled_consistency(tr, algo, tr.header.get("inputs")),
        check_strong_nontriviality,
        lambda tr: check_liveness(tr, 1),
        fairness_audit,
    ]
    for check in checks:
        with pytest.raises(ScenarioError, match=message):
            check(RunTrace.from_jsonl(data))


@pytest.mark.parametrize("seed", range(5))
def test_index_backed_accessors_match_a_brute_force_filter(seed):
    trace, _ = churn_trace(seed)
    index = trace.index
    actions = [ev for ev in trace.events if ev["kind"] == "action"]
    for u in range(trace.n):
        mine = [ev for ev in actions if ev["node"] == u]
        executes = [ev for ev in mine if ev["action"] == "execute"]
        assert list(trace.actions(node=u)) == mine
        assert index.acts[u] == [ev["t"] for ev in mine]
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


def test_index_holds_the_events_themselves():
    trace, _ = churn_trace(1)
    built = trace.index
    first = next(ev for ev in trace.events if ev.get("node") == 2 and ev["action"] == "execute")
    first["state"] = "forged"
    assert trace.index is built
    assert built.executes[2][0]["state"] == "forged"


def test_malformed_event_order_and_node_are_named_errors():
    trace, algo = churn_trace(2)
    lines = trace.to_jsonl().decode().splitlines()
    # the footer stays, so that the index is built
    header, events, footer = lines[0], lines[1:-1], lines[-1]
    last = json.loads(events[-1])
    swapped = RunTrace.from_jsonl("\n".join([header, events[-1], *events[:-1], footer]).encode())
    with pytest.raises(
        ScenarioError, match=f"stage {last['t']}: action of node {last['node']} before the stage"
    ):
        swapped.index
    rewound = RunTrace.from_jsonl("\n".join([header, *events, events[0], footer]).encode())
    with pytest.raises(ScenarioError, match="trace event at stage 0 follows stage"):
        rewound.index
    stray = json.loads(next(line for line in events if '"kind":"action"' in line))
    stray["node"] = trace.n
    outside = RunTrace.from_jsonl("\n".join([header, json.dumps(stray), footer]).encode())
    with pytest.raises(ScenarioError, match="action of node"):
        outside.index
    late = json.loads(next(line for line in events if '"action":"execute"' in line))
    late["t"] = trace.horizon + 5
    past = RunTrace.from_jsonl("\n".join([header, *events, json.dumps(late), footer]).encode())
    with pytest.raises(ScenarioError, match=f"stage {trace.horizon + 5}, horizon is"):
        past.index
    # the first action of stage 50 swapped with stage 50's own event
    rows = [json.loads(line) for line in events]
    at = next(i for i, ev in enumerate(rows) if ev["kind"] == "stage" and ev["t"] == 50)
    first = rows[at + 1]
    assert first["kind"] == "action" and first["t"] == 50
    events[at], events[at + 1] = events[at + 1], events[at]
    early = RunTrace.from_jsonl("\n".join([header, *events, footer]).encode())
    with pytest.raises(
        ScenarioError, match=f"stage 50: action of node {first['node']} before the stage event"
    ):
        early.index
    # a second header line, and an event without its stage
    lines = [header, *events, footer]
    assert_every_check_raises(
        "\n".join([*lines[:10], header, *lines[10:]]).encode(), algo, "trace line 11: second header"
    )
    stageless = json.loads(events[20])
    del stageless["t"]
    lines[21] = json.dumps(stageless)
    assert_every_check_raises("\n".join(lines).encode(), algo, "trace event 20 has no 't' key")


@pytest.mark.parametrize(
    "kind, key",
    [
        ("stage", "kind"),
        ("stage", "edges"),
        ("stage", "activated"),
        ("action", "node"),
        ("action", "action"),
        ("action", "branch"),
    ],
)
def test_missing_key_is_named(kind, key):
    trace, algo = churn_trace(2)
    header, *lines = trace.to_jsonl().decode().splitlines()
    at, row = next(
        (i, row)
        for i, row in enumerate(map(json.loads, lines))
        if row["kind"] == kind and row.get("action") != "execute"
    )
    del row[key]
    lines[at] = json.dumps(row)
    data = "\n".join([header, *lines]).encode()
    assert_every_check_raises(data, algo, f"trace event {at} has no '{key}' key")


@pytest.mark.parametrize(
    "kind, key, value",
    [("stage", "t", "0"), ("stage", "t", 0.0), ("action", "node", "1"), ("action", "node", True)],
)
def test_non_integer_stage_or_node_is_named(kind, key, value):
    trace, algo = churn_trace(2)
    header, *lines = trace.to_jsonl().decode().splitlines()
    at, row = next((i, row) for i, row in enumerate(map(json.loads, lines)) if row["kind"] == kind)
    row[key] = value
    lines[at] = json.dumps(row)
    data = "\n".join([header, *lines]).encode()
    message = re.escape(f"trace event {at}: {key!r} must be an integer, got {value!r}")
    assert_every_check_raises(data, algo, message)


def is_init_of_node_2(ev):
    return ev.get("node") == 2 and ev.get("branch") == "init"


def test_trace_missing_init_handshakes_is_a_named_error():
    trace, algo = churn_trace(4, n=5)
    assert trace.index.executes[2]
    header, *rows = map(json.loads, trace.to_jsonl().decode().splitlines())
    # node 2 is not activated where its init lines go, so the schedule holds
    dropped = {ev["t"] for ev in rows if is_init_of_node_2(ev)}
    kept = [ev for ev in rows if not is_init_of_node_2(ev)]
    assert dropped and len(kept) < len(rows)
    for ev in kept:
        if ev["kind"] == "stage" and ev["t"] in dropped:
            ev["activated"].remove(2)
    message = "node 2: no init handshake for completed phase 0"
    assert_every_check_raises(encode(header, kept), algo, message)


def test_phase_counter_skew_is_named_by_every_check():
    trace, algo = churn_trace(4, n=5)
    header, *rows = map(json.loads, trace.to_jsonl().decode().splitlines())
    second = [ev for ev in rows if ev.get("node") == 3 and ev.get("action") == "execute"][1]
    second["phase"] = 2
    assert_every_check_raises(encode(header, rows), algo, "node 3: phase counter skew at event 1")


def stage_activations(rows):
    return {ev["t"]: ev["activated"] for ev in rows if ev["kind"] == "stage"}


def continue_line(rows, last):
    """The first continue handshake by the last node its stage activates, or
    by one that is not the last."""
    activated = stage_activations(rows)
    return next(
        i
        for i, ev in enumerate(rows)
        if ev.get("branch") == "continue" and (ev["node"] == activated[ev["t"]][-1]) == last
    )


def duplicate_continue(rows):
    at = continue_line(rows, last=True)
    ev = rows[at]
    mutant = rows[: at + 1] + [dict(ev)] + rows[at + 1 :]
    return mutant, f"stage {ev['t']}: node {ev['node']} acts out of activation order"


def delete_last_continue(rows):
    at = continue_line(rows, last=True)
    ev = rows[at]
    return rows[:at] + rows[at + 1 :], f"stage {ev['t']}: activated node {ev['node']} did not act"


def delete_inner_continue(rows):
    at = continue_line(rows, last=False)
    ev, after = rows[at], rows[at + 1]
    mutant = rows[:at] + rows[at + 1 :]
    return mutant, f"stage {ev['t']}: node {after['node']} acts out of activation order"


def delete_final_action(rows):
    # the row before the footer, the last action of the last stage
    ev = rows[-2]
    assert ev["kind"] == "action"
    return rows[:-2] + rows[-1:], f"stage {ev['t']}: activated node {ev['node']} did not act"


def swap_actions(rows):
    at = next(
        i
        for i, ev in enumerate(rows)
        if ev["kind"] == "action" and rows[i + 1]["kind"] == "action"
        and rows[i + 1]["t"] == ev["t"]
    )
    second = rows[at + 1]
    mutant = rows[:at] + [second, rows[at]] + rows[at + 2 :]
    return mutant, f"stage {second['t']}: node {second['node']} acts out of activation order"


def drop_inits_of_node_2(rows):
    # the init lines alone, with node 2 still activated in their stages
    t = next(ev["t"] for ev in rows if is_init_of_node_2(ev))
    activated = stage_activations(rows)[t]
    after = activated[activated.index(2) + 1 :]
    if after:
        message = f"stage {t}: node {after[0]} acts out of activation order"
    else:
        message = f"stage {t}: activated node 2 did not act"
    return [ev for ev in rows if not is_init_of_node_2(ev)], message


@pytest.mark.parametrize(
    "mutate",
    [
        duplicate_continue,
        delete_last_continue,
        delete_inner_continue,
        delete_final_action,
        swap_actions,
        drop_inits_of_node_2,
    ],
)
def test_actions_must_match_the_schedule(mutate):
    trace, algo = churn_trace(4, n=5)
    header, *rows = map(json.loads, trace.to_jsonl().decode().splitlines())
    mutant, message = mutate(rows)
    assert_every_check_raises(encode(header, mutant), algo, message)


def check_everything(trace, algo):
    extracted = extract_H(trace)
    check_correctness(trace, algo, extracted=extracted)
    check_sandwich(trace)
    check_pulled_consistency(trace, algo)
    check_strong_nontriviality(trace, extracted)
    check_liveness(trace, 1)
    fairness_audit(trace)


def index_builds_while_checking(monkeypatch, n):
    trace, algo = churn_trace(3, n=n, delta=3, horizon=60)
    calls = []
    build = TraceIndex.build.__func__

    def counted(cls, *args):
        calls.append(1)
        return build(cls, *args)

    monkeypatch.setattr(TraceIndex, "build", classmethod(counted))
    check_everything(trace, algo)
    monkeypatch.undo()
    return len(calls)


def test_checker_trace_scans_do_not_grow_with_n(monkeypatch):
    # one index build is one pass over the events, shared by every checker
    assert index_builds_while_checking(monkeypatch, 8) == 1
    assert index_builds_while_checking(monkeypatch, 16) == 1


def drop_stage(events, t):
    # the stage event and its actions
    return [ev for ev in events if ev.get("t") != t]


def drop_stage_event(events, t):
    return [ev for ev in events if not (ev["kind"] == "stage" and ev["t"] == t)]


def repeat_stage(events, t):
    at = next(i for i, ev in enumerate(events) if ev["kind"] == "stage" and ev["t"] == t)
    return events[: at + 1] + [dict(events[at])] + events[at + 1 :]


def action_first(events, t):
    at = next(i for i, ev in enumerate(events) if ev["kind"] == "stage" and ev["t"] == t)
    assert events[at + 1]["kind"] == "action"
    return events[:at] + [events[at + 1], events[at]] + events[at + 2 :]


def truncate(events, t):
    # the footer has no stage, and stays, so that the index is built
    return [ev for ev in events if ev.get("t", -1) < t]


@pytest.mark.parametrize(
    "mutate, message",
    [
        (truncate, "trace has 40 of 80 stage events"),
        (drop_stage, "stage event 41 where stage 40 is due"),
        (drop_stage_event, r"stage 40: action of node \d+ before the stage event"),
        (action_first, r"stage 40: action of node \d+ before the stage event"),
        (repeat_stage, "stage event 40 where stage 41 is due"),
    ],
)
def test_stage_events_must_be_exactly_the_horizon(mutate, message):
    trace, algo = churn_trace(5)
    header, *rows = map(json.loads, trace.to_jsonl().decode().splitlines())
    data = "\n".join(map(json.dumps, [header, *mutate(rows, 40)])).encode()
    assert_every_check_raises(data, algo, message)


@pytest.mark.parametrize("key, value", [("kind", "note"), ("action", "bogus"), ("branch", "bogus")])
def test_unknown_labels_are_named(key, value):
    trace, algo = churn_trace(5)
    header, *rows = map(json.loads, trace.to_jsonl().decode().splitlines())
    at = next(i for i, ev in enumerate(rows) if ev.get("branch") == "continue")
    rows[at][key] = value
    data = "\n".join(map(json.dumps, [header, *rows])).encode()
    assert_every_check_raises(data, algo, f"trace event {at}: unknown {key} '{value}'")


def stage_with_edges_and_activations(rows):
    return next(
        i for i, ev in enumerate(rows) if ev["kind"] == "stage" and ev["edges"] and ev["activated"]
    )


def encode(header, rows):
    return "\n".join(map(json.dumps, [header, *rows])).encode()


@pytest.mark.parametrize(
    "key, entry, message",
    [
        ("edges", [0, 6], r"edge \[0, 6\] is not a node pair u < v < 6"),
        ("edges", [2, 1], r"edge \[2, 1\] is not a node pair"),
        ("edges", [0, 1, 2], r"edge \[0, 1, 2\] is not a node pair"),
        ("edges", [3], r"edge \[3\] is not a node pair"),
        ("edges", 4, "edge 4 is not a node pair"),
        ("edges", ["0", "1"], r"edge \['0', '1'\] is not a node pair"),
        ("activated", 6, r"activated node 6 is not in 0\.\.5"),
        ("activated", -1, r"activated node -1 is not in 0\.\.5"),
        ("activated", "1", r"activated node '1' is not in 0\.\.5"),
        ("activated", True, r"activated node True is not in 0\.\.5"),
    ],
)
def test_corrupt_stage_contents_are_named_where_read(key, entry, message):
    trace, algo = churn_trace(2)
    header, *rows = map(json.loads, trace.to_jsonl().decode().splitlines())
    at = stage_with_edges_and_activations(rows)
    assert trace.n == 6
    rows[at][key][0] = entry
    message = f"stage {rows[at]['t']}: {message}"
    # the index checks both, whatever reads them
    assert_every_check_raises(encode(header, rows), algo, message)


@pytest.mark.parametrize("twice", [False, True])
def test_activated_nodes_must_strictly_increase(twice):
    trace, algo = churn_trace(2)
    header, *rows = map(json.loads, trace.to_jsonl().decode().splitlines())
    ev = next(ev for ev in rows if ev["kind"] == "stage" and len(ev["activated"]) > 1)
    first, second = ev["activated"][:2]
    ev["activated"][:2] = [first, first] if twice else [second, first]
    bad, low = (first, first + 1) if twice else (first, second + 1)
    message = rf"stage {ev['t']}: activated node {bad} is not in {low}\.\.5"
    assert_every_check_raises(encode(header, rows), algo, message)


@pytest.mark.parametrize("key", ["edges", "activated"])
def test_stage_lists_that_are_not_lists_are_named(key):
    trace, algo = churn_trace(2)
    header, *rows = map(json.loads, trace.to_jsonl().decode().splitlines())
    at = stage_with_edges_and_activations(rows)
    rows[at][key] = 7
    message = f"stage {rows[at]['t']}: 'edges' and 'activated' must be lists"
    assert_every_check_raises(encode(header, rows), algo, message)


def first_commit(rows):
    # to a higher node, so that extraction reads this side of the edge first
    return next(
        i
        for i, ev in enumerate(rows)
        if ev.get("action") == "execute"
        and ev["committed_map"]
        and ev["committed_map"][0][1] > ev["node"]
    )


@pytest.mark.parametrize("bad", [13, -1, [0]])
def test_committed_neighbor_outside_the_nodes_is_named(bad):
    trace, algo = churn_trace(2)
    header, *rows = map(json.loads, trace.to_jsonl().decode().splitlines())
    at = first_commit(rows)
    ev = rows[at]
    ev["committed_map"][0][1] = bad
    # extraction and pulled consistency read the neighbors: the index checks them
    message = rf"node {ev['node']} phase {ev['phase']}.*{re.escape(repr(bad))} is not in 0\.\.5"
    assert_every_check_raises(encode(header, rows), algo, message)


@pytest.mark.parametrize("entry", [[1], 5, [0, 1, 2], [[0], 1], None])
def test_committed_map_entry_that_is_not_a_pair_is_named(entry):
    trace, algo = churn_trace(2)
    header, *rows = map(json.loads, trace.to_jsonl().decode().splitlines())
    ev = rows[first_commit(rows)]
    ev["committed_map"][0] = entry
    message = f"node {ev['node']} phase {ev['phase']}: committed_map entry {entry!r} is not a pair"
    assert_every_check_raises(encode(header, rows), algo, re.escape(message))


def test_committed_map_ports_that_are_not_the_committed_list_are_named():
    """Node 1 idles once the edge is gone after stage 5, so phase 5 of node
    0 is past the phases that extraction compares; a port added to its
    committed_map, naming node 0 itself, is still named."""
    graph = TimeVaryingGraph(2, 1, (frozenset({(0, 1)}),) * 6 + (frozenset(),) * 8)
    script = ((0, 1),) * 6 + ((0,),) * 8
    algo = make_algorithm("counter")
    trace = run(graph, SchedulerPolicy(kind="scripted", script=script), algo)
    assert trace.footer["final_phases"] == [6, 2]
    header, *rows = map(json.loads, trace.to_jsonl().decode().splitlines())
    ev = [ev for ev in rows if ev.get("action") == "execute" and ev["node"] == 0][-1]
    assert (ev["phase"], ev["committed"], ev["committed_map"]) == (5, [], [])
    ev["committed_map"].append([1, 0])
    message = "node 0 phase 5: committed_map ports [1] are not the committed ports []"
    assert_every_check_raises(encode(header, rows), algo, re.escape(message))


def test_pulled_port_outside_the_commit_is_named():
    trace, algo = churn_trace(2)
    header, *rows = map(json.loads, trace.to_jsonl().decode().splitlines())
    at = first_commit(rows)
    for entry, message in [
        ([99, None], "pulled port 99 is not in committed_map"),
        ([[0], None], "pulled port [0] is not in committed_map"),
        ([True, None], "pulled port True is not in committed_map"),
        ([1], "pulled entry [1] is not a pair"),
        (7, "pulled entry 7 is not a pair"),
        (["ab", "cd", "ef"], "pulled entry ['ab', 'cd', 'ef'] is not a pair"),
    ]:
        ev = json.loads(json.dumps(rows[at]))
        if type(entry) is list and len(entry) == 2:
            entry[1] = ev["pulled"][0][1]
        ev["pulled"][0] = entry
        message = f"node {ev['node']} phase {ev['phase']}: {message}"
        mutant = rows[:at] + [ev] + rows[at + 1 :]
        assert_every_check_raises(encode(header, mutant), algo, re.escape(message))


@pytest.mark.parametrize("value", ["missing", 5, None, ["0"], [[0]], [True], ["x", 0]])
def test_committed_that_is_missing_or_not_an_int_list_is_named(value):
    trace, algo = churn_trace(2)
    header, *rows = map(json.loads, trace.to_jsonl().decode().splitlines())
    at = first_commit(rows)
    ev = rows[at]
    if value == "missing":
        del ev["committed"]
        message = f"trace event {at} has no 'committed' key"
    else:
        ev["committed"] = value
        message = f"node {ev['node']} phase {ev['phase']}: committed is not an int list"
    # the index compares it with committed_map's ports, so it checks it
    assert_every_check_raises(encode(header, rows), algo, re.escape(message))


def test_committed_that_is_not_an_int_list_fails_a_fairness_and_liveness_check():
    outcome = execute_scenario(load_config("churn_mesh"))
    header, *rows = map(json.loads, outcome.trace.to_jsonl().decode().splitlines())
    ev = next(ev for ev in rows if ev.get("action") == "execute" and ev["committed"])
    ev["committed"] = ["x", *ev["committed"][1:]]
    message = f"node {ev['node']} phase {ev['phase']}: committed is not an int list"
    with pytest.raises(ScenarioError, match=re.escape(message)):
        check_trace(RunTrace.from_jsonl(encode(header, rows)), {"fairness": True, "liveness": 1})


@pytest.mark.parametrize("key", ["committed", "valid", "phase_drops"])
@pytest.mark.parametrize("value", [5, None, ["0"], [[0]], [True]])
def test_sandwich_fields_that_are_not_int_lists_are_named(key, value):
    trace, algo = churn_trace(2)
    header, *rows = map(json.loads, trace.to_jsonl().decode().splitlines())
    ev = rows[first_commit(rows)]
    ev[key] = value
    message = f"node {ev['node']} phase {ev['phase']}: {key} is not an int list"
    assert_every_check_raises(encode(header, rows), algo, re.escape(message))


@pytest.mark.parametrize("value", ["missing", None, 7, ["ab"], {"hex": "ab"}])
def test_execute_state_that_is_missing_or_not_a_string_is_named(value):
    trace, algo = churn_trace(2)
    header, *rows = map(json.loads, trace.to_jsonl().decode().splitlines())
    at = first_commit(rows)
    ev = rows[at]
    if value == "missing":
        del ev["state"]
        message = f"trace event {at} has no 'state' key"
    else:
        ev["state"] = value
        message = f"node {ev['node']} phase {ev['phase']}: state is not a string"
    # correctness and pulled consistency read the states: the index checks them
    assert_every_check_raises(encode(header, rows), algo, message)


@pytest.mark.parametrize("value", ["missing", None, 7, "ab", {"0": "ab"}])
def test_pulled_that_is_missing_or_not_a_list_is_named(value):
    trace, algo = churn_trace(2)
    header, *rows = map(json.loads, trace.to_jsonl().decode().splitlines())
    at = first_commit(rows)
    ev = rows[at]
    if value == "missing":
        del ev["pulled"]
        message = f"trace event {at} has no 'pulled' key"
    else:
        ev["pulled"] = value
        message = f"node {ev['node']} phase {ev['phase']}: pulled is not a list"
    assert_every_check_raises(encode(header, rows), algo, message)


SCHEDULER_KEYS = ("kind", "seed", "p_activate", "fairness_bound")


# (key, value) settings of the trace's random-subset scheduler that no policy has
BAD_SETTINGS = [
    ("kind", "bogus"),
    ("seed", None),
    ("fairness_bound", 0),
    ("fairness_bound", "1"),
    ("fairness_bound", True),
    ("p_activate", 2.0),
]


@pytest.mark.parametrize(
    "value", ["missing", None, [1], "all-active", *SCHEDULER_KEYS, *BAD_SETTINGS]
)
def test_header_scheduler_that_is_not_a_policy_is_named(value):
    trace, algo = churn_trace(2)
    header, *rows = map(json.loads, trace.to_jsonl().decode().splitlines())
    if value == "missing":
        del header["scheduler"]
        message = "trace header has no 'scheduler' key"
    elif value in SCHEDULER_KEYS:
        del header["scheduler"][value]
        message = f"trace header: scheduler has no {value!r} key"
    elif type(value) is tuple:
        key, setting = value
        header["scheduler"][key] = setting
        # the header obeys the rule the policy's constructor applies
        with pytest.raises(ScenarioError) as refused:
            SchedulerPolicy(**header["scheduler"])
        message = f"trace header: {refused.value}"
    else:
        header["scheduler"] = value
        message = f"trace header: scheduler must be an object, got {value!r}"
    # the header is checked, scheduler included, before the index is built
    assert_every_check_raises(encode(header, rows), algo, re.escape(message))


@pytest.mark.parametrize(
    "key, value",
    [
        *[(key, "missing") for key in ("n", "delta", "horizon", "algorithm", "inputs")],
        ("n", "6"),
        ("n", True),
        ("n", 0),
        ("delta", None),
        ("delta", 0),
        ("delta", 2.0),
        ("horizon", 80.0),
        ("horizon", -1),
        ("inputs", [1]),
        ("inputs", [0, 1, 2, 3, 4, 5, 6]),
        ("inputs", "abcdef"),
        ("inputs", {"0": 1}),
        ("inputs", [0, 1, 2, 3, 4, "5"]),
        ("inputs", [True] * 6),
        ("schema", "missing"),
        ("schema", "trace/v9"),
        ("schema", "trace/v2"),
        ("schema", None),
    ],
)
def test_header_sizes_algorithm_and_inputs_are_named(key, value):
    trace, algo = churn_trace(2)
    assert trace.n == 6
    header, *rows = map(json.loads, trace.to_jsonl().decode().splitlines())
    if value == "missing":
        del header[key]
        message = f"trace header has no {key!r} key"
    elif key == "schema":
        header[key] = value
        message = f"trace header: schema must be 'trace/v1', got {value!r}"
    elif key == "inputs":
        header[key] = value
        message = f"trace header: inputs must be null or 6 integers: {value!r}"
    else:
        header[key] = value
        message = f"trace header: {key} must be an integer >= 1, got {value!r}"
    assert_every_check_raises(encode(header, rows), algo, re.escape(message))


@pytest.mark.parametrize("value", [None, 5, "ab", {"0": 1}])
def test_committed_map_that_is_not_a_list_is_named(value):
    trace, algo = churn_trace(2)
    header, *rows = map(json.loads, trace.to_jsonl().decode().splitlines())
    ev = rows[first_commit(rows)]
    ev["committed_map"] = value
    message = f"node {ev['node']} phase {ev['phase']}: committed_map is not a list"
    assert_every_check_raises(encode(header, rows), algo, message)


@pytest.mark.parametrize(
    "branch, phase, value",
    [
        (None, 1, True),
        (None, 1, 1.0),
        (None, 0, "0"),
        ("init", 0, 0.0),
        ("init", 0, False),
        ("init", 1, [1]),
    ],
)
def test_phase_that_is_not_an_integer_is_named(branch, phase, value):
    # branch None is an execute; every event of the kind and phase is rewritten
    trace, algo = churn_trace(2)
    header, *rows = map(json.loads, trace.to_jsonl().decode().splitlines())
    at = [
        i
        for i, ev in enumerate(rows)
        if ev.get("action") == ("handshake" if branch else "execute")
        and ev.get("branch") == branch
        and ev["phase"] == phase
    ]
    assert at
    for i in at:
        rows[i]["phase"] = value
    message = re.escape(f"trace event {at[0]}: 'phase' must be an integer, got {value!r}")
    assert_every_check_raises(encode(header, rows), algo, message)


# edits of the footer's final_phases, given each node's execute count
PHASE_EDITS = {
    "short": lambda counts: counts[:-1],
    "bumped": lambda counts: [*counts[:-1], counts[-1] + 1],
    "floats": lambda counts: list(map(float, counts)),
    "sum": sum,
}


@pytest.mark.parametrize(
    "key, value",
    [
        *[("stages", value) for value in ["missing", 79, 81, 80.0, "80"]],
        *[("final_phases", value) for value in ["missing", *PHASE_EDITS]],
        *[("guard_checks", value) for value in ["missing", None, "x", True, 5]],
    ],
)
def test_footer_must_count_the_stages_and_each_nodes_executes(key, value):
    trace, algo = churn_trace(2)
    counts = [len(executes) for executes in trace.index.executes]
    header, *rows = map(json.loads, trace.to_jsonl().decode().splitlines())
    footer = rows[-1]
    assert footer["kind"] == "footer"
    if value == "missing":
        del footer[key]
        value = None
    else:
        if key == "final_phases":
            value = PHASE_EDITS[value](counts)
        footer[key] = value
    if key == "stages":
        message = f"trace footer: stages must be the horizon 80, got {value!r}"
    elif key == "guard_checks":
        # one guard evaluation per node per stage, 6 nodes by 80 stages
        message = f"trace footer: guard_checks must be n·horizon 480, got {value!r}"
    elif type(value) is not list or len(value) != 6:
        # named before the build, which allocates per node
        message = f"trace footer: final_phases must hold 6 counts, got {value!r}"
    else:
        message = f"trace footer: final_phases must be each node's executes {counts}, got {value!r}"
    assert_every_check_raises(encode(header, rows), algo, re.escape(message))


def test_trace_without_a_footer_is_named():
    trace, algo = churn_trace(2)
    header, *rows = map(json.loads, trace.to_jsonl().decode().splitlines())
    assert_every_check_raises(encode(header, rows[:-1]), algo, "trace has no footer")


def test_init_handshake_without_a_port_map_is_named():
    # extraction alone reads port_map, and only when given the port
    # assignment, but the index names a missing one under any check request
    trace, algo = churn_trace(2)
    header, *rows = map(json.loads, trace.to_jsonl().decode().splitlines())
    at = next(i for i, ev in enumerate(rows) if ev.get("branch") == "init")
    del rows[at]["port_map"]
    assert_every_check_raises(encode(header, rows), algo, f"trace event {at} has no 'port_map' key")


@functools.cache
def churn_mesh_lines():
    return execute_scenario(load_config("churn_mesh")).trace.to_jsonl().decode().splitlines()


def set_field(key, value):
    return lambda ev: ev.update({key: value})


def del_field(key):
    return lambda ev: ev.pop(key)


def set_entry(key, value):
    return lambda ev: ev[key].__setitem__(0, value)


# the rows an edit may pick, by label: the first of each
ROWS = {
    "stage": lambda ev: ev["kind"] == "stage" and ev["edges"] and ev["activated"],
    "init": lambda ev: ev.get("branch") == "init",
    "execute": lambda ev: ev.get("action") == "execute" and len(ev["pulled"]) > 1,
}

# each edit corrupts one field of the first row of its label
FIELD_EDITS = {
    "t": ("stage", set_field("t", "0")),
    "kind": ("stage", del_field("kind")),
    "edges": ("stage", set_field("edges", 7)),
    "edge": ("stage", set_entry("edges", [5, 2])),
    "activated": ("stage", set_entry("activated", -1)),
    "node": ("init", set_field("node", "1")),
    "action": ("init", set_field("action", "bogus")),
    "branch": ("init", set_field("branch", "bogus")),
    "init-phase": ("init", set_field("phase", True)),
    "port_map": ("init", del_field("port_map")),
    "execute-phase": ("execute", set_field("phase", 0.0)),
    "state": ("execute", set_field("state", None)),
    "committed": ("execute", set_field("committed", ["x"])),
    "committed_map": ("execute", set_field("committed_map", 5)),
    "valid": ("execute", set_field("valid", None)),
    "phase_drops": ("execute", set_field("phase_drops", "x")),
    "pulled": ("execute", set_field("pulled", None)),
    "pulled-entry": ("execute", set_entry("pulled", 7)),
    "pulled-dropped": ("execute", lambda ev: ev["pulled"].pop()),
    "pulled-order": ("execute", lambda ev: ev["pulled"].reverse()),
}

# no check, each check alone, and every check
REQUESTS = [{}, *({name: 1 if name == "liveness" else True} for name in CHECK_NAMES), EVERY_CHECK]


@pytest.mark.parametrize("edit", FIELD_EDITS)
def test_every_field_a_checker_reads_is_named_by_the_index_under_any_request(edit):
    header, *rows = map(json.loads, churn_mesh_lines())
    label, corrupt = FIELD_EDITS[edit]
    corrupt(next(ev for ev in rows if ROWS[label](ev)))
    trace = RunTrace.from_jsonl(encode(header, rows))
    for checks in REQUESTS:
        with pytest.raises(ScenarioError) as raised:
            check_trace(trace, checks)
        tb = raised.tb
        while tb.tb_next:
            tb = tb.tb_next
        where = tb.tb_frame.f_code.co_filename
        assert where.endswith(f"dynsync{os.sep}trace.py"), (checks, where, raised.value)
