import ast
import gc
import itertools
import json
import random
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import random_edge_sets
from dynsync import engine
from dynsync.algorithms import make_algorithm
from dynsync.cli import bundled_scenarios, execute_scenario, load_config
from dynsync.engine import Configuration, InternalInvariantError, pull_view, run, stage
from dynsync.synchronizer import ActionKind, NodeState, PulledView, enabled_action, handshake
from dynsync.trace import BLOCK_BYTES, RunTrace, SchedulerPolicy, _dumps, fairness_audit
from dynsync.tvg import ScenarioError, TimeVaryingGraph, generate, port_step
from dynsync.verify import (
    check_correctness,
    check_liveness,
    check_pulled_consistency,
    check_sandwich,
    check_strong_nontriviality,
    check_trace,
    extract_H,
)


def static_run(edges, n, delta, horizon, scheduler=None, algo_name="counter"):
    g = TimeVaryingGraph(n, delta, (frozenset(edges),) * horizon)
    scheduler = scheduler or SchedulerPolicy(kind="all-active")
    return run(g, scheduler, make_algorithm(algo_name))


def real_traces():
    """Each bundled scenario's trace and a seeded random-churn run's."""
    traces = [execute_scenario(load_config(name)).trace for name in bundled_scenarios()]
    g = generate(7, 3, 120, seed=3, p_drop=0.3, p_add=0.3)
    sched = SchedulerPolicy(kind="random-subset", seed=4, p_activate=0.5, fairness_bound=4)
    return traces + [run(g, sched, make_algorithm("history-hash"))]


def compact(value):
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


# Line breaks that str.splitlines honours and json.dumps leaves raw when
# ensure_ascii is off; a string holding one would span two trace lines.
RAW_BREAKS = "\x85\u2028\u2029"
any_text = st.text(st.characters(blacklist_categories=(), blacklist_characters=RAW_BREAKS))
# what a UTF-8 trace can hold raw: no lone surrogates
utf8_text = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters=RAW_BREAKS))


def json_values(text):
    atoms = (
        st.none()
        | st.booleans()
        | st.integers()
        | st.integers(-(10**40), 10**40)
        | st.floats()
        | text
    )
    return st.recursive(
        atoms,
        lambda inner: st.lists(inner, max_size=4) | st.dictionaries(text, inner, max_size=4),
        max_leaves=20,
    )


class TestScheduler:
    def test_all_active(self):
        pol = SchedulerPolicy(kind="all-active")
        assert pol.schedule(3, 5) == [[0, 1, 2]] * 5

    def test_sequential_round_robin(self):
        pol = SchedulerPolicy(kind="sequential")
        picks = pol.schedule(3, 6)
        assert picks == [[0], [1], [2], [0], [1], [2]]

    def test_scripted_validates_range(self):
        pol = SchedulerPolicy(kind="scripted", script=((5,),))
        with pytest.raises(ScenarioError, match="stage 0: scripted activation out of range"):
            pol.schedule(3, 1)

    def test_scripted_past_end_rejected(self):
        pol = SchedulerPolicy(kind="scripted", script=((0,),))
        with pytest.raises(ScenarioError, match="scheduler script covers 1 stages, horizon is 2"):
            pol.schedule(1, 2)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ScenarioError):
            SchedulerPolicy(kind="adversary")

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 10**6), bound=st.integers(1, 6), p=st.floats(0.0, 0.9))
    def test_property_random_subset_respects_fairness_bound(self, seed, bound, p):
        """Even at p_activate 0 every node is force-activated within the bound."""
        n, horizon = 5, 60
        pol = SchedulerPolicy(kind="random-subset", seed=seed, p_activate=p, fairness_bound=bound)
        last = [-1] * n
        for t, chosen in enumerate(pol.schedule(n, horizon)):
            for u in chosen:
                assert t - last[u] <= bound
                last[u] = t
        assert all(t - last[u] <= bound for u in range(n) for t in [horizon - 1])

    @settings(max_examples=300, deadline=None)
    @given(
        data=st.data(),
        kind=st.sampled_from(["all-active", "sequential", "random-subset", "scripted"]),
        n=st.integers(1, 9),
        horizon=st.integers(1, 60),
        seed=st.integers(0, 2**64 - 1),
        p=st.floats(0.0, 1.0),
        bound=st.integers(1, 12),
    )
    def test_property_every_policy_keeps_its_promise(self, data, kind, n, horizon, seed, p, bound):
        """The longest wait of any node, from a virtual activation at stage
        -1 to one at the horizon, is at most what the policy promises; a
        scripted one promises the horizon, which a node that never acts
        breaks. The header's record rebuilds the same settings."""
        script = ()
        if kind == "scripted":
            stage = st.lists(st.integers(0, n - 1), max_size=n)
            script = data.draw(st.lists(stage, min_size=horizon, max_size=horizon))
        pol = SchedulerPolicy(kind, seed=seed, p_activate=p, fairness_bound=bound, script=script)
        last, gap = [-1] * n, 0
        for t, chosen in enumerate(pol.schedule(n, horizon)):
            for u in chosen:
                gap = max(gap, t - last[u])
                last[u] = t
        gap = max(gap, *(horizon - t for t in last))
        starved = kind == "scripted" and -1 in last
        assert (gap <= pol.promised_gap(n, horizon)) != starved
        header = json.loads(_dumps({"n": n, "horizon": horizon, "scheduler": pol.record()}))
        rebuilt = SchedulerPolicy.from_header(header)
        assert rebuilt.record() == pol.record()
        assert (rebuilt.kind, rebuilt.seed, rebuilt.p_activate, rebuilt.fairness_bound) == (
            kind, seed, p, bound
        )


class TestTraceFormat:
    def test_round_trip_is_byte_identical(self):
        for trace in [static_run([(0, 1)], 2, 1, 10), *real_traces()]:
            data = trace.to_jsonl()
            again = RunTrace.from_jsonl(data)
            assert again.to_jsonl() == data
            assert again.header == trace.header
            assert again.events == trace.events
            assert again.footer == trace.footer

    @settings(max_examples=300, deadline=None)
    @given(value=json_values(any_text))
    @example(value=[0.6, 1e-7, 10**30, -(10**30), True, False, None, "\x00\x1f\u00e9\U0001f600"])
    @example(value={"b": {"\ud800": [1.5e300, -0.0]}, "a": "\t\n\"\\"})
    def test_dumps_is_json_dumps(self, value):
        assert _dumps(value) == compact(value)

    def test_dumps_is_json_dumps_on_every_real_line(self):
        for trace in real_traces():
            rows = [{"kind": "header", **trace.header}, *trace.events]
            rows.append({"kind": "footer", **trace.footer})
            for row in rows:
                assert _dumps(row) == compact(row)

    def test_dumps_raises_on_a_cycle_and_on_non_json_values(self):
        looped = {"kind": "stage", "t": 0}
        looped["self"] = looped
        trace = RunTrace({"n": 1}, [looped], {})
        with pytest.raises(RecursionError):
            trace.to_jsonl()
        with pytest.raises(TypeError, match="not JSON serializable"):
            _dumps({"edges": {(0, 1)}})

    @settings(max_examples=150, deadline=None)
    @given(
        rows=st.lists(
            st.dictionaries(utf8_text, json_values(utf8_text), max_size=4).filter(
                lambda row: row.get("kind") not in ("header", "footer")
            ),
            max_size=8,
        ),
        layout=st.data(),
    )
    def test_from_jsonl_is_json_loads_per_line(self, rows, layout):
        """Blank lines, CRLF endings, padded lines and either ASCII mode
        parse line by line to what json.loads gives, also past the first
        block."""
        lines = [json.dumps({"kind": "header", "n": 1})]
        for row in rows:
            raw = layout.draw(st.booleans(), label="raw non-ASCII")
            spaced = layout.draw(st.booleans(), label="spaced separators")
            line = json.dumps(row, ensure_ascii=not raw, separators=None if spaced else (",", ":"))
            pad = layout.draw(st.sampled_from(["", " ", "\t", "  \t"]), label="padding")
            lines.append(layout.draw(st.sampled_from([line, pad + line, line + pad])))
            if layout.draw(st.booleans(), label="blank line"):
                lines.append("")
        # a run of events, one or three blocks long, among the drawn rows
        event = compact({"kind": "action", "t": 0, "state": "s" * 500})
        blocks = layout.draw(st.sampled_from([0, 0, 1, 3]), label="filler blocks")
        at = layout.draw(st.integers(1, len(lines)), label="filler at")
        lines[at:at] = [event] * (blocks * BLOCK_BYTES // len(event))
        lines.append(json.dumps({"kind": "footer", "stages": 0}))
        text = layout.draw(st.sampled_from(["\n", "\r\n"])).join(lines) + "\n"
        trace = RunTrace.from_jsonl(text.encode())
        expected = [json.loads(line) for line in lines if line]
        assert trace.header == {"n": 1}
        # compared as text, because NaN is not equal to itself
        assert compact(trace.events) == compact(expected[1:-1])
        assert trace.footer == {"stages": 0}

    def test_rejects_headerless_input(self):
        # a first line that is not the header, and no line at all
        for data in (b'{"kind":"stage"}\n', b"", b"\n\n"):
            with pytest.raises(ScenarioError, match="^trace does not start with a header line$"):
                RunTrace.from_jsonl(data)

    @pytest.mark.parametrize(
        "line, message",
        [
            (b"[1]", "trace line 3: expected a JSON object, got list"),
            (b'{"kind":"header"', "trace line 3: Expecting ',' delimiter"),
            (b'{"kind":"stage"} {}', "trace line 3: Extra data"),
            pytest.param(b" ", "trace line 3: Expecting value", id="blank"),
            pytest.param(b'{"t":"\\ud8"}', r"trace line 3: Invalid \\uXXXX escape", id="escape"),
            pytest.param(b"\xef\xbb\xbf{}", "trace line 3: Unexpected UTF-8 BOM", id="bom"),
            pytest.param(
                b"[" * 100_000, "trace line 3: maximum recursion depth exceeded", id="deep"
            ),
            pytest.param(b"9" * 5000, "trace line 3: Exceeds the limit", id="long-int"),
            pytest.param(b'{"kind":"stage"},{}', "trace line 3: Extra data", id="two-objects"),
            # str.splitlines also breaks a line at a raw U+2028, U+0085 or
            # lone CR, so a string or object that holds one is never closed
            pytest.param(
                '{"state":"a\u2028b"}'.encode(), "trace line 3: Unterminated string", id="u2028"
            ),
            pytest.param(
                '{"state":"a\x85b"}'.encode(), "trace line 3: Unterminated string", id="u0085"
            ),
            pytest.param(
                b'{"t":0,\r"x":2}', "trace line 3: Expecting property name", id="lone-cr"
            ),
            # two lines that are one array or string only when joined
            pytest.param(b'{"x":[1\n2]}, {}', "trace line 3: Expecting ',' delimiter", id="split-list"),
            pytest.param(b'{"a":"x\ny"}, {}', "trace line 3: Unterminated string", id="split-string"),
            pytest.param(
                b'{"x":[1\n2]},NaN,{}', "trace line 3: Expecting ',' delimiter", id="split-nan"
            ),
        ],
    )
    def test_malformed_line_is_named_with_its_number(self, line, message):
        lines = static_run([(0, 1)], 2, 1, 4).to_jsonl().splitlines()
        lines[2] = line
        with pytest.raises(ScenarioError, match=message):
            RunTrace.from_jsonl(b"\n".join(lines))

    def test_lone_cr_and_nan_parse_as_json_loads_per_line(self):
        header = b'{"kind":"header","n":1}\n'
        trace = RunTrace.from_jsonl(header + b'{"t":1}\r{"t":2}\n{"t":3}\n')
        assert trace.events == [{"t": 1}, {"t": 2}, {"t": 3}]
        trace = RunTrace.from_jsonl(header + b'{"t":NaN,"s":"NaN"}\n{"t":3}\n')
        assert compact(trace.events) == '[{"s":"NaN","t":NaN},{"t":3}]'

    def test_only_one_header(self):
        lines = static_run([(0, 1)], 2, 1, 4).to_jsonl().splitlines()
        with pytest.raises(ScenarioError, match="trace line 4: second header line"):
            RunTrace.from_jsonl(b"\n".join([*lines[:3], lines[0], *lines[3:]]))

    def test_footer_is_the_last_line(self):
        lines = execute_scenario(load_config("churn_mesh")).trace.to_jsonl().splitlines()
        header, events, footer = lines[0], lines[1:-1], lines[-1]
        assert len(events) > 500
        moved = [header, *events[:498], footer, *events[498:]]
        with pytest.raises(ScenarioError, match="trace line 501: line after the footer"):
            RunTrace.from_jsonl(b"\n".join(moved))
        with pytest.raises(ScenarioError, match=f"trace line {len(lines) + 1}: line after the f"):
            RunTrace.from_jsonl(b"\n".join([*lines, footer]))
        # trailing blank lines are no lines at all
        trace = RunTrace.from_jsonl(b"\n".join(lines) + b"\n\n\r\n")
        assert trace.to_jsonl() == b"\n".join(lines) + b"\n"
        algo = make_algorithm(trace.header["algorithm"])
        extracted = extract_H(trace)
        assert check_correctness(trace, algo, extracted=extracted).ok
        assert check_sandwich(trace).ok
        assert check_pulled_consistency(trace, algo).ok
        assert check_strong_nontriviality(trace, extracted).ok
        assert check_liveness(trace, 1).ok
        assert fairness_audit(trace).ok

    @staticmethod
    def churn_lines():
        """The churn_mesh trace's lines, four blocks long, and the index of
        the first line of its second block."""
        lines = execute_scenario(load_config("churn_mesh")).trace.to_jsonl().splitlines()
        ends = itertools.accumulate(len(line) + 1 for line in lines)
        # the first block ends at the last line end before BLOCK_BYTES
        second = next(j for j, end in enumerate(ends) if end > BLOCK_BYTES)
        assert sum(map(len, lines)) > 3 * BLOCK_BYTES
        return lines, second

    @pytest.mark.parametrize("shift", [-1, 0, 1])
    def test_header_footer_and_blank_line_at_a_block_boundary(self, shift):
        lines, second = self.churn_lines()
        at = second + shift
        with pytest.raises(ScenarioError, match=f"trace line {at + 1}: second header line$"):
            RunTrace.from_jsonl(b"\n".join([*lines[:at], lines[0], *lines[at:]]))
        with pytest.raises(ScenarioError, match=f"trace line {at + 2}: line after the footer$"):
            RunTrace.from_jsonl(b"\n".join([*lines[:at], lines[-1], *lines[at:]]))
        blank = RunTrace.from_jsonl(b"\n".join([*lines[:at], b"", *lines[at:]]))
        assert blank.to_jsonl() == b"\n".join(lines) + b"\n"

    @pytest.mark.parametrize("block", [1, 3])
    def test_malformed_line_in_a_later_block_is_named_with_its_number(self, block):
        lines, second = self.churn_lines()
        at = block * second + 7
        lines[at] = lines[at][:-1]
        with pytest.raises(ScenarioError, match=f"trace line {at + 1}: Expecting ',' delimiter"):
            RunTrace.from_jsonl(b"\n".join(lines))
        lines[at] = b"[" + lines[at] + b"}]"
        with pytest.raises(ScenarioError, match=f"trace line {at + 1}: expected a JSON object"):
            RunTrace.from_jsonl(b"\n".join(lines))

    def test_parse_peak_is_the_parsed_trace_and_blocks_share_key_strings(self):
        """The parse keeps no whole-text copy: its peak is within 10 % of
        what the parsed trace holds. A block's events share their keys."""
        data = execute_scenario(load_config("churn_mesh")).trace.to_jsonl()
        gc.collect()
        tracemalloc.start()
        try:
            trace = RunTrace.from_jsonl(data)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * retained

        def keys(value):
            if type(value) is dict:
                yield from value
                value = list(value.values())
            if type(value) is list:
                for item in value:
                    yield from keys(item)

        held = {id(key): key for key in keys(trace.events)}
        # every block but the last holds more than BLOCK_BYTES less one line
        longest = max(map(len, data.splitlines())) + 1
        blocks = 1 + len(data) // (BLOCK_BYTES - longest)
        assert len(held) <= len(set(held.values())) * blocks

    def test_non_utf8_input_is_named(self):
        with pytest.raises(ScenarioError, match="trace is not UTF-8"):
            RunTrace.from_jsonl(b'{"kind":"header"}\n\xff\n')

    def test_replay_is_deterministic(self):
        a = static_run([(0, 1), (1, 2)], 3, 2, 20, SchedulerPolicy(kind="random-subset", seed=4))
        b = static_run([(0, 1), (1, 2)], 3, 2, 20, SchedulerPolicy(kind="random-subset", seed=4))
        assert a.to_jsonl() == b.to_jsonl()

    def test_run_lasts_exactly_the_graph_lifetime(self):
        g = TimeVaryingGraph(2, 1, (frozenset({(0, 1)}),) * 5)
        trace = run(g, SchedulerPolicy(kind="all-active"), make_algorithm("counter"))
        assert trace.header["horizon"] == trace.footer["stages"] == g.lifetime == 5
        assert len(trace.index.stages) == 5
        assert trace.header["frozen_from"] is None


class TestCadence:
    def test_two_static_nodes_reach_phase_one_at_stage_two(self):
        trace = static_run([(0, 1)], 2, 1, 3)
        # stage 0 both ack, stage 1 both block, stage 2 both execute
        assert [ev["action"] for ev in trace.actions(node=0)] == [
            "handshake",
            "handshake",
            "execute",
        ]
        assert trace.index.phase_at(0, 3) == trace.index.phase_at(1, 3) == 1

    def test_static_all_active_phase_boundary_every_three_stages(self):
        trace = static_run([(0, 1), (1, 2), (0, 2)], 3, 2, 30)
        # r_i: first stage at whose start every node has completed i phases
        assert trace.index.phase_starts == [3 * i for i in range(11)]

    def test_isolated_node_needs_two_stages_per_phase(self):
        trace = static_run([], 1, 1, 10)
        assert len(trace.index.executes[0]) == 5
        kinds = [ev["action"] for ev in trace.actions(node=0)]
        assert kinds == ["handshake", "execute"] * 5

    def test_guard_checked_for_every_node_every_stage(self):
        trace = static_run([(0, 1)], 2, 1, 12)
        assert trace.footer["guard_checks"] == 2 * 12


class TestStageSemantics:
    def test_reads_are_stage_start_snapshots(self):
        """Two nodes activated in the same stage must not see each other's
        same-stage acks, which forces the dance to take two stages."""
        trace = static_run([(0, 1)], 2, 1, 3)
        stage0 = [ev for ev in trace.actions(action="handshake") if ev["t"] == 0]
        assert all(ev["acks_set"] == [0] and ev["blocks_set"] == [] for ev in stage0)
        stage1 = [ev for ev in trace.actions(action="handshake") if ev["t"] == 1]
        assert all(ev["blocks_set"] == [0] for ev in stage1)

    def test_disconnect_folded_into_both_endpoints(self):
        stages = (frozenset({(0, 1)}), frozenset(), frozenset())
        g = TimeVaryingGraph(2, 1, stages)
        trace = run(g, SchedulerPolicy(kind="all-active"), make_algorithm("counter"))
        drop_events = [ev for ev in trace.stage_events() if ev["disconnects"]]
        assert drop_events[0]["t"] == 1
        assert drop_events[0]["disconnects"] == [[0, [0]], [1, [0]]]
        # both nodes were mid-phase, so the drop lands in their wait bookkeeping
        cont = [ev for ev in trace.actions(action="handshake") if ev["t"] == 1]
        assert all(ev["drops_absorbed"] == [0] for ev in cont)

    def test_detector_cleared_only_for_activated_nodes(self):
        stages = (frozenset({(0, 1)}), frozenset(), frozenset(), frozenset())
        g = TimeVaryingGraph(2, 1, stages)
        script = ((0, 1), (0,), (1,), ())
        trace = run(g, SchedulerPolicy(kind="scripted", script=script), make_algorithm("counter"))
        # node 1 sleeps through stage 1, so it absorbs the drop at stage 2
        ev1 = next(ev for ev in trace.actions(node=1) if ev["t"] == 2)
        assert ev1["drops_absorbed"] == [0]

    def test_init_event_logs_ground_truth_port_map(self):
        trace = static_run([(0, 1), (1, 2)], 3, 2, 6)
        first = trace.index.inits[1][0]
        assert first["port_map"] == [[0, 0], [1, 2]]
        assert first["valid"] == [0, 1]
        assert first["invalid"] == []

    def test_execute_event_carries_memory_shape(self):
        trace = static_run([(0, 1)], 2, 1, 6)
        ev = trace.index.executes[0][0]
        assert set(ev) >= {"committed_map", "state", "pulled", "mem_phase", "mem_body"}
        assert ev["committed_map"] == [[0, 1]]


class TestFairnessAudit:
    def test_all_active_gap_is_one(self):
        trace = static_run([(0, 1)], 2, 1, 8)
        report = fairness_audit(trace)
        assert report.max_gap == 1 and report.ok

    def test_bound_violation_detected(self):
        script = ((0,), (0,), (0,), (0, 1))
        g = TimeVaryingGraph(2, 1, (frozenset({(0, 1)}),) * 4)
        trace = run(g, SchedulerPolicy(kind="scripted", script=script), make_algorithm("counter"))
        trace.header["scheduler"].update(kind="random-subset", fairness_bound=2)
        report = fairness_audit(trace)
        assert not report.ok
        assert report.max_gap == 4 and report.worst_node == 1

    def test_a_node_idle_to_the_end_is_seen(self):
        """A node's last gap runs to a virtual activation at the horizon, so
        node 1, idle after stage 2, and node 2, which never acts, both count."""
        g = TimeVaryingGraph(3, 2, (frozenset({(0, 1)}),) * 12)
        script = ((0, 1),) * 3 + ((0,),) * 9
        trace = run(g, SchedulerPolicy(kind="scripted", script=script), make_algorithm("counter"))
        # a scripted schedule promises the horizon, and node 2 waits one more
        assert fairness_audit(trace) == (13, 12, 2, False)
        trace.header["scheduler"] = {
            "kind": "all-active", "seed": 0, "p_activate": 0.5, "fairness_bound": 1
        }
        trace = RunTrace.from_jsonl(trace.to_jsonl())
        assert [tuple(r) for r in check_trace(trace, {"fairness": True})] == [
            ("fairness", False, "max activation gap 13 vs bound 1 (worst node 2)")
        ]


class TestRunValidation:
    def test_graph_without_stages_rejected(self):
        """A run lasts its graph's lifetime, so a zero-stage run is ruled
        out where the graph is built."""
        with pytest.raises(ScenarioError):
            TimeVaryingGraph(2, 1, ())

    def test_short_script_rejected_up_front(self):
        g = TimeVaryingGraph(2, 1, (frozenset(),) * 5)
        with pytest.raises(ScenarioError):
            run(g, SchedulerPolicy(kind="scripted", script=((0,),)), make_algorithm("counter"))

    def test_inputs_must_cover_all_nodes(self):
        g = TimeVaryingGraph(3, 1, (frozenset(),))
        with pytest.raises(ScenarioError):
            run(g, SchedulerPolicy(kind="all-active"), make_algorithm("max-flood"), inputs=[1, 2])

    def test_delta_over_one_byte_rejected(self):
        g = TimeVaryingGraph(2, 256, (frozenset({(0, 1)}),) * 4)
        with pytest.raises(ScenarioError, match="delta 256 is over the limit of 255"):
            run(g, SchedulerPolicy(kind="all-active"), make_algorithm("counter"))
        g = TimeVaryingGraph(2, 255, (frozenset({(0, 1)}),) * 4)
        trace = run(g, SchedulerPolicy(kind="all-active"), make_algorithm("counter"))
        assert trace.footer["final_phases"] == [1, 1]

    def test_block_write_through_an_unoccupied_port_is_an_internal_error(self, monkeypatch):
        def dead_port_handshake(state, reads, detector):
            new, _, log = handshake(state, reads, detector)
            return new, (state.delta - 1,), log

        monkeypatch.setattr("dynsync.engine.handshake", dead_port_handshake)
        # node 0's edge to node 1 sits on port 0, so its port 1 is free
        g = TimeVaryingGraph(2, 2, (frozenset({(0, 1)}),) * 3)
        with pytest.raises(
            InternalInvariantError, match="stage 0: node 0 block-writes through dead port 1"
        ):
            run(g, SchedulerPolicy(kind="all-active"), make_algorithm("counter"))


@pytest.mark.parametrize("name", bundled_scenarios())
def test_a_run_is_a_function_of_graph_schedule_and_algorithm(name):
    """The stage events record the scheduler's schedule, and re-running the
    graph under that schedule, scripted, repeats every event and the footer."""
    config = load_config(name)
    graph, scheduler = config.build_graph(), config.build_scheduler()
    algo, inputs = config.build_algorithm()
    trace = run(graph, scheduler, algo, inputs=inputs)
    schedule = scheduler.schedule(graph.n, graph.lifetime)
    assert [ev["activated"] for ev in trace.index.stages] == schedule
    scripted = SchedulerPolicy(kind="scripted", script=tuple(map(tuple, schedule)))
    replay = run(config.build_graph(), scripted, algo, inputs=inputs)
    assert replay.events == trace.events
    assert replay.footer == trace.footer


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_property_random_runs_complete_with_monotone_min_phase(seed):
    rng = random.Random(seed)
    n = rng.randint(2, 7)
    delta = rng.randint(1, 3)
    g = generate(n, delta, 40, seed=seed, p_drop=0.3, p_add=0.3)
    sched = SchedulerPolicy(kind="random-subset", seed=seed + 1, p_activate=0.5, fairness_bound=4)
    trace = run(g, sched, make_algorithm("history-hash"))
    starts = trace.index.phase_starts
    assert all(a < b for a, b in zip(starts, starts[1:]))
    assert trace.footer["final_phases"] == [len(events) for events in trace.index.executes]


def snapshot(config):
    """The copy recipe of ``Configuration``'s docstring."""
    return Configuration(
        [s.clone() for s in config.states], list(config.detectors), list(config.last_init_map)
    )


def test_stage_folded_over_port_step_and_resumed_from_a_snapshot_equals_run():
    """``port_step`` folded by hand feeds ``stage`` the events ``run`` gives,
    and a snapshot taken before a drawn stage k, continued beside the
    original, gives run's events from stage k on."""
    rng = random.Random(18)
    for i in range(200):
        n, delta = rng.randint(1, 9), rng.randint(1, 4)
        churn = dict(p_drop=rng.random(), p_add=rng.random())
        initial = random_edge_sets(rng, n, delta, 1, p=0.6)[0]
        graph = generate(n, delta, rng.randint(1, 30), seed=i, initial=initial, **churn)
        scheduler = SchedulerPolicy(
            kind="random-subset", seed=i, p_activate=rng.random(), fairness_bound=rng.randint(1, 4)
        )
        algo = make_algorithm(rng.choice(["counter", "history-hash"]))
        trace = run(graph, scheduler, algo)
        schedule = scheduler.schedule(n, graph.lifetime)
        k = rng.randrange(graph.lifetime)

        config, resumed = Configuration.initial(n, delta, algo), None
        maps, inverse = [{} for _ in range(n)], [{} for _ in range(n)]
        prev, events, resumed_events = frozenset(), [], []
        for t, edges in enumerate(graph.stages):
            if t == k:
                resumed = snapshot(config)
            maps, inverse, dropped = port_step(maps, inverse, prev, edges, delta)
            prev = edges
            events += stage(config, t, edges, maps, inverse, dropped, schedule[t], algo)
            if resumed is not None:
                resumed_events += stage(resumed, t, edges, maps, inverse, dropped, schedule[t], algo)
        assert events == trace.events
        first = next(j for j, ev in enumerate(trace.events) if ev["t"] == k)
        assert resumed_events == trace.events[first:]
        final = trace.footer["final_phases"]
        assert [s.phase for s in config.states] == [s.phase for s in resumed.states] == final


def lists_in(value):
    """Every list object inside ``value``, itself included."""
    if isinstance(value, dict):
        for item in value.values():
            yield from lists_in(item)
    elif isinstance(value, list):
        yield value
        for item in value:
            yield from lists_in(item)


@pytest.mark.parametrize("name", bundled_scenarios())
def test_no_two_events_share_a_dict_or_a_list(name):
    """Each event is its own dict, built from its action's fresh log, and no
    list object sits in two events, so an edit to one event's lists leaves
    every other event as it was."""
    events = execute_scenario(load_config(name)).trace.events
    assert len({id(ev) for ev in events}) == len(events)
    owner = {}
    for at, ev in enumerate(events):
        for inner in lists_in(ev):
            assert owner.setdefault(id(inner), at) == at, (at, owner[id(inner)], inner)
    assert owner


def test_pull_view_is_the_keyword_built_view():
    neighbor = NodeState(4, 1, 7, 0b0100, 0, 0b0001, 0b1110, 0b0010, 0, None, "s")
    for remote_port, ack in ((2, 1), (3, 0)):
        pulled = pull_view(neighbor, remote_port, 0b1000)
        assert type(pulled) is PulledView and len(pulled) == 8
        assert pulled == PulledView(
            phase=7,
            synch=1,
            remote_port=remote_port,
            ack=ack,
            valid_ports=0b1110,
            phase_drops=0b0010,
            detector=0b1000,
            algo_state="s",
        )


@pytest.mark.parametrize("name", bundled_scenarios())
def test_enabled_action_gives_the_members_stage_acts_on(name):
    """Before every stage, each node's enabled action is an ``ActionKind``
    member itself, and each activated node's event names that action."""
    config = load_config(name)
    graph, (algo, inputs) = config.build_graph(), config.build_algorithm()
    schedule = config.build_scheduler().schedule(graph.n, graph.lifetime)
    current = Configuration.initial(graph.n, graph.delta, algo, inputs)
    ports = graph.ports
    for t, edges in enumerate(graph.stages):
        kinds = [enabled_action(node) for node in current.states]
        assert all(kind is ActionKind.HANDSHAKE or kind is ActionKind.EXECUTE for kind in kinds)
        maps, inverse, dropped = ports.by_stage[t], ports.inverse[t], ports.dropped[t]
        events = stage(current, t, edges, maps, inverse, dropped, schedule[t], algo)
        assert [ev["action"] for ev in events[1:]] == [kinds[u].value for u in schedule[t]]



@pytest.mark.parametrize("name", bundled_scenarios())
def test_node_code_writes_every_field_of_its_event_but_who_and_when(name, monkeypatch):
    """Each action event's keys are its node's log's keys plus exactly
    ``kind``, ``t`` and ``node``, and an init's ``port_map`` or an execute's
    ``committed_map``: no field has two writers."""
    logged = []

    def recording(action):
        def recorded(*args):
            result = action(*args)
            logged.append(set(result[-1]))
            return result

        return recorded

    monkeypatch.setattr(engine, "handshake", recording(engine.handshake))
    monkeypatch.setattr(engine, "execute_synch", recording(engine.execute_synch))
    trace = execute_scenario(load_config(name)).trace
    actions = [ev for ev in trace.events if ev["kind"] == "action"]
    assert len(actions) == len(logged) > 0
    for event, keys in zip(actions, logged):
        if event["action"] == "execute":
            neighbors = {"committed_map"}
        else:
            neighbors = {"port_map"} if event["branch"] == "init" else set()
        engine_keys = {"kind", "t", "node"} | neighbors
        assert not keys & engine_keys
        assert set(event) == keys | engine_keys


def test_the_engine_imports_neither_port_words_nor_the_footprint_encoding():
    """Port-word lists and the footprint are the node's to encode, so its
    log carries them and the engine never builds them."""
    tree = ast.parse(Path(engine.__file__).read_text(encoding="utf-8"))
    imported = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    }
    assert not {"ports_of", "serialize_sync_state"} & imported
