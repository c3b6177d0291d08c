"""The trace format: what a run leaves behind for the checkers to read.

A trace is a header (sizes, algorithm, inputs, the scheduler's settings),
one event per stage and per activated node's action, in execution order,
and a footer with the run's totals. ``RunTrace`` holds one, writes and
parses it as JSON lines, and checks it: the header and footer by
themselves, and the events while ``TraceIndex`` builds the per-node view
every checker reads. ``SchedulerPolicy`` is the one place that knows the
schedulers, and ``fairness_audit`` holds a trace to the gap they promise.

This module imports neither the engine nor the synchronizer, and neither
does ``verify``: the checkers re-derive what must have happened from a
trace alone, independently of the code that produced it.
"""
from __future__ import annotations

import functools
import json
import random
from bisect import bisect_left
from typing import Any, Iterable, Iterator, NamedTuple, Sequence

from .tvg import ScenarioError

TRACE_SCHEMA = "trace/v1"


class SchedulerPolicy:
    """Which nodes act each stage: "all-active", "sequential" (round-robin),
    "random-subset" (a coin per node, and any node idle for fairness_bound
    stages forced in) or "scripted" (explicit sets). The constructor is the
    one check of the settings that configs and trace headers give."""

    # the settings a trace header's ``scheduler`` object records
    RECORDED = ("kind", "seed", "p_activate", "fairness_bound")

    def __init__(
        self,
        kind: str,
        seed: int = 0,
        p_activate: float = 0.5,
        fairness_bound: int = 1,
        script: Sequence[Sequence[int]] = (),
    ) -> None:
        if kind not in ("all-active", "sequential", "random-subset", "scripted"):
            raise ScenarioError(f"unknown scheduler kind {kind!r}")
        if kind == "scripted":
            if not isinstance(script, (list, tuple)):
                raise ScenarioError("scripted scheduler needs a stages array")
            # schedule sorts each stage and checks its node range
            for t, chosen in enumerate(script):
                if not (isinstance(chosen, (list, tuple)) and all(type(u) is int for u in chosen)):
                    raise ScenarioError(
                        f"stage {t}: scripted activation must be a list of integers: {chosen!r}"
                    )
        if type(seed) is not int:
            raise ScenarioError(f"scheduler seed must be an integer, got {seed!r}")
        if kind == "random-subset":
            if not (type(p_activate) in (int, float) and 0.0 <= p_activate <= 1.0):
                raise ScenarioError(f"p_activate must be in [0,1], got {p_activate!r}")
            if not (type(fairness_bound) is int and fairness_bound >= 1):
                raise ScenarioError(
                    f"fairness_bound must be an integer >= 1, got {fairness_bound!r}"
                )
        self.kind = kind
        self.seed = seed
        self.p_activate = p_activate
        self.fairness_bound = fairness_bound
        self.script = script

    @classmethod
    def from_config(cls, spec: dict, seed: int) -> "SchedulerPolicy":
        """The policy a config's ``scheduler`` object gives; ``seed`` if it names none."""
        spec = dict(spec)
        kind, settings = spec.pop("kind"), {"seed": spec.pop("seed", seed)}
        if kind == "scripted":
            settings["script"] = spec.pop("stages", None)
        elif kind == "random-subset":
            for key in ("p_activate", "fairness_bound"):
                if key in spec:
                    settings[key] = spec.pop(key)
        policy = cls(kind, **settings)
        if spec:
            raise ScenarioError(f"unknown scheduler keys: {sorted(spec)}")
        return policy

    def record(self) -> dict:
        """The trace header's ``scheduler`` object; it has no script."""
        return {key: getattr(self, key) for key in self.RECORDED}

    @classmethod
    def from_header(cls, header: dict) -> "SchedulerPolicy":
        """The policy a trace header records; a scripted one has no script."""
        sched = header["scheduler"]
        if type(sched) is not dict:
            raise ScenarioError(f"trace header: scheduler must be an object, got {sched!r}")
        for key in cls.RECORDED:
            if key not in sched:
                raise ScenarioError(f"trace header: scheduler has no {key!r} key")
        try:
            return cls(**{key: sched[key] for key in cls.RECORDED})
        except ScenarioError as exc:
            raise ScenarioError(f"trace header: {exc}") from None

    def promised_gap(self, n: int, horizon: int) -> int:
        """The most stages a node waits between activations, virtual ones at
        stage -1 and the horizon included; a scripted one promises the horizon."""
        if self.kind == "all-active":
            return 1
        if self.kind == "sequential":
            return n
        if self.kind == "random-subset":
            return self.fairness_bound
        return horizon

    def schedule(self, n: int, horizon: int) -> list[list[int]]:
        """Each of the horizon stages' activation set, as a sorted list."""
        if self.kind == "all-active":
            return [list(range(n)) for _ in range(horizon)]
        if self.kind == "sequential":
            return [[t % n] for t in range(horizon)]
        if self.kind == "scripted":
            if len(self.script) < horizon:
                raise ScenarioError(
                    f"scheduler script covers {len(self.script)} stages, horizon is {horizon}"
                )
            stages = [sorted(set(chosen)) for chosen in self.script[:horizon]]
            for t, chosen in enumerate(stages):
                if chosen and not (0 <= chosen[0] and chosen[-1] < n):
                    raise ScenarioError(f"stage {t}: scripted activation out of range: {chosen}")
            return stages
        # random-subset draws one coin per node per stage, in node order, so
        # the stream is stable no matter what it selects, and forces in any
        # node idle for fairness_bound stages.
        rng = random.Random(self.seed)
        last = [-1] * n
        stages = []
        for t in range(horizon):
            chosen = [
                u
                for u in range(n)
                if rng.random() < self.p_activate or t - last[u] >= self.fairness_bound
            ]
            for u in chosen:
                last[u] = t
            stages.append(chosen)
        return stages


# The C encoder that json.dumps(obj, sort_keys=True, separators=(",", ":"))
# builds on every call, built once. It keeps no circular-reference markers: a
# trace is a tree of fresh dicts and lists, and a cycle still ends in
# RecursionError. It returns its chunks as a list before Python 3.12 and as a
# tuple from 3.12 on. Without the ``_json`` C module there is no such
# encoder, and json.dumps, with the same settings, writes the same bytes.
if json.encoder.c_make_encoder is None:

    def _encode(obj: Any, _level: int) -> tuple[str]:
        return (json.dumps(obj, sort_keys=True, separators=(",", ":")),)

else:
    _encode = json.encoder.c_make_encoder(
        None, json.JSONEncoder().default, json.encoder.encode_basestring_ascii,
        None, ":", ",", True, False, True,
    )


def _dumps(obj: Any) -> str:
    return "".join(_encode(obj, 0))


def _line(obj: Any) -> str:
    """One trace line: ``obj`` as ``_dumps`` writes it, and a newline."""
    return "".join(_encode(obj, 0)) + "\n"


# A trace is parsed in blocks of whole lines of about this many bytes.
BLOCK_BYTES = 1 << 16

# The block scan writes NaN between lines and reads it as this marker, so
# that a line end stays visible in the scanned array; a trace that writes
# NaN itself is parsed line by line.
_LINE_END = object()
_scan_block = json.JSONDecoder(
    parse_constant={
        "NaN": _LINE_END, "Infinity": json.decoder.PosInf, "-Infinity": json.decoder.NegInf,
    }.__getitem__
).scan_once


def _rows_by_block(data: bytes) -> list | None:
    """Every line's JSON value, in order, when every block of lines scans
    as one array of one value per line; else None. Each block is decoded and
    scanned by itself, so the values of a block share their key strings.

    The input must be ASCII with no ``\\r``, so that every line break
    ``str.splitlines`` honours but ``\\n`` fails the scan, and hold no
    ``NaN``, so that every line-end marker is one this scan wrote. Then a
    block is taken when its top level alternates values and markers, one
    value per line: a blank line fails the scan, and a line that is not one
    whole value either fails it or leaves a marker inside a value or string
    that runs on into the next line."""
    if not data.isascii() or b"\r" in data or b"NaN" in data:
        return None
    rows: list = []
    start, size = 0, len(data)
    with memoryview(data) as view:
        while start < size:
            end = data.rfind(b"\n", start, start + BLOCK_BYTES)
            if end < 0:  # no line ends in the window: take the line whole
                end = data.find(b"\n", start + BLOCK_BYTES)
                end = size if end < 0 else end
            lines = data.count(b"\n", start, end) + 1
            text = str(view[start:end], "ascii").replace("\n", ",NaN,")
            text = f"[{text}]"
            start = end + 1
            try:
                values, stop = _scan_block(text, 0)
            except (StopIteration, ValueError, RecursionError):
                return None
            if (
                stop != len(text)
                or len(values) != 2 * lines - 1
                or values.count(_LINE_END) != lines - 1
            ):
                return None
            rows += values[::2]
    return rows


def _rows_by_line(data: bytes) -> Iterator[tuple[int, Any]]:
    """Each non-empty line's number and value: what ``json.loads`` gives
    for the line. A line it rejects is a named error."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ScenarioError(f"trace is not UTF-8: {exc}") from None
    for k, line in enumerate(text.splitlines(), 1):
        if not line:
            continue
        try:
            row = json.loads(line)
        except (ValueError, RecursionError) as exc:
            raise ScenarioError(f"trace line {k}: {exc}") from None
        yield k, row


def _place(rows: Iterable[tuple[int, Any]]) -> tuple[dict, list[dict], dict]:
    """The header, events and footer of numbered rows: each an object, the
    header first, and the footer, if any, last. The first row that breaks
    the rule is named, so errors that the rows raise as they are read come
    in line order with these."""
    header: dict | None = None
    events: list[dict] = []
    footer: dict = {}
    ended = False
    for k, row in rows:
        if type(row) is not dict:
            got = type(row).__name__
            raise ScenarioError(f"trace line {k}: expected a JSON object, got {got}")
        kind = row.get("kind")
        if header is None:
            if kind != "header":
                raise ScenarioError("trace does not start with a header line")
            header = {key: v for key, v in row.items() if key != "kind"}
        elif ended:
            raise ScenarioError(f"trace line {k}: line after the footer")
        elif kind == "footer":
            footer = {key: v for key, v in row.items() if key != "kind"}
            ended = True
        elif kind == "header":
            raise ScenarioError(f"trace line {k}: second header line")
        else:
            events.append(row)
    if header is None:
        raise ScenarioError("trace does not start with a header line")
    return header, events, footer


def _not_an_int(i: int, key: str, value: Any) -> ScenarioError:
    # the test stays inline: a call per event would slow the index build
    return ScenarioError(f"trace event {i}: {key!r} must be an integer, got {value!r}")


class TraceIndex:
    """Per-node view of a trace's events, built in one pass over them. It
    checks every event field that a checker reads, so that a malformed event
    is named whatever checks are requested, and the checkers test only
    invariants. The event schema:

    - every event has an integer ``t`` and a ``kind``, "stage" or "action";
    - the stage events are 0..horizon-1 in order, each with an ``edges``
      list of node pairs u < v < n and an ``activated`` list of strictly
      increasing nodes in 0..n-1;
    - each stage's actions are exactly its activated nodes, in order, each
      with an integer ``node`` and an ``action``, "handshake" or "execute";
    - a handshake's ``branch`` is "init" or "continue"; an init handshake
      has an integer ``phase`` and a ``port_map``;
    - node u's k-th execute has ``phase`` k and follows its k-th init
      handshake, in phase k too. Its ``state`` is a string, its
      ``committed``, ``valid`` and ``phase_drops`` are integer lists, its
      ``committed_map`` a list of [port, neighbor] pairs whose neighbors
      are nodes, and its ``pulled`` a list of [port, snapshot] pairs; the
      ports of both are, in order, its ``committed`` list.

    A missing key is named as one. The lists hold the event dicts
    themselves, so an in-place edit of an event shows through the index,
    but an edit after the build is not checked. ``acts[u]`` and
    ``exec_stages[u]`` list the stages node u acts and executes in.
    ``phase_starts[i]`` is the first stage at whose start every node has
    completed i phases, for i up to the minimum completed count.
    ``policy`` is the scheduler the trace header records.
    """

    policy: SchedulerPolicy  # set by RunTrace.index

    def __init__(self, n: int) -> None:
        self.stages: list[dict] = []
        self.acts: list[list[int]] = [[] for _ in range(n)]
        self.executes: list[list[dict]] = [[] for _ in range(n)]
        self.inits: list[list[dict]] = [[] for _ in range(n)]
        self.exec_stages: list[list[int]] = [[] for _ in range(n)]
        self.phase_starts: list[int] = [0]

    @classmethod
    def build(cls, n: int, horizon: int, events: list[dict]) -> "TraceIndex":
        index = cls(n)
        stages, acts, executes = index.stages, index.acts, index.executes
        inits, exec_stages = index.inits, index.exec_stages
        last_t = 0
        pending: Iterator[int] = iter(())  # the current stage's nodes yet to act
        is_ints = {int}.issuperset  # is_ints(map(type, xs)): every x is an int
        try:
            for i, ev in enumerate(events):
                t = ev["t"]
                if type(t) is not int:
                    raise _not_an_int(i, "t", t)
                # phase lookups bisect the per-node stage lists
                if t < last_t:
                    raise ScenarioError(f"trace event at stage {t} follows stage {last_t}")
                if t >= horizon:
                    raise ScenarioError(f"trace event at stage {t}, horizon is {horizon}")
                last_t = t
                kind = ev["kind"]
                if kind == "stage":
                    if t != len(stages):
                        due = len(stages)
                        raise ScenarioError(f"stage event {t} where stage {due} is due")
                    for u in pending:
                        raise ScenarioError(f"stage {t - 1}: activated node {u} did not act")
                    if type(ev["edges"]) is not list or type(ev["activated"]) is not list:
                        raise ScenarioError(f"stage {t}: 'edges' and 'activated' must be lists")
                    for entry in ev["edges"]:
                        try:
                            a, b = entry
                        except (TypeError, ValueError):
                            a = b = None
                        if type(a) is not int or type(b) is not int or not 0 <= a < b < n:
                            raise ScenarioError(
                                f"stage {t}: edge {entry!r} is not a node pair u < v < {n}"
                            )
                    low = 0  # each activated node is above the one before
                    for u in ev["activated"]:
                        if type(u) is not int or not low <= u < n:
                            raise ScenarioError(
                                f"stage {t}: activated node {u!r} is not in {low}..{n - 1}"
                            )
                        acts[u].append(t)
                        low = u + 1
                    pending = iter(ev["activated"])
                    stages.append(ev)
                    continue
                if kind != "action":
                    raise ScenarioError(f"trace event {i}: unknown kind {kind!r}")
                u = ev["node"]
                if type(u) is not int:
                    raise _not_an_int(i, "node", u)
                if t >= len(stages):
                    raise ScenarioError(f"stage {t}: action of node {u} before the stage event")
                # the activated nodes are in 0..n-1, and so, then, is u
                if next(pending, None) != u:
                    raise ScenarioError(f"stage {t}: node {u} acts out of activation order")
                action = ev["action"]
                if action == "execute":
                    k = len(executes[u])
                    phase = ev["phase"]
                    if type(phase) is not int:
                        raise _not_an_int(i, "phase", phase)
                    if phase != k:
                        raise ScenarioError(f"node {u}: phase counter skew at event {k}")
                    # the strong oracle reads phase k's init handshake by position
                    if k >= len(inits[u]) or inits[u][k]["phase"] != k:
                        raise ScenarioError(f"node {u}: no init handshake for completed phase {k}")
                    if type(ev["state"]) is not str:
                        raise ScenarioError(f"node {u} phase {k}: state is not a string")
                    committed_map = ev["committed_map"]
                    if type(committed_map) is not list:
                        raise ScenarioError(f"node {u} phase {k}: committed_map is not a list")
                    mapped = []
                    for entry in committed_map:
                        if type(entry) is not list or len(entry) != 2 or type(entry[0]) is not int:
                            raise ScenarioError(
                                f"node {u} phase {k}: committed_map entry {entry!r} is not a pair"
                            )
                        if type(entry[1]) is not int or not 0 <= entry[1] < n:
                            raise ScenarioError(
                                f"node {u} phase {k}: committed neighbor {entry[1]!r} "
                                f"is not in 0..{n - 1}"
                            )
                        mapped.append(entry[0])
                    for key in ("committed", "valid", "phase_drops"):
                        ports = ev[key]
                        if type(ports) is not list or not is_ints(map(type, ports)):
                            raise ScenarioError(f"node {u} phase {k}: {key} is not an int list")
                    committed = ev["committed"]
                    if mapped != committed:
                        raise ScenarioError(
                            f"node {u} phase {k}: committed_map ports {mapped} "
                            f"are not the committed ports {committed}"
                        )
                    pulled = ev["pulled"]
                    if type(pulled) is not list:
                        raise ScenarioError(f"node {u} phase {k}: pulled is not a list")
                    for entry in pulled:
                        if type(entry) is not list or len(entry) != 2:
                            raise ScenarioError(
                                f"node {u} phase {k}: pulled entry {entry!r} is not a pair"
                            )
                        if type(entry[0]) is not int or entry[0] not in committed:
                            raise ScenarioError(
                                f"node {u} phase {k}: pulled port {entry[0]!r} "
                                "is not in committed_map"
                            )
                    # execute_synch pulls one snapshot per committed port, in order
                    if (ports := [entry[0] for entry in pulled]) != committed:
                        raise ScenarioError(
                            f"node {u} phase {k}: pulled ports {ports} "
                            f"are not the committed ports {committed}"
                        )
                    executes[u].append(ev)
                    exec_stages[u].append(t)
                elif action == "handshake":
                    branch = ev["branch"]
                    if branch == "init":
                        if type(ev["phase"]) is not int:
                            raise _not_an_int(i, "phase", ev["phase"])
                        ev["port_map"]  # extraction compares it with a port assignment
                        inits[u].append(ev)
                    elif branch != "continue":
                        raise ScenarioError(f"trace event {i}: unknown branch {branch!r}")
                else:
                    raise ScenarioError(f"trace event {i}: unknown action {action!r}")
        except KeyError as exc:
            # event i was being read when the key was missing
            raise ScenarioError(f"trace event {i} has no {exc.args[0]!r} key") from None
        if len(stages) != horizon:
            raise ScenarioError(f"trace has {len(stages)} of {horizon} stage events")
        for u in pending:
            raise ScenarioError(f"stage {horizon - 1}: activated node {u} did not act")
        completed = min(map(len, exec_stages), default=0)
        index.phase_starts += [
            max(node_stages[i] for node_stages in exec_stages) + 1 for i in range(completed)
        ]
        return index

    def phase_at(self, u: int, t: int) -> int:
        """The number of phases node u completed before stage t."""
        return bisect_left(self.exec_stages[u], t)


class RunTrace:
    """Replayable structured record of one run: a header followed by one
    event per stage / per activated node action, in execution order, and a
    footer (empty when the trace has none)."""

    def __init__(self, header: dict, events: list[dict], footer: dict) -> None:
        self.header = header
        self.events = events
        self.footer = footer

    # -- serialization ----------------------------------------------------

    def lines(self) -> Iterator[str]:
        """The trace's lines, each with its newline and all ASCII: the
        header, the events, and the footer when there is one."""
        yield _line({"kind": "header", **self.header})
        yield from map(_line, self.events)
        if self.footer:
            yield _line({"kind": "footer", **self.footer})

    def to_jsonl(self) -> bytes:
        """The whole trace as bytes: its lines, joined."""
        return "".join(self.lines()).encode()

    @classmethod
    def from_jsonl(cls, data: bytes) -> "RunTrace":
        """Parse a trace: one JSON object per non-empty line, the header
        first and an optional footer last. Each line decodes to what
        ``json.loads`` gives for it, and a line it rejects is a named error.

        The input is scanned in blocks of whole lines, each block as one
        JSON array, so that a block's events share their key strings and no
        copy of the whole text is made. When some block cannot be taken
        whole, the input is parsed line by line, which names a bad line by
        its number. Blocks are taken only when each line holds one value,
        so a row's position is its line number on both paths, and one rule
        places the header and footer."""
        rows = _rows_by_block(data)
        numbered = _rows_by_line(data) if rows is None else enumerate(rows, 1)
        return cls(*_place(numbered))

    # -- accessors ---------------------------------------------------------

    @property
    def n(self) -> int:
        return self.header["n"]

    @property
    def horizon(self) -> int:
        return self.header["horizon"]

    @functools.cached_property
    def index(self) -> TraceIndex:
        """The per-node index of the events, built on first use once the
        header is checked: ``schema`` the one this module writes, ``n``,
        ``delta`` and ``horizon`` integers >= 1 (a JSON boolean is not one),
        ``algorithm`` present, ``inputs`` null or one integer per node, and
        ``scheduler`` an object that ``SchedulerPolicy.from_header`` takes,
        whose policy the index keeps. The footer, checked before the build
        too, must be present, count the horizon's stages and the n·horizon
        guard checks, and list n execute counts, which after the build must
        be each node's."""
        header = self.header
        for key in ("schema", "n", "delta", "horizon", "algorithm", "inputs", "scheduler"):
            if key not in header:
                raise ScenarioError(f"trace header has no {key!r} key")
        if header["schema"] != TRACE_SCHEMA:
            raise ScenarioError(
                f"trace header: schema must be {TRACE_SCHEMA!r}, got {header['schema']!r}"
            )
        for key in ("n", "delta", "horizon"):
            value = header[key]
            if type(value) is not int or value < 1:
                raise ScenarioError(f"trace header: {key} must be an integer >= 1, got {value!r}")
        n, horizon = header["n"], header["horizon"]
        inputs = header["inputs"]
        if inputs is not None and not (
            type(inputs) is list and len(inputs) == n and {int}.issuperset(map(type, inputs))
        ):
            raise ScenarioError(f"trace header: inputs must be null or {n} integers: {inputs!r}")
        policy = SchedulerPolicy.from_header(header)
        # the footer by itself before the build, which allocates per node,
        # so that a header n the file cannot hold is named first
        if not self.footer:
            raise ScenarioError("trace has no footer")
        stages, phases = self.footer.get("stages"), self.footer.get("final_phases")
        if type(stages) is not int or stages != horizon:
            raise ScenarioError(
                f"trace footer: stages must be the horizon {horizon}, got {stages!r}"
            )
        if type(phases) is not list or len(phases) != n:
            raise ScenarioError(f"trace footer: final_phases must hold {n} counts, got {phases!r}")
        # the run evaluates every node's guard once per stage
        guards = self.footer.get("guard_checks")
        if type(guards) is not int or guards != n * horizon:
            raise ScenarioError(
                f"trace footer: guard_checks must be n·horizon {n * horizon}, got {guards!r}"
            )
        index = TraceIndex.build(n, horizon, self.events)
        index.policy = policy
        counts = [len(executes) for executes in index.executes]
        # n >= 1, so equal lists are not empty, and a boolean is not an int
        if phases != counts or set(map(type, phases)) != {int}:
            raise ScenarioError(
                f"trace footer: final_phases must be each node's executes {counts}, got {phases!r}"
            )
        return index

    def stage_events(self) -> list[dict]:
        return list(self.index.stages)

    def actions(self, node: int | None = None, action: str | None = None) -> Iterator[dict]:
        for ev in self.events:
            if ev["kind"] != "action":
                continue
            if node is not None and ev["node"] != node:
                continue
            if action is not None and ev["action"] != action:
                continue
            yield ev


class FairnessReport(NamedTuple):
    max_gap: int
    bound: int
    worst_node: int
    ok: bool


def fairness_audit(trace: RunTrace) -> FairnessReport:
    """Max activation gap per node, counted from a virtual activation at
    stage -1 and to one at the stage after the last, compared against the
    bound the trace header's scheduler promises. The closing gap is a node's
    idle tail, so a node that never acts waits the horizon plus one."""
    end = len(trace.index.stages)  # the index checks the header, horizon included
    max_gap, worst, worst_t = 0, 0, -1
    for u, stages in enumerate(trace.index.acts):
        for last, t in zip([-1] + stages, stages + [end]):
            # the worst node is the first a stage-by-stage walk finds
            if t - last > max_gap or (t - last == max_gap and t < worst_t):
                max_gap, worst, worst_t = t - last, u, t
    bound = trace.index.policy.promised_gap(trace.n, end)
    return FairnessReport(max_gap=max_gap, bound=bound, worst_node=worst, ok=max_gap <= bound)
