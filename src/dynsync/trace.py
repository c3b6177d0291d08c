"""The trace format: what a run leaves behind for the checkers to read.

A trace is a header (sizes, algorithm, inputs, the scheduler's settings),
one event per stage and per activated node's action, in execution order,
and a footer with the run's totals. ``RunTrace`` holds one, writes and
parses it as JSON lines, and checks it: the header and footer by
themselves, and the events while ``TraceIndex`` builds the per-node view
every checker reads. ``promised_gap`` is the one rule that reads the
scheduler's promise from a header, and ``fairness_audit`` holds a trace's
activation gaps to it.

This module imports neither the engine nor the synchronizer, and neither
does ``verify``: the checkers re-derive what must have happened from a
trace alone, independently of the code that produced it.
"""
from __future__ import annotations

import functools
import json
from bisect import bisect_left
from typing import Any, Iterable, Iterator, NamedTuple

from .tvg import ScenarioError

TRACE_SCHEMA = "trace/v1"


def validate_scheduler(kind: Any, seed: Any, p_activate: Any, fairness_bound: Any) -> None:
    """Raise ``ScenarioError`` unless the settings describe a scheduler: a
    known kind and an integer seed, and for random-subset a ``p_activate``
    in [0, 1] and an integer ``fairness_bound`` >= 1 (a boolean is neither).
    ``SchedulerPolicy`` and a trace header's check both apply this rule."""
    if kind not in ("all-active", "sequential", "random-subset", "scripted"):
        raise ScenarioError(f"unknown scheduler kind {kind!r}")
    if type(seed) is not int:
        raise ScenarioError(f"scheduler seed must be an integer, got {seed!r}")
    if kind == "random-subset":
        if not (type(p_activate) in (int, float) and 0.0 <= p_activate <= 1.0):
            raise ScenarioError(f"p_activate must be in [0,1], got {p_activate!r}")
        if not (type(fairness_bound) is int and fairness_bound >= 1):
            raise ScenarioError(
                f"fairness_bound must be an integer >= 1, got {fairness_bound!r}"
            )


def promised_gap(header: dict) -> int:
    """The most stages a node can wait between activations, counted from a
    virtual activation at stage -1, under the scheduler a checked trace
    header records. A scripted schedule promises only the horizon."""
    sched = header["scheduler"]
    if sched["kind"] == "all-active":
        return 1
    if sched["kind"] == "sequential":
        return header["n"]
    if sched["kind"] == "random-subset":
        return sched["fairness_bound"]
    return header["horizon"]


# The C encoder that json.dumps(obj, sort_keys=True, separators=(",", ":"))
# builds on every call, built once. It keeps no circular-reference markers: a
# trace is a tree of fresh dicts and lists, and a cycle still ends in
# RecursionError.
_encode = json.encoder.c_make_encoder(
    None, json.JSONEncoder().default, json.encoder.encode_basestring_ascii,
    None, ":", ",", True, False, True,
)


def _dumps(obj: Any) -> str:
    return "".join(_encode(obj, 0))


def _line(obj: Any) -> str:
    """One trace line: ``obj`` as ``_dumps`` writes it, and a newline."""
    chunks = _encode(obj, 0)
    chunks.append("\n")
    return "".join(chunks)


# the C scanner json.loads runs; it parses one JSON value from an offset
_scan = json.JSONDecoder().scan_once

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
            row, end = _scan(line, 0)
        except (StopIteration, ValueError, RecursionError):
            end = -1
        if end != len(line):
            # not one whole value from the first character: json.loads
            # either accepts the line (say, padded with spaces) or says
            # what is wrong with it
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
    checks, once, each field that several checkers read; a field that one
    checker reads is checked where it is read. The stage events must be
    0..horizon-1 in order, each ``activated`` list strictly increasing nodes
    in 0..n-1, and each stage's actions exactly its activated nodes, in order.
    Each event's ``t``, each action's ``node`` and each execute's and init
    handshake's ``phase`` must be integers. Node u's k-th execute must be in
    phase k, after its k-th init handshake, in phase k too, its ``state`` a
    string and its ``committed_map`` a list whose every neighbor is a node
    and whose ports are, in order, its ``committed`` list when that is a
    list of integers.

    The lists hold the event dicts themselves, so an in-place edit of an
    event shows through the index, but an edit after the build is not
    checked. ``acts[u]`` and ``exec_stages[u]`` list the stages node u acts
    and executes in. ``phase_starts[i]`` is the first stage at whose start
    every node has completed i phases, for i up to the minimum completed count.
    """

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
                    # the strong oracle alone reads the edges, and checks them
                    if type(ev["edges"]) is not list or type(ev["activated"]) is not list:
                        raise ScenarioError(f"stage {t}: 'edges' and 'activated' must be lists")
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
                    # the ports must be the committed list; check_sandwich
                    # names a committed list that is not ints
                    committed = ev.get("committed")
                    if (
                        mapped != committed
                        and type(committed) is list
                        and {int}.issuperset(map(type, committed))
                    ):
                        raise ScenarioError(
                            f"node {u} phase {k}: committed_map ports {mapped} "
                            f"are not the committed ports {committed}"
                        )
                    executes[u].append(ev)
                    exec_stages[u].append(t)
                elif action == "handshake":
                    branch = ev["branch"]
                    if branch == "init":
                        if type(ev["phase"]) is not int:
                            raise _not_an_int(i, "phase", ev["phase"])
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
        ``scheduler`` an object whose ``kind``, ``seed``, ``p_activate`` and
        ``fairness_bound`` pass ``validate_scheduler``. After the build, the
        footer must count the horizon's stages, each node's executes and
        the n·horizon guard checks."""
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
        inputs, sched = header["inputs"], header["scheduler"]
        if inputs is not None and not (
            type(inputs) is list and len(inputs) == n and {int}.issuperset(map(type, inputs))
        ):
            raise ScenarioError(f"trace header: inputs must be null or {n} integers: {inputs!r}")
        if type(sched) is not dict:
            raise ScenarioError(f"trace header: scheduler must be an object, got {sched!r}")
        for key in ("kind", "seed", "p_activate", "fairness_bound"):
            if key not in sched:
                raise ScenarioError(f"trace header: scheduler has no {key!r} key")
        try:
            validate_scheduler(
                sched["kind"], sched["seed"], sched["p_activate"], sched["fairness_bound"]
            )
        except ScenarioError as exc:
            raise ScenarioError(f"trace header: {exc}") from None
        index = TraceIndex.build(n, horizon, self.events)
        # after the build, so that a truncated trace reads as one
        if not self.footer:
            raise ScenarioError("trace has no footer")
        stages, phases = self.footer.get("stages"), self.footer.get("final_phases")
        if type(stages) is not int or stages != horizon:
            raise ScenarioError(
                f"trace footer: stages must be the horizon {horizon}, got {stages!r}"
            )
        counts = [len(executes) for executes in index.executes]
        # n >= 1, so equal lists are not empty, and a boolean is not an int
        if type(phases) is not list or phases != counts or set(map(type, phases)) != {int}:
            raise ScenarioError(
                f"trace footer: final_phases must be each node's executes {counts}, got {phases!r}"
            )
        # the run evaluates every node's guard once per stage
        guards = self.footer.get("guard_checks")
        if type(guards) is not int or guards != n * horizon:
            raise ScenarioError(
                f"trace footer: guard_checks must be n·horizon {n * horizon}, got {guards!r}"
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
    stage -1, compared against the bound the trace header's scheduler
    promises."""
    max_gap, worst, worst_t = 0, 0, -1
    for u, stages in enumerate(trace.index.acts):
        for last, t in zip([-1] + stages, stages):
            # the worst node is the first a stage-by-stage walk finds
            if t - last > max_gap or (t - last == max_gap and t < worst_t):
                max_gap, worst, worst_t = t - last, u, t
    bound = promised_gap(trace.header)
    return FairnessReport(max_gap=max_gap, bound=bound, worst_node=worst, ok=max_gap <= bound)
