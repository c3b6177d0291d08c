"""The strong oracle against a brute-force transcription of its docstring:
one presence set per stage, phases counted by scanning each node's executes,
contacts found by walking the stages, and survival checked stage by stage.
The two must give equal reports on small drawn graphs and schedules, on a
seeded churn fleet under every scheduler kind, and on forged histories."""
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynsync.algorithms import make_algorithm
from dynsync.engine import run
from dynsync.trace import SchedulerPolicy
from dynsync.tvg import TimeVaryingGraph, generate
from dynsync.verify import ExtractedSynch, StrongReport, check_strong_nontriviality, extract_H


def reference_strong(trace, extracted):
    n = trace.n
    stages = trace.index.stages
    presence = [{tuple(e) for e in ev["edges"]} for ev in stages]
    acting = [set(ev["activated"]) for ev in stages]
    phase_start = [[ev["t"] for ev in trace.index.inits[u]] for u in range(n)]
    execute = [[ev["t"] for ev in trace.index.executes[u]] for u in range(n)]

    def phase(u, t):
        """The number of phases u completed before stage t."""
        return sum(1 for s in execute[u] if s < t)

    def first_contact(a, b, i):
        """The first stage a acts in phase i, before its own execute, while b
        is in phase i too (up to and including b's execute)."""
        for s in range(phase_start[a][i], execute[a][i]):
            if a in acting[s] and phase(b, s) == i:
                return s
        return None

    def must_commit(u, v, i):
        t_u, t_v = phase_start[u][i], phase_start[v][i]
        if (u, v) not in presence[t_u] or (u, v) not in presence[t_v]:
            return False
        if phase(v, t_u) > i or phase(u, t_v) > i:
            return False
        c_u, c_v = first_contact(u, v, i), first_contact(v, u, i)
        if c_u is None or c_v is None:
            return False
        if c_u != c_v:
            completion = max(c_u, c_v)
        else:
            # the next stage either side acts again, before both execute
            later = [
                s
                for s in range(c_u + 1, max(execute[u][i], execute[v][i]))
                if u in acting[s] or v in acting[s]
            ]
            if not later:
                return False
            completion = later[0]
        return all((u, v) in presence[s] for s in range(min(t_u, t_v), completion + 1))

    missing, extra = [], []
    for i, got in enumerate(extracted.steps):
        want = {(u, v) for u in range(n) for v in range(u + 1, n) if must_commit(u, v, i)}
        missing += [(u, v, i) for u, v in sorted(want - got)]
        extra += [(u, v, i) for u, v in sorted(got - want)]
    return StrongReport(
        ok=not missing and not extra,
        phases=len(extracted.steps),
        pairs_checked=len(extracted.steps) * n * (n - 1) // 2,
        missing=missing,
        extra=extra,
    )


def assert_oracles_agree(trace, extracted):
    got = check_strong_nontriviality(trace, extracted)
    assert got == reference_strong(trace, extracted)
    return got


def forge(extracted, rng):
    """Per phase, maybe drop one committed pair and maybe add one pair."""
    n = len(extracted.completed)
    steps = []
    for step in extracted.steps:
        pairs = set(step)
        if pairs and rng.random() < 0.5:
            pairs.discard(sorted(pairs)[rng.randrange(len(pairs))])
        if n > 1 and rng.random() < 0.5:
            u = rng.randrange(n - 1)
            pairs.add((u, rng.randrange(u + 1, n)))
        steps.append(frozenset(pairs))
    return ExtractedSynch(steps, extracted.completed)


@st.composite
def scripted_runs(draw):
    n = draw(st.integers(2, 4))
    horizon = draw(st.integers(1, 12))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    stages = tuple(
        frozenset(draw(st.sets(st.sampled_from(pairs)))) for _ in range(horizon)
    )
    script = tuple(
        tuple(sorted(draw(st.sets(st.integers(0, n - 1))))) for _ in range(horizon)
    )
    return TimeVaryingGraph(n, n - 1, stages), SchedulerPolicy(kind="scripted", script=script)


@settings(max_examples=300, deadline=None)
@given(case=scripted_runs(), forge_seed=st.integers(0, 2**32 - 1))
def test_agrees_with_the_reference_on_small_scripted_runs(case, forge_seed):
    graph, scheduler = case
    trace = run(graph, scheduler, make_algorithm("counter"))
    extracted = extract_H(trace, graph.ports)
    assert assert_oracles_agree(trace, extracted).ok
    assert_oracles_agree(trace, forge(extracted, random.Random(forge_seed)))


@pytest.mark.parametrize("kind", ["random-subset", "sequential", "all-active"])
def test_agrees_with_the_reference_on_a_churn_fleet(kind):
    for seed in range(12):
        rng = random.Random(seed)
        n, delta = rng.randint(2, 9), rng.randint(1, 3)
        graph = generate(n, delta, 60, seed=seed, p_drop=rng.random() / 2, p_add=rng.random() / 2)
        scheduler = SchedulerPolicy(
            kind=kind, seed=seed, p_activate=rng.random(), fairness_bound=rng.randint(1, 6)
        )
        trace = run(graph, scheduler, make_algorithm("history-hash"))
        extracted = extract_H(trace, graph.ports)
        assert assert_oracles_agree(trace, extracted).ok
        assert_oracles_agree(trace, forge(extracted, rng))


def test_forged_missing_and_extra_commits_are_reported_alike():
    graph = generate(8, 3, 80, seed=7, p_drop=0.2, p_add=0.3)
    scheduler = SchedulerPolicy(kind="random-subset", seed=8, p_activate=0.6, fairness_bound=4)
    trace = run(graph, scheduler, make_algorithm("counter"))
    extracted = extract_H(trace, graph.ports)
    committed = [i for i, step in enumerate(extracted.steps) if step]
    i = committed[0]
    dropped = min(extracted.steps[i])
    absent = next(
        (u, v) for u in range(8) for v in range(u + 1, 8) if (u, v) not in extracted.steps[i]
    )
    steps = list(extracted.steps)
    steps[i] = (steps[i] - {dropped}) | {absent}
    report = assert_oracles_agree(trace, ExtractedSynch(steps, extracted.completed))
    assert not report.ok
    assert report.missing == [(*dropped, i)]
    assert report.extra == [(*absent, i)]
