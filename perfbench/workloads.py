"""Scenario shapes the benchmark runs, and the artifact digests pinned for them.

Each workload is a dynsync scenario config built from a seed. The three
shapes put the cost in different modules, so that every optimisation has one
workload that exercises it and one that bypasses it:

- churn-wide: many nodes, few phases. Port assignment, which scans the whole
  edge set per node per stage, is the largest part of run; history
  extraction and the checkers, which rescan the trace once per node, are
  most of check.
- static-long: few nodes, many phases, every node acts every stage. The
  engine's run loop, the handshake and trace writing are half of run; trace
  parsing and history extraction half of check. The strong oracle is left
  out because it is superlinear in phases and would swamp the run-loop
  signal.
- churn-deep: few nodes, a deep phase count. The strong oracle's per-phase
  scans are the largest layer of both run and check, about half of check.

The shares come from ``--trace 1`` runs, which print them; README.md lists
the figures measured when the sizes were chosen.

The "full" size is what the benchmark measures; "tiny" keeps each shape but
runs in well under a second, for the benchmark's own tests.
"""
from __future__ import annotations

import random
from dataclasses import dataclass

DEFAULT_SEED = 1
SIZES = ("full", "tiny")

ALL_CHECKS = {"correctness": True, "strong-nontriviality": True, "liveness": 10, "fairness": True}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    kind: str  # "churn" or "static-ring"
    delta: int
    shape: dict  # size -> (n, horizon)

    def config(self, seed: int, size: str) -> dict:
        """The scenario config for ``seed``; the same seed gives the same config."""
        n, horizon = self.shape[size]
        cfg = {"name": self.name, "n": n, "delta": self.delta, "horizon": horizon, "seed": seed}
        if self.kind == "churn":
            cfg.update(
                dynamics={"kind": "random-churn", "p_drop": 0.2, "p_add": 0.2},
                scheduler={"kind": "random-subset", "p_activate": 0.6, "fairness_bound": 8},
                algorithm={"name": "history-hash"},
                checks=dict(ALL_CHECKS),
            )
        else:
            # A ring plus chords to the opposite node; the seed draws the
            # max-flood inputs, which is all a static all-active run varies in.
            half = n // 2
            edges = [[u, (u + 1) % n] for u in range(n)] + [[u, u + half] for u in range(half)]
            rng = random.Random(seed)
            cfg.update(
                dynamics={"kind": "static", "edges": edges},
                scheduler={"kind": "all-active"},
                algorithm={"name": "max-flood", "inputs": [rng.randrange(10**6) for _ in range(n)]},
            )
        return cfg


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="churn-wide",
            why="many nodes, few phases: port assignment is the largest part of run, "
            "and per-node trace rescans by history extraction and the checkers are "
            "most of check",
            kind="churn",
            delta=4,
            shape={"full": (64, 100), "tiny": (16, 100)},
        ),
        Workload(
            name="static-long",
            why="few nodes, many phases, every node acts every stage: the run loop, "
            "handshakes and trace writing are half of run, trace parsing and history "
            "extraction half of check; no strong oracle",
            kind="static-ring",
            delta=3,
            shape={"full": (16, 600), "tiny": (8, 60)},
        ),
        Workload(
            name="churn-deep",
            why="few nodes, deep phase count: the strong oracle's per-phase scans are "
            "the largest layer of both run and check, about half of check",
            kind="churn",
            delta=3,
            shape={"full": (12, 800), "tiny": (12, 120)},
        ),
    )
}

# SHA-256 of NAME.trace.jsonl and NAME.h.json at DEFAULT_SEED. The report is
# not pinned: its format may change without the run changing.
PINS: dict[tuple[str, str], dict[str, str]] = {
    ("churn-wide", "tiny"): {
        "trace": "35d78c945b1d8cf3b978daf52bbeed0211cf97da982c67cdf3c41b3d94da773b",
        "history": "f17f4d89c31b0c5e6b0953ce943e4063bf31f6c32670e89a2b9d3bbd01c34143",
    },
    ("static-long", "tiny"): {
        "trace": "aff0b7184c4c72a073812b802c1e0ad9925b8e9934ffa51ef32cf8bbf606f5f1",
        "history": "f34961360e7858b977b051dd3711927ece0f99f70397c6c2dccbe669b6b376f1",
    },
    ("churn-deep", "tiny"): {
        "trace": "7ec93992badcaf8e8b117cf746b0ec0d146b848651e2c3247ea0b19cdd8845d9",
        "history": "dd539156167cb346bc01308ea1c34380c33c9ff6bd4a5b7373c8ba34c8d72844",
    },
    ("churn-wide", "full"): {
        "trace": "bb164249c284e8d3de7da268d03ce2b7029e5d4965a1b481d7c6ef5e074c47a9",
        "history": "8015cb03262f3637fbc36461e19292c92284d9f359ad985784c60fc9dcc4fc8b",
    },
    ("static-long", "full"): {
        "trace": "4c14674f401fdb2855e864c5ced5f6994c4a3929c89f6db5fef318a006aef606",
        "history": "75037e41adeceb49a10c6e6ba7204d0d9b4968075136e20db70917dec0845d00",
    },
    ("churn-deep", "full"): {
        "trace": "3218c10ae6b905fdb30f5ea98d62b2f25a64713b0fa79341436a75e705b92410",
        "history": "29f740bf267cd0fee924076e695822134cd8abdca6956791e11a657559e4d7bd",
    },
}
