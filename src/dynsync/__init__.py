"""Deterministic synchronizer for anonymous dynamic networks.

Runs a synchronous message-passing algorithm on top of a semi-synchronous
network whose edges may appear and vanish at every stage, using a per-port
ack/block handshake to agree edge by edge on each simulated round's graph.

The modules: ``tvg`` (time-varying graphs and port assignments),
``synchronizer`` (the per-node protocol), ``algorithms`` (the wrapped
algorithms and their synchronous reference runner), ``engine`` (schedules
and the run loop), ``trace`` (the trace format, its checks and index, and
the fairness audit), ``verify`` (the checkers), ``demo`` (the
model-separation demo) and ``cli`` (the scenario command line). ``trace``
and ``verify`` import neither ``engine`` nor ``synchronizer``, so the
checkers stay independent of the code they check. Every public name is
re-exported here.
"""

from .algorithms import (
    CounterAlgo,
    HistoryHashAlgo,
    MaxFloodAlgo,
    SyncAlgorithm,
    make_algorithm,
    reference_run,
)
from .cli import build_weak_nontriviality
from .demo import extended_model_demo, impossibility_demo
from .engine import InternalInvariantError, SchedulerPolicy, run
from .synchronizer import NodeState, ProtocolViolation, serialize_sync_state
from .trace import RunTrace, fairness_audit
from .tvg import (
    PortAssignment,
    ScenarioError,
    TimeVaryingGraph,
    assign_ports,
    generate,
)
from .verify import (
    SymmetryViolation,
    check_correctness,
    check_liveness,
    check_strong_nontriviality,
    extract_H,
)

__version__ = "0.1.0"

__all__ = [
    "CounterAlgo",
    "HistoryHashAlgo",
    "InternalInvariantError",
    "MaxFloodAlgo",
    "NodeState",
    "PortAssignment",
    "ProtocolViolation",
    "RunTrace",
    "ScenarioError",
    "SchedulerPolicy",
    "SymmetryViolation",
    "SyncAlgorithm",
    "TimeVaryingGraph",
    "assign_ports",
    "build_weak_nontriviality",
    "check_correctness",
    "check_liveness",
    "check_strong_nontriviality",
    "extended_model_demo",
    "extract_H",
    "fairness_audit",
    "generate",
    "impossibility_demo",
    "make_algorithm",
    "reference_run",
    "run",
    "serialize_sync_state",
]
