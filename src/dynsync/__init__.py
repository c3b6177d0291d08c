"""Deterministic synchronizer for anonymous dynamic networks.

Runs a synchronous message-passing algorithm on top of a semi-synchronous
network whose edges may appear and vanish at every stage, using a per-port
ack/block handshake to agree edge by edge on each simulated round's graph.
The package bundles the execution engine, trace format, independent
verifiers, and a scenario CLI.
"""

from .algorithms import (
    CounterAlgo,
    HistoryHashAlgo,
    MaxFloodAlgo,
    SyncAlgorithm,
    make_algorithm,
    reference_run,
)
from .engine import (
    InternalInvariantError,
    RunTrace,
    SchedulerPolicy,
    fairness_audit,
    run,
)
from .synchronizer import NodeState, ProtocolViolation, serialize_sync_state
from .tvg import (
    PortAssignment,
    ScenarioError,
    TimeVaryingGraph,
    assign_ports,
    generate,
)
from .verify import (
    SymmetryViolation,
    build_weak_nontriviality,
    check_correctness,
    check_liveness,
    check_strong_nontriviality,
    extended_model_demo,
    extract_H,
    impossibility_demo,
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
