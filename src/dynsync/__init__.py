"""Deterministic synchronizer for anonymous dynamic networks.

Runs a synchronous message-passing algorithm on top of a semi-synchronous
network whose edges may appear and vanish at every stage, using a per-port
ack/block handshake to agree edge by edge on each simulated round's graph.

The modules: ``tvg`` (time-varying graphs and port assignments),
``synchronizer`` (the per-node protocol), ``algorithms`` (the wrapped
algorithms and their synchronous reference runner), ``engine`` (the run
loop), ``trace`` (the trace format, its checks and index, the schedulers
and the fairness audit), ``verify`` (the checkers), ``demo`` (the
model-separation demo) and ``cli`` (the scenario command line). ``trace``
and ``verify`` import neither ``engine`` nor ``synchronizer``, so the
checkers stay independent of the code they check.

Importing the package loads none of them. Each public name is listed once,
with its module, in ``_MODULE_OF``: ``dynsync.run`` or ``from dynsync import
run`` imports ``engine`` on first use, so a checker that imports
``dynsync.verify`` loads only what ``verify`` imports.
"""

from importlib import import_module

__version__ = "0.1.0"

# each public name and the module that defines it
_MODULE_OF = {
    "CounterAlgo": "algorithms",
    "HistoryHashAlgo": "algorithms",
    "InternalInvariantError": "engine",
    "MaxFloodAlgo": "algorithms",
    "NodeState": "synchronizer",
    "PortAssignment": "tvg",
    "ProtocolViolation": "synchronizer",
    "RunTrace": "trace",
    "ScenarioError": "tvg",
    "SchedulerPolicy": "trace",
    "SymmetryViolation": "verify",
    "SyncAlgorithm": "algorithms",
    "TimeVaryingGraph": "tvg",
    "assign_ports": "tvg",
    "build_weak_nontriviality": "cli",
    "check_correctness": "verify",
    "check_liveness": "verify",
    "check_strong_nontriviality": "verify",
    "extended_model_demo": "demo",
    "extract_H": "verify",
    "fairness_audit": "trace",
    "generate": "tvg",
    "impossibility_demo": "demo",
    "make_algorithm": "algorithms",
    "reference_run": "algorithms",
    "run": "engine",
    "serialize_sync_state": "synchronizer",
}

__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    """A public name, from its module, imported on first use and then kept
    in the package's namespace (PEP 562)."""
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    return value
