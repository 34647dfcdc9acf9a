"""Exact and approximate simulation engines for population protocols.

The public names load their submodule on first use, so importing one
engine module (say :mod:`repro.engine.config`) loads no other.
"""

from .._lazy import exports_of, lazy_exports

_EXPORTS = exports_of({
    "alias": ("ActivePairSampler",),
    "api": ("Engine", "EngineStats"),
    "batch": ("ArrayEngine",),
    "bghkpu": ("BGHKPUEngine",),
    "compiled": (
        "clear_memo", "compile_table", "protocol_fingerprint",
    ),
    "config": ("EngineConfig",),
    "ensemble": ("EnsembleEngine", "VectorizedStop"),
    "health": ("HealthMonitor", "SimulationHealthError", "resolve_guards"),
    "jump": ("BatchCountEngine",),
    "matching": ("MatchingEngine",),
    "meanfield": ("MeanFieldSystem",),
    "recorder": ("Trace",),
    "replicas": (
        "DEFAULT_ENSEMBLE_CHUNK", "ReplicaRecord", "ReplicaSet",
        "TaskOutcome", "available_cpus", "ensemble_chunk_members",
        "map_replicas", "run_ensemble_chunk", "run_replicas",
        "run_single_replica", "spawn_seeds", "supervise",
    ),
    "sequential": ("CountEngine",),
    "table": ("LazyTable", "TransitionTable", "reachable_codes"),
})

__all__ = sorted(_EXPORTS)

__getattr__ = lazy_exports(__name__, _EXPORTS)
