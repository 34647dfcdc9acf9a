"""Exact and approximate simulation engines for population protocols."""

from .alias import ActivePairSampler, AliasTable, alias_pick
from .api import Engine, EngineStats
from .batch import ArrayEngine, apply_pairs
from .bghkpu import BGHKPUEngine
from .compiled import (
    CompiledTable,
    clear_memo,
    compile_table,
    corrupt_cache_events,
    protocol_fingerprint,
)
from .config import EngineConfig
from .ensemble import EnsembleEngine, VectorizedStop
from .health import HealthMonitor, SimulationHealthError, resolve_guards
from .jump import BatchCountEngine
from .matching import MatchingEngine
from .meanfield import MeanFieldSystem
from .recorder import Trace
from .replicas import (
    DEFAULT_ENSEMBLE_CHUNK,
    ReplicaRecord,
    ReplicaSet,
    TaskOutcome,
    available_cpus,
    ensemble_chunk_members,
    map_replicas,
    run_ensemble_chunk,
    run_replicas,
    run_single_replica,
    spawn_seeds,
    supervise,
)
from .sequential import CountEngine
from .table import LazyTable, PairOutcomes, reachable_codes

__all__ = [
    "ActivePairSampler",
    "AliasTable",
    "ArrayEngine",
    "BGHKPUEngine",
    "BatchCountEngine",
    "CompiledTable",
    "CountEngine",
    "DEFAULT_ENSEMBLE_CHUNK",
    "Engine",
    "EngineConfig",
    "EngineStats",
    "EnsembleEngine",
    "HealthMonitor",
    "LazyTable",
    "MatchingEngine",
    "MeanFieldSystem",
    "PairOutcomes",
    "ReplicaRecord",
    "ReplicaSet",
    "SimulationHealthError",
    "TaskOutcome",
    "Trace",
    "VectorizedStop",
    "alias_pick",
    "apply_pairs",
    "available_cpus",
    "clear_memo",
    "compile_table",
    "corrupt_cache_events",
    "ensemble_chunk_members",
    "map_replicas",
    "protocol_fingerprint",
    "reachable_codes",
    "resolve_guards",
    "run_ensemble_chunk",
    "run_replicas",
    "run_single_replica",
    "spawn_seeds",
    "supervise",
]
