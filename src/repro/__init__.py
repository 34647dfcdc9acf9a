"""repro: reproduction of "Population Protocols Are Fast" (PODC 2018).

A production-quality library for designing, composing, compiling and
simulating finite-state population protocols, centred on the paper's
phase-clock hierarchy and its programming framework.

Quick start::

    from repro import EngineConfig, Population, StateSchema, rule, simulate, single_thread
    from repro.core import V

    schema = StateSchema()
    schema.flag("I")
    epidemic = single_thread("epidemic", schema, [
        rule(V("I"), ~V("I"), None, {"I": True}, name="infect"),
    ])
    pop = Population.from_groups(schema, [({"I": True}, 1), ({"I": False}, 999)])
    config = EngineConfig(engine="batch", accuracy=0.01)
    simulate(epidemic, pop, config, stop=lambda p: p.all_satisfy(V("I")))

Engine construction knobs travel in a typed :class:`EngineConfig`
(engine name plus batching knobs) — the one way to configure an engine;
the same config flows through :func:`make_engine`, :func:`run_replicas`,
the run manifests, the service and the CLI.  The public surface is the
explicit ``__all__`` below; :func:`engine_names` lists the registry
names.
"""

from .core import (
    ANY,
    Formula,
    Population,
    Protocol,
    Rule,
    State,
    StateSchema,
    Thread,
    V,
    coin_rule,
    compose,
    rule,
    single_thread,
)
from .engine import (
    ArrayEngine,
    BGHKPUEngine,
    BatchCountEngine,
    CompiledTable,
    CountEngine,
    Engine,
    EngineConfig,
    EngineStats,
    EnsembleEngine,
    HealthMonitor,
    LazyTable,
    MatchingEngine,
    MeanFieldSystem,
    ReplicaSet,
    SimulationHealthError,
    Trace,
    compile_table,
    map_replicas,
    run_replicas,
    run_single_replica,
    supervise,
)
from .faults import FaultPlan
from .obs import (
    Manifest,
    ManifestWriter,
    load_manifest,
    replay_replica,
    resume_sweep,
    verify_fingerprint,
    write_manifest,
)
from .simulate import engine_names, make_engine, simulate
from .workloads import Workload, build_workload

__version__ = "1.3.0"


__all__ = [
    "ANY",
    "ArrayEngine",
    "BGHKPUEngine",
    "BatchCountEngine",
    "CompiledTable",
    "CountEngine",
    "Engine",
    "EngineConfig",
    "EngineStats",
    "EnsembleEngine",
    "FaultPlan",
    "Formula",
    "HealthMonitor",
    "LazyTable",
    "Manifest",
    "ManifestWriter",
    "MatchingEngine",
    "MeanFieldSystem",
    "Population",
    "Protocol",
    "ReplicaSet",
    "Rule",
    "SimulationHealthError",
    "State",
    "StateSchema",
    "Thread",
    "Trace",
    "V",
    "Workload",
    "build_workload",
    "coin_rule",
    "compile_table",
    "compose",
    "engine_names",
    "load_manifest",
    "make_engine",
    "map_replicas",
    "replay_replica",
    "resume_sweep",
    "rule",
    "run_replicas",
    "run_single_replica",
    "simulate",
    "single_thread",
    "supervise",
    "verify_fingerprint",
    "write_manifest",
]
