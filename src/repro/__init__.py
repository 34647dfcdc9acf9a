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
    config = EngineConfig(engine="batch", guards=True)
    simulate(epidemic, pop, config, stop=lambda p: p.all_satisfy(V("I")))

Engine construction settings travel in a typed :class:`EngineConfig`
(engine name, forced batch size, health guards) — the one
way to configure an engine;
the same config flows through :func:`make_engine`, :func:`run_replicas`,
the run manifests, the service and the CLI.  The public surface is the
explicit ``__all__`` below; :func:`engine_names` lists the registry
names.
"""

import sys
from types import ModuleType

from ._lazy import exports_of, lazy_exports

#: Public name -> the submodule defining it.  Each loads on first use, so
#: ``import repro`` loads no numpy, and the service process, which only
#: routes requests, boots without it.
_EXPORTS = exports_of({
    "core": (
        "ANY", "Formula", "Population", "Protocol", "Rule", "State",
        "StateSchema", "Thread", "V", "coin_rule", "compose", "rule",
        "single_thread",
    ),
    "engine": (
        "ArrayEngine", "BGHKPUEngine", "BatchCountEngine", "CountEngine",
        "Engine", "EngineConfig", "EngineStats", "EnsembleEngine",
        "HealthMonitor", "LazyTable", "MatchingEngine", "MeanFieldSystem",
        "ReplicaSet", "SimulationHealthError", "Trace", "TransitionTable",
        "compile_table", "map_replicas", "run_replicas",
        "run_single_replica", "supervise",
    ),
    "faults": ("FaultPlan",),
    "obs": (
        "Manifest", "ManifestWriter", "load_manifest", "replay_replica",
        "resume_sweep", "verify_fingerprint", "write_manifest",
    ),
    "simulate": ("engine_names", "make_engine", "simulate"),
    "workloads": ("Workload", "build_workload"),
})

__version__ = "1.3.0"


__all__ = sorted(_EXPORTS)

__getattr__ = lazy_exports(__name__, _EXPORTS)


class _Package(ModuleType):
    """Keeps ``repro.simulate`` the function once its submodule loads."""

    def __setattr__(self, name: str, value) -> None:
        # the import system binds each loaded submodule on its package
        if not (isinstance(value, ModuleType) and name in _EXPORTS):
            super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
