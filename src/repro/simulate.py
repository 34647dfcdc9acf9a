"""One-call simulation facade and the engine registry.

``repro.simulate(protocol, population)`` picks the best engine for the
workload and runs it — the CLI's shared ``--engine`` flag, the replica
runner and the benches all resolve engine names through this module
instead of hard-coding engine classes.

Engine names
------------
``count``
    :class:`~repro.engine.sequential.CountEngine` — exact, count-based,
    null-skipping.  Always applicable (arbitrary packed state spaces).
``batch``
    :class:`~repro.engine.jump.BatchCountEngine` — count-based multinomial
    jumps over the active pair set (compiled transition kernels with a
    lazy-table fallback), exact per-event fallback.  Always applicable;
    the default for large populations.
``array``
    :class:`~repro.engine.batch.ArrayEngine` — exact agent array with
    collision-free batching; needs the packed space to fit int64.
``matching``
    :class:`~repro.engine.matching.MatchingEngine` — synchronous
    random-matching scheduler (a *different* scheduler: one step = one
    round = n/2 interactions); needs the packed space to fit int64.
``ensemble``
    :class:`~repro.engine.ensemble.EnsembleEngine` — R replica rows
    advanced per batch in one stacked ``(R, q)`` kernel over a shared
    compiled table; the replica runner's intra-worker strategy for
    ``--engine ensemble`` sweeps.  Requires a compilable reachable
    closure; never chosen by ``auto``.
``bghkpu``
    :class:`~repro.engine.bghkpu.BGHKPUEngine` — alias-table batches
    with collision-aware sizing (Berenbrink et al., arXiv:2005.03584)
    over the compiled count representation; the n ≥ 10⁸ scale engine.
    Falls back to ``batch`` for tiny active sets or uncompilable
    closures; never chosen by ``auto`` (opt in per run).
``auto``
    Count-based jump engine when the configuration lives on a small
    occupied support (the regime of every protocol in this repo), the
    vectorised matching engine for dense many-state dynamics that still
    fit an int64 agent array, and the exact count engine as the universal
    fallback.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Type, Union

import numpy as np

from .core.population import Population
from .core.protocol import Protocol
from .engine.api import Engine
from .engine.batch import ArrayEngine
from .engine.bghkpu import BGHKPUEngine
from .engine.config import EngineConfig
from .engine.dense import supports_dense
from .engine.ensemble import EnsembleEngine
from .engine.jump import BatchCountEngine
from .engine.matching import MatchingEngine
from .engine.sequential import CountEngine

#: Registry of concrete engines by CLI/registry name.
ENGINES: Dict[str, Type[Engine]] = {
    "count": CountEngine,
    "batch": BatchCountEngine,
    "bghkpu": BGHKPUEngine,
    "array": ArrayEngine,
    "matching": MatchingEngine,
    "ensemble": EnsembleEngine,
}

#: Valid values of the shared ``--engine`` flag.
ENGINE_CHOICES = (
    "auto", "batch", "bghkpu", "count", "array", "matching", "ensemble",
)


def engine_names() -> tuple:
    """Valid engine names for the registry/CLI (including ``auto``)."""
    return ENGINE_CHOICES

#: Occupied-support size up to which count-based engines are preferred.
SUPPORT_LIMIT = 512

#: The engine most recently constructed by :func:`make_engine` (hence by
#: :func:`simulate`, the interpreter runtime and every CLI subcommand).
#: The CLI's ``--stats`` flag reads ``LAST_ENGINE.stats`` after a command
#: finishes; library users should keep their own engine reference instead.
LAST_ENGINE: Optional[Engine] = None


def default_engine_name(
    protocol: Protocol, population: Optional[Population] = None
) -> str:
    """Pick the engine ``auto`` resolves to for this workload."""
    if supports_dense(protocol):
        return "batch"
    if population is not None and population.support_size <= SUPPORT_LIMIT:
        # huge packed space but tiny occupied support: count-based engines
        # (the compiled-protocol regime) — jump batching still applies.
        return "batch"
    if protocol.schema.num_states < 2 ** 62:
        return "matching"
    return "count"


def resolve_engine(
    engine: str,
    protocol: Optional[Protocol] = None,
    population: Optional[Population] = None,
) -> Type[Engine]:
    """Map an engine name (including ``auto``) to an engine class."""
    if engine == "auto":
        if protocol is None:
            raise ValueError("engine='auto' needs the protocol to choose from")
        engine = default_engine_name(protocol, population)
    try:
        return ENGINES[engine]
    except KeyError:
        raise ValueError(
            "unknown engine {!r}; choose from {}".format(
                engine, ", ".join(ENGINE_CHOICES)
            )
        ) from None


def make_engine(
    protocol: Protocol,
    population: Population,
    engine: Union[str, EngineConfig] = "auto",
    rng: Optional[np.random.Generator] = None,
    seed: Optional[int] = None,
    config: Optional[EngineConfig] = None,
) -> Engine:
    """Construct (but do not run) an engine from an :class:`EngineConfig`.

    The canonical call passes a config — either as ``config=`` or
    directly in the ``engine`` slot::

        make_engine(protocol, pop, EngineConfig(engine="batch", accuracy=0.01))

    A plain registry name in ``engine`` stays first-class.
    """
    global LAST_ENGINE
    cfg = EngineConfig.coerce(engine, config=config)
    cls = resolve_engine(cfg.engine, protocol, population)
    if rng is None and seed is not None:
        rng = np.random.default_rng(seed)
    eng = cls(protocol, population, rng=rng, **cfg.engine_kwargs(cls))
    LAST_ENGINE = eng
    return eng


def simulate(
    protocol: Protocol,
    population: Population,
    engine: Union[str, EngineConfig] = "auto",
    rng: Optional[np.random.Generator] = None,
    seed: Optional[int] = None,
    config: Optional[EngineConfig] = None,
    **run_kwargs: Any,
) -> Engine:
    """Simulate ``protocol`` on ``population`` and return the engine.

    ``run_kwargs`` are passed to :meth:`Engine.run` (``rounds=...``,
    ``stop=...``, ``observer=...``); engine construction knobs travel in
    an :class:`EngineConfig` (``config=``, or an ``EngineConfig`` in the
    ``engine`` slot).  The returned engine exposes the final
    configuration (``.population``), elapsed parallel time (``.rounds``)
    and raw ``.interactions``.
    """
    eng = make_engine(
        protocol, population, engine, rng=rng, seed=seed, config=config,
    )
    eng.run(**run_kwargs)
    return eng
