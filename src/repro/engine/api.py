"""The unified :class:`Engine` interface shared by all simulation engines.

Every engine simulates a population protocol under some scheduler, but the
seed codebase grew four engines with four slightly different surfaces
(``MatchingEngine`` lacked ``run_until``, ``ArrayEngine`` took a required
positional ``rounds``, constructors diverged).  This module pins down the
contract once so that benchmarks, the :func:`repro.simulate` facade and the
replica runner can treat engines interchangeably:

Constructor
    ``Engine(protocol, population, *, rng=None, table=None, **options)``.
    Engine-specific tuning knobs (``batch``, ``batch_pairs``, ...) are
    keyword-only options after the two shared ones.

``run()``
    ``run(rounds=None, interactions=None, stop=None, observer=None,
    observe_every=1.0, **kwargs)``.  At least one of a budget (``rounds`` /
    ``interactions``) or a ``stop`` predicate must be given.  ``observer``
    is called as ``observer(rounds, population)`` on a grid of parallel
    times spaced ``observe_every`` apart.  Returns ``self`` for chaining.

Shared surface
    ``n`` (population size), ``rounds`` (elapsed parallel time),
    ``interactions`` (raw scheduler interactions so far) and ``population``
    (the current configuration as a :class:`~repro.core.population.Population`).
    Count-based engines mutate the population they were given in place;
    agent-array engines snapshot it on access — either way ``population``
    is the live configuration.

``run_until()``
    ``run_until(stop, max_rounds, **kwargs) -> bool`` is provided by the
    base class on top of ``run``.

Stop verdicts
    :meth:`Engine.run` wraps any ``stop`` predicate in a recorder, so
    after the call :attr:`Engine.stop_verdict` holds the engine's *own*
    last evaluation (``None`` if the run never evaluated it).
    ``run_until``, the replica runner and the benches reuse that verdict
    instead of calling ``stop`` again on the final population — a
    stateful/hysteresis predicate (e.g. a clock-phase stop) can flip on a
    second call and misreport convergence, so the predicate is never
    re-evaluated once the engine has spoken.

Time normalization caveat: for the sequential-scheduler engines one round
is ``n`` interactions; for :class:`~repro.engine.matching.MatchingEngine`
one round is one matching step (``n // 2`` simultaneous interactions), so
cross-engine round counts differ by a factor of about two (see
``tests/test_scheduler_equivalence.py``).
"""

from __future__ import annotations

import abc
import time
from typing import Callable, Dict, Optional

import numpy as np

from ..core.population import Population
from ..core.protocol import Protocol

Observer = Callable[[float, Population], None]
StopCondition = Callable[[Population], bool]


class _StopRecorder:
    """Wrap a stop predicate and remember the engine's last verdict.

    :meth:`Engine.run` passes the wrapper (not the raw predicate) down to
    the engine loops, so every internal evaluation is counted and the
    final one becomes :attr:`Engine.stop_verdict` — the single source of
    truth for "did the engine stop because ``stop`` held".
    """

    __slots__ = ("stop", "verdict", "calls")

    def __init__(self, stop: StopCondition):
        self.stop = stop
        self.verdict: Optional[bool] = None
        self.calls = 0

    def __call__(self, population: Population) -> bool:
        self.calls += 1
        self.verdict = bool(self.stop(population))
        return self.verdict


class EngineStats:
    """Uniform perf counters reported by every engine.

    :meth:`Engine.run` refreshes the counters after each call, so
    ``eng.stats`` always reflects the engine's cumulative work: wall time,
    scheduler progress, batching behaviour (for engines that batch), the
    transition-table representation and its compile/cache provenance, and
    the active-pair sizes seen by the compiled batch kernels.  Fields that
    do not apply to an engine stay ``None`` and are omitted from
    :meth:`as_dict` / :meth:`format`.
    """

    _ORDER = (
        "engine",
        "runs",
        "run_seconds",
        "interactions",
        "rounds",
        "events",
        "stop_evals",
        "batches",
        "fallbacks",
        "kernel_seconds",
        "alias_rebuilds",
        "alias_build_seconds",
        "alias_refresh_seconds",
        "alias_patches",
        "cell_draw_seconds",
        "outcome_split_seconds",
        "collision_events",
        "repair_events",
        "active_states",
        "active_pairs_max",
        "active_pairs_mean",
        "ensemble_rows",
        "table_kind",
        "table_states",
        "table_pairs",
        "table_compile_seconds",
        "table_cache",
        "cache_corrupt",
    )
    __slots__ = _ORDER

    def __init__(self, engine_name: str):
        self.engine = engine_name
        self.runs = 0
        self.run_seconds = 0.0
        for name in self._ORDER:
            if name not in ("engine", "runs", "run_seconds"):
                setattr(self, name, None)

    # -- recording ---------------------------------------------------------
    def record_run(self, engine: "Engine", wall_seconds: float) -> None:
        """Refresh the counters from an engine after one ``run()`` call."""
        self.runs += 1
        self.run_seconds += wall_seconds
        self.interactions = int(engine.interactions)
        self.rounds = float(engine.rounds)
        for attr in (
            "events",
            "batches",
            "fallbacks",
            "kernel_seconds",
            "alias_rebuilds",
            "alias_build_seconds",
            "alias_refresh_seconds",
            "alias_patches",
            "cell_draw_seconds",
            "outcome_split_seconds",
            "collision_events",
            "repair_events",
        ):
            value = getattr(engine, attr, None)
            if value is not None:
                setattr(self, attr, value)
        sizes = getattr(engine, "active_pair_stats", None)
        if sizes:
            count, total, peak, states = sizes
            if count:
                self.active_pairs_mean = total / count
                self.active_pairs_max = peak
                self.active_states = states
        self.observe_table(getattr(engine, "table", None))
        compiled = getattr(engine, "_ct", None)
        if compiled is not None:
            self.observe_table(compiled)

    def observe_table(self, table: object) -> None:
        """Record the transition-table representation behind an engine."""
        if table is None:
            return
        if hasattr(table, "cache_status"):  # CompiledTable
            self.table_kind = "compiled"
            self.table_states = int(table.num_states)
            self.table_pairs = int(table.num_pairs)
            self.table_compile_seconds = float(table.compile_seconds)
            self.table_cache = table.cache_status
            corrupt = int(getattr(table, "cache_corrupt", 0) or 0)
            if corrupt:  # stays None (omitted) on the common clean path
                self.cache_corrupt = corrupt
        elif hasattr(table, "ensure"):  # DenseTable
            self.table_kind = "dense"
            self.table_states = int(table.size)
            self.table_pairs = int(getattr(table, "misses", 0))
        elif hasattr(table, "cached_pairs"):  # LazyTable
            self.table_kind = "lazy"
            self.table_pairs = int(table.cached_pairs)

    # -- reporting ---------------------------------------------------------
    def as_dict(self) -> Dict[str, object]:
        """The populated counters, in stable display order."""
        out: Dict[str, object] = {}
        for name in self._ORDER:
            value = getattr(self, name)
            if value is not None:
                out[name] = value
        return out

    def format(self) -> str:
        """Human-readable one-counter-per-line rendering."""
        lines = ["engine stats ({}):".format(self.engine)]
        for name, value in self.as_dict().items():
            if name == "engine":
                continue
            if isinstance(value, float):
                value = "{:.6g}".format(value)
            lines.append("  {:<22} {}".format(name, value))
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "EngineStats({})".format(
            ", ".join("{}={!r}".format(k, v) for k, v in self.as_dict().items())
        )


class Engine(abc.ABC):
    """Abstract base class of all simulation engines.

    Subclasses must call :meth:`_init_common` (or perform the equivalent
    validation) in their constructor and implement :meth:`run`; the shared
    properties below cover engines that keep an ``interactions`` counter
    and either mutate their population in place or override
    :attr:`population`.
    """

    #: Registry name of the engine (filled in by each subclass).
    name: str = "engine"

    protocol: Protocol
    rng: np.random.Generator
    interactions: int

    # -- shared construction helpers ---------------------------------------
    def _init_common(
        self,
        protocol: Protocol,
        population: Population,
        rng: Optional[np.random.Generator],
        guards: object = None,
    ) -> None:
        """Validate the (protocol, population) pair and set shared fields."""
        from .health import resolve_guards

        if population.schema is not protocol.schema:
            raise ValueError("population and protocol use different schemas")
        if population.n < 2:
            raise ValueError("population protocols need at least two agents")
        self.protocol = protocol
        self.rng = rng if rng is not None else np.random.default_rng()
        self.interactions = 0
        self.stats = EngineStats(self.name)
        #: Optional :class:`~repro.engine.health.HealthMonitor` invoked
        #: from the stepping loops (``guards=`` constructor option).
        self.guards = resolve_guards(guards)
        #: The engine's own last evaluation of the ``stop`` predicate during
        #: the most recent :meth:`run` call — ``True``/``False`` as the
        #: engine saw it, ``None`` if that run had no ``stop`` or never
        #: evaluated it (e.g. a silent configuration with zero events).
        self.stop_verdict: Optional[bool] = None

    # -- shared surface ----------------------------------------------------
    @property
    def n(self) -> int:
        """Number of agents."""
        return self.population.n

    @property
    def rounds(self) -> float:
        """Elapsed parallel time (interactions / n for sequential engines)."""
        return self.interactions / self.n

    @property
    def population(self) -> Population:
        """The current configuration.

        The default implementation returns the population stored at
        construction (count-based engines mutate it in place); agent-array
        engines override this with a snapshot rebuilt from their array.
        """
        return self._population

    def run(
        self,
        rounds: Optional[float] = None,
        interactions: Optional[int] = None,
        stop: Optional[StopCondition] = None,
        observer: Optional[Observer] = None,
        observe_every: float = 1.0,
        **kwargs,
    ) -> "Engine":
        """Advance the simulation by a budget of rounds/interactions.

        Times the call and refreshes :attr:`stats` (the uniform
        :class:`EngineStats` counters) before returning; the actual
        stepping is delegated to each engine's :meth:`_run`.  ``stop`` is
        wrapped in a recorder so :attr:`stop_verdict` afterwards holds the
        engine's own final evaluation — callers must reuse it instead of
        re-evaluating a (possibly stateful) predicate.
        """
        recorder = _StopRecorder(stop) if stop is not None else None
        self.stop_verdict = None
        if self.guards is not None:
            # attach() is idempotent per engine: the first run records the
            # expected population size and vets any compiled table.
            self.guards.attach(self)
        start = time.perf_counter()
        try:
            return self._run(
                rounds=rounds,
                interactions=interactions,
                stop=recorder,
                observer=observer,
                observe_every=observe_every,
                **kwargs,
            )
        finally:
            if recorder is not None:
                self.stop_verdict = recorder.verdict
                self.stats.stop_evals = (
                    self.stats.stop_evals or 0
                ) + recorder.calls
            self.stats.record_run(self, time.perf_counter() - start)

    @abc.abstractmethod
    def _run(
        self,
        rounds: Optional[float] = None,
        interactions: Optional[int] = None,
        stop: Optional[StopCondition] = None,
        observer: Optional[Observer] = None,
        observe_every: float = 1.0,
        **kwargs,
    ) -> "Engine":
        """Engine-specific stepping behind :meth:`run` (same contract)."""

    def run_until(
        self,
        stop: StopCondition,
        max_rounds: float,
        **kwargs,
    ) -> bool:
        """Run until ``stop`` holds; returns whether it did within budget.

        The returned verdict is the engine's *own* last evaluation of
        ``stop`` (see :attr:`stop_verdict`); the predicate is only called
        here if the run never evaluated it at all.
        """
        self.run(rounds=max_rounds, stop=stop, **kwargs)
        if self.stop_verdict is not None:
            return self.stop_verdict
        return bool(stop(self.population))


def require_budget(
    rounds: Optional[float],
    interactions: Optional[int],
    stop: Optional[StopCondition],
    *extra_limits: Optional[object],
) -> None:
    """Raise unless at least one termination criterion was given."""
    if rounds is None and interactions is None and stop is None and not any(
        limit is not None for limit in extra_limits
    ):
        raise ValueError(
            "give a rounds/interactions budget or a stop condition"
        )
