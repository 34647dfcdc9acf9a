"""Typed engine-construction configuration.

:class:`EngineConfig` is the one way to configure an engine: a frozen,
picklable object carrying the engine name and the construction knobs
end-to-end through :func:`repro.make_engine`, the replica runner, the run
manifests, the service and every CLI subcommand.

- :meth:`engine_kwargs` projects the set fields onto a concrete engine
  class, passing only the knobs that engine accepts;
- :meth:`as_dict` / :meth:`from_dict` round-trip through JSON for the
  manifest header and the service journal, so
  :func:`repro.obs.replay_replica` and :func:`repro.obs.resume_sweep`
  restore the exact options.  :meth:`from_dict` is also the reader of
  configs stored by older releases.

``None`` means "engine default" for every knob: only explicitly set
fields are projected onto engines, serialized, or shown.  Unknown knobs (``table=``, ``rows=``, ...) live in ``extra`` and
are passed through to the engine constructor unconditionally, so typos
still fail loudly with a ``TypeError``.

Batching fidelity is not configurable: the batch engines' drift, collision
and epoch budgets are engine constants
(:data:`~repro.engine.jump.ACCURACY`,
:attr:`~repro.engine.bghkpu.BGHKPUEngine.COLLISION_FRAC`, ...).
"""

from __future__ import annotations

import functools
import inspect
from dataclasses import dataclass, field, fields, replace as _dc_replace
from typing import Any, Dict, FrozenSet, Mapping, Optional, Tuple

#: Valid values of the shared ``--engine`` flag: the registry names of
#: :data:`repro.simulate.ENGINES` plus ``auto``.
ENGINE_CHOICES = (
    "auto", "batch", "bghkpu", "count", "array", "matching", "ensemble",
)

#: Construction knobs with a typed field (everything else goes to extra).
_TYPED_OPTS = ("batch", "guards")


@functools.lru_cache(maxsize=None)
def _accepted_params(engine_cls: type) -> Optional[FrozenSet[str]]:
    """``engine_cls``'s constructor parameter names, once per class
    (``None`` when it takes ``**kwargs``, i.e. accepts any knob)."""
    params = inspect.signature(engine_cls.__init__).parameters
    if any(p.kind is inspect.Parameter.VAR_KEYWORD for p in params.values()):
        return None
    return frozenset(params)


def _retired_knobs() -> Dict[str, Tuple[Any, Tuple[str, ...]]]:
    """Retired fidelity knob -> (the constant it became, engines that read it).

    ``auto`` counts as a reader of the shared batching knobs because it
    may resolve to ``batch``.  ``alias_patch_frac`` maps to ``0.0``: the
    sum patch it bounded is gone, so only runs recorded with patching off
    replay.
    """
    from .bghkpu import BGHKPUEngine
    from .jump import ACCURACY, MIN_BATCH_EVENTS

    batching = ("auto", "batch", "bghkpu", "ensemble")
    return {
        "accuracy": (ACCURACY, batching),
        "min_batch_events": (MIN_BATCH_EVENTS, batching),
        "collision_frac": (BGHKPUEngine.COLLISION_FRAC, ("bghkpu",)),
        "alias_rebuild_tol": (BGHKPUEngine.ALIAS_REBUILD_TOL, ("bghkpu",)),
        "dense_top_k": (BGHKPUEngine.DENSE_TOP_K, ("bghkpu",)),
        "alias_patch_frac": (0.0, ("bghkpu",)),
        "batch_autotune": (True, ("bghkpu",)),
    }


@dataclass(frozen=True)
class EngineConfig:
    """Engine name + construction knobs, as one typed value.

    ``engine`` is a registry name (``"auto"`` resolves per workload, see
    :func:`repro.simulate.resolve_engine`); ``batch`` forces a batch size
    on the batching engines (``1`` = exact stepping); ``guards`` arms the
    health guards;
    ``ensemble_chunk`` is the replica runner's rows-per-worker setting (a
    supervision knob, never passed to engine constructors); ``extra``
    carries any other constructor argument.

    The transition table is not a knob.  There is one table type with two
    ways to fill it: the count-batch engines compile the reachable closure
    into a closed table whenever it fits
    :data:`~repro.engine.compiled.COMPILE_STATE_LIMIT` states (memoized
    per process) and otherwise run on an open
    :data:`~repro.engine.table.LazyTable` that grows with the occupied
    support; the agent-array and exact engines start from an open table.
    A pre-built table of either kind travels as ``extra["table"]``.
    """

    engine: str = "auto"
    batch: Optional[int] = None
    guards: Optional[Any] = None
    ensemble_chunk: Optional[int] = None
    extra: Mapping[str, Any] = field(default_factory=dict)

    # -- functional update -------------------------------------------------
    def replace(self, **changes: Any) -> "EngineConfig":
        """A copy with the given fields replaced (configs are frozen)."""
        return _dc_replace(self, **changes)

    def _set_opts(self) -> Dict[str, Any]:
        """The explicitly-set typed knobs."""
        out: Dict[str, Any] = {}
        for name in _TYPED_OPTS:
            value = getattr(self, name)
            if value is not None:
                out[name] = value
        return out

    # -- projection onto engines -------------------------------------------
    def engine_kwargs(self, engine_cls: type) -> Dict[str, Any]:
        """Constructor kwargs of this config for ``engine_cls``.

        Only knobs the class accepts are emitted (a typed knob that does
        not apply to the chosen engine is dropped — the config describes
        intent, engines take what applies); ``extra`` passes through
        unconditionally.
        """
        accepted = _accepted_params(engine_cls)
        out: Dict[str, Any] = {}
        for name, value in self._set_opts().items():
            if accepted is None or name in accepted:
                out[name] = value
        out.update(self.extra)
        return out

    # -- serialization ------------------------------------------------------
    def as_dict(self) -> Dict[str, Any]:
        """JSON-ready dict of the set fields (manifest header form)."""
        out: Dict[str, Any] = {"engine": self.engine}
        out.update(self._set_opts())
        if self.ensemble_chunk is not None:
            out["ensemble_chunk"] = self.ensemble_chunk
        if self.extra:
            out["extra"] = dict(self.extra)
        return out

    @classmethod
    def from_dict(cls, data: Optional[Mapping[str, Any]]) -> "EngineConfig":
        """Inverse of :meth:`as_dict`; unknown keys survive into ``extra``.

        A ``backend`` key (the retired array-backend setting of releases
        up to 1.3.0) is dropped whatever its value: every random draw was
        made on the host generator under every backend, so old manifest
        headers and service journals replay the same run without it.  A
        ``cache`` key (the retired closed-table cache setting) is dropped
        the same way: it chose where a compiled table was stored, never
        a sample path.

        The retired ``compiled`` / ``compile_limit`` knobs of the same
        releases are dropped too: every engine now compiles the closure
        whenever it fits the fixed limit, which is what ``compiled: true``
        or a limit the closure fits under selected.  ``compiled: false``
        selected the retired legacy dense-support batch path, whose sample
        paths no engine reproduces, so it raises ``ValueError``.

        The seven retired fidelity knobs (``accuracy``,
        ``min_batch_events``, ``collision_frac``, ``alias_rebuild_tol``,
        ``dense_top_k``, ``alias_patch_frac``, ``batch_autotune``) are
        fixed now: each is an engine constant, except ``alias_patch_frac``,
        which is ``0.0`` (no sum patching, the only refresh left).  A
        stored knob is dropped when its value equals that fixed value, or
        when the recorded engine never read it (``collision_frac`` on a
        ``batch`` run); any other value selected sample paths no engine
        reproduces, so it raises ``ValueError``.
        """
        payload = dict(data or {})
        payload.pop("backend", None)
        payload.pop("cache", None)
        if payload.pop("compiled", None) is False:
            raise ValueError(
                "compiled=false selected the legacy dense-support batch "
                "path, which was removed; its runs cannot be replayed"
            )
        payload.pop("compile_limit", None)
        engine = payload.get("engine", "auto")
        for key, (constant, readers) in _retired_knobs().items():
            value = payload.pop(key, None)
            if value is None or value == constant or engine not in readers:
                continue
            raise ValueError(
                "{}={!r} is a retired engine setting, now fixed at {!r}; "
                "runs recorded with it cannot be replayed".format(
                    key, value, constant
                )
            )
        extra = dict(payload.pop("extra", None) or {})
        known = {f.name for f in fields(cls)} - {"extra"}
        kwargs = {k: payload.pop(k) for k in list(payload) if k in known}
        extra.update(payload)
        return cls(extra=extra, **kwargs)

    @classmethod
    def coerce(
        cls,
        engine: Any = "auto",
        config: Optional["EngineConfig"] = None,
    ) -> "EngineConfig":
        """Normalize an (engine, config) pair to one config.

        Accepts an :class:`EngineConfig` in the ``engine`` slot (the
        canonical call), or a registry name string / ``None`` there with
        an optional ``config=`` whose ``"auto"`` engine the name fills in.
        """
        if isinstance(engine, cls):
            if config is not None:
                raise ValueError(
                    "pass either an EngineConfig or config=, not both"
                )
            return engine
        if config is None:
            return cls(engine=engine or "auto")
        if not isinstance(config, cls):
            raise TypeError(
                "config must be an EngineConfig, got {!r}".format(config)
            )
        if engine in (None, "auto", config.engine):
            return config
        if config.engine == "auto":
            return config.replace(engine=engine)
        raise ValueError(
            "conflicting engine={!r} vs config.engine={!r}".format(
                engine, config.engine
            )
        )
