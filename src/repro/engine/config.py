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

``None`` means "engine default" for every knob (``cache`` uses its real
default ``"auto"`` since ``None`` there meaningfully disables the cache):
only explicitly set fields are projected onto engines, serialized, or
shown.  Unknown knobs (``table=``, ``rows=``, ...) live in ``extra`` and
are passed through to the engine constructor unconditionally, so typos
still fail loudly with a ``TypeError``.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field, fields, replace as _dc_replace
from typing import Any, Dict, Mapping, Optional

#: Construction knobs with a typed field (everything else goes to extra).
_TYPED_OPTS = (
    "batch",
    "accuracy",
    "min_batch_events",
    "compiled",
    "compile_limit",
    "cache",
    "guards",
    "collision_frac",
    "alias_rebuild_tol",
    "dense_top_k",
    "alias_patch_frac",
    "batch_autotune",
)


@dataclass(frozen=True)
class EngineConfig:
    """Engine name + construction knobs, as one typed value.

    ``engine`` is a registry name (``"auto"`` resolves per workload, see
    :func:`repro.simulate.resolve_engine`); ``ensemble_chunk`` is the
    replica runner's rows-per-worker setting (a supervision knob, never
    passed to engine constructors).
    """

    engine: str = "auto"
    batch: Optional[int] = None
    accuracy: Optional[float] = None
    min_batch_events: Optional[float] = None
    compiled: Optional[Any] = None
    compile_limit: Optional[int] = None
    cache: Any = "auto"
    guards: Optional[Any] = None
    collision_frac: Optional[float] = None
    alias_rebuild_tol: Optional[float] = None
    dense_top_k: Optional[int] = None
    alias_patch_frac: Optional[float] = None
    batch_autotune: Optional[bool] = None
    ensemble_chunk: Optional[int] = None
    extra: Mapping[str, Any] = field(default_factory=dict)

    # -- functional update -------------------------------------------------
    def replace(self, **changes: Any) -> "EngineConfig":
        """A copy with the given fields replaced (configs are frozen)."""
        return _dc_replace(self, **changes)

    def _set_opts(self) -> Dict[str, Any]:
        """The explicitly-set typed knobs (cache only when not 'auto')."""
        out: Dict[str, Any] = {}
        for name in _TYPED_OPTS:
            value = getattr(self, name)
            if name == "cache":
                if not (isinstance(value, str) and value == "auto"):
                    out[name] = value
            elif value is not None:
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
        params = inspect.signature(engine_cls.__init__).parameters
        var_kw = any(
            p.kind is inspect.Parameter.VAR_KEYWORD for p in params.values()
        )
        out: Dict[str, Any] = {}
        for name, value in self._set_opts().items():
            if name in params or var_kw:
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
        headers and service journals replay the same run without it.
        """
        payload = dict(data or {})
        payload.pop("backend", None)
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
