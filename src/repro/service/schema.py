"""Request validation for the simulation service.

Submissions are plain JSON; this module turns them into a typed
:class:`SubmitRequest` or a :class:`ServiceError` carrying the HTTP
status the transport should answer with.  Engine configuration is not
re-specified here — the payload's ``config`` object goes through
:meth:`repro.EngineConfig.from_dict`, the same round-trip the manifest
header uses, so anything the library accepts the service accepts (and
anything else fails with a 400 naming the offending keys instead of
surfacing later as a worker ``TypeError``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional

from ..engine.config import EngineConfig
from ..workloads import WORKLOADS, Workload, build_workload

#: Hard ceiling on replicas per submission; sweeps beyond this belong in
#: several runs (the queue schedules them fairly anyway).
MAX_REPLICAS = 4096

#: run_kwargs the service forwards to ``Engine.run``.  Everything else is
#: rejected at submit time: observers are installed by the service itself
#: (they are not JSON), and unknown knobs should fail the request, not
#: the worker.
RUN_KEYS = ("rounds", "interactions", "max_events", "observe_every")


class ServiceError(Exception):
    """A request the service refuses, with the HTTP status to answer."""

    def __init__(self, status: int, message: str, **extra: Any):
        super().__init__(message)
        self.status = status
        self.message = message
        self.extra = extra

    def payload(self) -> Dict[str, Any]:
        out = {"error": self.message}
        out.update(self.extra)
        return out


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ServiceError(400, message)


#: The per-job quota knobs a submission may set (see docs/SERVICE.md
#: "Quotas").  Integer byte counts for memory/manifest, float seconds for
#: cpu/wall.
QUOTA_KEYS = ("cpu_seconds", "memory_bytes", "wall_seconds", "manifest_bytes")
_QUOTA_INT_KEYS = frozenset({"memory_bytes", "manifest_bytes"})


@dataclass(frozen=True)
class QuotaSpec:
    """Per-job isolation limits, enforced by the sandbox supervisor.

    ``None`` means unlimited.  ``cpu_seconds`` becomes ``RLIMIT_CPU`` and
    ``memory_bytes`` ``RLIMIT_AS`` inside the job's sandbox subprocess;
    ``wall_seconds`` is a supervisor-side kill deadline; and
    ``manifest_bytes`` caps the on-disk run manifest, checked after every
    checkpoint group.  A breached quota terminates the job as
    ``status="killed"`` naming the violated limit — never a 500 — and the
    partial manifest stays resumable.
    """

    cpu_seconds: Optional[float] = None
    memory_bytes: Optional[int] = None
    wall_seconds: Optional[float] = None
    manifest_bytes: Optional[int] = None

    @classmethod
    def from_payload(cls, data: Any) -> "QuotaSpec":
        """Validate a submission's ``quota`` object (400 on bad keys)."""
        if data is None:
            return cls()
        _require(isinstance(data, Mapping), "quota must be a JSON object")
        data = dict(data)
        unknown = sorted(set(data) - set(QUOTA_KEYS))
        _require(
            not unknown,
            "unknown quota keys: {} (allowed: {})".format(
                ", ".join(unknown), ", ".join(QUOTA_KEYS)
            ),
        )
        values: Dict[str, Any] = {}
        for key, value in data.items():
            if value is None:
                continue
            if key in _QUOTA_INT_KEYS:
                _require(
                    isinstance(value, int) and not isinstance(value, bool)
                    and value > 0,
                    "quota.{} must be a positive integer".format(key),
                )
                values[key] = value
            else:
                _require(
                    isinstance(value, (int, float))
                    and not isinstance(value, bool) and value > 0,
                    "quota.{} must be a positive number".format(key),
                )
                values[key] = float(value)
        return cls(**values)

    def as_dict(self) -> Dict[str, Any]:
        return {
            key: getattr(self, key)
            for key in QUOTA_KEYS
            if getattr(self, key) is not None
        }

    def any(self) -> bool:
        return any(getattr(self, key) is not None for key in QUOTA_KEYS)

    def limited_by(self, ceiling: "QuotaSpec", clamp: bool = False) -> "QuotaSpec":
        """The effective quota under server-side ceilings.

        Unset request fields inherit the ceiling; a request above the
        ceiling is a 400 naming both values — or is silently clamped to
        the ceiling when ``clamp=True`` (recovery re-admits stored runs
        under the *current* server limits).
        """
        effective: Dict[str, Any] = {}
        for key in QUOTA_KEYS:
            asked = getattr(self, key)
            cap = getattr(ceiling, key)
            if asked is None:
                value = cap
            elif cap is not None and asked > cap:
                if not clamp:
                    raise ServiceError(
                        400,
                        "quota.{} of {:g} exceeds this server's ceiling of "
                        "{:g}".format(key, asked, cap),
                    )
                value = cap
            else:
                value = asked
            if value is not None:
                effective[key] = value
        return QuotaSpec(**effective)


@dataclass
class SubmitRequest:
    """A validated sweep submission.

    ``workload``/``params`` name a :data:`repro.workloads.WORKLOADS`
    entry; ``config`` is the typed engine configuration; ``run_kwargs``
    are the whitelisted ``Engine.run`` knobs; ``observe`` asks the
    service to stream the observer grid as events (non-ensemble engines
    only — the ensemble engine rejects observers).
    """

    workload: str
    params: Dict[str, Any] = field(default_factory=dict)
    replicas: int = 1
    seed: int = 0
    config: EngineConfig = field(default_factory=EngineConfig)
    run_kwargs: Dict[str, Any] = field(default_factory=dict)
    observe: bool = False
    label: Optional[str] = None
    quota: QuotaSpec = field(default_factory=QuotaSpec)

    @classmethod
    def from_payload(cls, payload: Any) -> "SubmitRequest":
        _require(isinstance(payload, Mapping), "request body must be a JSON object")
        data = dict(payload)

        workload = data.pop("workload", None)
        _require(
            isinstance(workload, str) and workload in WORKLOADS,
            "workload must be one of: {}".format(", ".join(sorted(WORKLOADS))),
        )

        params = data.pop("params", None) or {}
        _require(isinstance(params, Mapping), "params must be a JSON object")
        params = dict(params)

        replicas = data.pop("replicas", 1)
        _require(
            isinstance(replicas, int) and not isinstance(replicas, bool)
            and 1 <= replicas <= MAX_REPLICAS,
            "replicas must be an integer in [1, {}]".format(MAX_REPLICAS),
        )

        seed = data.pop("seed", 0)
        _require(
            isinstance(seed, int) and not isinstance(seed, bool) and seed >= 0,
            "seed must be a non-negative integer",
        )

        config_data = data.pop("config", None) or {}
        _require(isinstance(config_data, Mapping), "config must be a JSON object")
        try:
            config = EngineConfig.from_dict(config_data)
        except (TypeError, ValueError) as exc:
            raise ServiceError(400, "bad config: {}".format(exc)) from exc
        if config.extra:
            raise ServiceError(
                400,
                "unknown config keys: {}".format(
                    ", ".join(sorted(config.extra))
                ),
            )
        from ..engine.replicas import block_size  # numpy: not at server boot

        try:
            block_size(config)
        except ValueError as exc:
            raise ServiceError(400, "bad config: {}".format(exc)) from exc

        run_kwargs = data.pop("run", None) or {}
        _require(isinstance(run_kwargs, Mapping), "run must be a JSON object")
        run_kwargs = dict(run_kwargs)
        unknown = sorted(set(run_kwargs) - set(RUN_KEYS))
        _require(
            not unknown,
            "unknown run keys: {} (allowed: {})".format(
                ", ".join(unknown), ", ".join(RUN_KEYS)
            ),
        )
        for key, value in run_kwargs.items():
            _require(
                isinstance(value, (int, float)) and not isinstance(value, bool)
                and value > 0,
                "run.{} must be a positive number".format(key),
            )

        observe = data.pop("observe", False)
        _require(isinstance(observe, bool), "observe must be a boolean")
        if observe:
            _require(
                config.engine != "ensemble",
                "observe=true is not supported with the ensemble engine "
                "(it has no per-interaction observer hook)",
            )
            run_kwargs.setdefault("observe_every", 1.0)

        label = data.pop("label", None)
        _require(
            label is None or isinstance(label, str),
            "label must be a string",
        )

        quota = QuotaSpec.from_payload(data.pop("quota", None))

        _require(
            not data,
            "unknown request keys: {}".format(", ".join(sorted(data))),
        )

        request = cls(
            workload=workload, params=params, replicas=replicas, seed=seed,
            config=config, run_kwargs=run_kwargs, observe=observe, label=label,
            quota=quota,
        )
        request.build_workload()  # validate the params eagerly (cheap: counts)
        return request

    def build_workload(self) -> Workload:
        """The workload this request names; 400 on bad params."""
        try:
            return build_workload(self.workload, **self.params)
        except (TypeError, ValueError) as exc:
            raise ServiceError(
                400, "bad workload params: {}".format(exc)
            ) from exc

    def as_dict(self) -> Dict[str, Any]:
        """JSON form persisted as ``request.json`` in the run store."""
        out: Dict[str, Any] = {
            "workload": self.workload,
            "params": dict(self.params),
            "replicas": self.replicas,
            "seed": self.seed,
            "config": self.config.as_dict(),
            "run": dict(self.run_kwargs),
            "observe": self.observe,
        }
        if self.label is not None:
            out["label"] = self.label
        if self.quota.any():
            out["quota"] = self.quota.as_dict()
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SubmitRequest":
        """Rebuild from a persisted ``request.json`` (already validated)."""
        return cls(
            workload=data["workload"],
            params=dict(data.get("params") or {}),
            replicas=int(data.get("replicas", 1)),
            seed=int(data.get("seed", 0)),
            config=EngineConfig.from_dict(data.get("config")),
            run_kwargs=dict(data.get("run") or {}),
            observe=bool(data.get("observe", False)),
            label=data.get("label"),
            quota=QuotaSpec.from_payload(data.get("quota")),
        )
