"""Deterministic fault injection for the replica supervisor and engines.

Multi-hour sweeps die in practice to a small set of failure shapes: a
worker process is OOM-killed, a worker wedges on a stuck filesystem, a
bad deploy ships a corrupt rule table.  This module injects exactly those faults *on
purpose* — keyed by replica index and attempt number so chaos tests are
fully deterministic — letting the test suite and the ``--chaos`` smoke in
``benchmarks/run_all.py`` prove that the supervised pool, the health
guards and the resumable manifests actually degrade gracefully.

Injectors
---------
* **worker crash** (:attr:`FaultPlan.crash`) — ``os._exit`` from inside a
  pool worker, indistinguishable from an OOM kill; the supervisor must
  detect the dead worker, respawn it and retry the replica.
* **worker hang** (:attr:`FaultPlan.hang`) — the worker sleeps past any
  reasonable deadline; the supervisor must enforce its per-replica
  timeout, terminate the worker and retry.
* **rule-table corruption** (:attr:`FaultPlan.corrupt_table`) — a
  replica's closed transition table is tampered with in-memory
  (:func:`corrupt_table` modes below); the engine's health guards must
  catch it with a :class:`~repro.engine.health.SimulationHealthError`,
  which the supervisor records as a *non-retryable* failure.

A :class:`FaultPlan` travels (pickled) inside each replica payload, so
injection happens inside the worker process itself.  ``simulate=True``
(see :meth:`FaultPlan.simulated`) converts process-level faults into
in-process exceptions — :class:`InjectedCrash` / :class:`InjectedHang` —
so the serial (``processes=1``) supervisor path can exercise the same
retry/timeout bookkeeping without killing or stalling the test runner.
"""

from __future__ import annotations

import copy
import json
import os
import time
from dataclasses import asdict, dataclass, field, replace
from typing import Dict, List, Optional

import numpy as np

#: Schedule marker: inject on *every* attempt (never let the replica pass).
ALWAYS = -1

#: Exit code used by injected worker crashes (recognizable in supervisor logs).
CRASH_EXIT_CODE = 73


class InjectedCrash(RuntimeError):
    """Simulated worker crash (serial mode only; real workers ``_exit``)."""


class InjectedHang(TimeoutError):
    """Simulated worker hang (serial mode only; real workers sleep)."""


#: Supported in-memory table corruption modes (see :func:`corrupt_table`).
CORRUPT_MODES = ("nan", "drop", "bitflip")


def corrupt_table(table, mode: str = "nan"):
    """Return a corrupted *copy* of a closed transition table.

    The corruption hits the flat arrays every engine reads; an engine's
    own copies of change probabilities taken before the swap (the exact
    path's ``Q``) keep their values.

    The copy matters: closed tables are memoized process-wide
    (``repro.engine.compiled._MEMO``), so corrupting one in place would
    poison every other replica sharing the memo entry.

    Modes
    -----
    ``"nan"``
        Poison one entry of the dense ``p_change`` matrix with NaN — the
        health guards' finite-probabilities check must catch it before
        any batch draw.
    ``"drop"``
        Zero the outcome-offset table so batch events consume agents
        without producing outcomes (a non-conserving rule table) — the
        conservation guard must catch the shrinking population.
    ``"bitflip"``
        Flip the low bit of one outcome offset, the classic single-bit
        cache corruption: outcome windows shift onto the wrong rules and
        the count invariants break in short order.
    """
    if mode not in CORRUPT_MODES:
        raise ValueError(
            "unknown corruption mode {!r}; choose from {}".format(
                mode, ", ".join(CORRUPT_MODES)
            )
        )
    bad = copy.copy(table)
    if mode == "nan":
        bad.p_row = table.p_row.copy()
        bad.p_row[0] = np.nan
    elif mode == "drop":
        bad.off = np.zeros_like(table.off)
    else:  # bitflip
        off = table.off.copy()
        off[len(off) // 2] ^= 1
        bad.off = off
    return bad


@dataclass
class FaultPlan:
    """Deterministic injection schedule keyed by replica index.

    ``crash`` / ``hang`` map a replica index to the number of *failing
    attempts*: ``{3: 1}`` crashes replica 3's first attempt only (the
    retry succeeds), ``{3: ALWAYS}`` crashes every attempt.
    ``corrupt_table`` maps a replica index to a :func:`corrupt_table`
    mode; table corruption applies on every attempt (the fault is in the
    "deployed" table, not the worker), so those replicas fail
    non-retryably via the health guards.
    """

    crash: Dict[int, int] = field(default_factory=dict)
    hang: Dict[int, int] = field(default_factory=dict)
    corrupt_table: Dict[int, str] = field(default_factory=dict)
    #: How long an injected hang sleeps; far above any supervisor timeout
    #: so the worker is always reaped by the deadline, never by waking up.
    hang_seconds: float = 60.0
    #: Raise :class:`InjectedCrash`/:class:`InjectedHang` instead of
    #: ``_exit``/sleeping — for the serial supervisor path and fast tests.
    simulate: bool = False

    def simulated(self) -> "FaultPlan":
        """A copy of this plan with process-level faults turned into
        exceptions (safe under ``processes=1``)."""
        return replace(self, simulate=True)

    def _due(self, schedule: Dict[int, int], index: int, attempt: int) -> bool:
        failing = schedule.get(index)
        if failing is None:
            return False
        return failing == ALWAYS or attempt < failing

    def before_run(self, index: int, attempt: int = 0) -> None:
        """Crash/hang hook, called by the worker before building the engine."""
        if self._due(self.crash, index, attempt):
            if self.simulate:
                raise InjectedCrash(
                    "injected crash in replica {} (attempt {})".format(
                        index, attempt
                    )
                )
            os._exit(CRASH_EXIT_CODE)
        if self._due(self.hang, index, attempt):
            if self.simulate:
                raise InjectedHang(
                    "injected hang in replica {} (attempt {})".format(
                        index, attempt
                    )
                )
            time.sleep(self.hang_seconds)

    def tamper_engine(self, engine, index: int, attempt: int = 0) -> None:
        """Swap the engine's closed table for a corrupted copy."""
        mode = self.corrupt_table.get(index)
        if mode is None:
            return
        if not engine.table.closed:
            raise RuntimeError(
                "cannot corrupt the table of replica {}: engine {!r} has no "
                "closed table".format(index, engine.name)
            )
        engine.table = corrupt_table(engine.table, mode)

    def touches(self, index: int) -> bool:
        """Whether any injector is scheduled for this replica index."""
        return (
            index in self.crash
            or index in self.hang
            or index in self.corrupt_table
        )


# ---------------------------------------------------------------------------
# Service-level fault points (the sandbox / journal / quota layer)
# ---------------------------------------------------------------------------

#: Environment variable carrying a JSON-encoded :class:`ServiceFaultPlan`
#: into the service's sandbox children (they inherit the server's env).
SERVICE_FAULT_ENV = "REPRO_SERVICE_FAULTS"


def tear_final_line(path) -> str:
    """Truncate a JSONL file mid-way through its final line.

    Reproduces the on-disk shape of a process killed while appending: the
    last line loses its tail *and* its newline.  Journal/manifest/status
    readers must treat the intact prefix as the checkpoint and drop the
    torn line, never raise.  Returns ``path`` for chaining.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    body = data.rstrip(b"\n")
    cut = body.rfind(b"\n") + 1  # 0 when the file holds a single line
    last = body[cut:]
    with open(path, "wb") as fh:
        fh.write(body[:cut] + last[: max(1, len(last) // 2)])
    return str(path)


@dataclass
class ServiceFaultPlan:
    """Deterministic fault points for the service survivability layer.

    Travels to sandbox children via :data:`SERVICE_FAULT_ENV` (children
    inherit the server environment), so chaos tests can steer a *real*
    subprocess without patching anything inside it.  ``only_label``
    scopes the plan to submissions carrying that label — a fault job and
    a healthy control job can share one server.

    * ``kill_after_group`` — ``os._exit(CRASH_EXIT_CODE)`` right after
      the checkpoint for that group index is emitted: a worker dying
      mid-checkpoint.  One-shot by construction — on resume the group is
      already recorded, its checkpoint is never re-emitted, so the retry
      completes.
    * ``crash_on_start`` — ``os._exit(CRASH_EXIT_CODE)`` before any work
      on *every* attempt: the persistent crash loop that must exhaust the
      retry budget and settle as ``failed``.
    * ``hog_memory_bytes`` — allocate this much heap (in steps) before
      the first group: a quota breach under ``RLIMIT_AS``, an actual
      allocation otherwise.
    * ``spin_cpu_seconds`` — burn that much CPU time before the first
      group: breaches ``RLIMIT_CPU`` quotas.
    * ``sleep_seconds`` — sleep before the first group: breaches the
      supervisor's wall-clock quota.
    * ``pause_between_groups`` — sleep between checkpoint groups; not a
      fault but a pacing knob, so kill/drain tests get a deterministic
      window to strike in.
    """

    kill_after_group: Optional[int] = None
    crash_on_start: bool = False
    hog_memory_bytes: int = 0
    spin_cpu_seconds: float = 0.0
    sleep_seconds: float = 0.0
    pause_between_groups: float = 0.0
    only_label: Optional[str] = None

    #: Step size of the memory hog (small enough to land close to any cap).
    HOG_STEP = 1 << 26

    def to_env(self) -> Dict[str, str]:
        """The env-var dict that ships this plan to sandbox children."""
        return {SERVICE_FAULT_ENV: json.dumps(asdict(self))}

    @classmethod
    def from_env(cls, environ=None) -> Optional["ServiceFaultPlan"]:
        """The plan in ``environ`` (default ``os.environ``), else None."""
        raw = (os.environ if environ is None else environ).get(SERVICE_FAULT_ENV)
        if not raw:
            return None
        try:
            return cls(**json.loads(raw))
        except (TypeError, ValueError):
            raise ValueError(
                "{} holds an invalid ServiceFaultPlan: {!r}".format(
                    SERVICE_FAULT_ENV, raw
                )
            )

    def matches(self, label: Optional[str]) -> bool:
        """Whether this plan applies to a job with the given label."""
        return self.only_label is None or self.only_label == label

    def apply_preamble(self) -> None:
        """Hog / spin / sleep, in that order, before the first group.

        The hog allocates incrementally and *keeps* the references, so
        under an address-space rlimit it reliably raises ``MemoryError``
        regardless of the interpreter's baseline footprint.
        """
        if self.crash_on_start:
            os._exit(CRASH_EXIT_CODE)
        if self.hog_memory_bytes > 0:
            hog: List[bytearray] = []
            remaining = self.hog_memory_bytes
            while remaining > 0:
                step = min(self.HOG_STEP, remaining)
                hog.append(bytearray(step))
                remaining -= step
            self._hog = hog  # keep alive for the run
        if self.spin_cpu_seconds > 0:
            deadline = time.process_time() + self.spin_cpu_seconds
            x = 0
            while time.process_time() < deadline:
                x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        if self.sleep_seconds > 0:
            time.sleep(self.sleep_seconds)

    def after_checkpoint(self, group: int) -> None:
        """Kill/pause hook, called right after group ``group`` checkpoints."""
        if self.kill_after_group is not None and group == self.kill_after_group:
            os._exit(CRASH_EXIT_CODE)
        if self.pause_between_groups > 0:
            time.sleep(self.pause_between_groups)
