"""Engine health guards: invariant checks threaded through the hot loops.

Long sweeps at the paper's scales (Θ(n·polylog n) interactions, hours of
wall clock) can silently go wrong in ways no unit test sees at n = 300:
a corrupted transition table (a bit-flipped offset) leaks or destroys
agents, a NaN probability row turns every batch draw into garbage, an
int64 overflow wraps a multinomial count, a broken stop predicate spins
the engine forever on a settled configuration.  :class:`HealthMonitor`
watches for exactly these failure modes from inside the engine loops:

* **conservation** — the total agent count must equal the population size
  after every batch (and periodically on the exact per-event path);
* **non-negative counts** — no state's count may go below zero;
* **finite probabilities** — the effective-weight matrix fed to the batch
  binomial/multinomial draws (and the compiled table's probability rows
  at attach time) must be NaN/Inf-free;
* **int64 headroom** — batch sizes must stay below the multinomial-safe
  ceiling before any draw is attempted;
* **stall watchdog** (opt-in via ``stall_rounds``) — the configuration
  must change at least once every ``stall_rounds`` parallel rounds while
  events keep firing.

Violations raise :class:`SimulationHealthError`, a structured error
carrying the engine name, the interaction index and the offending state
codes, so a replica supervisor can log *where* a worker went bad and —
because the failure is deterministic in the seed — skip retrying it.

Guards are opt-in per engine (``guards=`` constructor option, i.e.
``EngineConfig(guards=True)`` through :func:`repro.simulate.make_engine`)
and on by default in ``python -m repro sweep``.  The checks are amortized:
per *batch* on the jump engine (batches are large, so the cost vanishes)
and every ``check_every`` events on the exact path (plus once at the end
of a run for the events since the last check), keeping the overhead
well under 5% on the compiled kernel benchmarks.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

#: Largest batch the jump engine may feed a binomial/multinomial draw
#: (mirrors :data:`repro.engine.api.MAX_BATCH`; re-declared here to keep
#: the module dependency-free).
INT64_HEADROOM = 2 ** 62


class SimulationHealthError(RuntimeError):
    """A health guard tripped: the simulation state is no longer trustworthy.

    Carries enough structure for a supervisor to report (and refuse to
    retry) the failure: the guard ``check`` that fired, the ``engine``
    name, the ``interactions`` index at which it fired, and the packed
    ``codes`` of the offending states (empty when the violation is not
    attributable to specific states).
    """

    def __init__(
        self,
        check: str,
        engine: str,
        interactions: int,
        codes: Sequence[int] = (),
        detail: str = "",
    ):
        self.check = check
        self.engine = engine
        self.interactions = int(interactions)
        self.codes = [int(c) for c in codes]
        self.detail = detail
        message = "health check '{}' failed in engine '{}' at interaction {}".format(
            check, engine, self.interactions
        )
        if self.codes:
            message += " (state codes {})".format(self.codes)
        if detail:
            message += ": {}".format(detail)
        super().__init__(message)

    def __reduce__(self):  # structured fields survive the process boundary
        return (
            SimulationHealthError,
            (self.check, self.engine, self.interactions, self.codes, self.detail),
        )


class HealthMonitor:
    """Invariant checks an engine invokes from its stepping loops.

    Parameters
    ----------
    conservation / nonnegative / finite / headroom:
        Toggle the individual guards (all on by default).
    stall_rounds:
        When set, raise if the configuration has not changed across this
        many parallel rounds of scheduler progress (``None`` disables the
        watchdog — settled configurations that legitimately idle through
        null interactions are detected as *silent* by the engines and
        never reach the guard, but a protocol whose events permute states
        without moving counts would trip a naive watchdog, so this stays
        opt-in).
    check_every:
        On the exact per-event path, run the O(support) checks only every
        this many events (the batch path checks after every batch).
    """

    def __init__(
        self,
        *,
        conservation: bool = True,
        nonnegative: bool = True,
        finite: bool = True,
        headroom: bool = True,
        stall_rounds: Optional[float] = None,
        check_every: int = 64,
    ):
        if check_every < 1:
            raise ValueError("check_every must be >= 1")
        self.conservation = conservation
        self.nonnegative = nonnegative
        self.finite = finite
        self.headroom = headroom
        self.stall_rounds = stall_rounds
        self.check_every = int(check_every)
        self.violations = 0  # guards raise, so > 0 only if the error was caught
        self._engine = None
        self._expected_n: Optional[int] = None
        self._pending = 0
        self._last_counts: Optional[bytes] = None
        self._last_change_interactions = 0

    # -- wiring ---------------------------------------------------------------
    def attach(self, engine) -> None:
        """Bind to an engine: record the expected population size and vet
        a closed transition table.  Idempotent per engine, so repeated
        ``run()`` calls keep the original expected count."""
        if self._engine is engine:
            return
        self._engine = engine
        self._expected_n = int(engine.population.n)
        self._last_change_interactions = int(engine.interactions)
        if self.finite and engine.table.closed:
            self.check_table(engine, engine.table)

    def _raise(self, check: str, codes: Sequence[int] = (), detail: str = "") -> None:
        self.violations += 1
        engine_name = getattr(self._engine, "name", "unknown")
        interactions = getattr(self._engine, "interactions", 0)
        raise SimulationHealthError(check, engine_name, interactions, codes, detail)

    # -- state snapshots -------------------------------------------------------
    def _counts_vector(self, engine):
        """The engine's live count vector and matching state codes."""
        full = getattr(engine, "_full_c", None)
        if full is not None:
            return full, engine.table.codes
        c = getattr(engine, "_c", None)
        if c is not None:
            return c, engine.table.codes[engine._states]
        return None, None

    def _offending(self, mask: np.ndarray, codes) -> List[int]:
        if codes is None:
            return []
        idx = np.nonzero(mask)[0][:5]
        return [int(codes[int(i)]) for i in idx]

    # -- checks ----------------------------------------------------------------
    def _check_counts(self, engine) -> None:
        counts, codes = self._counts_vector(engine)
        if counts is None:
            return
        if self.nonnegative:
            negative = counts < 0
            if negative.any():
                self._raise(
                    "nonnegative",
                    self._offending(negative, codes),
                    "state counts went negative",
                )
        if self.conservation and self._expected_n is not None:
            total = int(counts.sum())
            if total != self._expected_n:
                self._raise(
                    "conservation",
                    [],
                    "sum of counts is {} but the population started with {} "
                    "agents".format(total, self._expected_n),
                )
        if self.headroom:
            # cumulative totals, not just per-draw batch sizes: at
            # n ≥ 10⁸ the interaction counter grows ~n² per converged run
            # and would wrap any int64 cast downstream (manifests, stats)
            # long before a single batch ever tripped check_batch
            total_interactions = int(getattr(engine, "interactions", 0))
            if total_interactions > INT64_HEADROOM:
                self._raise(
                    "int64-headroom",
                    [],
                    "cumulative interaction count {} exceeds the int64-safe "
                    "ceiling 2^62 (downstream casts would wrap)".format(
                        total_interactions
                    ),
                )
        if self.stall_rounds is not None:
            snapshot = counts.tobytes()
            if snapshot != self._last_counts:
                self._last_counts = snapshot
                self._last_change_interactions = int(engine.interactions)
            else:
                budget = self.stall_rounds * engine.n
                if engine.interactions - self._last_change_interactions > budget:
                    self._raise(
                        "stall",
                        [],
                        "no state change across {:.3g} parallel rounds "
                        "(stall_rounds={})".format(
                            (engine.interactions - self._last_change_interactions)
                            / engine.n,
                            self.stall_rounds,
                        ),
                    )

    def after_event(self, engine) -> None:
        """Amortized per-event hook (exact path): checks every
        ``check_every`` events."""
        self._pending += 1
        if self._pending < self.check_every:
            return
        self._pending = 0
        self._check_counts(engine)

    def after_run(self, engine) -> None:
        """End-of-run hook (exact path): checks the events fired since the
        last amortized check, so a run of fewer than ``check_every``
        events is checked too."""
        if self._pending:
            self._pending = 0
            self._check_counts(engine)

    def after_batch(self, engine) -> None:
        """Per-batch hook (jump path): full count checks every batch."""
        self._pending = 0
        self._check_counts(engine)

    def check_weights(self, engine, weights: np.ndarray, codes=None) -> None:
        """Vet the effective-weight matrix before it feeds any draw.

        A NaN/Inf entry means a probability row of the (possibly
        corrupted) transition table is broken — raise before the
        binomial/multinomial math can silently poison the counts.
        """
        if not self.finite:
            return
        if np.isfinite(weights).all():
            return
        bad = ~np.isfinite(weights)
        rows = bad.any(axis=1) | bad.any(axis=0)
        if codes is None:
            counts_codes = self._counts_vector(engine)[1]
            codes = counts_codes
        offenders: List[int] = []
        if codes is not None and len(rows) <= len(codes):
            offenders = self._offending(rows, codes)
        self._raise(
            "finite-probabilities",
            offenders,
            "effective-weight matrix contains NaN/Inf entries "
            "(corrupt probability row in the transition table?)",
        )

    def check_rows(
        self, engine, counts: np.ndarray, codes, expected_n: int
    ) -> None:
        """Row-wise conservation/nonnegativity over an ensemble count matrix.

        The ensemble engine's state is an ``(R, q)`` matrix — one replica
        per row, each of which must individually conserve ``expected_n``
        agents and stay non-negative (the single-population hooks above
        cannot see per-row violations that cancel across rows).
        """
        if self.nonnegative:
            negative = counts < 0
            if negative.any():
                self._raise(
                    "nonnegative",
                    self._offending(negative.any(axis=0), codes),
                    "ensemble row state counts went negative",
                )
        if self.conservation:
            totals = counts.sum(axis=1)
            bad = totals != expected_n
            if bad.any():
                row = int(np.nonzero(bad)[0][0])
                self._raise(
                    "conservation",
                    [],
                    "ensemble row {} sums to {} but each replica started "
                    "with {} agents".format(
                        row, int(totals[row]), expected_n
                    ),
                )

    def check_batch(self, engine, batch: int) -> None:
        """Int64-headroom guard immediately before a multinomial draw."""
        if not self.headroom:
            return
        if batch > INT64_HEADROOM:
            self._raise(
                "int64-headroom",
                [],
                "batch of {} interactions exceeds the int64-safe draw "
                "ceiling 2^62".format(batch),
            )

    def check_table(self, engine, table) -> None:
        """Vet a closed table's probability arrays at attach time."""
        if not self.finite:
            return
        p = table.p_change_matrix
        if not np.isfinite(p).all():
            bad = ~np.isfinite(p)
            rows = bad.any(axis=1) | bad.any(axis=0)
            self._raise(
                "finite-probabilities",
                self._offending(rows, table.codes),
                "compiled p_change matrix contains NaN/Inf entries",
            )
        if not np.isfinite(table.out_p).all():
            self._raise(
                "finite-probabilities",
                [],
                "compiled outcome probabilities contain NaN/Inf entries",
            )


def resolve_guards(guards) -> Optional[HealthMonitor]:
    """Normalize a ``guards=`` option into a monitor (or ``None``).

    Accepts ``None``/``False`` (off), ``True`` (default monitor), a
    config dict (``HealthMonitor(**dict)``) or a ready monitor instance.
    """
    if guards is None or guards is False:
        return None
    if guards is True:
        return HealthMonitor()
    if isinstance(guards, HealthMonitor):
        return guards
    if isinstance(guards, dict):
        return HealthMonitor(**guards)
    raise ValueError(
        "guards must be None, a bool, a config dict or a HealthMonitor, "
        "got {!r}".format(guards)
    )
