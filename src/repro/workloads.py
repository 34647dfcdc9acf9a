"""Named reference workloads for replica sweeps.

A *workload* bundles everything :func:`repro.engine.replicas.run_replicas`
needs — a protocol, an initial population, and a module-level (hence
picklable) convergence predicate — behind a name and a parameter dict, so
sweeps can be described declaratively: by the CLI (``python -m repro
sweep epidemic --n 300 --replicas 8``), by the CI determinism smoke job,
and by the run manifests of :mod:`repro.obs`, whose replay loader rebuilds
the exact workload from the recorded ``{"name": ..., "params": ...}``
spec.

These are deliberately the small closed-form processes the paper leans
on everywhere: the one-way epidemic (the O(log n) broadcast primitive
behind every phase clock), the leader fight ``L + L -> L + F`` (the
pairwise-elimination core of Theorem 3.1's leader election), and the
composed oscillator + phase clock C_o (Theorem 5.2's q = 168-state
construction — the dense-support workload that exercises the bghkpu
hybrid epoch sampler end to end).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import TYPE_CHECKING, Any, Callable, Dict, Tuple

from .core import Rule, StateSchema, V, single_thread
from .core.protocol import Protocol

if TYPE_CHECKING:  # numpy-backed: each builder imports it when called
    from .core.population import Population

#: The stop predicates' formulas, built once: each query then finds its
#: per-code answers in the schema's truth memo without rebuilding a key.
_INFECTED = V("I")
_LEADER = V("L")


def all_infected(population: Population) -> bool:
    """Stop predicate of the ``epidemic`` workload: everyone has the bit."""
    return population.all_satisfy(_INFECTED)


def unique_leader(population: Population) -> bool:
    """Stop predicate of the ``leader`` workload: exactly one L left."""
    return population.count(_LEADER) == 1


def clock_quarter_turn(population: Population) -> bool:
    """Stop predicate of the ``clock`` workload: a quarter ring advanced.

    True once the majority phase of the C_o clock (module 12, k = 2)
    has reached phase 3 at a 60% quorum — a few Θ(log n)-round ticks
    from the all-phase-0 start, so sweeps converge in seconds while
    still crossing several full epochs of the dense active grid.
    """
    params, majority_phase = _quarter_turn()
    phase, frac = majority_phase(population, params)
    return frac >= 0.6 and phase >= 3


@lru_cache(maxsize=None)
def _quarter_turn():
    """The ``clock`` workload's clock parameters and phase reader, built
    once: :mod:`repro.clocks` imports numpy, so this module imports it on
    first use, not at import."""
    from .clocks import ClockParams, majority_phase

    return ClockParams(module=12, k=2), majority_phase


def _flag_mask(codes, schema, formula):
    import numpy as np

    truth = schema.truth(formula)
    return np.array([truth[int(c)] for c in codes], dtype=bool)


def _vectorize_all_infected(codes, schema):
    """Ensemble fast path: no agent left without the bit, per row."""
    healthy = ~_flag_mask(codes, schema, _INFECTED)
    return lambda counts: counts[:, healthy].sum(axis=1) == 0


def _vectorize_unique_leader(codes, schema):
    """Ensemble fast path: exactly one leader left, per row."""
    leaders = _flag_mask(codes, schema, _LEADER)
    return lambda counts: counts[:, leaders].sum(axis=1) == 1


# vectorized counterparts used by repro.engine.ensemble.VectorizedStop;
# attribute assignment keeps the predicates plain module-level functions
# (hence picklable by reference into worker processes and manifests)
all_infected.vectorize = _vectorize_all_infected
unique_leader.vectorize = _vectorize_unique_leader


def _build_epidemic(n: int = 300, infected: int = 1):
    from .core.population import Population

    schema = StateSchema()
    schema.flag("I")
    protocol = single_thread(
        "epidemic", schema, [Rule(V("I"), ~V("I"), None, {"I": True})]
    )
    population = Population.from_groups(
        schema, [({"I": True}, infected), ({"I": False}, n - infected)]
    )
    return protocol, population, all_infected


def _build_leader(n: int = 300, leaders: int = None):
    """Leader fight; ``leaders`` starts mid-fight with that many L agents.

    The default (every agent a leader) is the paper's Theorem 3.1 setup;
    an explicit ``leaders`` (e.g. 3 at n = 1e8) drops a run straight into
    the sparse endgame, which is what the silence-floor regression tests
    and the service smoke sweeps exercise without paying for the bulk of
    the fight.
    """
    from .core.population import Population

    schema = StateSchema()
    schema.flag("L")
    protocol = single_thread(
        "leader-fight", schema, [Rule(V("L"), V("L"), None, {"L": False})]
    )
    if leaders is None:
        population = Population.uniform(schema, n, {"L": True})
    else:
        if not 1 <= leaders <= n:
            raise ValueError(
                "leaders must be in [1, n]; got leaders={} with n={}".format(
                    leaders, n
                )
            )
        population = Population.from_groups(
            schema, [({"L": True}, leaders), ({"L": False}, n - leaders)]
        )
    return protocol, population, unique_leader


@dataclass
class Workload:
    """A named (protocol, population, stop) triple plus its build params."""

    name: str
    protocol: Protocol
    population: Population
    stop: Callable[[Population], bool]
    params: Dict[str, Any] = field(default_factory=dict)

    def spec(self) -> Dict[str, Any]:
        """The JSON-serializable spec a manifest records for replay."""
        return {"name": self.name, "params": dict(self.params)}


def _build_clock(n: int = 50_000, n_x: int = 3):
    """Composed oscillator + phase clock C_o, from the E4 deep start.

    168 reachable states with the k = 2 ring: the dense-support
    workload of the bghkpu hybrid sampler benchmarks and the CI
    dense-determinism leg.
    """
    from .clocks import ClockParams, make_clock_protocol
    from .core.population import Population
    from .oscillator import strong_value, weak_value

    params = ClockParams(module=12, k=2)
    protocol = make_clock_protocol(params=params)
    c1 = int(0.8 * (n - n_x))
    c2 = int(0.17 * (n - n_x))
    population = Population.from_groups(
        protocol.schema,
        [
            ({"osc": strong_value(0), "clk": 0}, c1),
            ({"osc": weak_value(1), "clk": 0}, c2),
            ({"osc": weak_value(2), "clk": 0}, (n - n_x) - c1 - c2),
            ({"osc": weak_value(0), "X": True, "clk": 0}, n_x),
        ],
    )
    return protocol, population, clock_quarter_turn


#: Registry of workload builders by name.
WORKLOADS: Dict[str, Callable[..., Tuple[Protocol, Population, Callable]]] = {
    "epidemic": _build_epidemic,
    "leader": _build_leader,
    "clock": _build_clock,
}


def build_workload(name: str, **params: Any) -> Workload:
    """Build a registered workload; raises ``ValueError`` on unknown names."""
    try:
        builder = WORKLOADS[name]
    except KeyError:
        raise ValueError(
            "unknown workload {!r}; choose from {}".format(
                name, ", ".join(sorted(WORKLOADS))
            )
        ) from None
    protocol, population, stop = builder(**params)
    return Workload(
        name=name, protocol=protocol, population=population, stop=stop,
        params=params,
    )
