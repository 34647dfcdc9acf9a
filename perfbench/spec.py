"""What the benchmark measures: workloads, metrics, and how they relate.

``BENCHMARK.json`` at the repository root carries the names, units and
bounds the regression gate needs; this module is the fuller record a
later change cites: why each workload exists, what its "job" is, and
which end-to-end metric each per-layer metric should move, on which
workload.  ``test_smoke.py`` checks that the two agree.

Every end-to-end metric is printed for every workload, so each one has
a meaning on all four: a *job* is the workload's fixed-size unit of work
(a sweep of R replicas through ``run_replicas``, one sweep submitted to
``repro serve``, or one fixed-length compiled-program run), and the
benchmark drives jobs closed-loop, one after another, from one process.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    job: str


WORKLOADS = (
    Workload(
        "clock-dense",
        "E4 clock C_o (168 states) at n=1e6 on bghkpu: the dense-support "
        "engine kernels (alias sampler) do ~98% of the work; set-up holds "
        "the cold table compile",
        "run_replicas(processes=1) sweep of 4 replicas to the quarter turn, "
        "no manifest",
    ),
    Workload(
        "leader-sweep",
        "Thm 3.1 leader fight at n=1e8 on bghkpu: ~3 ms sparse endgame per "
        "replica, so per-replica fixed costs and manifest fsyncs show",
        "run_replicas(processes=1) sweep of 150 replicas writing a run "
        "manifest",
    ),
    Workload(
        "service-sweep",
        "leader-sweep spec through a real repro serve with sandboxes: HTTP, "
        "queue, sandbox spawn, journal and event stream set job latency",
        "POST /runs of a 20-replica leader sweep, followed on /events until "
        "its terminal state event",
    ),
    Workload(
        "program-fullstack",
        "E14 compiled LeaderElection (Thm 2.4) at n=200 on MatchingEngine "
        "with a cold LazyTable: the lang compiler, lazy table and matching "
        "engine",
        "a fresh MatchingEngine + LazyTable run for 125 matching rounds",
    ),
)
WORKLOAD_NAMES = tuple(w.name for w in WORKLOADS)


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    doc: str
    bound: float = 0.0
    moves: str = ""
    on: Tuple[str, ...] = ()


#: Gated metrics, printed by untraced runs (``--trace 0``).  Times are
#: scaled to reference-host seconds by the run's calibration loop (see
#: ``workloads.REFERENCE_CALIBRATION_S``); the raw values are printed
#: beside them.
END_TO_END = (
    Metric(
        "setup_s", "s", "lower",
        "process start to ready, median of several cold set-ups: imports, "
        "workload build, table compile into an empty cache, server boot "
        "until /healthz answers 200",
        bound=0.25,
    ),
    Metric(
        "job_latency_p50_s", "s", "lower",
        "median wall time of one job, over at least 20 jobs",
        bound=0.25,
    ),
    Metric(
        "peak_rss_mb", "MB", "lower",
        "largest resident set of any process that ran the workload",
        bound=0.1,
    ),
    Metric(
        "ok_frac", "fraction", "higher",
        "share of attempted replicas (jobs on service-sweep) that finished "
        "ok and passed the checks; 1 - failed_frac",
        bound=0.05,
    ),
)

_SWEEPS = ("clock-dense", "leader-sweep")


def _m(name, unit, better, moves, on, doc):
    return Metric(name, unit, better, doc, moves=moves, on=tuple(on))


#: Per-layer metrics, printed by traced runs (``--trace 1``).  ``moves``
#: names the end-to-end metric a change in this layer should move and
#: ``on`` the workloads where that shows; a workload not listed does
#: little or no work in the layer and reports 0.  Times and counts over
#: many jobs are per job ("/job"), so runs of different length compare.
PER_LAYER = (
    _m("compiled.compile_s", "s", "lower", "setup_s", ["clock-dense"],
       "cold compile_table in a set-up child, median over set-ups"),
    _m("compiled.table_pairs", "count", "lower", "setup_s", ["clock-dense"],
       "ordered state pairs in the compiled table"),
    _m("engine.construct_s", "s/job", "lower", "job_latency_p50_s",
       ["leader-sweep"], "make_engine calls inside run_replicas"),
    _m("engine.run_s", "s/job", "lower", "job_latency_p50_s", _SWEEPS,
       "EngineStats.run_seconds summed over the job's replicas"),
    _m("engine.kernel_s", "s/job", "lower", "job_latency_p50_s", _SWEEPS,
       "EngineStats.kernel_seconds summed over the job's replicas"),
    _m("engine.run_p50_s", "s", "lower", "job_latency_p50_s",
       ["leader-sweep"], "per-replica Engine.run wall, median"),
    _m("engine.run_p99_s", "s", "lower", "job_latency_p50_s",
       ["leader-sweep"],
       "per-replica Engine.run wall, 99th percentile (0 below 1000 "
       "replicas)"),
    _m("alias.build_s", "s/job", "lower", "job_latency_p50_s",
       ["clock-dense"], "alias table builds"),
    _m("alias.refresh_s", "s/job", "lower", "job_latency_p50_s",
       ["clock-dense"], "alias partial refreshes and patches"),
    _m("alias.cell_draw_s", "s/job", "lower", "job_latency_p50_s",
       ["clock-dense"], "active-cell draws"),
    _m("alias.outcome_split_s", "s/job", "lower", "job_latency_p50_s",
       ["clock-dense"], "outcome splits of fired cells"),
    _m("engine.batches", "count/job", "lower", "job_latency_p50_s", _SWEEPS,
       "engine batches"),
    _m("engine.events", "count/job", "lower", "job_latency_p50_s", _SWEEPS,
       "state-changing interaction events"),
    _m("engine.collision_frac", "fraction", "lower", "job_latency_p50_s",
       ["clock-dense"], "collision_events / events"),
    _m("engine.fallback_frac", "fraction", "lower", "job_latency_p50_s",
       _SWEEPS, "fallbacks / batches"),
    _m("replicas.overhead_s", "s/job", "lower", "job_latency_p50_s",
       ["leader-sweep"], "run_replicas wall minus engine.run_s"),
    _m("replicas.overhead_per_replica_ms", "ms", "lower",
       "job_latency_p50_s", ["leader-sweep"],
       "replicas.overhead_s per replica"),
    _m("replicas.retries", "count/job", "lower", "ok_frac", _SWEEPS,
       "replica attempts beyond the first"),
    _m("replicas.failed", "count/job", "lower", "ok_frac", _SWEEPS,
       "replicas recorded as failed or timed out"),
    _m("obs.append_s", "s/job", "lower", "job_latency_p50_s",
       ["leader-sweep"], "ManifestWriter.append_record calls"),
    _m("obs.records", "count/job", "higher", "job_latency_p50_s",
       ["leader-sweep", "service-sweep"], "manifest records written"),
    _m("obs.bytes_per_record", "B", "lower", "job_latency_p50_s",
       ["leader-sweep", "service-sweep"],
       "manifest bytes (header included) per record"),
    _m("service.boot_s", "s", "lower", "setup_s", ["service-sweep"],
       "server spawn until /healthz 200, median over boots"),
    _m("service.submit_s", "s", "lower", "job_latency_p50_s",
       ["service-sweep"], "POST /runs round trip, median"),
    _m("service.queue_s", "s", "lower", "job_latency_p50_s",
       ["service-sweep"],
       "submit until the running state event, median (near 0 closed-loop)"),
    _m("service.spawn_s", "s", "lower", "job_latency_p50_s",
       ["service-sweep"],
       "running state event until the first replica event, median"),
    _m("service.first_result_s", "s", "lower", "job_latency_p50_s",
       ["service-sweep"], "submit until the first replica event, median"),
    _m("service.per_replica_s", "s", "lower", "job_latency_p50_s",
       ["service-sweep"], "gap between consecutive replica events, median"),
    _m("service.finalize_s", "s", "lower", "job_latency_p50_s",
       ["service-sweep"],
       "last replica event until the terminal state event, median"),
    _m("service.engine_s", "s", "lower", "job_latency_p50_s",
       ["service-sweep"],
       "sum of replica-event wall per job, median; latency minus this is "
       "service overhead"),
    _m("lang.compile_s", "s", "lower", "setup_s", ["program-fullstack"],
       "compile_program in a set-up child, median over set-ups"),
    _m("matching.run_s", "s/job", "lower", "job_latency_p50_s",
       ["program-fullstack"], "MatchingEngine.run wall"),
    _m("table.cached_pairs", "count/job", "lower", "job_latency_p50_s",
       ["program-fullstack"],
       "LazyTable pairs computed (one cold table per job)"),
    _m("table.pairs_per_1k_interactions", "count", "lower",
       "job_latency_p50_s", ["program-fullstack"],
       "lazy-table misses per 1000 interactions"),
    _m("table.transition_s", "s/job", "lower", "job_latency_p50_s",
       ["program-fullstack"], "protocol.transition calls on table misses"),
) + tuple(
    _m(layer + ".self_s", "s" if layer == "setup" else "s/job", "lower",
       moves, on, "self time of the layer's spans: span minus its children")
    for layer, moves, on in (
        ("setup", "setup_s", WORKLOAD_NAMES),
        ("replicas", "job_latency_p50_s", _SWEEPS),
        ("engine", "job_latency_p50_s", _SWEEPS),
        ("obs", "job_latency_p50_s", ["leader-sweep"]),
        ("service", "job_latency_p50_s", ["service-sweep"]),
        ("matching", "job_latency_p50_s", ["program-fullstack"]),
        ("table", "job_latency_p50_s", ["program-fullstack"]),
    )
) + (
    _m("host.calibration_s", "s", "lower", "", WORKLOAD_NAMES,
       "median time of the calibration loop in this run: divide raw "
       "per-layer times by it to compare runs"),
    _m("trace.overhead_s", "s", "lower", "", WORKLOAD_NAMES,
       "median traced job latency minus the untraced median, same seeds"),
    _m("trace.spans", "count/job", "lower", "", WORKLOAD_NAMES,
       "spans recorded per traced job"),
)


def benchmark_json() -> dict:
    """The ``BENCHMARK.json`` this spec implies."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": 15,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better,
             "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better}
            for m in PER_LAYER
        ],
    }
