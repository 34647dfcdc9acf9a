"""The four benchmark workloads: set-up, jobs, correctness checks, layers.

Each workload runs a stream of fixed-size *jobs*, closed-loop from one
process; job ``k`` of a run gets its own seed derived from ``--seed``, so
a seed fixes every job's inputs.  Warm-up work uses a different seed
stream from the measured jobs.  The library is imported lazily, inside
the functions, because the set-up child times its own imports.

The correctness checks rest on theory, not on a recorded sample path,
so a change to an engine that keeps it exact in distribution still
passes them.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import select
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from spans import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))

#: Cold set-ups per run; setup_s is their median.
SETUPS = 3
#: Jobs a run completes at least, so ten lie beyond the median.
MIN_JOBS = 20
#: Seed streams: measured jobs and warm-up work never share a seed.
MEASURED, WARMUP = 0, 1
#: The calibration slice's time on the reference host (a 2-vCPU Xeon VM,
#: Python 3.11, numpy 2.4).  That shared host's speed drifted by a third
#: between runs minutes apart, in CPU time as much as in wall time, so
#: gated times are scaled by REFERENCE_CALIBRATION_S over the run's median
#: slice time: the seconds the run would have taken on the reference host.
REFERENCE_CALIBRATION_S = 0.044


@dataclass
class Job:
    """One completed (or failed) job of a run."""

    wall: float
    attempted: int
    failed: int = 0
    error: Optional[str] = None
    info: Dict[str, Any] = field(default_factory=dict)


@dataclass
class Context:
    root: str
    tmp: str
    seed: int
    smoke: bool = False
    tracer: Optional[Tracer] = None
    tracing: bool = False
    calibration: List[float] = field(default_factory=list)

    @property
    def src(self) -> str:
        return os.path.join(self.root, "src")

    def seed_for(self, stream: int, k: int) -> int:
        digest = hashlib.sha256(
            "{}/{}/{}".format(self.seed, stream, k).encode()
        ).digest()
        return int.from_bytes(digest[:4], "little") >> 1

    def calibrate(self) -> None:
        """Time one calibration slice; call before each set-up and job.

        Half a pure-Python loop, half small numpy kernels of the kind the
        engines run: the two together tracked the host's drift on every
        workload better than either alone.
        """
        import numpy as np

        rng = np.random.default_rng(0)
        weights = rng.random(30_000)
        start = time.perf_counter()
        total = 0
        for i in range(250_000):
            total += i * i
        for _ in range(40):
            cdf = np.cumsum(weights)
            picks = np.searchsorted(cdf, rng.random(2000) * cdf[-1])
            weights[picks] += 1e-9
        self.calibration.append(time.perf_counter() - start)

    @property
    def speed_scale(self) -> float:
        """Factor turning this run's seconds into reference-host seconds."""
        return REFERENCE_CALIBRATION_S / median(self.calibration)

    def fresh_dir(self, prefix: str) -> str:
        return tempfile.mkdtemp(prefix=prefix, dir=self.tmp)

    def child_env(self, cache: str) -> Dict[str, str]:
        env = dict(os.environ)
        env["PYTHONPATH"] = self.src
        env["REPRO_TABLE_CACHE"] = cache
        return env

    def span(self, name: str, job: Optional[str] = None):
        if self.tracing:
            return self.tracer.span(name, job)
        return contextlib.nullcontext()


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def percentile(values, q: float) -> float:
    """Nearest-rank percentile; 0 unless ten samples lie beyond it."""
    values = sorted(values)
    if not values or len(values) * (1 - q) < 10:
        return 0.0
    return values[min(int(math.ceil(q * len(values))) - 1, len(values) - 1)]


def _readline(stream, deadline: float) -> str:
    """One line from a child's pipe, or '' once ``deadline`` passes."""
    remaining = deadline - time.monotonic()
    if remaining <= 0 or not select.select([stream], [], [], remaining)[0]:
        return ""
    return stream.readline()


def stop_process(proc: subprocess.Popen, grace: float = 30.0) -> None:
    """SIGTERM, then SIGKILL after ``grace`` seconds; always reaps."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=grace)
        except subprocess.TimeoutExpired:
            proc.kill()
    proc.wait()


def setup_span_median(reports: List[dict], name: str) -> float:
    """Median over set-up children of their summed ``name`` spans."""
    return median(
        sum(s["end"] - s["start"] for s in report["spans"]
            if s["name"] == name)
        for report in reports
    )


def run_setup_children(ctx: Context, workload: str, count: int):
    """Time ``count`` cold set-ups, each a fresh process and empty cache.

    A set-up ends when the child prints its ready line.  Returns the
    samples, the children's reports, and the cache directory the last
    child filled (the measuring process starts from it warm).
    """
    samples, reports, cache = [], [], None
    for i in range(count):
        cache = ctx.fresh_dir("cache-")
        cmd = [sys.executable, os.path.join(HERE, "setup_child.py"), workload]
        if ctx.smoke:
            cmd.append("--smoke")
        ctx.calibrate()
        start = time.perf_counter()
        proc = subprocess.Popen(
            cmd, env=ctx.child_env(cache), stdout=subprocess.PIPE, text=True,
            cwd=ctx.tmp,
        )
        try:
            line = _readline(proc.stdout, time.monotonic() + 120)
            ready = time.perf_counter()
            proc.stdout.read()
        finally:
            stop_process(proc)
        if proc.returncode != 0 or not line:
            raise RuntimeError(
                "set-up child for {} failed (exit {})".format(
                    workload, proc.returncode
                )
            )
        report = json.loads(line)
        samples.append(ready - start)
        reports.append(report)
        if ctx.tracing:
            parent = ctx.tracer.add(
                "setup.child", start, ready, job="setup-{}".format(i)
            )
            ctx.tracer.merge(report["spans"], parent)
    return samples, reports, cache


# ---------------------------------------------------------------------------
# Theory for the checks
# ---------------------------------------------------------------------------

def leader_rounds_moments(n: int) -> Tuple[float, float]:
    """Mean and variance of the leader fight's rounds from n leaders.

    With k leaders an interaction removes one with probability
    p_k = k(k-1)/(n(n-1)), so the interaction count is a sum of
    independent geometrics: E[T] = sum 1/p_k = (n-1)^2 and
    Var[T] = sum (1-p_k)/p_k^2.  Rounds are T/n.  Terms beyond k = 10^5
    add under 1e-15 of the total and are dropped.
    """
    pairs = n * (n - 1)
    inv_sq = sum(
        1.0 / (k * (k - 1)) ** 2 for k in range(2, min(n, 100_000) + 1)
    )
    var_t = pairs * pairs * inv_sq - (n - 1) ** 2
    return (n - 1) ** 2 / n, var_t / (n * n)


def check_leader_rounds(rounds: List[float], n: int) -> List[Tuple[int, str]]:
    """Sample mean of rounds within five standard errors of theory."""
    if not rounds:
        return [(1, "no leader-fight rounds to check")]
    mean, var = leader_rounds_moments(n)
    got = sum(rounds) / len(rounds)
    se = math.sqrt(var / len(rounds))
    if abs(got - mean) > 5 * se:
        return [(1, "mean rounds {:.6g} over {} replicas is {:.1f} "
                    "standard errors from E[T]/n = {:.6g}".format(
                        got, len(rounds), (got - mean) / se, mean))]
    return []


# ---------------------------------------------------------------------------
# In-process replica sweeps: clock-dense and leader-sweep
# ---------------------------------------------------------------------------

class Sweep:
    """Jobs are ``run_replicas(processes=1)`` sweeps of a registry workload."""

    in_process = True
    unit = "replica"

    def __init__(self, name: str, registry: str, n: int, replicas: int,
                 manifest: bool):
        self.name = name
        self.registry = registry
        self.n = n
        self.replicas = replicas
        self.manifest = manifest
        self.attempts_per_job = replicas
        self.job_label = "{} replicas".format(replicas)
        self.setup_reports: List[dict] = []

    # -- set-up ----------------------------------------------------------
    def child_setup(self, tracer: Tracer) -> dict:
        with tracer.span("setup.import"):
            import repro
        with tracer.span("setup.build"):
            workload = repro.build_workload(self.registry, n=self.n)
        with tracer.span("compiled.compile_table"):
            table = repro.compile_table(
                workload.protocol, list(workload.population.counts)
            )
        return {"table_pairs": table.num_pairs}

    def setups(self, ctx: Context, count: int) -> List[float]:
        samples, self.setup_reports, cache = run_setup_children(
            ctx, self.name, count
        )
        os.environ["REPRO_TABLE_CACHE"] = cache
        return samples

    def prepare(self, ctx: Context) -> None:
        import repro

        self.repro = repro
        self.workload = repro.build_workload(self.registry, n=self.n)
        self.config = repro.EngineConfig(engine="bghkpu")
        self._sweep(ctx.seed_for(WARMUP, 0), replicas=1, manifest=None)

    # -- jobs ------------------------------------------------------------
    def _sweep(self, seed: int, replicas: int, manifest: Optional[str]):
        w = self.workload
        return self.repro.run_replicas(
            w.protocol, w.population, replicas=replicas, config=self.config,
            seed=seed, processes=1, stop=w.stop, manifest=manifest,
            manifest_meta={"workload": w.spec()} if manifest else None,
        )

    def job(self, ctx: Context, k: int) -> Job:
        manifest = (
            os.path.join(ctx.tmp, "manifest-{}.jsonl".format(k))
            if self.manifest else None
        )
        with ctx.span("replicas.run_replicas", job=str(k)):
            start = time.perf_counter()
            rs = self._sweep(
                ctx.seed_for(MEASURED, k), self.replicas, manifest
            )
            wall = time.perf_counter() - start
        records = list(rs)
        info = {"records": records}
        if manifest:
            info["manifest_bytes"] = os.path.getsize(manifest)
            os.remove(manifest)
        failed = sum(1 for r in records if r.status != "ok")
        failed += self.replicas - len(records)
        return Job(wall, self.replicas, failed, info=info)

    def wrap(self, tracer: Tracer) -> None:
        import importlib

        # the package re-exports the simulate() function under the name
        # of its module, so fetch the module itself
        simulate = importlib.import_module("repro.simulate")
        tracer.wrap(simulate, "make_engine", "engine.construct")
        tracer.wrap(self.repro.Engine, "run", "engine.run")
        tracer.wrap(self.repro.ManifestWriter, "append_record",
                    "obs.append_record")

    # -- checks ----------------------------------------------------------
    def check(self, ctx: Context, jobs: List[Job]) -> List[Tuple[int, str]]:
        ok = [r for j in jobs for r in j.info["records"] if r.status == "ok"]
        out = []
        bad = sum(1 for r in ok if not r.converged)
        if bad:
            out.append((bad, "{} replicas did not converge".format(bad)))
        if self.registry == "leader":
            out += check_leader_rounds([r.rounds for r in ok], self.n)
        return out

    # -- metrics ---------------------------------------------------------
    def user_metrics(self, jobs: List[Job]) -> List[tuple]:
        if self.registry == "leader":
            rates = [self.replicas / j.wall for j in jobs]
            return [("replicas_per_s", median(rates), "1/s", len(rates))]
        rates = [
            sum(r.interactions for r in j.info["records"]) / j.wall
            for j in jobs
        ]
        return [("interactions_per_s", median(rates), "1/s", len(rates))]

    def layer_metrics(self, ctx: Context, jobs: List[Job]) -> Dict[str, float]:
        tracer = ctx.tracer
        records = [r for j in jobs for r in j.info["records"]]
        per_job = 1.0 / len(jobs)
        tally = self.repro.ReplicaSet(records).summary().engines["bghkpu"]
        c = tally.counters
        run_s = c.get("run_seconds", 0.0)
        sweep_s = tracer.total("replicas.run_replicas")
        events = c.get("events", 0)
        batches = c.get("batches", 0)
        walls = [r.wall for r in records if r.status == "ok"]
        manifest_bytes = sum(j.info.get("manifest_bytes", 0) for j in jobs)
        appends = tracer.named("obs.append_record")
        return {
            "compiled.compile_s": setup_span_median(
                self.setup_reports, "compiled.compile_table"),
            "compiled.table_pairs": self.setup_reports[-1]["table_pairs"],
            "engine.construct_s": tracer.total("engine.construct") * per_job,
            "engine.run_s": run_s * per_job,
            "engine.kernel_s": c.get("kernel_seconds", 0.0) * per_job,
            "engine.run_p50_s": median(walls),
            "engine.run_p99_s": percentile(walls, 0.99),
            "alias.build_s": c.get("alias_build_seconds", 0.0) * per_job,
            "alias.refresh_s": c.get("alias_refresh_seconds", 0.0) * per_job,
            "alias.cell_draw_s": c.get("cell_draw_seconds", 0.0) * per_job,
            "alias.outcome_split_s":
                c.get("outcome_split_seconds", 0.0) * per_job,
            "engine.batches": batches * per_job,
            "engine.events": events * per_job,
            "engine.collision_frac":
                c.get("collision_events", 0) / events if events else 0.0,
            "engine.fallback_frac":
                c.get("fallbacks", 0) / batches if batches else 0.0,
            "replicas.overhead_s": (sweep_s - run_s) * per_job,
            "replicas.overhead_per_replica_ms":
                1000.0 * (sweep_s - run_s) / len(records),
            "replicas.retries":
                sum(r.attempts - 1 for r in records) * per_job,
            "replicas.failed":
                sum(1 for r in records if r.status != "ok") * per_job,
            "obs.append_s": sum(s.duration for s in appends) * per_job,
            "obs.records": len(appends) * per_job,
            "obs.bytes_per_record":
                manifest_bytes / len(appends) if appends else 0.0,
        }

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------------
# service-sweep: a real ``repro serve`` driven by ServiceClient
# ---------------------------------------------------------------------------

class Service:
    """Jobs are leader sweeps submitted to a ``repro serve`` subprocess."""

    in_process = False
    unit = "job"

    def __init__(self, n: int, replicas: int):
        self.name = "service-sweep"
        self.n = n
        self.replicas = replicas
        self.attempts_per_job = 1
        self.job_label = "a {}-replica sweep".format(replicas)
        self.server: Optional[subprocess.Popen] = None
        self.client = None
        self.boots: List[float] = []

    def _boot(self, ctx: Context) -> float:
        from repro.service.client import ServiceClient

        store = ctx.fresh_dir("store-")
        log = store + ".log"
        start = time.perf_counter()
        with open(log, "w") as out:
            self.server = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--store", store,
                 "--port", "0"],
                env=ctx.child_env(ctx.fresh_dir("cache-")), stdout=out,
                stderr=subprocess.STDOUT, cwd=ctx.tmp,
            )
        deadline = time.monotonic() + 60
        port = None
        while port is None:
            with open(log) as fh:
                for line in fh:
                    if "listening on http://" in line:
                        port = int(line.strip().rsplit(":", 1)[1])
            if port is None:
                died = self.server.poll() is not None
                if died or time.monotonic() > deadline:
                    raise RuntimeError("repro serve did not start: see " + log)
                time.sleep(0.005)
        client = ServiceClient(port=port, timeout=60.0)
        while True:
            try:
                if client.health().get("http_status") == 200:
                    break
            except OSError:
                pass
            if time.monotonic() > deadline:
                raise RuntimeError("repro serve never answered /healthz 200")
            time.sleep(0.005)
        ready = time.perf_counter()
        self.client = client
        if ctx.tracing:
            ctx.tracer.add("setup.boot", start, ready,
                           job="setup-{}".format(len(self.boots)))
        return ready - start

    def setups(self, ctx: Context, count: int) -> List[float]:
        for _ in range(count):
            if self.server is not None:
                stop_process(self.server)
            ctx.calibrate()
            self.boots.append(self._boot(ctx))
        return list(self.boots)

    def prepare(self, ctx: Context) -> None:
        self._submit_and_follow(ctx.seed_for(WARMUP, 0))

    def _body(self, seed: int) -> dict:
        return {
            "workload": "leader", "params": {"n": self.n},
            "replicas": self.replicas, "seed": seed,
            "config": {"engine": "bghkpu"},
        }

    def _submit_and_follow(self, seed: int) -> dict:
        from repro.service.client import TERMINAL_STATES

        start = time.perf_counter()
        accepted = self.client.submit(self._body(seed))
        submitted = time.perf_counter()
        run_id = accepted["run_id"]
        times: Dict[str, float] = {}
        replicas: List[Tuple[float, dict]] = []
        state = None
        events = self.client.events(run_id)
        try:
            for event in events:
                now = time.perf_counter()
                if event.get("kind") == "replica":
                    replicas.append((now, event))
                elif event.get("kind") == "state":
                    times.setdefault(event.get("state"), now)
                    if event.get("state") in TERMINAL_STATES:
                        state = event["state"]
                        break
        finally:
            events.close()
        end = time.perf_counter()
        return {
            "run_id": run_id, "start": start, "submitted": submitted,
            "running": times.get("running"), "end": end, "state": state,
            "replicas": replicas,
        }

    def job(self, ctx: Context, k: int) -> Job:
        info = self._submit_and_follow(ctx.seed_for(MEASURED, k))
        if ctx.tracing:
            self._spans(ctx.tracer, info, str(k))
        ok = info["state"] == "done" and len(info["replicas"]) == self.replicas
        return Job(info["end"] - info["start"], 1, 0 if ok else 1, info=info)

    @staticmethod
    def _spans(tracer: Tracer, info: dict, job: str) -> None:
        """Phase spans of one job, from client-side event receipt times."""
        top = tracer.add("service.job", info["start"], info["end"], job=job)
        marks = [("service.submit", info["start"]),
                 ("service.queue", info["submitted"])]
        if info["running"] is not None:
            marks.append(("service.spawn", info["running"]))
        if info["replicas"]:
            marks.append(("service.replicas", info["replicas"][0][0]))
            marks.append(("service.finalize", info["replicas"][-1][0]))
        ends = [t for _, t in marks[1:]] + [info["end"]]
        for (name, lo), hi in zip(marks, ends):
            tracer.add(name, lo, hi, parent=top)

    def wrap(self, tracer: Tracer) -> None:
        pass  # spans come from client-side timestamps (see _spans)

    def check(self, ctx: Context, jobs: List[Job]) -> List[Tuple[int, str]]:
        # jobs that did not end done with every replica are already
        # counted failed by job(); here: wrong outputs of the others
        out = []
        rounds = []
        for job in jobs:
            run_id = job.info["run_id"]
            events = [e for _, e in job.info["replicas"]]
            if job.failed:
                out.append((0, "run {} ended {} with {}/{} replicas".format(
                    run_id, job.info["state"], len(events), self.replicas)))
                continue
            bad = [e for e in events
                   if e.get("status") != "ok" or not e.get("converged")]
            if bad:
                out.append((1, "run {}: {} replicas failed or did not "
                            "converge".format(run_id, len(bad))))
            rounds += [e["rounds"] for e in events if e.get("status") == "ok"]
        out += check_leader_rounds(rounds, self.n)
        # outside the timed phase: one bit-identical replay per run
        for k, job in enumerate(jobs):
            if job.failed:
                continue
            index = ctx.seed_for(WARMUP, 1000 + k) % self.replicas
            replay = self.client.replay(job.info["run_id"], index)
            if replay.get("match") is not True:
                out.append((1, "replay of run {} replica {} did not "
                            "match".format(job.info["run_id"], index)))
        return out

    def user_metrics(self, jobs: List[Job]) -> List[tuple]:
        first = [j.info["replicas"][0][0] - j.info["start"]
                 for j in jobs if j.info.get("replicas")]
        return [("first_result_p50_s", median(first), "s", len(first))]

    def layer_metrics(self, ctx: Context, jobs: List[Job]) -> Dict[str, float]:
        infos = [j.info for j in jobs if j.info.get("replicas")]
        gaps = [b[0] - a[0] for i in infos
                for a, b in zip(i["replicas"], i["replicas"][1:])]
        running = [i for i in infos if i["running"] is not None]
        manifest_bytes = records = 0
        for info in infos:  # outside the timed phase
            text = self.client.manifest_text(info["run_id"])
            manifest_bytes += len(text.encode())
            records += max(len(text.splitlines()) - 1, 0)
        return {
            "service.boot_s": median(self.boots),
            "service.submit_s":
                median(i["submitted"] - i["start"] for i in infos),
            "service.queue_s":
                median(i["running"] - i["start"] for i in running),
            "service.spawn_s":
                median(i["replicas"][0][0] - i["running"] for i in running),
            "service.first_result_s":
                median(i["replicas"][0][0] - i["start"] for i in infos),
            "service.per_replica_s": median(gaps),
            "service.finalize_s":
                median(i["end"] - i["replicas"][-1][0] for i in infos),
            "service.engine_s": median(
                sum(e["wall"] for _, e in i["replicas"]) for i in infos
            ),
            "obs.records": records / len(jobs),
            "obs.bytes_per_record":
                manifest_bytes / records if records else 0.0,
        }

    def close(self) -> None:
        if self.server is not None:
            stop_process(self.server)


# ---------------------------------------------------------------------------
# program-fullstack: compiled LeaderElection on MatchingEngine + LazyTable
# ---------------------------------------------------------------------------

class Program:
    """Jobs are fixed-length runs of the compiled tier-T1 LeaderElection."""

    in_process = True
    unit = "job"

    def __init__(self, n: int, rounds: int):
        self.name = "program-fullstack"
        self.n = n
        self.rounds = rounds
        self.attempts_per_job = 1
        self.job_label = "{} rounds".format(rounds)
        self.setup_reports: List[dict] = []

    def _build(self, span):
        from repro.lang import compile_program
        from repro.protocols import leader_election_program

        with span("lang.compile_program"):
            compiled = compile_program(leader_election_program())
        population = compiled.make_population([({}, self.n)], x_agents=2)
        return compiled.protocol, population

    def child_setup(self, tracer: Tracer) -> dict:
        with tracer.span("setup.import"):
            import numpy as np

            import repro
            import repro.lang
            import repro.protocols
        protocol, population = self._build(tracer.span)
        with tracer.span("matching.construct"):
            repro.MatchingEngine(
                protocol, population, rng=np.random.default_rng(0),
                table=repro.LazyTable(protocol),
            )
        return {}

    def setups(self, ctx: Context, count: int) -> List[float]:
        samples, self.setup_reports, cache = run_setup_children(
            ctx, self.name, count
        )
        os.environ["REPRO_TABLE_CACHE"] = cache
        return samples

    def prepare(self, ctx: Context) -> None:
        import numpy as np

        import repro

        self.np = np
        self.repro = repro
        self.protocol, self.population = self._build(ctx.span)
        self._run(ctx, ctx.seed_for(WARMUP, 0), max(self.rounds // 20, 1))

    def _run(self, ctx: Context, seed: int, rounds: int):
        with ctx.span("matching.construct"):
            table = self.repro.LazyTable(self.protocol)
            engine = self.repro.MatchingEngine(
                self.protocol, self.population,
                rng=self.np.random.default_rng(seed), table=table,
            )
        with ctx.span("matching.run"):
            engine.run(rounds=rounds)
        return engine, table

    def job(self, ctx: Context, k: int) -> Job:
        with ctx.span("matching.job", job=str(k)):
            start = time.perf_counter()
            engine, table = self._run(
                ctx, ctx.seed_for(MEASURED, k), self.rounds
            )
            wall = time.perf_counter() - start
        return Job(wall, 1, info={
            "n": engine.population.n, "steps": engine.steps,
            "interactions": engine.interactions,
            "cached_pairs": table.cached_pairs, "misses": table.misses,
        })

    def wrap(self, tracer: Tracer) -> None:
        tracer.wrap(self.protocol, "transition", "table.transition")

    def check(self, ctx: Context, jobs: List[Job]) -> List[Tuple[int, str]]:
        out = []
        for k, job in enumerate(jobs):
            i = job.info
            if i["n"] != self.n:
                out.append((1, "job {}: {} agents, started with {}".format(
                    k, i["n"], self.n)))
            elif i["steps"] != self.rounds or (
                i["interactions"] != self.rounds * (self.n // 2)
            ):
                out.append((1, "job {}: ran {} rounds / {} interactions, "
                            "asked for {} rounds".format(
                                k, i["steps"], i["interactions"],
                                self.rounds)))
        return out

    def user_metrics(self, jobs: List[Job]) -> List[tuple]:
        rates = [j.info["interactions"] / j.wall for j in jobs]
        return [("interactions_per_s", median(rates), "1/s", len(rates))]

    def layer_metrics(self, ctx: Context, jobs: List[Job]) -> Dict[str, float]:
        tracer = ctx.tracer
        per_job = 1.0 / len(jobs)
        interactions = sum(j.info["interactions"] for j in jobs)
        misses = sum(j.info["misses"] for j in jobs)
        return {
            "lang.compile_s":
                setup_span_median(self.setup_reports, "lang.compile_program"),
            "matching.run_s": tracer.total("matching.run") * per_job,
            "table.cached_pairs":
                sum(j.info["cached_pairs"] for j in jobs) * per_job,
            "table.pairs_per_1k_interactions":
                1000.0 * misses / interactions if interactions else 0.0,
            "table.transition_s": tracer.total("table.transition") * per_job,
        }

    def close(self) -> None:
        pass


def make_workload(name: str, smoke: bool = False):
    """The workload object for ``name``; ``smoke`` shrinks every size."""
    if name == "clock-dense":
        return Sweep(name, "clock", 20_000 if smoke else 10**6,
                     2 if smoke else 4, manifest=False)
    if name == "leader-sweep":
        return Sweep(name, "leader", 10_000 if smoke else 10**8,
                     20 if smoke else 150, manifest=True)
    if name == "service-sweep":
        return Service(10_000 if smoke else 10**8, 3 if smoke else 20)
    if name == "program-fullstack":
        return Program(40 if smoke else 200, 20 if smoke else 125)
    raise ValueError("unknown workload {!r}".format(name))
