"""Benchmark command: one workload, one seed, one run.

    python3 perfbench/run.py --workload clock-dense --seed 1 --seconds 15 \
        --trace 0

Run it from the root of a checkout; it imports the library from ``src``.
A run times several cold set-ups, warms up on a separate seed, then runs
the workload's jobs closed-loop for ``--seconds`` (and at least 20 jobs),
checks every output, and prints the metrics of ``spec.py``: one line per
metric for people, then one JSON object as the last line.  ``--trace 1``
runs the same jobs untraced and then traced, prints the per-layer
metrics with each layer's self time and the tracing overhead, and writes
the spans to ``.perfbench_out/``.  Scratch files live in
``.perfbench_tmp/`` and are removed at exit.  The exit code is 0 only
when every check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import subprocess
import sys
import tempfile
import time
import traceback

from spans import Tracer
from spec import END_TO_END, PER_LAYER, WORKLOAD_NAMES
from workloads import (
    MIN_JOBS, SETUPS, Context, Job, make_workload, median, percentile,
)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
#: Every process of a run hashes strings alike.  With per-process random
#: hash seeds, dict layouts alone moved the program-fullstack median by
#: 16% (interquartile range over six runs); with a fixed seed, by 7%.
HASH_SEED = "0"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny sizes, one set-up and three jobs: tests the benchmark "
        "itself, measures nothing",
    )
    return parser.parse_args(argv)


def host_fingerprint() -> dict:
    """Context for reading the numbers; not a gated metric."""
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def warm_bytecode(ctx: Context) -> None:
    """Import the library once, untimed, so every set-up finds bytecode."""
    subprocess.run(
        [sys.executable, "-c", "import repro, repro.lang, repro.protocols, "
         "repro.service.app, repro.service.sandbox"],
        env=ctx.child_env(ctx.fresh_dir("cache-")), cwd=ctx.tmp, check=True,
        timeout=120,
    )


def run_jobs(workload, ctx: Context, seconds: float, min_jobs: int,
             count: int = None) -> list:
    """Jobs 0, 1, ... closed-loop: ``count`` of them, or for ``seconds``
    and at least ``min_jobs`` (capped so a slow host still exits)."""
    jobs = []
    start = time.perf_counter()
    cap = start + max(4 * seconds, seconds + 60)
    while True:
        now = time.perf_counter()
        if count is not None:
            if len(jobs) >= count:
                break
        elif (now - start >= seconds and len(jobs) >= min_jobs) or now > cap:
            break
        ctx.calibrate()
        begun = time.perf_counter()
        try:
            jobs.append(workload.job(ctx, len(jobs)))
        except Exception as exc:  # a failed job is counted, not fatal
            traceback.print_exc()
            jobs.append(Job(time.perf_counter() - begun,
                            workload.attempts_per_job,
                            workload.attempts_per_job, error=repr(exc)))
    return jobs


def peak_rss_mb(in_process: bool) -> float:
    """Largest resident set in the workload's (reaped) process tree."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    if not in_process:
        return children / 1024.0
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return max(own, children) / 1024.0


def line(name, value, unit, note="") -> str:
    return "  {:<34} {:>14.6g} {:<10} {}".format(name, value, unit, note)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print("perfbench: no library sources at {}; run from the root of a "
              "checkout of the repository".format(src), file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    scratch = os.path.join(ROOT, ".perfbench_tmp")
    os.makedirs(scratch, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="run-", dir=scratch)
    try:
        return bench(args, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(scratch)
        except OSError:
            pass  # another run's scratch is still there


def bench(args, tmp: str) -> int:
    workload = make_workload(args.workload, smoke=args.smoke)
    ctx = Context(ROOT, tmp, args.seed, smoke=args.smoke,
                  tracer=Tracer() if args.trace else None)
    setups, min_jobs = (1, 3) if args.smoke else (SETUPS, MIN_JOBS)
    host = host_fingerprint()
    print("perfbench {} seed={} seconds={:g} trace={}".format(
        args.workload, args.seed, args.seconds, args.trace))
    sys.stdout.flush()

    base = []
    layers = {}
    try:
        warm_bytecode(ctx)
        ctx.tracing = bool(args.trace)
        setup = workload.setups(ctx, setups)
        ctx.tracing = False
        workload.prepare(ctx)
        if args.trace:
            base = run_jobs(workload, ctx, args.seconds / 2, min_jobs // 2)
            ctx.tracing = True
            workload.wrap(ctx.tracer)
            try:
                jobs = run_jobs(workload, ctx, 0, 0, count=len(base))
            finally:
                ctx.tracer.restore()
                ctx.tracing = False
        else:
            jobs = run_jobs(workload, ctx, args.seconds, min_jobs)
        good = [j for j in base + jobs if j.error is None]
        wrong = workload.check(ctx, good)
        if args.trace and jobs and all(j.error is None for j in jobs):
            layers = workload.layer_metrics(ctx, jobs)
    finally:
        workload.close()
    rss = peak_rss_mb(workload.in_process)

    attempted = sum(j.attempted for j in base + jobs)
    failed = min(attempted, sum(j.failed for j in base + jobs)
                 + sum(count for count, _ in wrong))
    walls = [j.wall for j in jobs if j.error is None]
    correct = failed == 0 and bool(walls)
    host["calibration_s"] = median(ctx.calibration)
    print("host " + " ".join(
        "{}={}".format(k, json.dumps(v)) for k, v in host.items()))
    print("workload {}: {} jobs ({} per job), {} {}s attempted, {} failed"
          .format(args.workload, len(jobs), workload.job_label, attempted,
                  workload.unit, failed))
    for _, message in wrong:
        print("CHECK FAILED: " + message)
    print("checks: " + ("all passed" if correct else "FAILED"))

    if args.trace:
        metrics = per_layer(args, ctx, workload, jobs, base, layers,
                            len(setup))
    else:
        metrics = end_to_end(workload, jobs, walls, setup, rss, attempted,
                             failed, ctx.speed_scale)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


def end_to_end(workload, jobs, walls, setup, rss, attempted, failed,
               scale) -> dict:
    values = {
        "setup_s": median(setup) * scale,
        "job_latency_p50_s": median(walls) * scale,
        "peak_rss_mb": rss,
        "ok_frac": 1.0 - failed / attempted if attempted else 0.0,
    }
    notes = {
        "setup_s": "n={} set-ups, raw: {}".format(
            len(setup), ", ".join("{:.3f}".format(s) for s in setup)),
        "job_latency_p50_s": "n={} jobs, raw median {:.4f}{}".format(
            len(walls), median(walls), tail(walls)),
        "peak_rss_mb": "max over the process tree",
        "ok_frac": "n={} attempted".format(attempted),
    }
    print("end-to-end metrics (untraced; times scaled to the reference host "
          "by {:.4f}):".format(scale))
    for m in END_TO_END:
        print(line(m.name, values[m.name], m.unit, notes[m.name]))
    good = [j for j in jobs if j.error is None]
    for name, value, unit, n in workload.user_metrics(good) if good else ():
        print(line(name, value, unit, "n={} jobs, median".format(n)))
    print(line("failed_frac", failed / attempted if attempted else 1.0,
               "fraction", "{} of {}".format(failed, attempted)))
    return {m.name: (values[m.name], m.unit) for m in END_TO_END}


def tail(samples) -> str:
    """The highest percentile that has ten samples beyond it, if any."""
    n = len(samples)
    q = int(100 * (1 - 10 / n)) if n else 0
    if q <= 50:
        return ""
    return ", p{}={:.4f}".format(q, percentile(samples, q / 100.0))


def per_layer(args, ctx, workload, jobs, base, layers, setups) -> dict:
    tracer = ctx.tracer
    traced = [j.wall for j in jobs if j.error is None]
    untraced = [j.wall for j in base if j.error is None]
    values = dict(layers)
    in_setup, job_spans = [], []
    for span in tracer.spans:
        setup_span = (span.job or "").startswith("setup")
        (in_setup if setup_span else job_spans).append(span)
    for layer, total in tracer.self_times(job_spans).items():
        values[layer + ".self_s"] = total / max(len(jobs), 1)
    values["setup.self_s"] = (
        tracer.self_times(in_setup).get("setup", 0.0) / max(setups, 1))
    values["host.calibration_s"] = median(ctx.calibration)
    values["trace.overhead_s"] = median(traced) - median(untraced)
    values["trace.spans"] = len(job_spans) / max(len(jobs), 1)

    os.makedirs(os.path.join(ROOT, ".perfbench_out"), exist_ok=True)
    path = os.path.join(ROOT, ".perfbench_out", "{}-seed{}.spans.jsonl"
                        .format(args.workload, args.seed))
    tracer.write(path)
    print("per-layer metrics (traced pass of {} jobs; untraced median {:.4f} "
          "s, traced median {:.4f} s; {} spans written to {}):".format(
              len(jobs), median(untraced), median(traced), len(tracer.spans),
              os.path.relpath(path, ROOT)))
    out = {}
    for m in PER_LAYER:
        value = float(values.get(m.name, 0.0))
        note = ""
        if m.moves and args.workload in m.on:
            note = "moves {}".format(m.moves)
        elif not value:
            note = "(not exercised here)"
        print(line(m.name, value, m.unit, note))
        out[m.name] = (value, m.unit)
    return out


def _exit_on_sigterm(signum, frame):
    raise SystemExit(128 + signum)  # runs the finally blocks: reap, clean


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        os.environ["PYTHONHASHSEED"] = HASH_SEED
        os.execv(sys.executable, [sys.executable] + sys.argv)
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    sys.exit(main())
