"""Self-check of the benchmark itself: `python3 bench/run.py --self-check`.

Fails (exit 1) when
- a CLI command has no job in any workload;
- a job of any workload fails its checks (failed_frac must be 0);
- a traced job's layer self times plus its untraced gap do not add up to
  its traced wall time;
- a per-layer metric listed in BENCHMARK.json is missing from the traced
  output, or a span a metric sums over names no wrapped function.

Each workload runs one round untraced and one traced.  `--quick` leaves out
the jobs and sweep points that take more than about 0.3 s, and runs in
about twenty seconds.
"""

from __future__ import annotations

import importlib
import json
import os
import shutil
import sys
import time

import layers
import spans
import sweep
import workloads
from run import END_TO_END_UNITS, ROOT, WORK, Runner, prepare


def _commands() -> set:
    cli = importlib.import_module("floer_workbench.cli")
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if a.dest == "command")
    return set(sub.choices)


def run(args, quick: bool = False) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)
    problems = []
    e2e = {m["name"] for m in declared["end_to_end"]}
    if e2e != set(END_TO_END_UNITS):
        problems.append("end-to-end metrics %s differ from BENCHMARK.json %s"
                        % (sorted(END_TO_END_UNITS), sorted(e2e)))
    covered = set()
    per_layer = {}
    for name in workloads.WORKLOADS:
        workdir = os.path.join(WORK, "selfcheck-%s-%d" % (name, os.getpid()))
        os.makedirs(workdir, exist_ok=True)
        try:
            jobs, _ = prepare(name, args.seed, workdir)
            covered |= {job.argv[0] for job in jobs}
            if quick:
                jobs = [job for job in jobs if not job.heavy]
            runner = Runner(jobs)
            t0 = time.perf_counter()
            runner.round()
            plain = time.perf_counter() - t0
            rec = spans.Recorder()
            runner.recorder = rec
            with spans.Instrumentation(rec) as inst:
                t0 = time.perf_counter()
                runner.round()
                traced = time.perf_counter() - t0
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        if runner.failed or runner.span_failed:
            problems += ["%s: %s" % (name, f) for f in runner.failures]
        metrics = layers.layer_metrics(rec.spans, rec.counts, 1)
        metrics["trace.overhead_frac"] = traced / plain - 1
        per_layer[name] = metrics
        print("# self-check %-10s %3d jobs, %d failed, %d span checks failed, %d spans"
              % (name, len(jobs), runner.failed, runner.span_failed, len(rec.spans)))
    wrapped = set(inst.wrapped) | layers.DERIVED_COUNTERS
    sources = list(layers.SELF_MS.items()) + list(layers.COUNTS.items()) + [
        (metric, pair[:2]) for metric, pair in layers.RATIOS.items()]
    for metric, names in sources:
        for span in set(names) - wrapped:
            problems.append("%s sums over %s, which no wrapper records" % (metric, span))
    points = sweep.run(args.seed, quick=quick)
    want = {m["name"] for m in declared["per_layer"]}
    if quick:
        want -= sweep.SLOW
    for name, metrics in per_layer.items():
        missing = want - set(metrics) - set(points)
        if missing:
            problems.append("%s: per-layer metrics missing: %s" % (name, sorted(missing)))
    missing = _commands() - covered
    if missing:
        problems.append("commands without a job: %s" % sorted(missing))
    for p in problems:
        print("# PROBLEM %s" % p)
    print("self-check %s: %d problems, %d sweep points"
          % ("failed" if problems else "passed", len(problems), len(points)))
    sys.stdout.flush()
    return 1 if problems else 0
