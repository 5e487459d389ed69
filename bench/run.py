"""floer-workbench benchmark: closed-loop CLI workloads and a traced run.

Run from the repository root:

    python3 bench/run.py --workload chain --seed 1 --seconds 35 --trace 0
    python3 bench/run.py --workload lattice --seed 1 --seconds 35 --trace 1
    python3 bench/run.py --workload all --seed 1     # each workload in turn
    python3 bench/run.py --self-check [--quick]

One client runs in-process `cli.main(argv)` jobs one at a time, with stdout
captured and checked, in whole rounds of the workload's job list (see
workloads.py).  `--seconds` is the wall time of the whole run, warm-up and
samples included, so that it is also what the run costs; a workload whose
rounds are long may overrun it by half a round, and every run times at
least MIN_ROUNDS rounds.  `--trace 0` reports the end-to-end metrics;
`--trace 1` reports the layer size sweep (sweep.py), then alternates
untraced rounds with rounds in which every public floer_workbench function
is wrapped (spans.py), and reports the per-layer metrics (layers.py).  The
last line of stdout is one JSON object: correct, attempted, failed, metrics.

The benchmark imports the package from `src/` (it is not installed),
clears FLOER_WORKBENCH_THREADS so that worker counts come only from
`--workers` in a job's argv, and runs one untimed warm-up round, whose
outputs are checked against oracles and become the reference every later
repetition must match byte for byte.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

import layers
import spans
import sweep
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
# setup_s is the median of this many fresh interpreters
SETUP_REPEATS = 7
# cold_cli_ms runs each argv of the workload's fixed sample this many times
COLD_REPEATS = 3
# fewest timed rounds in a run, whatever --seconds says
MIN_ROUNDS = 3

END_TO_END_UNITS = {"jobs_per_s": "jobs/s", "job_p50_ms": "ms", "job_p90_ms": "ms",
                    "setup_s": "s", "peak_rss_mb": "MB", "cold_cli_ms": "ms"}


def _env() -> dict:
    env = dict(os.environ)
    env.pop("FLOER_WORKBENCH_THREADS", None)
    env["PYTHONPATH"] = SRC
    return env


def run_record(workload: str, seed: int) -> dict:
    sha = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")) and shutil.which("git"):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        if proc.returncode == 0:
            sha = proc.stdout.strip()
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.partition(":")[2].strip()
                    break
    except OSError:
        pass
    return {"workload": workload, "seed": seed, "git_sha": sha,
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "cpu_model": cpu}


# ---------------------------------------------------------------------------
# jobs


class Runner:
    """Runs one workload's jobs in process and checks every output.

    Set `recorder` to a spans.Recorder to trace: each job then gets a root
    span named "job" and its span accounting is checked."""

    def __init__(self, jobs: list):
        importlib.import_module("floer_workbench.cli")
        self.jobs = jobs
        self.recorder = None
        self.reference = [None] * len(jobs)
        self.reference_ok = [False] * len(jobs)
        self.attempted = 0
        self.failed = 0
        self.span_failed = 0
        self.failures = []     # the first few reasons, for the report

    def note(self, job, why: str) -> None:
        if len(self.failures) < 10:
            self.failures.append("%s: %s" % (" ".join(job.argv), why))

    def run_job(self, job) -> tuple:
        """Returns (wall ns, exit code, stdout, escaped exception or '')."""
        cli = sys.modules["floer_workbench.cli"]
        out, err = io.StringIO(), io.StringIO()
        rec = self.recorder
        rc, escaped = None, ""
        t0 = time.perf_counter_ns()
        root = rec.open("job") if rec is not None else None
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(list(job.argv))
        except Exception as exc:  # an escaped exception is a failed job
            escaped = repr(exc)
        finally:
            if rec is not None:
                rec.close(root)
        return time.perf_counter_ns() - t0, rc, out.getvalue(), escaped

    def round(self, timings=None, after_job=None) -> None:
        """One pass over the job list; appends (job class, seconds) to
        timings when given, and calls after_job, untimed, after each job."""
        for i, job in enumerate(self.jobs):
            start = len(self.recorder.spans) if self.recorder is not None else 0
            wall, rc, stdout, escaped = self.run_job(job)
            self.attempted += 1
            if escaped:
                why = "exception escaped: " + escaped
            elif self.reference[i] is None:
                why = job.check(rc, stdout)
                self.reference[i] = stdout
                self.reference_ok[i] = why is None
            elif rc != job.rc:
                why = "exit %r, expected %d" % (rc, job.rc)
            elif stdout != self.reference[i]:
                why = "stdout differs from the first repetition"
            else:
                why = None if self.reference_ok[i] else "first repetition failed"
            if why:
                self.failed += 1
                self.note(job, why)
            if self.recorder is not None:
                bad = layers.check_job_spans(self.recorder.spans, start, wall)
                if bad:
                    self.span_failed += 1
                    self.note(job, bad)
            if timings is not None:
                timings.append((job.cls, wall / 1e9))
            if after_job is not None:
                after_job()


def speed_probe() -> float:
    """Median ms of a fixed pure-Python loop: shows in the run record how
    fast the shared machine ran at the start and the end of a run."""
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        total = 0
        for i in range(100_000):
            total += i * i
        times.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(times)


# ---------------------------------------------------------------------------
# measurements


def setup_sample(workload: str, seed: int) -> float:
    """Seconds a fresh interpreter takes to import floer_workbench and
    build the workload's inputs."""
    workdir = os.path.join(WORK, "setup-%d" % os.getpid())
    try:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-only",
             "--workload", workload, "--seed", str(seed), "--dir", workdir],
            cwd=ROOT, env=_env(), capture_output=True, text=True, timeout=120)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0:
        raise RuntimeError("set-up failed: %s" % proc.stderr.strip())
    return float(proc.stdout.strip().splitlines()[-1])


def cold_sample(runner: Runner, job) -> tuple:
    """Wall ms of one fresh `python -m floer_workbench.cli` process, and
    whether its exit code and stdout match the in-process reference."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "floer_workbench.cli"] + job.argv,
                          cwd=ROOT, env=_env(), capture_output=True, text=True,
                          timeout=120)
    ms = (time.perf_counter() - t0) * 1e3
    i = next(i for i, j in enumerate(runner.jobs) if j is job)
    return ms, proc.returncode == job.rc and proc.stdout == runner.reference[i]


def percentile_90(values: list) -> float:
    return statistics.quantiles(values, n=10)[8]


def class_summary(timings: list) -> dict:
    """Job count and median ms per job class, to show which class's band
    each percentile falls in."""
    by_class = {}
    for cls, seconds in timings:
        by_class.setdefault(cls, []).append(seconds * 1e3)
    return {cls: [len(v), round(statistics.median(v), 3)] for cls, v in sorted(by_class.items())}


def run_untraced(args, runner: Runner, sample: list, round_s: float, deadline: float) -> tuple:
    """Closed loop of whole rounds until `deadline`.  The set-up and
    cold-start samples run between jobs, outside the loop's clock, at even
    intervals over the run: a shared host's speed changes from one stretch
    of seconds to the next, and samples bunched into a few stretches would
    make their median follow those stretches.  The loop leaves room for the
    samples, so that the whole run, warm-up included, takes about
    `--seconds`."""
    # None is a set-up sample; they are spread among the cold starts
    colds = sample * COLD_REPEATS
    pending = []
    for i in range(SETUP_REPEATS):
        pending += [None] + colds[i * len(colds) // SETUP_REPEATS:
                                  (i + 1) * len(colds) // SETUP_REPEATS]
    setup, cold = [], []
    cold_failed = 0
    sample_s = []

    def take():
        nonlocal cold_failed
        item = pending.pop(0)
        t0 = time.perf_counter()
        if item is None:
            setup.append(setup_sample(args.workload, args.seed))
        else:
            ms, ok = cold_sample(runner, item)
            cold.append(ms)
            if not ok:
                cold_failed += 1
                runner.note(item, "cold start: exit code or stdout differs")
        sample_s.append(time.perf_counter() - t0)

    take()
    interval = max(0.0, deadline - time.perf_counter()) / (len(pending) + 1)
    due = time.perf_counter() + interval

    def after_job():
        nonlocal due
        if pending and time.perf_counter() >= due:
            take()
            due += interval

    timings = []
    round_times = [round_s]
    rounds = 0
    loop_s = 0.0
    failed_before = runner.failed
    while True:
        t0 = time.perf_counter()
        taken = len(sample_s)
        runner.round(timings, after_job)
        round_times.append(time.perf_counter() - t0 - sum(sample_s[taken:]))
        loop_s += round_times[-1]
        rounds += 1
        est = statistics.median(round_times)
        left_s = len(pending) * statistics.mean(sample_s)
        # stop when another round would end past the deadline by more
        # than half a round
        if rounds >= MIN_ROUNDS and time.perf_counter() + left_s + est / 2 > deadline:
            break
    while pending:
        take()
    lat = [t for _, t in timings]
    metrics = {
        "jobs_per_s": (len(lat) - (runner.failed - failed_before)) / loop_s,
        "job_p50_ms": statistics.median(lat) * 1e3,
        "job_p90_ms": percentile_90(lat) * 1e3,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "cold_cli_ms": statistics.median(cold),
    }
    info = {"rounds": rounds, "jobs_per_round": len(runner.jobs), "loop_s": loop_s,
            "percentile_samples": len(lat), "setup_samples": len(setup),
            "cold_cli_samples": len(cold), "classes_n_p50ms": class_summary(timings),
            "past_deadline_s": time.perf_counter() - deadline}
    # cold starts are jobs too: they count as attempted and can fail
    runner.attempted += len(cold)
    runner.failed += cold_failed
    return metrics, info


def run_traced(args, runner: Runner, deadline: float) -> tuple:
    """The layer size sweep with tracing off, then pairs of one untraced
    and one traced round until `deadline`.  Alternating the two puts both
    in the same stretches of a shared machine's load, so that their ratio,
    trace.overhead_frac, shows the wrappers and not the machine."""
    metrics = sweep.run(args.seed)
    rec = spans.Recorder()
    plain, traced = [], []
    while not traced or time.perf_counter() + plain[-1] + traced[-1] / 2 < deadline:
        r0 = time.perf_counter()
        runner.round()
        plain.append(time.perf_counter() - r0)
        runner.recorder = rec
        with spans.Instrumentation(rec) as inst:
            r0 = time.perf_counter()
            runner.round()
            traced.append(time.perf_counter() - r0)
        runner.recorder = None
    metrics.update(layers.layer_metrics(rec.spans, rec.counts, len(traced)))
    metrics["trace.overhead_frac"] = statistics.median(traced) / statistics.median(plain) - 1
    info = {"rounds": len(plain), "jobs_per_round": len(runner.jobs),
            "spans": len(rec.spans), "wrapped": len(inst.wrapped)}
    return metrics, info


# ---------------------------------------------------------------------------
# entry points


def prepare(workload: str, seed: int, workdir: str) -> tuple:
    inputs = workloads.build_inputs(workload, seed, workdir)
    return workloads.JOB_LISTS[workload](inputs)


def run_workload(args) -> int:
    deadline = time.perf_counter() + args.seconds
    record = run_record(args.workload, args.seed)
    probe = [speed_probe()]
    workdir = os.path.join(WORK, "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    try:
        jobs, sample = prepare(args.workload, args.seed, workdir)
        runner = Runner(jobs)
        # warm-up: fills caches, checks outputs and records the references
        t0 = time.perf_counter()
        runner.round()
        round_s = time.perf_counter() - t0
        if args.trace:
            metrics, info = run_traced(args, runner, deadline)
            units = {name: layers.unit(name) for name in metrics}
        else:
            metrics, info = run_untraced(args, runner, sample, round_s, deadline)
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    probe.append(speed_probe())
    failed = runner.failed + runner.span_failed
    info.update(attempted=runner.attempted, failed=failed,
                failed_frac=failed / runner.attempted, speed_probe_ms=probe)
    for line in runner.failures:
        print("# FAILED %s" % line, file=sys.stderr)
    print("# record %s" % json.dumps(record, sort_keys=True))
    print("# run %s" % json.dumps(info, sort_keys=True))
    print("# metric %-40s %14.6f %s" % ("failed_frac", info["failed_frac"], "ratio"))
    for name in sorted(metrics):
        print("# metric %-40s %14.6f %s" % (name, metrics[name], units[name]))
    print(json.dumps({"correct": failed == 0, "attempted": runner.attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": units[k]}
                                  for k, v in metrics.items()}}))
    return 0


def setup_only(args) -> int:
    t0 = time.perf_counter()
    import floer_workbench  # noqa: F401  (import time is part of set-up)
    os.makedirs(args.dir, exist_ok=True)
    workloads.build_inputs(args.workload, args.seed, args.dir)
    print(repr(time.perf_counter() - t0))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true",
                        help="check coverage, outputs, span accounting and metric names")
    parser.add_argument("--quick", action="store_true",
                        help="with --self-check: one round, no multi-second jobs")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--dir", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "floer_workbench")):
        print("bench: no floer_workbench package under %s" % SRC, file=sys.stderr)
        return 2
    os.environ.pop("FLOER_WORKBENCH_THREADS", None)
    sys.path.insert(0, SRC)
    if args.setup_only:
        return setup_only(args)
    if args.self_check:
        import selfcheck
        return selfcheck.run(args, quick=args.quick)
    if not args.workload:
        parser.error("--workload is required")
    if args.workload == "all":
        # one process per workload, so that peak_rss_mb is the workload's own
        return max(subprocess.run([sys.executable, os.path.abspath(__file__), "--workload", name,
                                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                                   "--trace", str(args.trace)], cwd=ROOT).returncode
                   for name in workloads.WORKLOADS)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
