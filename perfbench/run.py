#!/usr/bin/env python3
"""centralleaf benchmark.

    python3 perfbench/run.py --workload {census,classes,certify,cli}
                             --seed N --seconds S --trace {0,1}

Runs from the root of a checkout and builds nothing: the library is
imported from ``src``.  One client, closed loop: each item (one library
call, or one cold CLI process) starts after the previous one returned.
One whole round of items runs, then further rounds until ``--seconds``
have passed; no item starts after that.  Every output is checked against
a known answer or the pinned reference in ``perfbench/reference``.
Latencies are reported in reference seconds (``speed.py``); the measured
ones are in the details line.

The last stdout line is the result object; the line before it holds run
metadata and details (failures, tail percentile, work unit).  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` the
round is run untraced for half of ``--seconds``, then once more traced,
and the metrics are the per-layer ones from ``tracing.PER_LAYER``.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(ROOT, ".perfbench")
if BENCH_DIR not in sys.path:
    sys.path.insert(0, BENCH_DIR)

import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES_BEFORE = 3
SETUP_PROBES_AFTER = 2
JOB_TIMEOUT_S = 150
MAX_REPORTED_PROBLEMS = 10


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def check_checkout():
    needed = [os.path.join(ROOT, "src", "centralleaf", name)
              for name in ("__init__.py", "cli.py", "lattices.py")]
    needed += [os.path.join(workloads.REFERENCE_DIR, w + ".json")
               for w in ("census", "classes", "cli")]
    missing = [path for path in needed if not os.path.isfile(path)]
    if missing:
        raise BenchError("not a centralleaf checkout; missing "
                         + ", ".join(os.path.relpath(p, ROOT) for p in missing))


# ---------------------------------------------------------------------------
# set-up: cold import plus building root data and inputs

def setup_probe(workload: str, seed: int):
    """Child side: time one cold set-up and print it."""
    reference = workloads.load_reference(workload)
    with speed.Sampler() as sampler:
        start = time.perf_counter()
        lib = workloads.import_library(ROOT)
        if workload == "cli":
            workloads.cli_jobs(random.Random(seed))
        else:
            workloads.build(workload, lib, seed, reference)
        end = time.perf_counter()
    measured, setup_s = sampler.convert(start, end)
    print(json.dumps({"setup_s": setup_s, "measured_setup_s": measured}))


def measure_setup(workload: str, seed: int, count: int, measured: list):
    """Set-up times (reference seconds) of ``count`` fresh processes; the
    times as measured are appended to ``measured``."""
    samples = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload,
             "--seed", str(seed), "--seconds", "1", "--trace", "0",
             "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise BenchError("set-up probe failed: " + proc.stderr[-2000:])
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        samples.append(result["setup_s"])
        measured.append(result["measured_setup_s"])
    return samples


# ---------------------------------------------------------------------------
# rounds

class Tally:
    """Latencies, work and failures over all rounds of one run.

    Every item runs at least once per round.  An in-process call is timed
    as a (start, end) span, which ``settle`` converts to latencies as
    measured and in reference seconds (``speed``) once the sampler has
    stopped; a CLI job brings its own probes (``add``).  An item's latency
    is the median of its calls.  The samples are therefore the distinct items
    of the round, and the percentiles do not move with the number of rounds.
    """

    def __init__(self):
        self.spans = []
        self.latencies = {}
        self.measured = {}
        self.work = {}
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.rounds = 0

    def time(self, key, start, end):
        self.spans.append((key, start, end))

    def settle(self, sampler):
        for key, start, end in self.spans:
            self.add(key, *sampler.convert(start, end))
        self.spans = []

    def add(self, key, measured, reference):
        self.measured.setdefault(key, []).append(measured)
        self.latencies.setdefault(key, []).append(reference)

    def record(self, key, problems, work):
        self.attempted += 1
        if problems:
            self.failed += 1
            self.work[key] = 0
            if len(self.problems) < MAX_REPORTED_PROBLEMS:
                self.problems.append(f"{key}: {'; '.join(problems)}")
        else:
            self.work.setdefault(key, work)

    def per_item(self, measured=False):
        table = self.measured if measured else self.latencies
        return [statistics.median(v) for v in table.values()]

    def rate(self, measured=False) -> float:
        """Work of one round over the sum of the items' latencies."""
        busy = sum(self.per_item(measured))
        work = sum(self.work.get(key, 0) for key in self.latencies)
        return work / busy if busy > 0 else 0.0


def repeat(run_round, seconds):
    """One whole round, then rounds cut at the deadline: a run measures
    ``seconds`` or one round, whichever is longer."""
    deadline = time.perf_counter() + seconds
    run_round(None)
    while time.perf_counter() < deadline:
        run_round(deadline)


def execute_round(items, tally, deadline=None):
    """Time each call of one round, starting none after ``deadline`` (a
    ``time.perf_counter`` value); returns (item, output, error) triples."""
    outputs = []
    for item in items:
        if deadline is not None and time.perf_counter() >= deadline:
            break
        start = time.perf_counter()
        try:
            out, err = item.call(), None
        except Exception as exc:  # a failed item is counted, not fatal
            out, err = None, f"{type(exc).__name__}: {exc}"
        tally.time(item.key, start, time.perf_counter())
        outputs.append((item, out, err))
    tally.rounds += 1
    return outputs


def check_round(outputs, tally):
    for item, out, err in outputs:
        if err is None:
            try:
                problems = item.check(out)
            except Exception as exc:
                problems = [f"check raised {type(exc).__name__}: {exc}"]
        else:
            problems = [err]
        tally.record(item.key, problems, item.work)


def run_in_process(items, seconds, tally):
    with speed.Sampler() as sampler:
        repeat(lambda deadline: check_round(execute_round(items, tally, deadline),
                                            tally), seconds)
    tally.settle(sampler)


# ---------------------------------------------------------------------------
# cli: one cold process per job

def _sympy_import_s(stderr_text: str) -> float:
    """Cumulative import time of the top-level sympy package (-X importtime)."""
    for line in stderr_text.splitlines():
        if line.startswith("import time:"):
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() == "sympy":
                return int(parts[1]) / 1e6
    return 0.0


def run_cli_job(argv, job_dir, idx, reference, traced):
    """Run one job; returns (measured_s, reference_s, max_rss_kb, problems,
    trace_or_None).  The job runs through a bootstrap that samples host
    speed inside the job's process (``cli_timed.py``, or ``cli_boot.py``
    when traced)."""
    out_path = os.path.join(job_dir, f"job{idx}.out")
    err_path = os.path.join(job_dir, f"job{idx}.err")
    if traced:
        trace_base = os.path.join(OUT_DIR, "traces", "cli", f"job{idx}")
    else:
        trace_base = os.path.join(job_dir, f"job{idx}.speed")
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    if traced:
        os.makedirs(os.path.dirname(trace_base), exist_ok=True)
        cmd = [sys.executable, "-X", "importtime",
               os.path.join(BENCH_DIR, "cli_boot.py"), trace_base]
    else:
        cmd = [sys.executable, os.path.join(BENCH_DIR, "cli_timed.py"), trace_base]
    cmd += list(argv) + ["--output", out_path]
    with open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        watchdog = threading.Timer(JOB_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
            watchdog.join()
        end = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(err_path, "r", encoding="utf-8", errors="replace") as fh:
        stderr_text = fh.read()
    problems = []
    if proc.returncode != 0:
        problems.append(f"exit code {proc.returncode}: {stderr_text[-300:].strip()}")
    elif not os.path.isfile(out_path):
        problems.append("no artifact written")
    else:
        expected = reference.get(workloads.cli_key(argv))
        if workloads.sha256_file(out_path) != expected:
            problems.append("artifact sha256 differs from the reference")
    trace, speed_info = None, None
    if os.path.isfile(trace_base + ".json"):
        with open(trace_base + ".json", "r", encoding="utf-8") as fh:
            speed_info = json.load(fh)
        if traced:
            trace = speed_info
            trace["sympy_import_s"] = _sympy_import_s(stderr_text)
    if speed_info is None:
        problems.append("the job wrote no host-speed probes")
        speed_info = {"probe_spent_s": 0.0, "probe_s": speed.REFERENCE_PROBE_S}
    leftovers = [out_path, err_path] + ([] if traced else [trace_base + ".json"])
    for path in leftovers:
        if os.path.exists(path):
            os.remove(path)
    measured = end - start - speed_info["probe_spent_s"]
    return (measured, speed.reference_seconds(measured, speed_info["probe_s"]),
            usage.ru_maxrss, problems, trace)


def run_cli_round(jobs, job_dir, reference, tally, traced=False, deadline=None):
    peak_kb, traces = 0, []
    for idx, argv in enumerate(jobs):
        if deadline is not None and time.perf_counter() >= deadline:
            break
        measured, latency, rss_kb, problems, trace = run_cli_job(
            argv, job_dir, idx, reference, traced)
        tally.add(workloads.cli_key(argv), measured, latency)
        tally.record(workloads.cli_key(argv), problems, 1)
        peak_kb = max(peak_kb, rss_kb)
        if trace is not None:
            traces.append(trace)
    tally.rounds += 1
    return peak_kb, traces


# ---------------------------------------------------------------------------
# metrics and metadata

def tail(latencies):
    """Highest percentile with at least ten samples beyond it, never below
    the median: (value, percentile, samples beyond)."""
    ordered = sorted(latencies)
    n = len(ordered)
    rank = max(n - 10, n // 2 + 1)
    return ordered[rank - 1], 100.0 * rank / n, n - rank


def metadata(seed: int, trace: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        from importlib.metadata import version
        sympy_version = version("sympy")
    except Exception:
        sympy_version = "unknown"
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src", "centralleaf")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {"nproc": os.cpu_count(), "cpu_model": cpu,
            "python": sys.version.split()[0], "sympy": sympy_version,
            "git_commit": commit, "src_sha256": digest.hexdigest(),
            "seed": seed, "tracing": bool(trace)}


def end_to_end(tally, setup_samples, measured_setup, peak_rss_mb):
    items = tally.per_item()
    value, pct, beyond = tail(items)
    metrics = {
        "throughput_per_s": {"value": tally.rate(), "unit": "1/s"},
        "item_p50_s": {"value": statistics.median(items), "unit": "s"},
        "item_tail_s": {"value": value, "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        "setup_s": {"value": statistics.median(setup_samples), "unit": "s"},
    }
    measured = tally.per_item(measured=True)
    extra = {"item_tail_percentile": pct, "item_tail_samples_beyond": beyond,
             "items": len(items), "setup_samples_s": setup_samples,
             "measured": {"throughput_per_s": tally.rate(measured=True),
                          "item_p50_s": statistics.median(measured),
                          "item_tail_s": tail(measured)[0],
                          "setup_s": statistics.median(measured_setup)}}
    return metrics, extra


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# the two kinds of run

def cross_check(workload, tracer_agg, outputs):
    """Traced counters against the outputs: a missed alias shows here."""
    labels = tracer_agg["labels"]
    calls = {k: v["calls"] for k, v in labels.items()}
    problems = []
    if workload == "census":
        lattice_total = sum(out.lattice_count for _, out, err in outputs if err is None)
        points = sum(len(out.points) for _, out, err in outputs if err is None)
        if calls.get("lattices.check", 0) != lattice_total:
            problems.append(f"lattices.checks {calls.get('lattices.check', 0)} "
                            f"!= sum of lattice_count {lattice_total}")
        if calls.get("isocrystal.certify", 0) != points:
            problems.append(f"isocrystal.certify.calls {calls.get('isocrystal.certify', 0)} "
                            f"!= point count {points}")
        return problems, {"lattices.matches": points}
    expect = {"classes": "affine.classes", "certify": "isocrystal.certify"}[workload]
    if calls.get(expect, 0) != len(outputs):
        problems.append(f"{expect} calls {calls.get(expect, 0)} != items {len(outputs)}")
    return problems, {}


def timed_setup(workload, seed, run_timed):
    """Set-up probes around the timed section: three before, two after."""
    measured = []
    samples = measure_setup(workload, seed, SETUP_PROBES_BEFORE, measured)
    result = run_timed()
    samples += measure_setup(workload, seed, SETUP_PROBES_AFTER, measured)
    return result, samples, measured


def run_in_process_workload(args):
    reference = workloads.load_reference(args.workload)
    if args.trace:
        lib = workloads.import_library(ROOT)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            items = workloads.build(args.workload, lib, args.seed, reference)
        finally:
            tracer.uninstall()
        untraced = Tally()
        run_in_process(items, args.seconds / 2, untraced)
        traced = Tally()
        tracer.install()
        try:
            with speed.Sampler() as sampler:
                outputs = execute_round(items, traced)
        finally:
            tracer.uninstall()
        traced.settle(sampler)
        check_round(outputs, traced)
        agg = tracer.aggregate()
        problems, extra = cross_check(args.workload, agg, outputs)
        tracer.dump(os.path.join(OUT_DIR, "traces", args.workload))
        extra["trace.overhead_ratio"] = (traced.rate() / untraced.rate()
                                         if untraced.rate() > 0 else 0.0)
        return untraced, traced, tracing.layer_metrics(agg, extra), problems, {}

    def run_timed():
        lib = workloads.import_library(ROOT)
        items = workloads.build(args.workload, lib, args.seed, reference)
        tally = Tally()
        run_in_process(items, args.seconds, tally)
        return tally, self_peak_rss_mb()

    (tally, peak_rss_mb), samples, measured = timed_setup(args.workload, args.seed,
                                                          run_timed)
    metrics, extra = end_to_end(tally, samples, measured, peak_rss_mb)
    return tally, None, metrics, [], extra


def run_cli_workload(args):
    reference = workloads.load_reference("cli")
    job_dir = os.path.join(OUT_DIR, f"cli-{os.getpid()}")
    os.makedirs(job_dir, exist_ok=True)
    try:
        jobs = workloads.cli_jobs(random.Random(args.seed))
        if args.trace:
            untraced = Tally()
            repeat(lambda deadline: run_cli_round(jobs, job_dir, reference, untraced,
                                                  deadline=deadline),
                   args.seconds / 2)
            traced = Tally()
            _, traces = run_cli_round(jobs, job_dir, reference, traced, traced=True)
            problems = []
            if len(traces) != len(jobs):
                problems.append(f"{len(jobs) - len(traces)} traced jobs wrote no trace")
            runs = sum(t["labels"].get("cli.run", {}).get("calls", 0) for t in traces)
            if runs != len(jobs):
                problems.append(f"cli.run calls {runs} != jobs {len(jobs)}")
            extra = {"trace.overhead_ratio": (traced.rate() / untraced.rate()
                                              if untraced.rate() > 0 else 0.0)}
            if traces:
                extra["cli.import_s"] = statistics.median(t["import_s"] for t in traces)
                extra["cli.import.sympy_s"] = statistics.median(
                    t["sympy_import_s"] for t in traces)
            metrics = tracing.layer_metrics(tracing.merge(traces), extra)
            return untraced, traced, metrics, problems, {}

        def run_timed():
            tally, peaks_kb = Tally(), []
            repeat(lambda deadline: peaks_kb.append(run_cli_round(
                jobs, job_dir, reference, tally, deadline=deadline)[0]), args.seconds)
            return tally, max(peaks_kb) / 1024.0

        (tally, peak_rss_mb), samples, measured = timed_setup("cli", args.seed,
                                                              run_timed)
        metrics, extra = end_to_end(tally, samples, measured, peak_rss_mb)
        return tally, None, metrics, [], extra
    finally:
        shutil.rmtree(job_dir, ignore_errors=True)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        check_checkout()
        if args.setup_probe:
            setup_probe(args.workload, args.seed)
            return 0
        speed.pin_to_one_cpu()
        runner = run_cli_workload if args.workload == "cli" else run_in_process_workload
        first, traced, metrics, trace_problems, extra = runner(args)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    tallies = [t for t in (first, traced) if t is not None]
    attempted = sum(t.attempted for t in tallies)
    failed = sum(t.failed for t in tallies)
    problems = [p for t in tallies for p in t.problems] + trace_problems
    details = {
        "workload": args.workload, "work_unit": workloads.WORK_UNITS[args.workload],
        "metadata": metadata(args.seed, args.trace),
        "rounds": [t.rounds for t in tallies],
        "fail_ratio": failed / attempted if attempted else 1.0,
        "problems": problems[:MAX_REPORTED_PROBLEMS], **extra,
    }
    print(json.dumps({"details": details}, sort_keys=True))
    print(json.dumps({"correct": failed == 0 and not trace_problems,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
