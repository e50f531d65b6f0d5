"""End-to-end benchmark of the zippersem CLI.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 50 --trace 0

Run from the root of a source checkout.  Generates the workload's inputs
from the seed under perfbench/.work/, sends each job through
`zippersem.cli.main(argv)` in this process (one thread, closed loop: the
next job starts when the previous one returns), checks every output
against the benchmark's own oracles outside the timed region, and prints
one JSON object as the last line of standard output.

--trace 0 reports the end-to-end metrics; --trace 1 reports the per-layer
metrics of a traced segment, a tracemalloc pass and the tracing overhead.
Details (input statistics, tail percentile, sample count, failures) go to
perfbench/results/.  See perfbench/README.md for the metric definitions.
"""

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
RESULTS = HERE / "results"

MIN_PASSES = 3          # every job runs at least this often per segment
SETUP_IMPORTS_EACH = 3  # fresh-interpreter imports per batch
SETUP_BATCHES = 10      # batches spread over the timed run, plus one at the start
TAIL_LADDER = (50, 75, 90, 95, 99, 99.9)


def tail_percentile(jobs):
    """Highest ladder percentile with at least ten of the workload's jobs
    beyond it.

    Fixed by the job count, not by how many passes a run happened to
    make, so a faster program is not reported at a stricter percentile.
    """
    return max(p for p in TAIL_LADDER if jobs * (1 - p / 100) >= 10 or p == TAIL_LADDER[0])


def percentile(sorted_values, p):
    """Nearest-rank percentile."""
    k = max(0, min(len(sorted_values) - 1, -(-len(sorted_values) * p // 100) - 1))
    return sorted_values[int(k)]


def import_cli():
    """zippersem.cli from this checkout's src/, never an installed copy."""
    if not (SRC / "zippersem" / "cli.py").is_file():
        raise SystemExit(f"error: {SRC / 'zippersem'} not found; run from a source checkout")
    sys.path.insert(0, str(SRC))
    from zippersem import cli
    if Path(cli.__file__).resolve().parent != (SRC / "zippersem").resolve():
        raise SystemExit(f"error: imported zippersem from {cli.__file__}, not {SRC}")
    return cli


class _Discard(io.TextIOBase):
    def write(self, s):
        return len(s)


class Runner:
    """Runs jobs, checks first outputs against the oracles and later ones
    against the first, and keeps the counts."""

    def __init__(self, cli, jobs):
        self.cli = cli
        self.jobs = jobs
        self.digest = [None] * len(jobs)    # hash of the checked output, or False
        self.attempted = 0
        self.failed = 0
        self.failures = []                  # first few (kind, argv, reason)
        self.bytes_out = 0
        self.pass_seconds = []

    def execute(self, job):
        out, err = io.StringIO(), io.StringIO()
        cli = self.cli
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                code = cli.main(job.argv)
            except SystemExit as exc:
                code = exc.code
            except Exception:
                code = None
                err.write(traceback.format_exc())
            dt = time.perf_counter() - t0
        return code, out.getvalue(), err.getvalue(), dt

    def verify(self, i, code, out, err):
        job = self.jobs[i]
        digest = hash((code, out, err))
        if self.digest[i] is None:          # first run: the oracle decides
            try:
                reason = job.check(code, out, err, job.expect)
            except Exception as exc:        # malformed output, e.g. bad JSON
                reason = f"{type(exc).__name__}: {exc}"
            self.digest[i] = False if reason else digest
        elif self.digest[i] is False:
            reason = "first run failed its check"
        elif self.digest[i] != digest:
            reason = "output differs from its first, checked run"
        else:
            reason = None
        if reason:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append((job.kind, job.argv, reason))

    def warm_up(self):
        """One untimed run of each command kind: lazy imports and caches."""
        seen = set()
        for job in self.jobs:
            if job.kind not in seen:
                seen.add(job.kind)
                self.execute(job)

    def measure(self, seconds, on_job=None, after_pass=None):
        """Whole passes over the jobs until `seconds` of job time and at
        least MIN_PASSES passes.  Returns each job's latencies in s and
        keeps the job time of each pass in `pass_seconds`."""
        samples = [[] for _ in self.jobs]
        self.pass_seconds = []
        while len(self.pass_seconds) < MIN_PASSES or sum(self.pass_seconds) < seconds:
            busy = 0.0
            for i, job in enumerate(self.jobs):
                if on_job:
                    on_job(job.kind)
                code, out, err, dt = self.execute(job)
                self.attempted += 1
                samples[i].append(dt)
                busy += dt
                self.bytes_out += len(out.encode("utf-8"))
                self.verify(i, code, out, err)
            self.pass_seconds.append(busy)
            if after_pass:
                after_pass()
        return samples


def job_latencies(samples):
    """Each job's fastest run over the passes.

    Other tenants of a shared machine slow everything down by 30-60%,
    for seconds or minutes at a time.  Passes are seconds apart, so a
    job's fastest run is one that such a phase missed if the run saw any
    quiet moment; a mean or a pooled percentile keeps every slow phase
    and moved by a third between runs of one seed.
    """
    return [min(s) for s in samples]


def throughput(samples):
    """Jobs per second of one pass timed at every job's fastest run."""
    return len(samples) / sum(job_latencies(samples))


def setup_sample(times):
    """Time `import zippersem.cli` in SETUP_IMPORTS_EACH fresh interpreters."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
            "import zippersem.cli; sys.stdout.write(repr(time.perf_counter() - t))")
    for _ in range(SETUP_IMPORTS_EACH):
        res = subprocess.run([sys.executable, "-I", "-c", code, str(SRC)],
                             capture_output=True, text=True, timeout=60, check=True)
        times.append(float(res.stdout))


def peak_rss_mb(jobs_file):
    """ru_maxrss of a fresh process that runs each job once."""
    res = subprocess.run([sys.executable, str(HERE / "run.py"), "--rss-child", str(jobs_file)],
                         capture_output=True, text=True, timeout=170, check=True)
    return json.loads(res.stdout.splitlines()[-1])["maxrss_kb"] / 1024


def rss_child(jobs_file):
    cli = import_cli()
    argvs = json.loads(Path(jobs_file).read_text(encoding="utf-8"))
    sink = _Discard()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        for argv in argvs:
            try:
                cli.main(argv)
            except (Exception, SystemExit):     # counted as failed by the timed run
                pass
    print(json.dumps({"maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}))


def end_to_end(runner, seconds, work):
    setup = []
    setup_sample([])                # writes the bytecode caches; not counted
    setup_sample(setup)
    runner.warm_up()
    # imports are spread over the run, like a job's runs over the passes,
    # so that the fastest one is one that the machine's load missed; a
    # batch per tenth of the job time keeps their number the same however
    # fast the jobs are
    def after_pass():
        if sum(runner.pass_seconds) >= seconds * (len(setup) // SETUP_IMPORTS_EACH) / SETUP_BATCHES:
            setup_sample(setup)
    samples = runner.measure(seconds, after_pass=after_pass)
    jobs_file = work / "jobs.json"
    # a canonical order, since the order of big jobs moves the peak
    jobs_file.write_text(json.dumps(sorted(j.argv for j in runner.jobs)), encoding="utf-8")
    rss = peak_rss_mb(jobs_file)
    lat = sorted(job_latencies(samples))
    p = tail_percentile(len(lat))
    metrics = {
        "setup_s": (min(setup), "s"),
        "throughput_jobs_per_s": (throughput(samples), "jobs/s"),
        "latency_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "latency_tail_ms": (percentile(lat, p) * 1e3, "ms"),
        "peak_rss_mb": (rss, "MB"),
    }
    by_kind = {}
    for job, latency in zip(runner.jobs, job_latencies(samples)):
        by_kind.setdefault(job.kind, []).append(latency * 1e3)
    details = {"pass_seconds": runner.pass_seconds, "jobs": len(lat), "tail_percentile": p,
               "kind_p50_ms": {k: statistics.median(v) for k, v in sorted(by_kind.items())},
               "setup_imports": len(setup),
               "failed_ratio": runner.failed / max(1, runner.attempted)}
    return metrics, details


def per_layer(runner, seconds, spans_path):
    import tracing
    runner.warm_up()
    plain = runner.measure(seconds / 2)
    tracer = tracing.Tracer()
    tracer.install_all()
    bytes_before = runner.bytes_out
    try:
        traced = runner.measure(seconds / 2, on_job=tracer.start_job)
    finally:
        tracer.restore()
    passes = len(traced[0])
    bytes_out = runner.bytes_out - bytes_before
    with tracing.MemoryProbe() as memory:
        for job in runner.jobs:
            runner.execute(job)
    tracer.write(spans_path)
    values = tracing.layer_metrics(tracer, passes, memory)
    values["formats.bytes_out"] = bytes_out / passes
    values["trace.untraced_jobs_per_s"] = throughput(plain)
    values["trace.traced_jobs_per_s"] = throughput(traced)
    values["trace.overhead_ratio"] = throughput(plain) / throughput(traced)
    declared = {m["name"]: m["unit"] for m in
                json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["per_layer"]}
    if set(declared) != set(values):
        raise SystemExit(f"per-layer metrics {sorted(set(declared) ^ set(values))} "
                         "are declared or computed but not both")
    metrics = {name: (values[name], unit) for name, unit in declared.items()}
    return metrics, {"traced_passes": passes, "spans": len(tracer.spans),
                     "spans_file": str(spans_path)}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=50)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--rss-child", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.rss_child:
        rss_child(args.rss_child)
        return 0

    sys.path.insert(0, str(HERE))
    import workloads
    if args.workload not in workloads.WORKLOADS:
        ap.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    cli = import_cli()
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        inputs = workloads.build(args.workload, args.seed, work)
        runner = Runner(cli, inputs.jobs)
        RESULTS.mkdir(exist_ok=True)
        stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        if args.trace:
            metrics, details = per_layer(runner, args.seconds, RESULTS / f"{stem}.spans.jsonl")
        else:
            metrics, details = end_to_end(runner, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    details.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                   inputs=inputs.stats, attempted=runner.attempted, failed=runner.failed,
                   failures=runner.failures)
    result = {"correct": runner.failed == 0, "attempted": runner.attempted,
              "failed": runner.failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    (RESULTS / f"{stem}.json").write_text(
        json.dumps({**details, "metrics": result["metrics"]}, indent=1) + "\n", encoding="utf-8")
    print("inputs: " + json.dumps(inputs.stats))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
