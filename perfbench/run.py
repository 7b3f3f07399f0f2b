"""filtermc benchmark: one workload's mix of CLI jobs in a closed loop.

Run from the repository root:

    python3 perfbench/run.py --workload paths --seed 1 --seconds 20 --trace 0

The benchmark builds its inputs from ``--seed`` under ``.perfbench_work/``,
runs one untimed pass of the workload's jobs through
``filtermc.cli.run(argv)`` and checks every output, then repeats whole
passes until ``--seconds`` have elapsed, one job at a time in this process.
Every repeated job must reproduce the checked output byte for byte.

``--trace 0`` reports the end-to-end metrics; set-ups run again before
each timed pass, so that set-up and jobs are timed over the same stretches
of the run.  Times are reported at a reference host speed: a fixed kernel
that calls no filtermc code is timed next to every job and set-up, and
each wall time is divided by how much slower than its reference time the
kernel ran (``HostClock``).  The report keeps the plain wall-clock values.
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of one set-up plus one pass, with
``trace.overhead_frac`` comparing the two kinds of pass.  Metric names and
units are read from ``BENCHMARK.json``.
The last line of stdout is the result object; the line before it is a
report with the environment, sample counts and per-job timings.
"""

from __future__ import annotations

import argparse
import bisect
import ctypes
import glob
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks
import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
# "end_to_end" / "per_layer" -> metric name -> unit, as BENCHMARK.json lists them
UNITS = {kind: {m["name"]: m["unit"] for m in metrics}
         for kind, metrics in json.loads((ROOT / "BENCHMARK.json").read_text()).items()
         if kind in ("end_to_end", "per_layer")}
TAIL_SAMPLES = 10  # samples a reported percentile must leave above it
SETUP_SECONDS = 0.25  # set-up time before each timed pass; at least one set-up
SETUP_GROUPS = 4  # setup_s is the median of this many interleaved groups' means
REFERENCE_S = 3.5e-4  # the reference kernel's best-of-3 time at the reference host speed
FRESH_S = 0.05  # no new host-speed reading before a call if the last is younger than this
WINDOW_S = 0.5  # a call's host speed is the median reading within this of its start and end
MMAP_THRESHOLD = 32 << 20  # glibc's largest; bigger blocks are still mapped
TRIM_THRESHOLD = 1 << 30


@dataclass
class Result:
    code: int
    span: tuple[float, float]  # perf_counter at the job's start and end
    stdout: str
    files: dict[str, bytes]

    def digest(self) -> str:
        h = hashlib.sha256(f"{self.code}\n{self.stdout}".encode())
        for name in sorted(self.files):
            h.update(name.encode() + b"\0" + self.files[name])
        return h.hexdigest()


def import_cli():
    """filtermc.cli from this checkout's sources, never an installed copy."""
    src = ROOT / "src"
    if not (src / "filtermc" / "cli.py").is_file():
        sys.exit(f"error: {src / 'filtermc'} not found; run from a filtermc checkout")
    sys.path.insert(0, str(src))
    from filtermc import cli
    if Path(cli.__file__).resolve().parent != src / "filtermc":
        sys.exit(f"error: imported filtermc from {cli.__file__}, not from {src}")
    return cli


def reference_work() -> float:
    """A fixed mix of interpreter and small-array numpy work, 0.35 ms at the
    reference speed.  It calls no filtermc code, so no change to the program
    can make it faster or slower."""
    s = 0
    for i in range(2000):
        s += i * i % 7
    a = np.linspace(0.0, 1.0, 2048)
    for _ in range(40):
        a = np.sqrt(a * 1.0001 + 1.0)
    return s + float(a[0])


class HostClock:
    """Times calls, and converts their wall time to the reference host speed.

    A shared host runs this process at about 1x or about 1.5x of its speed
    for stretches of seconds to minutes (README).  The reference kernel runs
    before and after each timed call; its best-of-3 time over
    ``REFERENCE_S`` is a reading of the host's slowness.  A call's time at
    the reference speed is its wall time divided by the median of the
    readings taken within ``WINDOW_S`` of it.
    """

    def __init__(self):
        self.at: list[float] = []  # perf_counter of each reading, increasing
        self.readings: list[float] = []

    def read(self) -> None:
        best = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            reference_work()
            best = min(best, time.perf_counter() - t0)
        self.at.append(time.perf_counter())
        self.readings.append(best / REFERENCE_S)

    def time(self, fn, *args):
        """Call fn; return its value and the call's (start, end)."""
        if not self.at or time.perf_counter() - self.at[-1] > FRESH_S:
            self.read()
        t0 = time.perf_counter()
        value = fn(*args)
        t1 = time.perf_counter()
        self.read()
        return value, (t0, t1)

    def seconds(self, span: tuple[float, float]) -> float:
        """The span's wall time at the reference host speed."""
        lo = bisect.bisect_left(self.at, span[0] - WINDOW_S)
        hi = bisect.bisect_right(self.at, span[1] + WINDOW_S)
        return (span[1] - span[0]) / statistics.median(self.readings[lo:hi])


def quiet(fn, *args):
    """Call fn with stdout and stderr captured; return (value, stdout)."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        value = fn(*args)
    return value, out.getvalue()


def run_job(cli, job, clock: HostClock) -> Result:
    """Run one job; an exception it raises becomes exit code -1."""
    def call():
        try:
            return quiet(cli.run, job.argv)
        except Exception:  # a crashing job is a failed job, not a failed benchmark
            return -1, traceback.format_exc()

    (code, stdout), span = clock.time(call)
    files = {}
    for path in job.outputs:
        try:
            with open(path, "rb") as fh:
                files[path] = fh.read()
        except OSError:
            pass  # the check reports the missing output
    return Result(code, span, stdout, files)


def tree_digest(directory: Path) -> str:
    """Digest of every file's name and bytes under ``directory``."""
    h = hashlib.sha256()
    for path in sorted(directory.iterdir()):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def steady_malloc() -> str | None:
    """Fix glibc's allocation thresholds for the whole run.

    By default glibc maps every large block afresh and raises the threshold
    only as blocks are freed, so the first passes of a run take hundreds of
    thousands of page faults that later passes do not (a third of the pass
    time on a 2-vCPU VM).  Fixed thresholds let the heap keep and reuse
    freed memory from the start, so every pass pays the same.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except AttributeError:  # not glibc
        return None
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt.restype = ctypes.c_int
    M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3
    if mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD) and mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD):
        return f"mmap_threshold={MMAP_THRESHOLD} trim_threshold={TRIM_THRESHOLD}"
    return None


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, if it can be asked."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for lib in libs:
        dll = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(dll, sym, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args, malloc: str | None) -> dict:
    import scipy
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "malloc": malloc,
        "machine": platform.machine(),
        "commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


class Bench:
    """One workload run: set-ups, the checked first pass, then timed passes."""

    def __init__(self, cli, workload: str, seed: int, workdir: Path):
        self.cli = cli
        self.workload, self.seed, self.workdir = workload, seed, workdir
        self.failures: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.jobs = None
        self.clock = HostClock()
        self.setup_spans: list[tuple[float, float]] = []

    def run_cli(self, argv) -> int:
        return quiet(self.cli.run, argv)[0]

    def setup(self) -> None:
        """Build the inputs in a fresh directory and time it.  The first
        set-up's jobs are the ones the passes run; every later set-up must
        write the same bytes, and its directory is removed."""
        directory = self.workdir / f"setup-{len(self.setup_spans)}"
        jobs, span = self.clock.time(workloads.setup, self.workload, self.run_cli,
                                     directory, self.seed)
        self.setup_spans.append(span)
        digest = tree_digest(directory)
        if self.jobs is None:
            self.jobs, self.setup_digest = jobs, digest
            return
        if digest != self.setup_digest:
            self.failures.append("repeated set-ups wrote different inputs")
        shutil.rmtree(directory)

    def first_pass(self, jobs) -> None:
        """Untimed pass: lets lazy imports finish and checks every output."""
        self.reference = []
        for job in jobs:
            res = run_job(self.cli, job, self.clock)
            reason = checks.check(job, res)
            if reason is not None:
                self.failures.append(f"{job.kind}: {reason}")
            self.reference.append((res.digest(), reason is None))

    def timed_pass(self, jobs) -> list[Result]:
        """One pass; a job fails unless it reproduces its checked output."""
        results = []
        for job, (digest, ok) in zip(jobs, self.reference):
            res = run_job(self.cli, job, self.clock)
            self.attempted += 1
            if not ok or res.digest() != digest:
                self.failed += 1
                if ok:
                    self.failures.append(f"{job.kind}: output differs from the first pass")
            results.append(res)
        return results


def wall(span: tuple[float, float]) -> float:
    return span[1] - span[0]


def timing_metrics(seconds, jobs: list[tuple[float, float]], setups: list[tuple[float, float]]):
    """The timed end-to-end metrics, with ``seconds`` converting each span."""
    samples = [seconds(span) for span in jobs]
    level = max(0.0, min(0.9, 1.0 - TAIL_SAMPLES / len(samples)))
    setup_s = [seconds(span) for span in setups]
    groups = min(SETUP_GROUPS, len(setup_s))
    return {
        "jobs_per_s": len(samples) / sum(samples),
        "job_s_p50": statistics.median(samples),
        "job_s_p90": float(np.percentile(samples, 100 * level)),
        "setup_s": statistics.median(statistics.fmean(setup_s[k::groups]) for k in range(groups)),
    }


def end_to_end(bench: Bench, seconds: float, report: dict) -> dict[str, float]:
    passes: list[list[tuple[float, float]]] = []  # job spans; outputs are not kept
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        spent = sum(map(wall, bench.setup_spans))
        while sum(map(wall, bench.setup_spans)) - spent < SETUP_SECONDS:
            bench.setup()
        passes.append([res.span for res in bench.timed_pass(bench.jobs)])
    jobs = [span for spans in passes for span in spans]
    times: dict[str, list[float]] = {}
    for job, span in zip(bench.jobs * len(passes), jobs):
        times.setdefault(job.kind, []).append(bench.clock.seconds(span))
    slowness = bench.clock.readings
    report.update(passes=len(passes), samples=len(jobs),
                  tail_level=round(max(0.0, min(0.9, 1.0 - TAIL_SAMPLES / len(jobs))), 4),
                  setups=len(bench.setup_spans),
                  job_s_median={k: statistics.median(v) for k, v in times.items()},
                  host_slowness={"readings": len(slowness), "min": min(slowness),
                                 "median": statistics.median(slowness), "max": max(slowness)},
                  wall_clock=timing_metrics(wall, jobs, bench.setup_spans))
    return {
        **timing_metrics(bench.clock.seconds, jobs, bench.setup_spans),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(bench: Bench, seconds: float, report: dict) -> dict[str, float]:
    residual = tracer.wrapper_residual()
    setup_tracer = tracer.Tracer(residual)
    with setup_tracer:
        bench.setup()

    pass_tracer = tracer.Tracer(residual)
    values = pass_tracer.values
    walls = {"untraced": 0.0, "traced": 0.0}
    spans = {"untraced": [], "traced": []}
    traced_failed = 0
    start = time.perf_counter()
    pairs = 0
    while pairs == 0 or time.perf_counter() - start < seconds:
        spans["untraced"] += [res.span for res in bench.timed_pass(bench.jobs)]
        failed = bench.failed
        with pass_tracer:
            results = bench.timed_pass(bench.jobs)
        spans["traced"] += [res.span for res in results]
        traced_failed += bench.failed - failed
        for job, res in zip(bench.jobs, results):
            if job.argv[0] == "check":
                verdict = json.loads(res.files[job.outputs[0]])
                values["stability.check_jobs"] += 1
                values["stability.decided"] += verdict["kind"] != "undecided"
            elif job.argv[0] == "entropy":  # the pruned mass the CLI reports
                last = res.files[job.outputs[0]].decode().splitlines()[-1]
                values["entropy.jobs"] += 1
                values["entropy.reported_pruned_mass"] += float(last.split(",")[-1])
        pairs += 1

    for kind in walls:  # at the reference host speed, like the end-to-end times
        walls[kind] = sum(map(bench.clock.seconds, spans[kind]))
    totals = dict(setup_tracer.values)
    for key, value in values.items():
        totals[key] = totals.get(key, 0.0) + value / pairs
    totals["trace.overhead_frac"] = walls["traced"] / walls["untraced"] - 1.0
    report.update(pairs=pairs, wall_untraced_s=walls["untraced"], wall_traced_s=walls["traced"],
                  wrapper_residual_us=residual * 1e6, traced_failed=traced_failed)
    return tracer.layer_metrics(totals, UNITS["per_layer"])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.MIXES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    cli = import_cli()
    malloc = steady_malloc()
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    report = {"env": environment(args, malloc)}
    try:
        bench = Bench(cli, args.workload, args.seed, workdir)
        bench.setup()
        bench.first_pass(bench.jobs)
        if args.trace:
            metrics = per_layer(bench, args.seconds, report)
        else:
            metrics = end_to_end(bench, args.seconds, report)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()  # only when no other run is using it
        except OSError:
            pass

    units = UNITS["per_layer" if args.trace else "end_to_end"]
    report.update(jobs_per_pass=len(bench.jobs), attempted=bench.attempted, failed=bench.failed,
                  failed_frac=bench.failed / bench.attempted, failures=bench.failures[:20])
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": not bench.failures and bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
