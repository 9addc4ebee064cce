"""Benchmark of the dimwitness certifier.

    python3 perfbench/run.py --workload paper_D186 --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  Workloads (see perfbench/README.md): ``paper_D186``, ``scan_D8``,
``falsify_small_D``.

With ``--trace 0`` the run times the workload untraced: jobs run until
``--seconds`` have passed (at least one), CLI commands each in a fresh
interpreter, and times are in reference-speed seconds (see refclock.py).
With ``--trace 1`` it runs the same jobs twice in-process,
first untraced and then traced, checks that both passes wrote byte-identical
files, and reports per-layer self times and counts from the traced pass.
``--smoke`` shrinks every size so that a run takes a few seconds.

Human-readable lines go to stdout first; the last line is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import os

# Pin BLAS threads before numpy is imported, here and in every child.
BLAS_ENV = {v: "1" for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                             "MKL_NUM_THREADS")}
os.environ.update(BLAS_ENV)

import argparse
import json
import platform
import resource
import shutil
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np

from refclock import RefClock, WallClock, pin_to_one_cpu
from spans import TRACED_NAMES, Tracer
from workloads import WORKLOADS, InProcessCLI, JobError, SubprocessCLI

ROOT = Path(__file__).resolve().parent.parent
CLI_COMMANDS = ("simulate", "certify", "optimize", "robustness")
COUNTS = ("measurement.rows", "measurement.csv_bytes", "measurement.json_bytes",
          "witness.pairs", "witness.resamples", "witness.greedy_steps",
          "oracle.states_evaluated", "oracle.rho_bytes")


def child_env() -> dict:
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))


def import_time(env: dict, clock) -> float:
    """Time of a fresh interpreter importing dimwitness.cli."""
    proc, elapsed = clock.run([sys.executable, "-c", "import dimwitness.cli"], env, 60)
    if proc.returncode != 0:
        raise JobError(f"importing dimwitness.cli failed: {proc.stderr.strip()}")
    return elapsed


def run_job(wl, j: int, cli, clock, failures: dict):
    """One job; a failure is recorded under the job's index and the loop
    goes on."""
    try:
        job = wl.job(j, cli, clock)
    except Exception as exc:  # a failed job counts in error_rate; keep running
        traceback.print_exc(file=sys.stderr)
        failures.setdefault(j, []).append(str(exc))
        return None
    if job.problems:
        failures.setdefault(j, []).extend(job.problems)
    return job


def loop(wl, cli, clock, seconds: float, failures: dict,
         between=None) -> tuple[list, int]:
    """Closed loop, one client: jobs until `seconds` have passed.
    ``between(elapsed)`` is called after each job."""
    jobs, j, t0 = [], 0, perf_counter()
    while j == 0 or perf_counter() - t0 < seconds:
        jobs.append(run_job(wl, j, cli, clock, failures))
        j += 1
        if between:
            between(perf_counter() - t0)
    return jobs, j


def peak_rss_mb() -> float:
    return max(resource.getrusage(who).ru_maxrss
               for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024


def timed_run(wl, seconds: float, smoke: bool, failures: dict):
    env = child_env()
    clock = RefClock()
    n_setups, setups = 1 if smoke else 5, []

    def setup(elapsed=None):
        # The host's speed drifts over tens of seconds, so the set-ups are
        # spread over the run instead of all timed at its start.
        if elapsed is not None and (len(setups) >= n_setups
                                    or elapsed < len(setups) * seconds / n_setups):
            return
        setups.append(import_time(env, clock) + clock.time(wl.build_inputs)[1])

    setup()
    jobs, attempted = loop(wl, SubprocessCLI(env, clock), clock, seconds, failures,
                           between=setup)
    while len(setups) < n_setups:
        setup()
    done = [jb for jb in jobs if jb is not None]
    if not done:
        raise JobError("no job completed")
    times = [jb.time_s for jb in done]
    metrics = {"setup_s": (float(np.median(setups)), "s"),
               "job_s": (float(np.median(times)), "s"),
               "peak_rss_mb": (peak_rss_mb(), "MB")}
    lines = [("setup_s", metrics["setup_s"][0], "s", f"median of {len(setups)} set-ups")]
    lines += wl.report(done)
    lines.append(("peak_rss_mb", metrics["peak_rss_mb"][0], "MB",
                  "max over the benchmark and its child processes"))
    lines.append(("host_speed", float(np.mean(clock.speeds)), "x",
                  f"mean of {len(clock.speeds)} samples; the times above are wall "
                  "times times the speed sampled over each part (see refclock.py)"))
    return metrics, lines, attempted, {"jobs": len(times), "setups": len(setups)}


def traced_run(wl, seconds: float, failures: dict, trace_path: Path):
    env = child_env()
    wl.build_inputs()
    wall = WallClock()
    imports = [import_time(env, wall) for _ in range(3)]
    import dimwitness.cli  # noqa: F401  (so neither pass pays the import)

    plain, attempted = loop(wl, InProcessCLI(), wall, seconds / 2, failures)
    tracer = Tracer()
    traced = []
    with tracer.installed():
        for j in range(attempted):
            tracer.job = j
            with tracer.span("job"):
                traced.append(run_job(wl, j, InProcessCLI(tracer), wall, failures))
    tracer.write(trace_path)

    pairs = []
    for j, (a, b) in enumerate(zip(plain, traced)):
        if a is not None and b is not None:
            pairs.append((a, b))
            if a.outputs != b.outputs:
                failures.setdefault(j, []).append("traced and untraced outputs differ")
    if not pairs:
        raise JobError("no job completed in both passes")
    n = len(pairs)
    summary = tracer.summary()
    metrics = {}
    for name in TRACED_NAMES + [f"cli.{c}" for c in CLI_COMMANDS]:
        agg = summary.get(name, {"total_s": 0.0, "self_s": 0.0, "calls": 0})
        metrics[f"{name}_s"] = (agg["total_s"] / n, "s")
        metrics[f"{name}.self_s"] = (agg["self_s"] / n, "s")
        metrics[f"{name}.calls"] = (agg["calls"] / n, "count")
    resamples = sum(b.counts.get("witness.resamples", 0) for _, b in pairs)
    mc = summary.get("witness.monte_carlo_ci", {"total_s": 0.0})["total_s"]
    metrics["witness.bootstrap_ms_per_resample"] = (
        1e3 * mc / resamples if resamples else 0.0, "ms")
    for c in COUNTS:
        metrics[c] = (sum(b.counts.get(c, 0) for _, b in pairs) / n,
                      "bytes" if c.endswith("_bytes") else "count")
    metrics["cli.import_s"] = (float(np.median(imports)), "s")
    overhead = sum(b.time_s - a.time_s for a, b in pairs) / n
    metrics["trace.overhead_s"] = (overhead, "s")

    lines = [("trace.overhead_s", overhead, "s",
              f"traced minus untraced, mean of {n} jobs"),
             ("determinism", float(sum(a.outputs == b.outputs for a, b in pairs)), "count",
              f"of {n} jobs wrote byte-identical files traced and untraced")]
    flagged = 0
    for sid, _, job, name, start, end in tracer.spans:
        if not name.startswith("cli.") or job != 0:
            continue
        kids = [(k[3], k[5] - k[4]) for k in tracer.children(sid)]
        own = (end - start) - sum(d for _, d in kids)
        biggest = max(kids, key=lambda k: k[1], default=("none", 0.0))
        flag = own > biggest[1]
        flagged += flag
        lines.append((f"{name}.accounting", end - start, "s",
                      f"= self {own:.4f} + " + " + ".join(f"{k} {d:.4f}" for k, d in kids)
                      + (f"  FLAG: self exceeds largest child {biggest[0]}" if flag else "")))
    metrics["cli.flagged_commands"] = (float(flagged), "count")
    return metrics, lines, attempted, {"jobs_per_pass": attempted, "spans": len(tracer.spans)}


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        return subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30,
                              check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny sizes: every workload, check and the trace "
                         "writer in a few seconds")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "dimwitness" / "__init__.py").is_file():
        print(f"error: no dimwitness source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import dimwitness

    cpu = pin_to_one_cpu()

    work_root = ROOT / "perfbench" / ".work"
    work = work_root / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    wl = WORKLOADS[args.workload](work, args.seed, args.smoke)
    failures = {}
    try:
        if args.trace:
            trace_path = work_root / f"trace-{args.workload}-seed{args.seed}.json"
            metrics, lines, attempted, samples = traced_run(wl, args.seconds, failures,
                                                            trace_path)
            samples["trace_file"] = str(trace_path.relative_to(ROOT))
        else:
            metrics, lines, attempted, samples = timed_run(wl, args.seconds, args.smoke,
                                                           failures)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    provenance = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke, "git_commit": git_commit(),
        "dimwitness": dimwitness.__version__, "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": np.__version__,
        "blas_threads": BLAS_ENV, "pinned_cpu": cpu, "sizes": wl.sizes(),
        "samples": samples,
        "load": "closed loop, one client, one process at a time",
    }
    print("provenance " + json.dumps(provenance, sort_keys=True))
    for name, value, unit, note in lines:
        print(f"{name} {value:.6g} {unit}  ({note})")
    failed = len(failures)
    print(f"error_rate {failed / attempted:.6g} 1  ({failed} of {attempted} jobs failed "
          "a command or an output check)")
    for j, problems in sorted(failures.items()):
        for p in problems:
            print(f"FAILED job {j}: {p}")
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
