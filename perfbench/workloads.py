"""The three benchmark workloads.

Each workload is a closed loop with one client: a job starts only after the
previous one has finished.  ``job(j, cli, clock)`` runs job ``j``, times it,
checks its outputs and returns a :class:`Job`.  ``cli`` runs one
``dimwitness`` subcommand and returns its time: in a fresh interpreter,
timed by the run's clock, for the timed runs; in-process (and optionally
traced), in wall time, for the traced run.  ``clock.time(fn)`` times the
job's in-process parts (see refclock.py).  Library calls go through module
attributes (``measurement.simulate_counts``) so that the traced run's
wrappers see them.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import subprocess
import sys
from contextlib import nullcontext, redirect_stdout
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from time import perf_counter

import numpy as np

# A command that has not finished after this long has hung; the whole run
# must end within 180 s.
COMMAND_TIMEOUT_S = 170

# |W - W_noise_free| must stay within this many bootstrap sigmas.  Over
# 300 scan_D8 datasets the largest deviation seen was 2.9 sigma, and the
# D = 186 pipeline lands within 0.01 sigma, so 6 sigma only fails on a real
# estimation error.
SIGMA_TOLERANCE = 6.0


class JobError(Exception):
    """A command failed or produced unusable output."""


@dataclass
class Job:
    time_s: float                                 # the job's time, by the clock
    stages: dict = field(default_factory=dict)    # stage name -> seconds
    outputs: dict = field(default_factory=dict)   # file name -> sha256
    counts: dict = field(default_factory=dict)    # per-layer work counts
    problems: list = field(default_factory=list)  # failed output checks


def job_seed(seed: int, j: int) -> int:
    """Seed of job j, derived from the workload seed."""
    return int(np.random.SeedSequence([seed, j]).generate_state(1)[0])


def sha256(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


class SubprocessCLI:
    """Runs ``dimwitness <argv>`` in a fresh interpreter, as a shell does."""

    def __init__(self, env: dict, clock):
        self.env, self.clock = env, clock

    def __call__(self, argv: list) -> float:
        proc, elapsed = self.clock.run([sys.executable, "-m", "dimwitness.cli", *argv],
                                       self.env, COMMAND_TIMEOUT_S)
        if proc.returncode != 0:
            raise JobError(f"dimwitness {argv[0]} exited {proc.returncode}: "
                           f"{proc.stderr.strip()}")
        return elapsed


class InProcessCLI:
    """Runs ``dimwitness.cli.main(argv)`` in this process, inside a
    ``cli.<command>`` span when a tracer is given."""

    def __init__(self, tracer=None):
        self.tracer = tracer

    def __call__(self, argv: list) -> float:
        from dimwitness import cli

        span = self.tracer.span(f"cli.{argv[0]}") if self.tracer else nullcontext()
        t0 = perf_counter()
        try:
            with redirect_stdout(io.StringIO()), span:
                cli.main(argv)
        except SystemExit as exc:
            raise JobError(f"dimwitness {argv[0]} exited {exc.code}") from exc
        return perf_counter() - t0


def _certificate_problems(W, sigma, certified_d, best_d, D, W_ref) -> list:
    """Checks shared by paper_D186 and scan_D8."""
    from dimwitness import witness

    problems = []
    if certified_d != witness.certified_dimension(W, D):
        problems.append(f"certified_d {certified_d} != certified_dimension(W, {D})")
    if W > 3 * D * (D - 1) / 2:
        problems.append(f"W {W} above the cap 3 D(D-1)/2")
    if not sigma or abs(W - W_ref) > SIGMA_TOLERANCE * sigma:
        problems.append(f"W {W} not within {SIGMA_TOLERANCE} sigma "
                        f"(sigma {sigma}) of the noise-free {W_ref}")
    if best_d < certified_d:
        problems.append(f"optimized d {best_d} below certified d {certified_d}")
    return problems


class PaperD186:
    """simulate -> certify -> optimize through the CLI at paper scale."""

    name = "paper_D186"

    def __init__(self, work: Path, seed: int, smoke: bool):
        self.work, self.seed = work, seed
        self.D = 4 if smoke else 186
        self.flux = 1e6
        self.lambda_l, self.lambda_n = 8.0, 4.0
        self.resamples = 20 if smoke else 200
        self.mode_file = work / "modes.json"

    def sizes(self) -> dict:
        return {"D": self.D, "flux": self.flux, "lambda_l": self.lambda_l,
                "lambda_n": self.lambda_n, "resamples": self.resamples,
                "mode_grid": "l_max 11, n_max 13, lowest (2n+|l|, n, l)"}

    def _modes(self):
        from dimwitness.modes import ModeSet, enumerate_modes

        grid = enumerate_modes(11, 13)
        chosen = sorted(grid.modes, key=lambda m: (2 * m.n + abs(m.l), m.n, m.l))
        return ModeSet(tuple(chosen[:self.D]))

    def build_inputs(self) -> None:
        self._modes().save(self.mode_file)

    @cached_property
    def W_ref(self) -> float:
        """Noise-free W of the generating state."""
        from dimwitness import states, witness

        modes = self._modes()
        amps = states.spdc_profile(modes, self.lambda_l, self.lambda_n)
        return witness.witness_correlated(states.correlated_pure(amps, modes).coeffs)

    def job(self, j: int, cli, clock) -> Job:
        s = str(job_seed(self.seed, j))
        counts, report, traj = (str(self.work / n) for n in
                                ("counts.csv", "report.json", "trajectory.json"))
        common = ["--mode-file", str(self.mode_file), "--flux", repr(self.flux)]
        stages = {
            "simulate_s": cli(["simulate", *common, "--profile", "exponential",
                               "--lambda-l", repr(self.lambda_l),
                               "--lambda-n", repr(self.lambda_n),
                               "--seed", s, "--output", counts]),
            "certify_s": cli(["certify", "--input", counts, *common,
                              "--resamples", str(self.resamples), "--seed", s,
                              "--output", report]),
            "optimize_s": cli(["optimize", "--input", counts, *common,
                               "--output", traj]),
        }
        with open(report) as fh:
            rep = json.load(fh)
        with open(traj) as fh:
            tr = json.load(fh)
        with open(counts, "rb") as fh:
            rows = fh.read().count(b"\n") - 1
        pairs = self.D * (self.D - 1) // 2
        return Job(
            time_s=sum(stages.values()), stages=stages,
            outputs={n: sha256(p) for n, p in
                     (("counts.csv", counts), ("report.json", report),
                      ("trajectory.json", traj))},
            counts={"measurement.rows": rows,
                    "measurement.csv_bytes": os.path.getsize(counts),
                    "witness.pairs": pairs,
                    "witness.resamples": self.resamples,
                    "witness.greedy_steps": (len(rep["subset_trajectory"])
                                             + len(tr["trajectory"]))},
            problems=_certificate_problems(rep["W"], rep["sigma"], rep["certified_d"],
                                           tr["best_certified_d"], self.D, self.W_ref))

    @staticmethod
    def report(jobs: list) -> list:
        lines = [("pipeline_s", np.median([jb.time_s for jb in jobs]), "s")]
        for stage in ("simulate_s", "certify_s", "optimize_s"):
            lines.append((stage, np.median([jb.stages[stage] for jb in jobs]), "s"))
        return [(n, v, u, f"median of {len(jobs)} pipelines") for n, v, u in lines]


class ScanD8:
    """Many small seeded datasets through the library, JSON count files."""

    name = "scan_D8"

    def __init__(self, work: Path, seed: int, smoke: bool):
        self.work, self.seed = work, seed
        self.D = 4 if smoke else 8
        self.flux = 1e5
        self.resamples = 20 if smoke else 200
        self.amp_range = (0.1, 1.0)

    def sizes(self) -> dict:
        return {"D": self.D, "flux": self.flux, "resamples": self.resamples,
                "amplitudes": f"uniform{self.amp_range}, normalized"}

    def build_inputs(self) -> None:
        from dimwitness.modes import generic_mode_set

        self.modes = generic_mode_set(self.D)

    def job(self, j: int, cli, clock) -> Job:
        from dimwitness import measurement, states, witness

        amps = np.random.default_rng([self.seed, j]).uniform(*self.amp_range, self.D)
        s = job_seed(self.seed, j)
        path = self.work / "counts.json"

        def dataset():
            state = states.correlated_pure(amps, self.modes)
            ds = measurement.simulate_counts(state, self.flux, seed=s)
            measurement.write_counts_json(ds, path)
            ds = measurement.read_counts_json(path)
            rep = witness.build_report(witness.table_from_dataset(ds), dataset=ds,
                                       n_resamples=self.resamples, seed=s)
            return state, ds, rep

        (state, ds, rep), elapsed = clock.time(dataset)
        report_bytes = json.dumps(rep.to_json(), sort_keys=True).encode()
        pairs = self.D * (self.D - 1) // 2
        return Job(
            time_s=elapsed,
            outputs={"counts.json": sha256(path),
                     "report.json": hashlib.sha256(report_bytes).hexdigest()},
            counts={"measurement.rows": len(ds.counts),
                    "measurement.json_bytes": os.path.getsize(path),
                    "witness.pairs": pairs,
                    "witness.resamples": self.resamples,
                    "witness.greedy_steps": len(rep.subset_trajectory)},
            problems=_certificate_problems(
                rep.W, rep.sigma, rep.certified_d,
                max(d for _, d, _ in rep.subset_trajectory), self.D,
                witness.witness_correlated(state.coeffs)))

    @staticmethod
    def report(jobs: list) -> list:
        ms = np.array([jb.time_s for jb in jobs]) * 1e3
        n = ms.size
        # highest whole percentile with at least ten samples beyond it
        q = max((p for p in range(51, 100) if n * (100 - p) / 100 >= 10), default=None)
        lines = [("datasets_per_s", n / (ms.sum() / 1e3), "1/s", f"{n} datasets"),
                 ("dataset_ms_p50", float(np.median(ms)), "ms", f"{n} samples")]
        if q is not None:
            beyond = int(np.sum(ms > np.percentile(ms, q)))
            lines.append((f"dataset_ms_p{q}", float(np.percentile(ms, q)), "ms",
                          f"{n} samples, {beyond} beyond"))
        return lines


class FalsifySmallD:
    """Small-D oracle work: the README robustness command, then a random
    rank-d search over every (D, d) with D <= 6."""

    name = "falsify_small_D"

    def __init__(self, work: Path, seed: int, smoke: bool):
        self.work, self.seed = work, seed
        self.amplitudes = "0.5,0.07,0.01,0.01"
        self.trials = 20 if smoke else 1000
        self.strength_max = 0.2
        self.D_max = 3 if smoke else 6
        self.iters = 10 if smoke else 250

    def sizes(self) -> dict:
        return {"amplitudes": self.amplitudes, "trials": self.trials,
                "strength_max": self.strength_max, "search_D_max": self.D_max,
                "search_iterations_per_D_d": self.iters}

    def build_inputs(self) -> None:
        self.grid = [(D, d) for D in range(2, self.D_max + 1) for d in range(1, D + 1)]

    def job(self, j: int, cli, clock) -> Job:
        from dimwitness import oracle, witness

        out = str(self.work / "robustness.json")
        t_rob = cli(["robustness", "--amplitudes", self.amplitudes, "--kind", "both",
                     "--trials", str(self.trials),
                     "--strength-max", repr(self.strength_max),
                     "--seed", str(job_seed(self.seed, j)), "--output", out])
        # one timed part per (D, d) cell, each short enough for the clock
        cells = [clock.time(lambda: oracle.random_rank_d_search(
                     D, d, self.iters, np.random.default_rng([self.seed, j, D, d])))
                 for D, d in self.grid]
        maxima = [m for m, _ in cells]
        t_search = sum(t for _, t in cells)
        with open(out) as fh:
            frac = json.load(fh)["fraction_non_increasing"]
        problems = [] if frac >= 0.99 else [f"fraction_non_increasing {frac} < 0.99"]
        problems += [f"search max {m} above bound({D}, {d}) + 1e-6"
                     for (D, d), m in zip(self.grid, maxima)
                     if m > witness.bound(D, d) + 1e-6]
        states = self.iters * len(self.grid)
        return Job(
            time_s=t_rob + t_search,
            stages={"robustness_s": t_rob, "search_states_per_s": states / t_search},
            outputs={"robustness.json": sha256(out),
                     "search_maxima": hashlib.sha256(repr(maxima).encode()).hexdigest()},
            counts={"oracle.states_evaluated": states,
                    "oracle.rho_bytes": sum(self.iters * D ** 4 * 16
                                            for D, _ in self.grid)},
            problems=problems)

    @staticmethod
    def report(jobs: list) -> list:
        n = len(jobs)
        return [(name, np.median([jb.stages[name] for jb in jobs]), unit,
                 f"median of {n} jobs")
                for name, unit in (("robustness_s", "s"), ("search_states_per_s", "1/s"))]


WORKLOADS = {w.name: w for w in (PaperD186, ScanD8, FalsifySmallD)}
