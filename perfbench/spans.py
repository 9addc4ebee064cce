"""In-memory span recorder for the traced benchmark run.

Spans are recorded from the benchmark's side of each layer boundary: every
traced library function is replaced by a timing wrapper in every
``dimwitness`` module that binds it, so calls made inside the package
(``witness.build_report`` calling ``greedy_subset``, ``cli`` calling
``read_counts_csv`` through its own ``from .measurement import ...``) are
recorded too.  The package source is not modified.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from contextlib import contextmanager
from time import perf_counter

# Public functions timed in the traced run, by layer.  ``modes`` is on no hot
# path and the tiny constructors (``correlated_pure``, ``bound``, ...) would
# only add wrapper cost, so they are left out.
TRACED = {
    "measurement": ("simulate_counts", "write_counts_csv", "read_counts_csv",
                    "write_counts_json", "read_counts_json"),
    "witness": ("table_from_dataset", "build_report", "monte_carlo_ci",
                "greedy_subset", "witness_sum", "per_mode_contribution",
                "robustness_study", "witness_with_perturbed_projectors"),
    "states": ("perturb_state", "state_from_elements"),
    "oracle": ("brute_force_witness", "random_correlated_mixture",
               "random_rank_d_search"),
}

TRACED_NAMES = [f"{layer}.{fn}" for layer, fns in TRACED.items() for fn in fns]


class Tracer:
    """Records (id, parent, job, name, start, end) spans in memory."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.job = None

    @contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        rec = [sid, parent, self.job, name, perf_counter(), None]
        self.spans.append(rec)
        self._stack.append(sid)
        try:
            yield
        finally:
            rec[5] = perf_counter()
            self._stack.pop()

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    @contextmanager
    def installed(self):
        """Patch every traced function under each name it is looked up by;
        restore the originals on exit."""
        patched = []
        try:
            for layer, fns in TRACED.items():
                mod = importlib.import_module(f"dimwitness.{layer}")
                for fn in fns:
                    orig = getattr(mod, fn)
                    wrapper = self._wrap(f"{layer}.{fn}", orig)
                    for other in list(sys.modules.values()):
                        if not getattr(other, "__name__", "").startswith("dimwitness"):
                            continue
                        for attr, val in list(vars(other).items()):
                            if val is orig:
                                setattr(other, attr, wrapper)
                                patched.append((other, attr, orig))
            yield self
        finally:
            for mod, attr, orig in reversed(patched):
                setattr(mod, attr, orig)

    def summary(self) -> dict:
        """Per span name: inclusive seconds, self seconds and call count.

        Self time is the span's duration minus that of its direct children;
        spans are strictly nested (one thread), so children never overlap.
        """
        child = [0.0] * len(self.spans)
        for sid, parent, _, _, start, end in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = {}
        for sid, _, _, name, start, end in self.spans:
            agg = out.setdefault(name, {"total_s": 0.0, "self_s": 0.0, "calls": 0})
            agg["total_s"] += end - start
            agg["self_s"] += end - start - child[sid]
            agg["calls"] += 1
        return out

    def children(self, sid: int) -> list:
        return [s for s in self.spans if s[1] == sid]

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["id", "parent", "job", "name", "start", "end"],
                       "spans": self.spans}, fh)
            fh.write("\n")
