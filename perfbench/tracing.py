"""Spans and counts recorded around calls into numvar's public functions.

The tracer wraps functions and methods from outside the package: it swaps
each target for a timing wrapper in every numvar namespace that holds it, and
puts the originals back when it is closed.  Nothing inside `src/` changes.

A span is (module, function, iteration, duration, self time, counts).  Self
time is the span's duration minus the time covered by the traced calls it
made, so the self times of one iteration add up to the part of its wall time
spent inside traced calls.

Process-pool workers forked while tracing inherit the wrappers.  A worker
cannot hand its spans back through the pool, so it appends each finished span
as one JSON line to a file named after its pid, which the parent reads with
`collect_worker_spans`.
"""

from __future__ import annotations

import functools
import json
import os
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    module: str
    name: str
    iteration: int
    duration: float
    self_time: float
    counts: dict = field(default_factory=dict)
    worker: bool = False


# Count hooks.  "size" is the input size of the call; per-call timings are
# taken over the calls at the largest size a workload makes, so that the
# N = 10^4 block of a scan does not blur the N = 10^5 figures.

def _len_points(args, kwargs, result):
    return {"size": len(result.points), "points_dilated": len(result.points)}


def _accumulator_size(args, kwargs, result):
    return {"size": len(args[1].points)}


def _one_width(args, kwargs, result):
    return {"size": args[0].n, "widths_evaluated": 1}


def _point_set_size(args, kwargs, result):
    return {"size": len(args[0].points)}


def _rep_pairs(args, kwargs, result):
    return {"rep_table_pairs": result.pair_count}


def _gaps(args, kwargs, result):
    counts, pair_count = args[:2]
    return {"distinct_gaps": len(counts), "gap_pairs": pair_count}


def _csv_bytes(args, kwargs, result):
    return {"csv_bytes": len(result)}


# (module, attribute path, count hook).  Only layer boundaries are wrapped:
# per-gap or per-point helpers would cost more to trace than they take.
TARGETS = (
    ("points", "generate_terms", None),
    ("points", "dilate_mod1", _len_points),
    ("points", "Alpha.random_stream", None),
    ("variance", "WindowAccumulator.__init__", _accumulator_size),
    ("variance", "WindowAccumulator.tent_pair_sum", _one_width),
    ("variance", "WindowAccumulator.variance", None),
    ("variance", "variance_pairwise", None),
    ("variance", "variance_sweep", _point_set_size),
    ("dyadic", "y_window_sum", _gaps),
    ("arithmetic", "rep_table", _rep_pairs),
    ("arithmetic", "energy_window", None),
    ("arithmetic", "additive_energy", None),
    ("arithmetic", "energy_direct", None),
    ("arithmetic", "sparse_u2_mass", None),
    ("arithmetic", "gcd_sum", None),
    ("baselines", "sample_uniform", None),
    ("baselines", "bridge_path", None),
    ("baselines", "bridge_functional", None),
    ("baselines", "random_variance_experiment", None),
    ("cli", "main", None),
    ("cli", "run_scan", None),
    ("cli", "emit", _csv_bytes),
)

MODULES = ("points", "variance", "dyadic", "arithmetic", "baselines", "cli")


class Tracer:
    """Installs span wrappers on enter and removes them on exit."""

    def __init__(self, worker_dir: str):
        self.spans: list = []
        self.iteration = -1
        self._frames: list = []  # child time accumulated per open span
        self._owner = os.getpid()
        self._worker_dir = worker_dir
        self._undo: list = []

    # -- recording -----------------------------------------------------

    def _wrap(self, module: str, name: str, fn, hook):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frames = tracer._frames
            frames.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - t0
                children = frames.pop()
                if frames:
                    frames[-1] += duration
            counts = hook(args, kwargs, result) if hook else {}
            tracer._record(Span(module, name, tracer.iteration, duration,
                                duration - children, counts))
            return result

        return traced

    def _record(self, span: Span) -> None:
        if os.getpid() == self._owner:
            self.spans.append(span)
            return
        span.worker = True
        path = os.path.join(self._worker_dir, f"{os.getpid()}.jsonl")
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(span.__dict__) + "\n")

    def collect_worker_spans(self) -> None:
        """Move spans written by forked workers into this tracer."""
        if not os.path.isdir(self._worker_dir):
            return
        for entry in sorted(os.listdir(self._worker_dir)):
            path = os.path.join(self._worker_dir, entry)
            with open(path, encoding="utf-8") as fh:
                self.spans.extend(Span(**json.loads(line)) for line in fh)
            os.remove(path)

    # -- patching ------------------------------------------------------

    def __enter__(self) -> "Tracer":
        import importlib
        import sys

        os.makedirs(self._worker_dir, exist_ok=True)
        namespaces = [m for n, m in sys.modules.items()
                      if m is not None and (n == "numvar" or n.startswith("numvar."))]
        for module, path, hook in TARGETS:
            mod = importlib.import_module(f"numvar.{module}")
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(mod, cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(module, path, raw.__func__, hook))
                else:
                    new = self._wrap(module, path, raw, hook)
                setattr(cls, attr, new)
                self._undo.append((cls, attr, raw))
                continue
            orig = getattr(mod, path)
            new = self._wrap(module, path, orig, hook)
            for ns in namespaces:
                if getattr(ns, path, None) is orig:
                    setattr(ns, path, new)
                    self._undo.append((ns, path, orig))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()
