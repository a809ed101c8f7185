"""Span tracing around the public functions of each modgraph layer.

The wrappers live here, in the benchmark, and are installed at run time;
nothing under ``src/`` knows about them.  A wrapper replaces a public
function at every ``modgraph`` module namespace that binds it (so
``modgraph.experiments.gen_gnp`` and ``modgraph.generators.gen_gnp`` are
both traced), or on the class for ``Graph.from_arrays`` and friends.

Each span is a list ``[name, start, end, parent, task, counts, peak]``:
``parent`` is the index of the enclosing span (or None), ``task`` the id
of the enclosing ``experiments.task`` span, ``counts`` the work counters
read from the call's result, and ``peak`` the tracemalloc peak above the
span's starting allocation (memory mode only).  A layer's self time is
its spans' durations minus the durations of their direct child spans.

A target that no longer exists is recorded as missing and the metrics
that depend on it are reported absent (and read 0), so a refactor that
renames or folds a function never crashes the benchmark.
"""

from __future__ import annotations

import functools
import sys
import time
import tracemalloc

NAME, START, END, PARENT, TASK, COUNTS, PEAK = range(7)

TASK_SPAN = "experiments.task"


def _graph_edges(args, result):
    return {"edges": result.m}


def _swap_counts(args, result):
    part, trace = result
    return {"swaps": int(trace.swaps.sum()), "edges": args[0].m}


def _gap_counts(args, result):
    return {"iterations": result.iterations,
            "unconverged": int(not result.converged)}


# (home module, public name, span name, counter reader or None)
TARGETS = (
    ("modgraph.generators", "gen_gnp", "generators.gnp", _graph_edges),
    ("modgraph.generators", "gen_gnm", "generators.gnm", _graph_edges),
    ("modgraph.generators", "gen_planted", "generators.planted",
     lambda args, result: {"edges": result.graph.m}),
    ("modgraph.graph", "Graph.from_arrays", "graph.build", None),
    ("modgraph.graph", "Partition.from_labels", "graph.relabel", None),
    ("modgraph.graph", "modularity_score", "graph.score", None),
    ("modgraph.graph", "connected_components", "graph.components",
     lambda args, result: {"components": result.k}),
    ("modgraph.graph", "induced_subgraph", "graph.subgraph", None),
    ("modgraph.heuristics", "swap_bisection", "heuristics.swap", _swap_counts),
    ("modgraph.spectral", "spectral_upper_witness", "spectral.witness",
     lambda args, result: {"removed_fraction": result.removed_fraction}),
    ("modgraph.spectral", "prune", "spectral.prune", None),
    ("modgraph.spectral", "extremal_gap", "spectral.gap", _gap_counts),
    ("modgraph.spectral", "spectral_summary", "spectral.dense", None),
    ("modgraph.oracle", "exact_modularity", "oracle.exact",
     lambda args, result: {"partitions": result.partitions_scanned}),
    ("modgraph.oracle", "solve_dual", "oracle.dual", None),
    ("modgraph.experiments", "ExperimentResult.write_csv", "experiments.csv", None),
)


class Recorder:
    """Keeps spans in memory; ``memory=True`` also tracks tracemalloc peaks."""

    def __init__(self, memory: bool = False):
        self.spans: list[list] = []
        self.missing: list[str] = []
        self.count_errors: list[str] = []
        self.memory = memory
        self._stack: list[int] = []
        self._mem: dict[int, list[int]] = {}
        self._tasks = 0

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        if name == TASK_SPAN:
            task = self._tasks
            self._tasks += 1
        else:
            task = self.spans[parent][TASK] if parent is not None else None
        idx = len(self.spans)
        if self.memory:
            current, peak = tracemalloc.get_traced_memory()
            if parent is not None:
                self._mem[parent][1] = max(self._mem[parent][1], peak)
            tracemalloc.reset_peak()
            self._mem[idx] = [current, current]
        self.spans.append([name, time.perf_counter(), None, parent, task, None, None])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        span = self.spans[idx]
        span[END] = time.perf_counter()
        self._stack.pop()
        if self.memory:
            base, seen = self._mem.pop(idx)
            seen = max(seen, tracemalloc.get_traced_memory()[1])
            span[PEAK] = seen - base
            if span[PARENT] is not None:
                self._mem[span[PARENT]][1] = max(self._mem[span[PARENT]][1], seen)
            tracemalloc.reset_peak()

    def wrap(self, fn, name: str, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if count is not None:
                try:
                    self.spans[idx][COUNTS] = count(args, result)
                except (AttributeError, TypeError, ValueError, IndexError):
                    if name not in self.count_errors:
                        self.count_errors.append(name)
            return result
        return traced

    def install(self) -> None:
        """Wrap every target; call after ``import modgraph``."""
        namespaces = [mod for key, mod in sys.modules.items()
                      if key == "modgraph" or key.startswith("modgraph.")]
        for module_name, public, span, count in TARGETS:
            owner = sys.modules.get(module_name)
            head, _, attr = public.rpartition(".")
            cls = getattr(owner, head, None) if head else owner
            raw = vars(cls).get(attr) if cls is not None else None
            if raw is None:
                self.missing.append(span)
            elif head:
                if isinstance(raw, classmethod):
                    setattr(cls, attr, classmethod(self.wrap(raw.__func__, span, count)))
                else:
                    setattr(cls, attr, self.wrap(raw, span, count))
            else:
                traced = self.wrap(raw, span, count)
                for mod in namespaces:
                    for key, value in list(vars(mod).items()):
                        if value is raw:
                            setattr(mod, key, traced)
        experiments = sys.modules.get("modgraph.experiments")
        registry = getattr(experiments, "EXPERIMENTS", None)
        if not isinstance(registry, dict):
            self.missing += [TASK_SPAN, "experiments.summarize"]
            return
        for exp in registry.values():
            exp.task = self.wrap(exp.task, TASK_SPAN)
            exp.summarize = self.wrap(exp.summarize, "experiments.summarize")

    def dump(self) -> dict:
        return {"spans": self.spans, "missing": self.missing,
                "count_errors": self.count_errors}


# ---------------------------------------------------------------------------
# per-layer metrics, computed from dumped spans

LAYERS = ("generators", "graph", "heuristics", "spectral", "oracle", "experiments")


def _self_times(spans: list[list]) -> list[float]:
    self_s = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] is not None:
            self_s[s[PARENT]] -= s[END] - s[START]
    return self_s


def _has_ancestor(spans, idx: int, prefix: str) -> bool:
    parent = spans[idx][PARENT]
    while parent is not None:
        if spans[parent][NAME].startswith(prefix):
            return True
        parent = spans[parent][PARENT]
    return False


def layer_metrics(traced: dict, memory: dict, untraced: dict,
                  single_ms: list[float]) -> tuple[dict, list[str], list[str], dict]:
    """Per-layer metrics ``{name: (value, unit)}``, every one of them, the
    names among them that are absent because a target or counter is missing,
    the names that are idle because none of the spans they are read from
    ran (both read 0), and the accounting of traced task time by layer self
    time.

    ``traced`` and ``memory`` are ``Recorder.dump()`` results, ``untraced``
    holds the sweep wall time, worker count and per-task ms of an untraced
    sweep of the same config, and ``single_ms`` the per-task ms of an
    untraced sweep on one worker, like the traced one.
    """
    spans = traced["spans"]
    self_s = _self_times(spans)
    missing = set(traced["missing"] + traced["count_errors"] + memory["missing"])
    ran = {s[NAME] for s in spans + memory["spans"]}

    def total(name: str) -> float:
        return 1e3 * sum(s[END] - s[START] for s in spans if s[NAME] == name)

    def own(prefix: str) -> float:
        return 1e3 * sum(t for s, t in zip(spans, self_s)
                         if s[NAME].startswith(prefix) and s[TASK] is not None)

    def counted(prefix: str, key: str) -> float:
        return sum(s[COUNTS][key] for s in spans
                   if s[NAME].startswith(prefix) and s[COUNTS])

    def rate(num: float, ms: float) -> float:
        return num / (ms / 1e3) if ms > 0 else 0.0

    def calls(name: str) -> int:
        return sum(1 for s in spans if s[NAME] == name)

    def layer(prefix: str) -> tuple:
        """The layer's span names that still have a target."""
        return tuple(t[2] for t in TARGETS
                     if t[2].startswith(prefix) and t[2] not in missing)

    gens = ("generators.gnp", "generators.gnm", "generators.planted")
    gen_ms = sum(total(name) for name in gens)
    gen_edges = counted("generators.", "edges")
    swap_ms = total("heuristics.swap")
    exact_ms = total("oracle.exact")
    scanned = counted("oracle.exact", "partitions")
    gaps = calls("spectral.gap")
    witnesses = calls("spectral.witness")
    task_ms = [1e3 * (s[END] - s[START]) for s in spans if s[NAME] == TASK_SPAN]
    task = (TASK_SPAN,)

    # name: (value, unit, span names it is read from); a metric is absent
    # if one of them has no target, and idle if none of them ran
    table = {
        "generators.busy_ms": (gen_ms, "ms", gens),
        "generators.self_ms": (own("generators."), "ms", gens + ("graph.build",)),
        "generators.edges": (gen_edges, "count", gens),
        "generators.edges_per_s": (rate(gen_edges, gen_ms), "edges/s", gens),
        "graph.build_ms": (total("graph.build"), "ms", ("graph.build",)),
        "graph.score_ms": (total("graph.score"), "ms", ("graph.score",)),
        "graph.relabel_ms": (total("graph.relabel"), "ms", ("graph.relabel",)),
        "graph.components_ms": (total("graph.components"), "ms", ("graph.components",)),
        "graph.components": (counted("graph.components", "components"), "count",
                             ("graph.components",)),
        "graph.self_ms": (own("graph."), "ms", layer("graph.")),
        "heuristics.swap_ms": (swap_ms, "ms", ("heuristics.swap",)),
        "heuristics.swap_self_ms": (own("heuristics.swap"), "ms", ("heuristics.swap",)),
        "heuristics.swaps": (counted("heuristics.swap", "swaps"), "count",
                             ("heuristics.swap",)),
        "heuristics.edges_per_s": (rate(counted("heuristics.swap", "edges"), swap_ms),
                                   "edges/s", ("heuristics.swap",)),
        "spectral.witness_ms": (total("spectral.witness"), "ms", ("spectral.witness",)),
        "spectral.prune_ms": (total("spectral.prune"), "ms", ("spectral.prune",)),
        "spectral.subgraph_ms": (1e3 * sum(
            s[END] - s[START] for i, s in enumerate(spans)
            if s[NAME] == "graph.subgraph" and _has_ancestor(spans, i, "spectral.")),
            "ms", ("graph.subgraph", "spectral.witness")),
        "spectral.gap_ms": (total("spectral.gap"), "ms", ("spectral.gap",)),
        "spectral.gap_iterations": (counted("spectral.gap", "iterations"), "count",
                                    ("spectral.gap",)),
        "spectral.unconverged_frac": (
            counted("spectral.gap", "unconverged") / gaps if gaps else 0.0, "ratio",
            ("spectral.gap",)),
        "spectral.removed_edge_frac": (
            counted("spectral.witness", "removed_fraction") / witnesses
            if witnesses else 0.0, "ratio", ("spectral.witness",)),
        "spectral.self_ms": (own("spectral."), "ms", layer("spectral.")),
        "oracle.busy_ms": (exact_ms + total("oracle.dual"), "ms",
                           ("oracle.exact", "oracle.dual")),
        "oracle.partitions_scanned": (scanned, "count", ("oracle.exact",)),
        "oracle.partitions_per_s": (rate(scanned, exact_ms), "1/s", ("oracle.exact",)),
        "oracle.self_ms": (own("oracle."), "ms", layer("oracle.")),
        "experiments.task_ms_sum": (sum(task_ms), "ms", task),
        "experiments.overhead_ms": (
            1e3 * untraced["workers"] * untraced["sweep_s"] - sum(untraced["task_ms"]),
            "ms", task),
        "experiments.summarize_ms": (total("experiments.summarize"), "ms",
                                     ("experiments.summarize",)),
        "experiments.csv_ms": (total("experiments.csv"), "ms", ("experiments.csv",)),
        "experiments.self_ms": (own(TASK_SPAN), "ms", task),
        # traced against untraced tasks per second, both on one worker
        "trace.tasks_per_s_ratio": (
            sum(single_ms) / sum(task_ms) if task_ms else 0.0, "ratio", task),
    }
    for name in ("generators", "graph"):
        sources = layer(name + ".")
        peaks = [s[PEAK] for s in memory["spans"] if s[NAME] in sources]
        table[f"{name}.peak_alloc_mb"] = (max(peaks, default=0) / 2**20, "MB", sources)

    absent = sorted(name for name, (_, _, sources) in table.items()
                    if missing.intersection(sources))
    idle = sorted(name for name, (_, _, sources) in table.items()
                  if name not in absent and not ran.intersection(sources))
    metrics = {name: (value, unit) for name, (value, unit, _) in table.items()}
    accounting = {
        "layers": {name: own(TASK_SPAN if name == "experiments" else name + ".")
                   for name in LAYERS},
        "task_ms": sum(task_ms),
        "tasks": len(task_ms),
        "min_self_ms": 1e3 * min(self_s, default=0.0),
    }
    return metrics, absent, idle, accounting
