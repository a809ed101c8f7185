"""Batch experiment harness: seeded sweeps over random-graph grids with
CSV output and declarative pass/fail checks.

Each experiment is a pure function of (grid point, replicate seed); tasks
may run in any parallel arrangement and the output is identical for any
worker count.  Per-task streams are derived by hashing
(base_seed, point_index, replicate), never shared.

"With high probability" statements are operationalized as replicate
majorities: each config declares the fraction it requires (default 0.9);
thresholds live in the config, not in code.  Each experiment declares the
grid, option and assertion keys it accepts, and a config naming any other
key is rejected.  Wall-clock time is kept on in-memory records and in the
summary but never written to CSV, so identical configs produce
byte-identical files.
"""

from __future__ import annotations

import csv
import json
import math
import multiprocessing
import time
import traceback
from concurrent.futures import ProcessPoolExecutor
from dataclasses import KW_ONLY, dataclass, field, fields
from operator import itemgetter
from typing import Any, Callable, Iterable, Iterator, Optional, Sequence

import numpy as np

from .graph import (_component_edges, _components_score, _open, _usable_cpus,
                    connected_components, modularity_score)
from .generators import MAX_N, gen_gnm, gen_gnp, gen_planted, substream
from .heuristics import f_k, planted_partition, swap_bisection
from .oracle import ORACLE_CAP, exact_modularity, solve_dual
from .spectral import WITNESS_METHODS, WITNESS_TOL, TooLargeError, spectral_upper_witness

__all__ = [
    "ExperimentConfig",
    "ExperimentResult",
    "CheckOutcome",
    "EXPERIMENTS",
    "run_experiment",
    "wilson_upper",
]


# The kinds of config value as (text, test); a bool is no JSON number.
_NUMBER = ("a number", lambda x: isinstance(x, (int, float)) and not isinstance(x, bool))
_INTEGER = ("an integer", lambda x: _NUMBER[1](x) and isinstance(x, int))
_STRING = ("a string", lambda x: isinstance(x, str))
_NUMBERS = ("a list of numbers",
            lambda value: isinstance(value, (list, tuple)) and all(map(_NUMBER[1], value)))


class _Rule:
    """What one config value must be: a kind, then its ranges, each as
    (text, test); a test runs only on a value that passed those before it."""

    def __init__(self, *tests: tuple[str, Callable[[Any], bool]]):
        self.tests = tests

    def check(self, name: str, value) -> None:
        for text, holds in self.tests:
            if not holds(value):
                raise ValueError(f"{name} must be {text}, not {value!r}")


# A grid n above the generators' limit would fail every task.
_N_MAX = (f"<= {MAX_N}", lambda x: x <= MAX_N)
_OBJECT = _Rule(("an object", lambda value: isinstance(value, dict)))
_GRID_LIST = _Rule(("a non-empty list", lambda value: isinstance(value, list) and len(value) > 0))

# The rule of each config value by its key: the top-level fields, then
# every grid, option and assertion key of any experiment (an experiment's
# `rules` may replace one).  The experiment's own rule is _EXPERIMENT.
_RULES = {
    "replicates": _Rule(_INTEGER, (">= 1", lambda x: x >= 1)),
    "n": _Rule(_INTEGER, (">= 1", lambda x: x >= 1), _N_MAX),
    **dict.fromkeys(("base_seed", "m"), _Rule(_INTEGER, (">= 0", lambda x: x >= 0))),
    "k": _Rule(_INTEGER, (">= 2", lambda x: x >= 2)),
    **dict.fromkeys(("np", "c", "alpha", "tol"), _Rule(_NUMBER, ("positive", lambda x: x > 0))),
    **dict.fromkeys(("beta", "mean_tolerance", "ratio_band"),
                    _Rule(_NUMBER, (">= 0", lambda x: x >= 0))),
    "eps": _Rule(_NUMBER, ("in (0, 1)", lambda x: 0 < x < 1)),
    **dict.fromkeys(("fraction", "window_fraction", "min_separation_rate"),
                    _Rule(_NUMBER, ("in [0, 1]", lambda x: 0 <= x <= 1))),
    **dict.fromkeys(("min_qcc", "min_median_factor", "min_median_np"), _Rule(_NUMBER)),
    **dict.fromkeys(("matching_consistent", "tails_ok", "floor_all_ok"),
                    _Rule(("true", lambda value: value is True))),
    "output": _Rule(("a string or null", lambda value: value is None or isinstance(value, str))),
    "upper_witness": _Rule(("a boolean", lambda value: isinstance(value, bool))),
    "solver": _Rule(_STRING, (f"one of {', '.join(WITNESS_METHODS)}",
                              WITNESS_METHODS.__contains__)),
    "t_values": _Rule(_NUMBERS, ("a non-empty list of numbers > 0",
                                 lambda value: len(value) > 0 and min(value) > 0)),
    "slope_range": _Rule(("a list of two numbers",
                          lambda value: _NUMBERS[1](value) and len(value) == 2),
                         ("[lo, hi] with lo <= hi", lambda value: value[0] <= value[1])),
    "witness_bound": _Rule(
        ("an object of numbers: bound_factor, optional min_fraction",
         lambda value: (isinstance(value, dict) and "bound_factor" in value
                        and set(value) <= {"bound_factor", "min_fraction"}
                        and all(map(_NUMBER[1], value.values())))),
        ("bound_factor > 0 and min_fraction in [0, 1]",
         lambda value: value["bound_factor"] > 0 and 0 <= value.get("min_fraction", 0) <= 1)),
}

_FLOAT_FMT = "%.12g"


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return _FLOAT_FMT % value
    return str(value)


def wilson_upper(successes: int, trials: int) -> float:
    """Upper end of the Wilson score interval for a binomial proportion, at
    three standard errors."""
    if trials == 0:
        return 1.0
    z = 3.0
    phat = successes / trials
    denom = 1.0 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = z * math.sqrt(phat * (1 - phat) / trials + z * z / (4 * trials * trials)) / denom
    return center + half


@dataclass(frozen=True)
class CheckOutcome:
    name: str
    passed: bool
    detail: str


@dataclass
class ExperimentConfig:
    """One sweep: named experiment, parameter grid (cartesian product),
    replicates per point, base seed, and per-experiment options plus
    declared assertions.  Options the config leaves out take the
    experiment's defaults."""

    experiment: str
    grid: dict[str, list]
    replicates: int = 1
    base_seed: int = 0
    output: Optional[str] = None
    options: dict = field(default_factory=dict)
    assertions: dict = field(default_factory=dict)

    def __post_init__(self):
        for name, value, rule in self._values():
            rule.check(name, value)
        exp = EXPERIMENTS[self.experiment]
        for point in self.points():
            for name, rate in exp.edge_rates:
                if rate(point) > point["n"]:
                    raise ValueError(f"{name} = {rate(point):g} exceeds n = {point['n']}, "
                                     "so the edge probability exceeds 1")
        self.options = {**exp.option_defaults, **self.options}
        for check in exp.checks:
            for key in check.params:
                if key in self.assertions and self.assertions.get(check.name, False) is False:
                    raise ValueError(f"assertion {key} needs assertion {check.name}")
        exp.validate(self)

    def _values(self) -> Iterator[tuple[str, Any, _Rule]]:
        """Each config value with its name and rule, checked by the caller
        before the next is read: the experiment, whose keys and rules decide
        the rest, then each object or list before its contents."""
        yield "experiment", self.experiment, _EXPERIMENT
        exp = EXPERIMENTS[self.experiment]
        for key in ("replicates", "base_seed", "output"):
            yield key, getattr(self, key), exp.rules[key]
        for section, allowed, shown in (
                ("grid", exp.grid, f"({', '.join(exp.grid)})"),
                ("options", exp.option_defaults, None),
                ("assertions", exp.assertion_keys(), None)):
            given = getattr(self, section)
            yield section, given, _OBJECT
            unknown = [key for key in given if key not in allowed]
            if unknown:
                raise ValueError(f"{self.experiment} does not accept {section} key "
                                 f"{unknown[0]!r}; accepted: "
                                 f"{shown or ', '.join(allowed) or 'none'}")
        for key in exp.grid:
            yield f"grid[{key!r}]", self.grid.get(key), _GRID_LIST
            yield from ((key, value, exp.rules[key]) for value in self.grid[key])
        yield from ((f"option {key}", value, exp.rules[key])
                    for key, value in self.options.items())
        checks = {check.name for check in exp.checks}
        yield from ((f"assertion {key}", value, exp.rules[key])
                    for key, value in self.assertions.items()
                    if value is not False or key not in checks)

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        """A missing experiment or grid reads as null, which its rule refuses."""
        _OBJECT.check("config", raw)
        unknown = set(raw) - {f.name for f in fields(cls)}
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(**{"experiment": None, "grid": None, **raw})

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))

    def points(self) -> list[dict]:
        pts = [{}]
        for key in EXPERIMENTS[self.experiment].grid:
            pts = [dict(p, **{key: val}) for p in pts for val in self.grid[key]]
        return pts


@dataclass
class ExperimentResult:
    experiment: str
    columns: list[str]
    records: list[dict]
    summary: dict
    checks: list[CheckOutcome]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def write_csv(self, path_or_file) -> None:
        with _open(path_or_file, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(self.columns)
            for rec in self.records:
                writer.writerow([_fmt(rec.get(col)) for col in self.columns])


# ---------------------------------------------------------------------------
# task plumbing

def _run_batch(tasks: list[tuple]) -> tuple[list[dict], Optional[Exception]]:
    """Top-level so ProcessPoolExecutor can pickle it.  The batch's
    records in order, each task timed on its own, or the records before the
    first task that raised and its exception."""
    records = []
    for name, options, base_seed, point_index, point, replicate in tasks:
        t0 = time.perf_counter()
        try:
            rec = EXPERIMENTS[name].task(options, base_seed, point_index, point, replicate)
        except Exception as exc:
            if multiprocessing.parent_process() is not None:
                # a worker's traceback does not pickle; a PEP 678 note does
                exc.__notes__ = [*getattr(exc, "__notes__", ()), traceback.format_exc()]
            return records, exc
        rec["walltime_ms"] = 1000.0 * (time.perf_counter() - t0)
        records.append(rec)
    return records, None


def _worker_count(threads: int, tasks: int, cpus: Optional[int]) -> int:
    """Worker processes worth starting: no more than asked for, than there
    are tasks or than there are CPUs, and at least one."""
    return max(1, min(threads, tasks, cpus or 1))


def _batches(tasks: list, workers: int) -> Iterator[list]:
    """Contiguous batches in task order, each a quarter of one worker's
    share of the tasks left (at least one): light tasks share a dispatch,
    and a sweep ends on single tasks, not on one worker's long batch."""
    while tasks:
        size = max(1, len(tasks) // (4 * workers))
        yield tasks[:size]
        tasks = tasks[size:]


def _collect(tasks: list[tuple],
             batches: Iterable[tuple[list[dict], Optional[Exception]]]) -> list[dict]:
    """The records of the batches, which cover the tasks in order.  A
    failed task or pool (a worker killed, a result that does not pickle)
    re-raises keyed by the first task without a record, chained to the cause."""
    records = []
    try:
        for recs, exc in batches:
            records += recs
            if exc is not None:
                raise exc
    except Exception as exc:
        name, _, _, _, point, replicate = tasks[len(records)]
        raise RuntimeError(f"{name} task failed at {_where(point)}, "
                           f"replicate {replicate}: {exc}") from exc
    return records


def _run_tasks(cfg: ExperimentConfig, threads: int) -> list[dict]:
    """Every task's record in task order: a pool gets the tasks in
    `_batches`, one worker runs them all as one batch in-process."""
    tasks = [(cfg.experiment, cfg.options, cfg.base_seed, pi, point, rep)
             for pi, point in enumerate(cfg.points())
             for rep in range(cfg.replicates)]
    workers = _worker_count(threads, len(tasks), _usable_cpus())
    if workers == 1:
        return _collect(tasks, [_run_batch(tasks)])
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return _collect(tasks, pool.map(_run_batch, _batches(tasks, workers)))


def run_experiment(cfg: ExperimentConfig, threads: int = 1) -> ExperimentResult:
    """Run every task, then the experiment's summary and checks.  The CSV
    columns are the task record's keys in order, less its wall time."""
    if threads < 1:
        raise ValueError(f"threads must be >= 1, not {threads}")
    exp = EXPERIMENTS[cfg.experiment]
    records = _run_tasks(cfg, threads)
    summary, checks = exp.summarize(cfg, records)
    columns = [key for key in records[0] if key != "walltime_ms"]
    return ExperimentResult(cfg.experiment, columns, records, summary, checks)


# ---------------------------------------------------------------------------
# summary and check vocabulary.  The records are grouped into
# (grid point, records) pairs in grid order.  An aggregate maps a list of
# such groups and the config to one value: each summary entry is one over
# all groups, and a check applies one to each group or to all of them.

Groups = list[tuple[dict, list[dict]]]


def _agg(fn, values) -> Optional[float]:
    """fn over the values that are not None; None when every one is."""
    values = [v for v in values if v is not None]
    return float(fn(values)) if values else None


def _of(fn, name: str):
    """Aggregate of one record field."""
    return lambda groups, cfg: _agg(fn, (r[name] for _, recs in groups for r in recs))


def _where(point: dict) -> str:
    """A grid point's label, e.g. "n=1000000 eps=0.2"."""
    return " ".join(f"{key}={val}" for key, val in point.items())


def _rows(keys: tuple[str, ...], **stats):
    """Per grid point, the named grid values, then each aggregate."""
    return lambda groups, cfg: [
        {**{key: point[key] for key in keys},
         **{s: f([(point, recs)], cfg) for s, f in stats.items()}}
        for point, recs in groups]


def _loglog_slope(x: str, stat):
    """Record-weighted least-squares slope of log stat against log x over
    the grid points; None with fewer than two distinct x."""
    def slope(groups: Groups, cfg):
        if len({point[x] for point, _ in groups}) < 2:
            return None
        xs = np.array([math.log(point[x]) for point, _ in groups])
        ys = np.array([math.log(max(stat([group], cfg), 1e-300)) for group in groups])
        ws = np.array([float(len(recs)) for _, recs in groups])
        wsum = ws.sum()
        xbar = float((ws * xs).sum() / wsum)
        ybar = float((ws * ys).sum() / wsum)
        denom = float((ws * (xs - xbar) ** 2).sum())
        return float((ws * (xs - xbar) * (ys - ybar)).sum() / denom)
    return slope


@dataclass(frozen=True)
class Check:
    """Assertion `name` holds when the aggregate stat(groups, cfg) lies
    within limits(point, cfg) = (lo, hi) on every grid point, or once over
    all of them when not per_point.  A stat of None fails; limits of None
    leave the point out.

    The check runs when the config sets `name` to a value other than
    false, or, given `when`, when when(cfg) holds.  `params` are further
    assertion keys it reads, allowed only with the check on.  `summary` =
    key also stores each point's stat in the summary, under the point's
    label."""

    name: str
    stat: Callable[[Groups, ExperimentConfig], Optional[float]]
    limits: Callable[[dict, ExperimentConfig], Optional[Sequence[float]]]
    _: KW_ONLY
    per_point: bool = True
    params: tuple[str, ...] = ()
    when: Optional[Callable[[ExperimentConfig], Any]] = None
    summary: Optional[str] = None

    def active(self, cfg: ExperimentConfig) -> bool:
        if self.when is not None:
            return bool(self.when(cfg))
        value = cfg.assertions.get(self.name)
        return value is not None and value is not False

    def run(self, groups: Groups, summary: dict, cfg: ExperimentConfig) -> CheckOutcome:
        ok, parts = True, []
        for point, part in ([(group[0], [group]) for group in groups]
                            if self.per_point else [({}, groups)]):
            limits = self.limits(point, cfg)
            if limits is None:
                continue
            value = self.stat(part, cfg)
            ok = ok and value is not None and limits[0] <= value <= limits[1]
            where = _where(point)
            parts.append(f"{where or 'all records'}: {value} in [{limits[0]}, {limits[1]}]")
            if self.summary is not None:
                summary.setdefault(self.summary, {})[where] = value
        return CheckOutcome(self.name, ok, "; ".join(parts))


def share(name: str, test, need=lambda cfg: 1.0, **kw) -> Check:
    """The share of records passing test(record, cfg) is at least need(cfg);
    a test result of None leaves the record out."""
    def stat(groups: Groups, cfg: ExperimentConfig) -> Optional[float]:
        return _agg(np.mean, (test(r, cfg) for _, recs in groups for r in recs))
    return Check(name, stat, lambda point, cfg: (need(cfg), 1.0), **kw)


# ---------------------------------------------------------------------------
# experiment definitions


class _Experiment:
    """One experiment: its grid keys, its options with their defaults, the
    per-task record, and the declared summary and checks."""

    name: str = ""
    grid: tuple[str, ...] = ()
    option_defaults: dict = {}
    summary: dict = {}
    checks: tuple[Check, ...] = ()
    # (name, rate of a grid point) for each rate that rate/n makes an edge
    # probability; a rate above n is rejected when the config loads
    edge_rates: tuple[tuple[str, Callable[[dict], float]], ...] = ()
    rules: dict[str, _Rule] = _RULES

    def assertion_keys(self) -> list[str]:
        return [key for check in self.checks if check.when is None
                for key in (check.name, *check.params)]

    def validate(self, cfg: ExperimentConfig) -> None:
        pass

    def task(self, options: dict, base_seed: int, point_index: int,
             point: dict, replicate: int) -> dict:
        raise NotImplementedError

    def summarize(self, cfg: ExperimentConfig,
                  records: list[dict]) -> tuple[dict, list[CheckOutcome]]:
        reps = cfg.replicates
        groups = [(point, records[pi * reps:(pi + 1) * reps])
                  for pi, point in enumerate(cfg.points())]
        summary = {key: build(groups, cfg) for key, build in self.summary.items()}
        checks = [check.run(groups, summary, cfg)
                  for check in self.checks if check.active(cfg)]
        return summary, checks


_median_q_swap = _of(np.median, "q_swap")
_q_swap_slope = _loglog_slope("np", _median_q_swap)


def _growth_floor(point: dict, cfg: ExperimentConfig):
    """min_median_factor * sqrt((1-p)/np), at points with np >= min_median_np."""
    a, n, npv = cfg.assertions, point["n"], point["np"]
    if npv < float(a.get("min_median_np", 0.0)):
        return None
    return a["min_median_factor"] * math.sqrt((1.0 - npv / n) / npv), math.inf


class GrowthRate(_Experiment):
    """Median Swap score against np: the lower witness for the
    (np)^{-1/2} growth rate, optionally paired with the pruned-spectral
    upper witness."""

    name = "growth-rate"
    grid = ("n", "np")
    option_defaults = {"upper_witness": False, "solver": "extremal", "tol": WITNESS_TOL}
    # 6 is the least n Swap takes
    rules = {**_RULES, "n": _Rule(_INTEGER, (">= 6", lambda x: x >= 6), _N_MAX)}
    edge_rates = (("np", itemgetter("np")),)
    summary = {"medians": _rows(("n", "np"), median_q_swap=_median_q_swap),
               "slope": _q_swap_slope}
    checks = (
        Check("slope_range", _q_swap_slope,
              lambda point, cfg: cfg.assertions["slope_range"], per_point=False),
        Check("min_median_factor", _median_q_swap, _growth_floor,
              params=("min_median_np",)),
        share("witness_bound",
              lambda r, cfg: r["upper_witness"] <= float(
                  cfg.assertions["witness_bound"]["bound_factor"]) / math.sqrt(r["np"]),
              need=lambda cfg: float(
                  cfg.assertions["witness_bound"].get("min_fraction", 0.9)),
              summary="witness_pass_fraction"),
        share("lower_le_upper", lambda r, cfg: r["q_swap"] <= r["upper_witness"] + 1e-8,
              when=lambda cfg: cfg.options["upper_witness"]),
    )

    def validate(self, cfg):
        if (cfg.assertions.get("witness_bound", False) is not False
                and not cfg.options["upper_witness"]):
            raise ValueError("witness_bound assertion needs options.upper_witness")

    def task(self, options, base_seed, point_index, point, replicate):
        n, npv = int(point["n"]), float(point["np"])
        p = npv / n
        g = gen_gnp(n, p, substream(base_seed, point_index, replicate))
        part, trace = swap_bisection(g)
        q = modularity_score(g, part).score
        rec = {"n": n, "np": npv, "p": p,
               "seed": replicate, "m": g.m, "q_swap": q,
               "t_star": trace.t_star,
               "swap_count": int(np.count_nonzero(trace.swaps))}
        if options["upper_witness"]:
            witness = spectral_upper_witness(
                g, p, method=options["solver"], tol=float(options["tol"]))
            rec.update({
                "lambda_pruned": witness.lambda_bar,
                "removed_edge_frac": witness.removed_fraction,
                "upper_witness": witness.value,
                "witness_converged": witness.converged,
            })
        return rec


class SparsePhase(_Experiment):
    """Connected-components score in the sparse phase; the deficit 1 - q_C
    with its 1/(m(1-d)) companion prediction."""

    name = "sparse"
    grid = ("n", "np")
    edge_rates = (("np", itemgetter("np")),)
    summary = {"min_q_cc": _of(min, "q_cc"), "mean_deficit": _of(np.mean, "deficit")}
    checks = (
        share("min_qcc",
              lambda r, cfg: (None if r["q_cc"] is None
                              else r["q_cc"] > cfg.assertions["min_qcc"]),
              need=lambda cfg: float(cfg.assertions.get("fraction", 1.0)),
              params=("fraction",)),
        share("matching_consistent",
              lambda r, cfg: (not r["is_matching"]
                              or abs(r["q_cc"] - r["q_matching_theory"]) <= 1e-12)),
    )

    def task(self, options, base_seed, point_index, point, replicate):
        n, npv = int(point["n"]), float(point["np"])
        g = gen_gnp(n, npv / n, substream(base_seed, point_index, replicate))
        rec = {"n": n, "np": npv, "seed": replicate, "m": g.m}
        if g.m == 0:
            rec.update({"q_cc": None, "deficit": None, "deficit_prediction": None,
                        "d": 0.0, "is_matching": False, "q_matching_theory": None,
                        "n_components": n, "largest_component_edges": 0})
            return rec
        comp = connected_components(g)
        q_cc = _components_score(g, comp)
        largest = int(_component_edges(g, comp).max())
        is_matching = largest <= 1
        d = 2.0 * g.m / n
        rec.update({
            "q_cc": q_cc,
            "deficit": 1.0 - q_cc,
            "deficit_prediction": 1.0 / (g.m * (1.0 - d)) if d < 1.0 else None,
            "d": d,
            "is_matching": is_matching,
            "q_matching_theory": (1.0 - 1.0 / g.m) if is_matching else None,
            "n_components": comp.k,
            "largest_component_edges": largest,
        })
        return rec


class ThresholdWindow(_Experiment):
    """q_C against the closed-form sandwich at p = (1+eps)/n, plus the
    dual-root prediction 1 - (1 - x^2/c^2)^2."""

    name = "threshold-window"
    grid = ("n", "eps")
    edge_rates = (("1 + eps", lambda point: 1.0 + point["eps"]),)
    summary = {"in_window_fraction": lambda groups, cfg: {
        _where(point): _of(np.mean, "in_window")([(point, recs)], cfg)
        for point, recs in groups}}
    checks = (share("window_fraction", lambda r, cfg: r["in_window"],
                    need=lambda cfg: cfg.assertions["window_fraction"]),)

    @staticmethod
    def bounds(eps: float) -> tuple[float, float]:
        base = 16.0 * eps * eps / (1.0 + eps) ** 4
        return 1.0 - base, 1.0 - base * (1.0 - math.sqrt(eps))

    def task(self, options, base_seed, point_index, point, replicate):
        n, eps = int(point["n"]), float(point["eps"])
        p = (1.0 + eps) / n
        g = gen_gnp(n, p, substream(base_seed, point_index, replicate))
        # an edgeless draw has no score; the window checks leave it out
        q_cc = _components_score(g, connected_components(g)) if g.m else None
        lo, hi = self.bounds(eps)
        c = 1.0 + eps
        x = solve_dual(c)
        eq21 = 1.0 - (1.0 - x * x / (c * c)) ** 2
        return {"n": n, "eps": eps, "p": p,
                "seed": replicate, "m": g.m, "q_cc": q_cc,
                "lower_bound": lo, "upper_bound": hi,
                "in_window": None if q_cc is None else bool(lo < q_cc < hi),
                "eq21_value": eq21, "x_dual": x}


def _planted_limits(point: dict, cfg: ExperimentConfig) -> tuple[float, float]:
    """Mean score within mean_tolerance of f(2)/sqrt(c) = 1/(2 sqrt(c)) for
    k = 2; at least f(k)/sqrt(c) less the tolerance for k >= 3."""
    k, tol = int(point["k"]), cfg.assertions["mean_tolerance"]
    target = f_k(k) / math.sqrt(point["c"])
    return target - tol, (target + tol if k == 2 else math.inf)


class Planted(_Experiment):
    """Score of the balanced planted partition on the k-block model with
    rates derived from (c, k): k=2 uses alpha = c + sqrt(c),
    beta = c - sqrt(c); k>=3 uses alpha = c + x sqrt(c),
    beta = c - x sqrt(c)/(k-1) with x = 0.999 sqrt(2(k-1)ln(k-1)), just
    below the contiguity bound."""

    name = "planted"
    grid = ("n", "c", "k")
    # beta < alpha, so alpha <= n keeps both rates in gen_planted's range
    edge_rates = (("alpha", lambda point: Planted.rates(point["c"], point["k"])[0]),)
    summary = {"means": _rows(("c", "k"), mean_score=_of(np.mean, "score"))}
    checks = (Check("mean_tolerance", _of(np.mean, "score"), _planted_limits),)

    @staticmethod
    def rates(c: float, k: int) -> tuple[float, float]:
        if k == 2:
            return c + math.sqrt(c), c - math.sqrt(c)
        x = 0.999 * math.sqrt(2.0 * (k - 1) * math.log(k - 1))
        return c + x * math.sqrt(c), c - x * math.sqrt(c) / (k - 1)

    @staticmethod
    def contiguity_ok(alpha: float, beta: float, k: int, c: float) -> bool:
        if k == 2:
            # the k = 2 rates sit on this boundary by construction, so the
            # comparison allows for rounding
            return (alpha - beta) ** 2 <= 2.0 * (alpha + beta) * (1.0 + 1e-9)
        return (alpha - beta) ** 2 < 2.0 * c * k * k * math.log(k - 1) / (k - 1)

    def validate(self, cfg):
        for c in cfg.grid["c"]:
            for k in cfg.grid["k"]:
                alpha, beta = self.rates(float(c), int(k))
                if beta < 0 or alpha <= 0:
                    raise ValueError(f"(c={c}, k={k}) gives negative rates")

    def task(self, options, base_seed, point_index, point, replicate):
        n, c, k = int(point["n"]), float(point["c"]), int(point["k"])
        alpha, beta = self.rates(c, k)
        lg = gen_planted(n, alpha, beta, k,
                         substream(base_seed, point_index, replicate))
        part = planted_partition(lg)
        score = modularity_score(lg.graph, part).score
        return {"n": n, "c": c, "k": k,
                "alpha": alpha, "beta": beta, "seed": replicate,
                "m": lg.graph.m, "score": score,
                "f_over_sqrt_c": f_k(k) / math.sqrt(c),
                "contiguity_ok": self.contiguity_ok(alpha, beta, k, c)}


class SbmDistinguish(_Experiment):
    """Per seed, the planted-partition score on the two-block model against
    the spectral upper witness of a matched density ER graph; reports the
    fraction of seeds where the planted score exceeds the witness."""

    name = "sbm-distinguish"
    grid = ("n", "alpha", "beta")
    edge_rates = (("alpha", itemgetter("alpha")), ("beta", itemgetter("beta")))
    summary = {"separation_rate": _rows(("alpha", "beta"), rate=_of(np.mean, "separated"))}
    checks = (share("min_separation_rate", lambda r, cfg: r["separated"],
                    need=lambda cfg: cfg.assertions["min_separation_rate"]),)

    def task(self, options, base_seed, point_index, point, replicate):
        n = int(point["n"])
        alpha, beta = float(point["alpha"]), float(point["beta"])
        lg = gen_planted(n, alpha, beta, 2,
                         substream(base_seed, point_index, replicate, 0))
        score = modularity_score(lg.graph, planted_partition(lg)).score
        c_bar = 0.5 * (alpha + beta)
        g = gen_gnp(n, c_bar / n, substream(base_seed, point_index, replicate, 1))
        witness = spectral_upper_witness(g, c_bar / n, method="extremal", tol=WITNESS_TOL)
        return {"n": n, "alpha": alpha, "beta": beta,
                "seed": replicate, "planted_score": score,
                "witness": witness.value,
                "witness_converged": witness.converged,
                "separated": bool(score > witness.value),
                "snr": (alpha - beta) ** 2 / (alpha + beta) if alpha + beta > 0 else 0.0,
                "detectability_threshold": 2.0}


def _tails(groups: Groups, cfg: ExperimentConfig) -> list[dict]:
    """Per grid point and t: the share of samples with |q* - mean| >= t,
    the bound 2 exp(-t^2 m / 2) and the Wilson sampling allowance."""
    rows = []
    for point, recs in groups:
        m = int(point["m"])
        qs = np.array([r["q_star"] for r in recs])
        mean = float(qs.mean())
        for t in map(float, cfg.options["t_values"]):
            tail = int(np.count_nonzero(np.abs(qs - mean) >= t))
            frac = tail / qs.size
            bound = 2.0 * math.exp(-t * t * m / 2.0)
            allowance = wilson_upper(tail, qs.size) - frac
            rows.append({"n": point["n"], "m": m, "t": t, "empirical_tail": frac,
                         "bound": bound, "wilson_allowance": allowance,
                         "ok": frac <= bound + allowance})
    return rows


class Concentration(_Experiment):
    """Samples exact q*(G_{n,m}) and compares empirical deviation tails
    against 2 exp(-t^2 m / 2) plus a Wilson sampling allowance."""

    name = "concentration"
    grid = ("n", "m")
    option_defaults = {"t_values": (0.2, 0.4, 0.6)}
    summary = {"tails": _tails}
    checks = (Check("tails_ok", lambda groups, cfg: _agg(np.mean, (
                        row["ok"] for row in _tails(groups, cfg))),
                    lambda point, cfg: (1.0, 1.0)),)

    def validate(self, cfg):
        for n in cfg.grid["n"]:
            if n > ORACLE_CAP:
                raise TooLargeError(f"n={n} above oracle cap {ORACLE_CAP}")
        for point in cfg.points():
            pairs = point["n"] * (point["n"] - 1) // 2
            if point["m"] > pairs:
                raise ValueError(f"m = {point['m']} exceeds the {pairs} pairs of n = {point['n']}")

    def task(self, options, base_seed, point_index, point, replicate):
        n, m = int(point["n"]), int(point["m"])
        g = gen_gnm(n, m, substream(base_seed, point_index, replicate))
        q = float(exact_modularity(g).q_star)
        return {"n": n, "m": m, "seed": replicate, "q_star": q}


def _first_moment_limits(point: dict, cfg: ExperimentConfig) -> tuple[float, float]:
    """Mean X/m within a relative ratio_band of its first moment exp(-2c)."""
    first_moment = math.exp(-2.0 * float(point["c"]))
    half = cfg.assertions["ratio_band"] * first_moment
    return first_moment - half, first_moment + half


class IsolatedEdges(_Experiment):
    """Counts isolated edges X in G_{n,c/n}: emits X/m with the closed-form
    (1/2) e^{-2c} whp lower-bound column and checks the isolated-edges
    floor q_C >= min(X/m, 1/2) exactly on every sample (vacuous when X = 0
    or m < 2).  The first-moment value of X/m itself is e^{-2c}."""

    name = "isolated-edges"
    grid = ("n", "c")
    edge_rates = (("c", itemgetter("c")),)
    summary = {"ratios": _rows(("n", "c"), mean_ratio=_of(np.mean, "ratio"),
                               prediction=_of(lambda values: values[0], "prediction"))}
    checks = (
        share("floor_all_ok", lambda r, cfg: r["floor_ok"] is not False),
        Check("ratio_band", _of(np.mean, "ratio"), _first_moment_limits),
    )

    def task(self, options, base_seed, point_index, point, replicate):
        n, c = int(point["n"]), float(point["c"])
        p = c / n
        g = gen_gnp(n, p, substream(base_seed, point_index, replicate))
        rec = {"n": n, "c": c, "p": p,
               "seed": replicate, "m": g.m, "isolated_edges": 0, "ratio": None,
               "prediction": 0.5 * math.exp(-2.0 * c), "q_cc": None, "floor_ok": None}
        if g.m == 0:
            return rec
        comp = connected_components(g)
        # in a simple graph a 2-vertex component is exactly one edge
        x = int(np.count_nonzero(comp.part_sizes() == 2))
        q_cc = _components_score(g, comp)
        floor_ok = None
        if g.m >= 2 and x >= 1:
            eta = min(x / g.m, 0.5)
            floor_ok = bool(q_cc >= eta - 1e-12)
        rec.update({"isolated_edges": x, "ratio": x / g.m, "q_cc": q_cc,
                    "floor_ok": floor_ok})
        return rec


EXPERIMENTS: dict[str, _Experiment] = {
    exp.name: exp for exp in (
        GrowthRate(), SparsePhase(), ThresholdWindow(), Planted(),
        SbmDistinguish(), Concentration(), IsolatedEdges())
}
_EXPERIMENT = _Rule(_STRING, (f"one of {', '.join(EXPERIMENTS)}", EXPERIMENTS.__contains__))
