"""Benchmark of the modgraph sweep harness: four workloads taken from the
acceptance configs, end-to-end metrics from untraced runs, per-layer
metrics from a traced run.  Run from the root of a checkout:

    python3 bench/run.py --workload growth-dense [--seed N] [--seconds 25] [--trace 0|1]
    python3 bench/run.py --workload all      # the four workloads in turn

Every sweep runs ``modgraph.cli.main`` in a fresh process on a config this
script writes; the library sees nothing else.  ``--trace 0`` repeats the
sweep until ``--seconds`` have passed, and at least 3 times, and prints
the end-to-end metrics; ``--trace 1`` runs one untraced sweep, one traced
sweep and one tracemalloc pass and prints the per-layer metrics.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  Work files go to ``.bench_build/modgraph/``.
See bench/README.md for the workload and metric tables.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
# Whole run must end well inside the 180 s a run is allowed.
RUN_LIMIT_S = 165.0
# Set-up is sampled at least this many times per run (sweeps + set-up-only starts).
MIN_SETUP_SAMPLES = 5
# Every run has at least this many sweeps, so a run's medians always rest on
# the same sample size (a growth-dense sweep alone takes 10-12 s).
MIN_SWEEPS = 3
RSS_POLL_S = 0.05
# Traced task spans may fall short of the harness's own per-task times by
# the wrapper's cost: at most this share plus this much per task.
TRACE_GAP_FRAC = 0.01
TRACE_GAP_MS = 0.05
# BLAS threads are pinned by this benchmark, not by the library: two sweep
# workers on two cores must not oversubscribe, and iteration counts must repeat.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}


@dataclass(frozen=True)
class Workload:
    config: dict        # the acceptance config, grid, base seed and assertions kept
    replicates: int     # per grid point in one sweep
    workers: int
    digest: str         # sha256 of the sweep CSV at the default seed and replicates
    required: tuple = ()  # config checks that are invariants, not statistics


# Each workload is one configs/*_acceptance.json sweep with its grid, base
# seed, options and assertions kept; why each was chosen is in BENCHMARK.json
# and README.md.  Replicates are sized so one sweep takes 2-11 s here.
WORKLOADS = {
    "growth-dense": Workload(
        config={"experiment": "growth-rate",
                "grid": {"n": [100000], "np": [16.0, 256.0, 1024.0]},
                "base_seed": 20250810,
                "assertions": {"slope_range": [-0.6, -0.4],
                               "min_median_factor": 0.15, "min_median_np": 25.0}},
        replicates=1, workers=1,
        digest="a630074dea7d78576608ebf0ca689fd68752ffa300bfccda95b57ad2143d772f"),
    "threshold-sparse": Workload(
        config={"experiment": "threshold-window",
                "grid": {"n": [1000000], "eps": [0.15, 0.2, 0.25]},
                "base_seed": 20250813,
                "assertions": {"window_fraction": 0.9}},
        replicates=1, workers=1,
        digest="39bee2b776b8d24a235bf0e301637f899d9b66871018526501898a106fe90fe6"),
    "witness": Workload(
        config={"experiment": "growth-rate",
                "grid": {"n": [5000], "np": [100.0]},
                "base_seed": 20250811,
                "options": {"upper_witness": True, "solver": "extremal", "tol": 0.001},
                "assertions": {"witness_bound": {"bound_factor": 6.0,
                                                 "min_fraction": 0.95}}},
        replicates=10, workers=1,
        digest="4e93f3236ffbdd37dcbb81f1587bdcd44bd88e7c7de5971dea7ec274253e1820",
        required=("lower_le_upper",)),
    "exact": Workload(
        config={"experiment": "concentration",
                "grid": {"n": [8], "m": [10]},
                "base_seed": 20250816,
                "options": {"t_values": [0.2, 0.4, 0.6]},
                "assertions": {"tails_ok": True}},
        replicates=1000, workers=2,
        digest="dfc86aea0c087fc90843cceb598b3e1c5dbe40b1781bfbde44f0cc2f5eababf9"),
}

END_TO_END_UNITS = {"tasks_per_s": "1/s", "task_ms_p50": "ms",
                    "peak_rss_mb": "MB", "setup_s": "s"}


def _children(pid: int) -> list[int]:
    """Child pids of ``pid``, read from its threads' ``children`` lists (a
    few small files, so polling steals little CPU from the sweep), or from a
    scan of all of /proc where the kernel has no such lists."""
    try:
        tids = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return []
    if not os.path.exists(f"/proc/{pid}/task/{pid}/children"):
        kids = []
        for entry in os.listdir("/proc"):
            try:
                with open(f"/proc/{entry}/stat") as fh:
                    if int(fh.read().rpartition(")")[2].split()[1]) == pid:
                        kids.append(int(entry))
            except (OSError, IndexError, ValueError):
                continue
        return kids
    kids = []
    for tid in tids:
        try:
            with open(f"/proc/{pid}/task/{tid}/children") as fh:
                kids += [int(k) for k in fh.read().split()]
        except (OSError, ValueError):
            continue
    return kids


def _tree_rss_kb(pid: int) -> int:
    """Resident set size of ``pid`` and all its descendants, in KiB."""
    page_kb = os.sysconf("SC_PAGE_SIZE") // 1024
    total, todo = 0, [pid]
    while todo:
        proc = todo.pop()
        try:
            with open(f"/proc/{proc}/statm") as fh:
                total += int(fh.read().split()[1]) * page_kb
        except (OSError, IndexError, ValueError):
            continue
        todo += _children(proc)
    return total


def _git_rev(root: Path) -> str:
    # the ceiling keeps git from reading a repository above the checkout
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


class Runner:
    """Starts benchmark processes for one workload and checks their output."""

    def __init__(self, root: Path, name: str, seed: int):
        self.root = root
        self.workload = WORKLOADS[name]
        self.seed = seed
        self.replicates = self.workload.replicates
        self.work = root / ".bench_build" / "modgraph" / name
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.deadline = time.perf_counter() + RUN_LIMIT_S
        self.count = 0
        self.child_env: dict = {}
        self.env = dict(os.environ, **BLAS_ENV)
        src = str(root / "src")
        self.env["PYTHONPATH"] = src + (os.pathsep + os.environ["PYTHONPATH"]
                                        if os.environ.get("PYTHONPATH") else "")
        self.digest = (self.workload.digest
                       if seed == self.workload.config["base_seed"] else None)

    def tasks(self, replicates: int) -> int:
        return math.prod(len(v) for v in self.workload.config["grid"].values()) * replicates

    def run(self, mode: str, workers: int = 1, replicates: int | None = None) -> dict:
        """Start one process; return its report plus ``setup_s``,
        ``peak_rss_mb``, ``csv`` (bytes) and ``faults`` (a list)."""
        replicates = replicates or self.replicates
        self.count += 1
        tag = self.work / f"{self.count:03d}-{mode}"
        config = dict(self.workload.config, base_seed=self.seed, replicates=replicates)
        paths = {key: str(tag) + suffix for key, suffix in
                 (("config", ".config.json"), ("report", ".report.json"),
                  ("out", ".csv"), ("spec", ".spec.json"), ("log", ".log"))}
        Path(paths["config"]).write_text(json.dumps(config, indent=2))
        argv = [config["experiment"], "--config", paths["config"],
                "--out", paths["out"], "--threads", str(workers)]
        Path(paths["spec"]).write_text(json.dumps(
            {"mode": mode, "argv": argv, "config": paths["config"],
             "report": paths["report"]}))
        peak_kb = 0
        timed_out = False
        with open(paths["log"], "wb") as log:
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, str(HERE / "child.py"), paths["spec"]],
                cwd=self.root, env=self.env, stdout=log, stderr=subprocess.STDOUT,
                start_new_session=True)
            try:
                while True:
                    peak_kb = max(peak_kb, _tree_rss_kb(proc.pid))
                    try:
                        proc.wait(timeout=RSS_POLL_S)
                        break
                    except subprocess.TimeoutExpired:
                        if time.perf_counter() > self.deadline:
                            timed_out = True
                            break
            finally:
                if proc.poll() is None:
                    os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
        if timed_out:
            return {"faults": [f"{mode} process killed at the run's time limit"]}
        try:
            report = json.loads(Path(paths["report"]).read_text())
        except (OSError, ValueError):
            log_tail = Path(paths["log"]).read_text(errors="replace")[-2000:]
            return {"faults": [f"{mode} process exited with code {proc.returncode} "
                               f"and no report; log tail:\n{log_tail}"]}
        self.child_env = report["env"]
        report["setup_s"] = report["t_ready"] - start
        report["peak_rss_mb"] = max(peak_kb, report["maxrss_kb"]) / 1024
        report["faults"] = []
        if mode != "setup":
            report["csv"] = Path(paths["out"]).read_bytes()
            report["faults"] = self._check(report, replicates)
        return report

    def _check(self, report: dict, replicates: int) -> list[str]:
        faults = []
        if report["exit_code"] not in (0, 1):
            faults.append(f"CLI exited with {report['exit_code']}")
        for name in self.workload.required:
            if not report["checks"].get(name, False):
                faults.append(f"required check {name} did not pass")
        want = self.tasks(replicates)
        rows = report["csv"].count(b"\n") - 1
        if len(report["task_ms"]) != want or rows != want:
            faults.append(f"expected {want} tasks, got {len(report['task_ms'])} "
                          f"records and {rows} CSV rows")
        # the digest is of a full sweep; the memory pass runs 1 replicate
        if self.digest and replicates == self.replicates:
            got = hashlib.sha256(report["csv"]).hexdigest()
            if got != self.digest:
                faults.append(f"CSV sha256 {got} != recorded {self.digest}")
        return faults

    def time_left(self) -> float:
        return self.deadline - time.perf_counter()


def _quantile_report(values: list[float]) -> tuple[float, float | None, int]:
    """Median, the 90th percentile where at least 10 samples lie beyond it
    (else None), and how many lie beyond it."""
    p90 = statistics.quantiles(values, n=10)[-1] if len(values) >= 2 else values[0]
    beyond = sum(1 for v in values if v > p90)
    return statistics.median(values), (p90 if beyond >= 10 else None), beyond


def _same_csv(sweeps: list[dict], what: str, faults: list[str]) -> bool:
    """False, with a fault added, if the sweeps' CSVs are not byte-identical."""
    digests = {hashlib.sha256(s["csv"]).hexdigest() for s in sweeps if "csv" in s}
    if len(digests) > 1:
        faults.append(f"{what}: CSVs differ ({len(digests)} digests)")
    return len(digests) <= 1


def untraced(runner: Runner, seconds: float, lines: list[str]) -> dict:
    wl = runner.workload
    sweeps = []
    begin = time.perf_counter()
    while len(sweeps) < MIN_SWEEPS or time.perf_counter() - begin < seconds:
        last = sweeps[-1].get("sweep_s", 0.0) + sweeps[-1].get("setup_s", 0.0) \
            if sweeps else 0.0
        if sweeps and runner.time_left() < 2 * last + 10:
            break
        sweeps.append(runner.run("sweep", wl.workers))
    probes = [runner.run("setup") for _ in range(MIN_SETUP_SAMPLES - len(sweeps))]
    per_sweep = runner.tasks(runner.replicates)
    attempted = per_sweep * len(sweeps)
    failed = per_sweep * sum(1 for s in sweeps if s["faults"])
    faults = [f for s in sweeps + probes for f in s["faults"]]
    if not _same_csv(sweeps, "repeated sweeps", faults):
        failed = attempted
    good = [s for s in sweeps if not s["faults"]]
    setups = [s["setup_s"] for s in sweeps + probes if "setup_s" in s]
    metrics, samples = {}, {}
    if good:
        task_ms = [t for s in good for t in s["task_ms"]]
        p50, p90, beyond = _quantile_report(task_ms)
        metrics = {
            "tasks_per_s": statistics.median(len(s["task_ms"]) / s["sweep_s"]
                                             for s in good),
            "task_ms_p50": p50,
            "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in good),
            "setup_s": statistics.median(setups),
        }
        samples = {"tasks_per_s": f"median of {len(good)} sweeps, {len(task_ms)} tasks",
                   "task_ms_p50": f"{len(task_ms)} tasks",
                   "peak_rss_mb": f"median of {len(good)} sweeps",
                   "setup_s": f"median of {len(setups)} process starts"}
        for name, value in metrics.items():
            lines.append(f"  {name:<14} {value:14.6g} {END_TO_END_UNITS[name]:<6} "
                         f"({samples[name]})")
        if p90 is None:
            lines.append(f"  {'task_ms_p90':<14} {'undefined':>14} {'ms':<6} "
                         f"({len(task_ms)} tasks; needs 10 beyond the 90th percentile, "
                         f"has {beyond})")
        else:
            lines.append(f"  {'task_ms_p90':<14} {p90:14.6g} {'ms':<6} "
                         f"({len(task_ms)} tasks, {beyond} beyond it)")
    lines.append(f"  {'failed_frac':<14} {failed / attempted:14.6g} {'ratio':<6} "
                 f"({failed} of {attempted} tasks)")
    assertions_missed = sorted({name for s in good for name, ok in s["checks"].items()
                                if not ok})
    if assertions_missed:
        lines.append(f"  note: statistical assertions missed at this length: "
                     f"{', '.join(assertions_missed)}")
    return {"attempted": attempted, "failed": failed, "faults": faults,
            "metrics": {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                        for k, v in metrics.items()},
            "samples": samples}


def traced(runner: Runner, lines: list[str]) -> dict:
    wl = runner.workload
    base = runner.run("sweep", wl.workers)
    # tracing overhead is compared on one worker, as the traced sweep runs
    single = base if wl.workers == 1 else runner.run("sweep", 1)
    trace = runner.run("trace", 1)
    memory = runner.run("memory", 1, replicates=1)
    runs = ((base, runner.replicates), (trace, runner.replicates), (memory, 1))
    if single is not base:
        runs += ((single, runner.replicates),)
    attempted = sum(runner.tasks(reps) for _, reps in runs)
    failed = sum(runner.tasks(reps) for run, reps in runs if run["faults"])
    faults = [f for run, _ in runs for f in run["faults"]]
    if not _same_csv([base, single, trace],
                 f"untraced ({wl.workers} workers) vs traced (1 worker)", faults):
        failed = attempted
    metrics = {}
    if not any(run["faults"] for run, _ in runs):
        values, absent, idle, acc = tracing.layer_metrics(
            trace["trace"], memory["trace"],
            {"workers": wl.workers, "sweep_s": base["sweep_s"],
             "task_ms": base["task_ms"]}, single["task_ms"])
        # every per-layer metric is reported; one whose spans did not run reads 0
        for name, (value, unit) in values.items():
            note = (" (absent: traced function missing)" if name in absent else
                    " (not exercised by this workload)" if name in idle else "")
            lines.append(f"  {name:<28} {value:16.6g} {unit}{note}")
        # the task spans must cover the time the harness itself measured
        harness_ms = sum(trace["task_ms"])
        gap_ms = harness_ms - acc["task_ms"]
        covered = tracing.TASK_SPAN not in trace["trace"]["missing"]
        if covered and (acc["tasks"] != len(trace["task_ms"])
                        or not 0 <= gap_ms <= TRACE_GAP_FRAC * harness_ms
                        + TRACE_GAP_MS * acc["tasks"]):
            faults.append(f"{acc['tasks']} task spans take {acc['task_ms']:.3f} ms; "
                          f"the harness timed {len(trace['task_ms'])} tasks at "
                          f"{harness_ms:.3f} ms")
            failed = max(failed, runner.tasks(runner.replicates))
        elif covered:
            layers = acc["layers"]
            lines.append("  accounting: " + " + ".join(
                f"{k} {v:.1f}" for k, v in layers.items())
                + f" = {sum(layers.values()):.1f} ms of {acc['task_ms']:.1f} ms in task "
                f"spans, {harness_ms:.1f} ms timed by the harness; "
                f"experiments.self_ms (no layer's) is "
                f"{layers['experiments'] / acc['task_ms']:.1%}; "
                f"least self time {acc['min_self_ms']:.3g} ms")
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in values.items()}
    return {"attempted": attempted, "failed": failed, "faults": faults,
            "metrics": metrics}


def run_workload(root: Path, name: str, args) -> bool:
    """Run one workload, print its report and JSON result line; True if correct."""
    wl = WORKLOADS[name]
    seed = wl.config["base_seed"] if args.seed is None else args.seed
    runner = Runner(root, name, seed)
    lines = [f"workload {name}",
             f"  seed {seed}, {runner.replicates} replicates per point, "
             f"{runner.tasks(runner.replicates)} tasks per sweep, {wl.workers} workers, "
             f"trace {args.trace}"]
    result = traced(runner, lines) if args.trace else untraced(runner, args.seconds, lines)
    env = dict(runner.child_env, nproc=os.cpu_count(), python=platform.python_version(),
               git_rev=_git_rev(root), blas_pinned_by_benchmark=BLAS_ENV)
    lines.insert(1, "  env " + json.dumps(env, sort_keys=True))
    for fault in result["faults"]:
        lines.append(f"  FAULT {fault}")
    correct = not result["faults"] and result["failed"] == 0
    lines.append(f"  correct: {'yes' if correct else 'NO'}")
    print("\n".join(lines))
    (runner.work / f"result-trace{args.trace}.json").write_text(
        json.dumps(dict(result, env=env, correct=correct, seed=seed), indent=2))
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": result["metrics"]}),
          flush=True)
    return correct


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"],
                        help="one workload, or all four in turn")
    parser.add_argument("--seed", type=int, default=None,
                        help="sweep base seed (default: the acceptance seed)")
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="untraced sweeps repeat until this much time has passed "
                             "(and at least 3 times)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "modgraph" / "__init__.py").is_file():
        print(f"error: no modgraph sources under {root / 'src'}; run from the root "
              f"of a modgraph checkout", file=sys.stderr)
        return 2
    # a terminated run still reaps its sweep processes (see Runner.run)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = [run_workload(root, name, args) for name in names]
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
