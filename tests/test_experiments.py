"""Experiment harness: config validation, record schemas, closed-form
columns, CSV determinism across worker counts, check wiring, and the
package's public names."""

import glob
import hashlib
import io
import math
import multiprocessing
import os
import re
import types
from concurrent.futures.process import BrokenProcessPool

import pytest

import modgraph
from modgraph import experiments
from modgraph.experiments import (EXPERIMENTS, ExperimentConfig, _batches,
                                  _Experiment, _usable_cpus, _worker_count,
                                  run_experiment, wilson_upper)
from modgraph.graph import EmptyGraphError


def cfg(**over):
    base = {"experiment": "sparse", "grid": {"n": [500], "np": [0.5]},
            "replicates": 2, "base_seed": 5}
    base.update(over)
    return ExperimentConfig.from_dict(base)


class TestConfig:
    def test_unknown_experiment(self):
        with pytest.raises(ValueError, match="experiment must be one of growth-rate, "):
            cfg(experiment="nope")

    def test_empty_grid(self):
        with pytest.raises(ValueError, match="non-empty list"):
            cfg(grid={"n": [500], "np": []})

    def test_replicates_positive(self):
        with pytest.raises(ValueError):
            cfg(replicates=0)

    def test_unknown_key(self):
        with pytest.raises(ValueError, match="unknown config keys"):
            ExperimentConfig.from_dict({"experiment": "sparse",
                                        "grid": {"n": [5], "np": [0.5]},
                                        "bogus": 1})

    @pytest.mark.parametrize("raw, message", [
        ({"grid": {"n": [5], "np": [0.5]}}, "experiment must be a string, not None"),
        ({"experiment": "sparse"}, "grid must be an object, not None")])
    def test_missing_experiment_or_grid(self, raw, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            ExperimentConfig.from_dict(raw)

    def test_unknown_grid_key(self):
        with pytest.raises(ValueError, match=r"grid key 'eps'; accepted: \(n, np\)"):
            cfg(grid={"n": [500], "np": [0.5], "eps": [0.1]})
        # sparse takes np, not a G(n,m) edge count
        with pytest.raises(ValueError, match="grid key 'm'"):
            cfg(grid={"n": [500], "np": [0.5], "m": [10]})

    def test_unknown_option_key(self):
        with pytest.raises(ValueError, match="options key 'upper_witnes'; "
                                             "accepted: upper_witness, solver"):
            cfg(experiment="growth-rate", grid={"n": [100], "np": [4.0]},
                options={"upper_witnes": True})
        with pytest.raises(ValueError, match="options key 'tol'; accepted: none"):
            cfg(options={"tol": 1e-3})

    def test_unknown_assertion_key(self):
        with pytest.raises(ValueError, match="sparse does not accept assertions key "
                                             "'min_qc'; accepted: min_qcc, fraction"):
            cfg(assertions={"min_qc": 2.0})

    def test_shipped_configs_load(self):
        root = os.path.join(os.path.dirname(__file__), os.pardir, "configs")
        paths = sorted(glob.glob(os.path.join(root, "*.json")))
        assert paths
        for path in paths:
            ExperimentConfig.from_file(path)

    def test_readme_table_matches_experiments(self):
        # README's config table names each experiment's grid, option and
        # assertion keys, in declaration order
        path = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
        with open(path) as fh:
            rows = [line.split("|")[1:-1] for line in fh
                    if re.match(r"\| `[a-z-]+` \|", line)]
        table = {re.findall(r"`([^`]+)`", row[0])[0]:
                 [re.findall(r"`([^`]+)`", cell) for cell in row[1:]]
                 for row in rows}
        assert table == {name: [list(exp.grid), list(exp.option_defaults),
                                exp.assertion_keys()]
                         for name, exp in EXPERIMENTS.items()}

    def test_option_defaults_filled_in(self):
        c = cfg(experiment="concentration", grid={"n": [8], "m": [10]})
        assert c.options == {"t_values": (0.2, 0.4, 0.6)}
        c = cfg(experiment="growth-rate", grid={"n": [100], "np": [4.0]})
        assert c.options == {"upper_witness": False, "solver": "extremal", "tol": 1e-3}
        # the oracle cap, the gap solver's iteration cap, the Wilson z, the
        # planted x factor and sbm-distinguish's solver are constants
        sbm = {"n": [100], "alpha": [4.0], "beta": [1.0]}
        for experiment, grid, key in (
                ("concentration", {"n": [8], "m": [10]}, "cap"),
                ("concentration", {"n": [8], "m": [10]}, "wilson_z"),
                ("growth-rate", {"n": [100], "np": [4.0]}, "max_iter"),
                ("planted", {"n": [100], "c": [9.0], "k": [6]}, "x_factor"),
                ("sbm-distinguish", sbm, "max_iter"),
                ("sbm-distinguish", sbm, "solver"),
                ("sbm-distinguish", sbm, "tol")):
            with pytest.raises(ValueError, match=f"options key '{key}'"):
                cfg(experiment=experiment, grid=grid, options={key: 1})

    def test_unknown_solver(self):
        with pytest.raises(ValueError, match="solver must be one of auto, dense, "
                                             "extremal, not 'dens'"):
            cfg(experiment="growth-rate", grid={"n": [100], "np": [4.0]},
                options={"upper_witness": True, "solver": "dens"})

    @pytest.mark.parametrize("key, value, message", [
        ("replicates", 2.5, "replicates must be an integer"),
        ("replicates", "3", "replicates must be an integer"),
        ("replicates", True, "replicates must be an integer"),
        ("base_seed", 1.5, "base_seed must be an integer"),
        ("base_seed", -1, "base_seed must be >= 0")])
    def test_replicates_and_seed_typed(self, key, value, message):
        with pytest.raises(ValueError, match=message):
            cfg(**{key: value})

    def test_eps_range(self):
        with pytest.raises(ValueError, match=r"eps must be in \(0, 1\), not 1\.5"):
            cfg(experiment="threshold-window", grid={"n": [100], "eps": [1.5]})

    @pytest.mark.parametrize("experiment, grid, message", [
        ("sparse", {"n": [500], "np": ["0.5"]}, "np must be a number, not '0.5'"),
        ("threshold-window", {"n": [500], "eps": ["0.2"]}, "eps must be a number"),
        ("sparse", {"n": [500.7], "np": [0.5]}, "n must be an integer, not 500.7"),
        ("sparse", {"n": [True], "np": [0.5]}, "n must be an integer, not True"),
        ("planted", {"n": [100], "c": [9.0], "k": [2.5]}, "k must be an integer"),
        ("planted", {"n": [100], "c": [9.0], "k": [1]}, "k must be >= 2, not 1"),
        ("sparse", {"n": [0], "np": [2.0]}, "n must be >= 1, not 0"),
        ("growth-rate", {"n": [3], "np": [2.0]}, "n must be >= 6"),
        ("concentration", {"n": [8], "m": [-1]}, "m must be >= 0, not -1"),
        ("sbm-distinguish", {"n": [100], "alpha": [-1.0], "beta": [1.0]},
         "alpha must be positive, not -1.0"),
        ("sbm-distinguish", {"n": [100], "alpha": [4.0], "beta": [-0.5]},
         "beta must be >= 0, not -0.5")])
    def test_grid_values_typed(self, experiment, grid, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            cfg(experiment=experiment, grid=grid)

    @pytest.mark.parametrize("over, message", [
        ({"options": {"tol": "abc"}}, "option tol must be a number, not 'abc'"),
        ({"options": {"upper_witness": "false"}},
         "option upper_witness must be a boolean, not 'false'"),
        ({"options": {"tol": 0.0}}, "tol must be positive, not 0.0"),
        ({"options": []}, "options must be an object, not []"),
        ({"assertions": []}, "assertions must be an object, not []")])
    def test_options_typed(self, over, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            cfg(experiment="growth-rate", grid={"n": [100], "np": [4.0]}, **over)

    def test_sparse_rejects_np_zero(self):
        with pytest.raises(ValueError, match="np must be positive"):
            cfg(grid={"n": [100], "np": [0.0]})

    def test_concentration_cap(self):
        from modgraph.spectral import TooLargeError
        with pytest.raises(TooLargeError, match="oracle cap"):
            cfg(experiment="concentration", grid={"n": [20], "m": [10]})

    def test_planted_rates_validated(self):
        with pytest.raises(ValueError, match="negative rates"):
            cfg(experiment="planted", grid={"n": [100], "c": [0.5], "k": [6]})

    def test_false_turns_a_check_off(self):
        c = cfg(assertions={"min_qcc": False, "matching_consistent": True})
        assert [check.name for check in run_experiment(c).checks] == ["matching_consistent"]

    def test_witness_assertion_needs_witness_option(self):
        with pytest.raises(ValueError, match="needs options.upper_witness"):
            cfg(experiment="growth-rate", grid={"n": [100], "np": [4.0]},
                assertions={"witness_bound": {"bound_factor": 6.0}})
        # false turns the check off, so it needs no option
        cfg(experiment="growth-rate", grid={"n": [100], "np": [4.0]},
            assertions={"witness_bound": False})

    def test_grid_points_cartesian(self):
        c = cfg(experiment="growth-rate",
                grid={"n": [10, 20], "np": [2.0, 4.0]})
        pts = c.points()
        assert pts == [{"n": 10, "np": 2.0}, {"n": 10, "np": 4.0},
                       {"n": 20, "np": 2.0}, {"n": 20, "np": 4.0}]


class _Exits(_Experiment):
    """Task 0 ends its worker process at once, as a killed worker would."""

    name = "exits"
    grid = ("n",)

    def task(self, options, base_seed, point_index, point, replicate):
        if multiprocessing.parent_process() is None:
            raise AssertionError("ran in the test process, not a worker")
        if replicate == 0:
            os._exit(1)
        return {"seed": replicate}


class TestDeterminism:
    def _csv(self, config, threads=1):
        res = run_experiment(config, threads=threads)
        buf = io.StringIO()
        res.write_csv(buf)
        return buf.getvalue()

    @pytest.mark.parametrize("name", ["growth-rate", "growth-rate-witness"])
    def test_byte_identical_across_runs_and_workers(self, name):
        # the GOLDEN_CSV configs, the witness one through the extremal solver
        c = ExperimentConfig.from_dict(next(raw for key, raw, _ in GOLDEN_CSV if key == name))
        first = self._csv(c)
        assert first == self._csv(c)
        assert first == self._csv(c, threads=2)

    @pytest.mark.parametrize("threads, tasks, cpus, workers", [
        (1, 10, 8, 1), (4, 10, 8, 4), (16, 10, 8, 8), (16, 3, 8, 3),
        (2, 1000, 2, 2), (4, 10, None, 1), (0, 10, 8, 1), (-3, 10, 8, 1),
        (4, 0, 8, 1)])
    def test_worker_count(self, threads, tasks, cpus, workers):
        assert _worker_count(threads, tasks, cpus) == workers

    def test_workers_bounded_by_usable_cpus(self, monkeypatch):
        # a process pinned to one CPU of a larger machine starts no pool
        class NoPool:
            def __init__(self, *args, **kwargs):
                raise AssertionError("a worker pool was started")
        monkeypatch.setattr(experiments.os, "cpu_count", lambda: 4)
        monkeypatch.setattr(experiments.os, "sched_getaffinity", lambda pid: {0},
                            raising=False)
        monkeypatch.setattr(experiments, "ProcessPoolExecutor", NoPool)
        assert len(run_experiment(cfg(replicates=4), threads=2).records) == 4

    @pytest.mark.parametrize("threads", [1, 2])
    def test_failed_task_names_its_key(self, threads):
        # Swap needs an edge, so every task at np = 1e-9 fails; the first is
        # named
        c = cfg(experiment="growth-rate", grid={"n": [30], "np": [2.0, 1e-9]},
                replicates=2, base_seed=3)
        message = (r"^growth-rate task failed at n=30 np=1e-09, replicate 0: "
                   r"swap bisection needs at least one edge$")
        with pytest.raises(RuntimeError, match=message) as info:
            run_experiment(c, threads=threads)
        assert isinstance(info.value.__cause__, EmptyGraphError)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_mid_batch_failure_names_its_task(self, threads):
        # 24 tasks: on 2 workers, batches of 3, 2, 2, 2 tasks, then single
        # ones.  An empty G(6, 1/12) makes Swap raise; at this seed the
        # first one is replicate 4, the second of the batch (3, 4), after
        # replicate 3 succeeded.  On 1 worker it is at offset 4 of the one
        # batch.
        c = cfg(experiment="growth-rate", grid={"n": [6], "np": [0.5]},
                replicates=24, base_seed=20)
        message = (r"^growth-rate task failed at n=6 np=0\.5, replicate 4: "
                   r"swap bisection needs at least one edge$")
        with pytest.raises(RuntimeError, match=message) as info:
            run_experiment(c, threads=threads)
        assert isinstance(info.value.__cause__, EmptyGraphError)
        if threads == 2 and _usable_cpus() >= 2:
            # the worker's traceback travels as a note on the cause
            assert "in task" in info.value.__cause__.__notes__[-1]

    @pytest.mark.skipif(multiprocessing.get_start_method() != "fork" or _usable_cpus() < 2,
                        reason="needs 2 workers that inherit the test experiment")
    def test_killed_worker_names_a_task(self, monkeypatch):
        monkeypatch.setitem(EXPERIMENTS, "exits", _Exits())
        c = cfg(experiment="exits", grid={"n": [1]}, replicates=40)
        with pytest.raises(RuntimeError, match=r"^exits task failed at n=1, replicate 0: ") as info:
            run_experiment(c, threads=2)
        assert isinstance(info.value.__cause__, BrokenProcessPool)

    @pytest.mark.parametrize("tasks, workers", [(1, 2), (24, 2), (140, 2), (1001, 2), (1001, 8)])
    def test_batches_shrink_to_single_tasks(self, tasks, workers):
        batches = list(_batches(list(range(tasks)), workers))
        assert [t for batch in batches for t in batch] == list(range(tasks))
        sizes = [len(batch) for batch in batches]
        assert sizes == sorted(sizes, reverse=True)
        assert sizes[-min(tasks, 4 * workers):] == [1] * min(tasks, 4 * workers)
        assert sizes[0] == max(1, tasks // (4 * workers))

    def test_uneven_batches_identical_across_workers(self):
        # 1,001 tasks on 2 workers: batches of 125, 109, 95, ... tasks, and
        # the last 15 batches hold one task each
        c = cfg(experiment="concentration", grid={"n": [8], "m": [10]},
                replicates=1001, base_seed=41, assertions={"tails_ok": True})
        one, two = run_experiment(c, threads=1), run_experiment(c, threads=2)
        assert len(one.records) == 1001
        csv_one, csv_two = io.StringIO(), io.StringIO()
        one.write_csv(csv_one)
        two.write_csv(csv_two)
        assert csv_one.getvalue() == csv_two.getvalue()
        assert one.summary == two.summary
        assert one.checks == two.checks

    def test_walltime_not_in_csv(self):
        c = cfg()
        res = run_experiment(c)
        assert all("walltime" not in col for col in res.columns)
        assert "walltime_ms" in res.records[0]  # in-memory only


class TestGrowthRate:
    def test_single_point_skips_fit(self):
        c = cfg(experiment="growth-rate", grid={"n": [600], "np": [8.0]},
                replicates=3, base_seed=2)
        res = run_experiment(c)
        assert res.summary["slope"] is None
        assert len(res.records) == 3

    def test_slope_near_minus_half(self):
        c = cfg(experiment="growth-rate",
                grid={"n": [4000], "np": [16.0, 64.0, 256.0]},
                replicates=3, base_seed=3,
                assertions={"slope_range": [-0.65, -0.35],
                            "min_median_factor": 0.12})
        res = run_experiment(c)
        assert res.passed, [c for c in res.checks if not c.passed]

    def test_n_doubling_changes_median_little(self):
        c = cfg(experiment="growth-rate",
                grid={"n": [10_000, 20_000], "np": [64.0]},
                replicates=6, base_seed=4)
        res = run_experiment(c)
        meds = {row["n"]: row["median_q_swap"] for row in res.summary["medians"]}
        assert abs(meds[20_000] - meds[10_000]) < 0.1 * meds[10_000]

    def test_upper_witness_columns(self):
        c = cfg(experiment="growth-rate", grid={"n": [800], "np": [32.0]},
                replicates=2, base_seed=5,
                options={"upper_witness": True, "solver": "extremal"},
                assertions={"witness_bound": {"bound_factor": 6.0,
                                              "min_fraction": 0.9}})
        res = run_experiment(c)
        assert "upper_witness" in res.columns
        assert res.passed, res.checks
        assert list(res.summary["witness_pass_fraction"]) == ["n=800 np=32.0"]
        for rec in res.records:
            assert rec["q_swap"] <= rec["upper_witness"] + 1e-8


class TestSparse:
    def test_gnp_mode(self):
        c = cfg(grid={"n": [20_000], "np": [0.5]}, replicates=3,
                assertions={"min_qcc": 0.999, "fraction": 1.0,
                            "matching_consistent": True})
        res = run_experiment(c)
        assert res.passed
        assert all(r["q_cc"] > 0.999 for r in res.records)

    def test_matching_flag(self):
        c = cfg(grid={"n": [10_000], "np": [0.01]}, replicates=10, base_seed=11,
                assertions={"matching_consistent": True})
        res = run_experiment(c)
        assert res.passed
        flags = [r["is_matching"] for r in res.records]
        assert any(flags)  # at m near 50, n=1e4 most draws are matchings
        for r in res.records:
            if r["is_matching"]:
                assert r["q_cc"] == pytest.approx(1 - 1 / r["m"], abs=1e-12)
                assert r["q_matching_theory"] == pytest.approx(1 - 1 / r["m"], abs=1e-15)
            else:
                assert r["q_matching_theory"] is None

    def test_min_qcc_checked_per_point(self):
        # every run at np=3 misses the bar; the np=0.5 runs must not carry it
        c = cfg(grid={"n": [300], "np": [0.5, 3.0]}, replicates=4,
                assertions={"min_qcc": 0.9, "fraction": 0.5})
        (check,) = run_experiment(c).checks
        assert not check.passed
        assert "n=300 np=3.0: 0.0 " in check.detail

    def test_deficit_prediction_blank_when_supercritical(self):
        c = cfg(grid={"n": [200], "np": [3.0]}, replicates=2, base_seed=13)
        res = run_experiment(c)
        for r in res.records:
            assert r["deficit_prediction"] is None


class TestThresholdWindow:
    def test_closed_form_bounds(self):
        c = cfg(experiment="threshold-window",
                grid={"n": [50_000], "eps": [0.25]}, replicates=2, base_seed=19)
        res = run_experiment(c)
        rec = res.records[0]
        assert rec["lower_bound"] == pytest.approx(1 - 0.4096, abs=1e-12)
        assert rec["upper_bound"] == pytest.approx(
            1 - 0.4096 * (1 - 0.5), abs=1e-12)
        # dual-root prediction column present and sane
        assert 0.0 < rec["eq21_value"] < 1.0
        assert 0.75 < rec["x_dual"] < 0.875

    def test_window_fraction_checked_per_point(self):
        # n=50 sits far outside the large-n window while n=1e5 sits inside
        # it; the failing point must not hide behind the passing one
        c = cfg(experiment="threshold-window",
                grid={"n": [50, 100_000], "eps": [0.2]}, replicates=10,
                base_seed=3, assertions={"window_fraction": 0.9})
        res = run_experiment(c)
        (check,) = res.checks
        assert not check.passed
        assert "n=50 eps=0.2: 0.1 " in check.detail
        assert "n=100000 eps=0.2: 1.0 " in check.detail
        assert res.summary["in_window_fraction"] == {"n=50 eps=0.2": 0.1,
                                                     "n=100000 eps=0.2": 1.0}

    def test_eps_tiny_bounds_near_one(self):
        # the sandwich width shrinks like 16 eps^2, so at eps = 1e-3 both
        # bounds sit within 1.6e-5 of 1
        exp = EXPERIMENTS["threshold-window"]
        lo, hi = exp.bounds(1e-3)
        assert abs(lo - 1.0) < 2e-5 and abs(hi - 1.0) < 2e-5


class TestPlanted:
    def test_k2_score_and_contiguity(self):
        c = cfg(experiment="planted", grid={"n": [30_000], "c": [4.0], "k": [2]},
                replicates=4, base_seed=23,
                assertions={"mean_tolerance": 0.015})
        res = run_experiment(c)
        assert res.passed, res.checks
        rec = res.records[0]
        assert rec["alpha"] == pytest.approx(6.0) and rec["beta"] == pytest.approx(2.0)
        assert rec["contiguity_ok"]  # boundary case counts as contiguous

    def test_k6_rates_and_floor(self):
        c = cfg(experiment="planted", grid={"n": [30_000], "c": [9.0], "k": [6]},
                replicates=4, base_seed=29,
                assertions={"mean_tolerance": 0.02})
        res = run_experiment(c)
        assert res.passed, res.checks
        rec = res.records[0]
        x = 0.999 * math.sqrt(2 * 5 * math.log(5))
        assert rec["alpha"] == pytest.approx(9 + 3 * x, rel=1e-12)
        assert rec["beta"] == pytest.approx(9 - 3 * x / 5, rel=1e-12)
        assert rec["contiguity_ok"]
        assert rec["f_over_sqrt_c"] == pytest.approx(0.6686 / 3, abs=5e-5)


    def test_every_grid_point_contiguous(self):
        # the k = 2 rates sit on the contiguity boundary by construction, so
        # rounding must not decide the column (at c = 5 it once read false)
        c = cfg(experiment="planted",
                grid={"n": [200], "c": [1.0 + 0.25 * i for i in range(197)],
                      "k": [2, 3, 6, 11]}, replicates=1, base_seed=61)
        res = run_experiment(c)
        assert len(res.records) == 197 * 4
        assert all(rec["contiguity_ok"] is True for rec in res.records)


class TestSbmDistinguish:
    def test_separates_well_past_threshold(self):
        c = cfg(experiment="sbm-distinguish",
                grid={"n": [20_000], "alpha": [120.0], "beta": [8.0]},
                replicates=4, base_seed=31,
                assertions={"min_separation_rate": 0.9})
        res = run_experiment(c)
        assert res.passed, res.checks
        assert res.records[0]["snr"] == pytest.approx(98.0)
        assert res.records[0]["detectability_threshold"] == 2.0

    def test_identical_models_never_separate(self):
        c = cfg(experiment="sbm-distinguish",
                grid={"n": [10_000], "alpha": [64.0], "beta": [64.0]},
                replicates=4, base_seed=37)
        res = run_experiment(c)
        assert res.summary["separation_rate"][0]["rate"] == 0.0
        assert all(abs(r["planted_score"]) < 0.01 for r in res.records)


class TestConcentration:
    def test_tails_under_bound(self):
        c = cfg(experiment="concentration", grid={"n": [8], "m": [10]},
                replicates=300, base_seed=41,
                options={"t_values": [0.2, 0.4, 0.6, 1.0]},
                assertions={"tails_ok": True})
        res = run_experiment(c)
        assert res.passed
        rows = {row["t"]: row for row in res.summary["tails"]}
        assert rows[0.2]["bound"] == pytest.approx(2.0 * math.exp(-0.2))  # 2 exp(-t^2 m / 2)
        assert rows[1.0]["empirical_tail"] == 0.0  # q* lives in [0, 1)

    def test_wilson_upper(self):
        assert wilson_upper(0, 100) < 0.09
        assert wilson_upper(50, 100) == pytest.approx(0.64, abs=0.02)
        assert wilson_upper(0, 0) == 1.0


class TestIsolatedEdges:
    def test_ratio_and_lemma(self):
        c = cfg(experiment="isolated-edges", grid={"n": [30_000], "c": [2.0]},
                replicates=4, base_seed=43,
                assertions={"floor_all_ok": True, "ratio_band": 0.2})
        res = run_experiment(c)
        assert res.passed, res.checks
        rec = res.records[0]
        # emitted closed-form column is the whp lower-bound constant
        assert rec["prediction"] == pytest.approx(0.5 * math.exp(-4.0), rel=1e-12)
        # the observed ratio sits near the first-moment value exp(-2c)
        mean_ratio = res.summary["ratios"][0]["mean_ratio"]
        assert mean_ratio == pytest.approx(math.exp(-4.0), rel=0.2)

    def test_matching_case_lemma_truncates(self):
        # a pure matching has X = m and q_C = 1 - 1/m >= 1/2 = min(X/m, 1/2)
        c = cfg(experiment="isolated-edges", grid={"n": [4000], "c": [0.02]},
                replicates=6, base_seed=47,
                assertions={"floor_all_ok": True})
        res = run_experiment(c)
        assert res.passed
        assert any(r["ratio"] == 1.0 for r in res.records
                   if r["ratio"] is not None)


class TestCsvFormat:
    def test_twelve_significant_digits(self):
        c = cfg(grid={"n": [300], "np": [0.8]}, replicates=1, base_seed=53)
        res = run_experiment(c)
        buf = io.StringIO()
        res.write_csv(buf)
        lines = buf.getvalue().splitlines()
        assert lines[0].startswith("n,np,seed,m,q_cc")
        qcc_col = lines[0].split(",").index("q_cc")
        printed = lines[1].split(",")[qcc_col]
        assert printed == "%.12g" % res.records[0]["q_cc"]


class TestPlantedContiguityWarning:
    def test_default_rates_do_not_warn(self):
        import warnings as _w
        c = cfg(experiment="planted", grid={"n": [500], "c": [9.0], "k": [6]},
                replicates=1, base_seed=59)
        with _w.catch_warnings():
            _w.simplefilter("error", RuntimeWarning)
            res = run_experiment(c)
        assert res.records[0]["contiguity_ok"] is True


# sha256 of the CSV of one small config per experiment (growth-rate with and
# without the upper witness).  They pin the column order, the blank cells
# and the float formatting of every task record.  Together these run in
# about a second.
GOLDEN_CSV = [
    ("growth-rate",
     {"experiment": "growth-rate", "grid": {"n": [600], "np": [8.0, 16.0]},
      "replicates": 3, "base_seed": 17},
     "6a266755e3e47cac3922b1d1e5799ecb4733de2616a3df9be8251331d0979e17"),
    ("growth-rate-witness",
     {"experiment": "growth-rate", "grid": {"n": [800], "np": [32.0]},
      "replicates": 2, "base_seed": 5,
      "options": {"upper_witness": True, "solver": "extremal", "tol": 1e-3}},
     "0d6fe8de9c716cdcfa965f37995a06e7f19475e72bfcd6e13a69dbfa649db54b"),
    ("sparse-np",
     {"experiment": "sparse", "grid": {"n": [300], "np": [0.01, 0.5, 3.0]},
      "replicates": 3, "base_seed": 5},
     "1c16fcd706fa45b97e850d100537df377163f026cad573937cce54e2d60bd083"),
    ("threshold-window",
     {"experiment": "threshold-window", "grid": {"n": [2000], "eps": [0.2, 0.25]},
      "replicates": 2, "base_seed": 19},
     "bdafd516e0444ae74a1d072ce9e8230683ab1345ca2e7aa696ac91c3e66e5448"),
    ("planted",
     {"experiment": "planted", "grid": {"n": [3000], "c": [9.0], "k": [2, 6]},
      "replicates": 2, "base_seed": 23},
     "bec0f3e97dbb5a2740a4128e703aaf4e1769a23ec57d8c9918c463decded1ef0"),
    ("sbm-distinguish",
     {"experiment": "sbm-distinguish",
      "grid": {"n": [2000], "alpha": [40.0], "beta": [8.0]},
      "replicates": 2, "base_seed": 31},
     "6e7fc41eac1bc945964ed9ee06a1140ec469feb5184bf1429f628fc1ca84ba9a"),
    ("concentration",
     {"experiment": "concentration", "grid": {"n": [7], "m": [8]},
      "replicates": 20, "base_seed": 41},
     "6d6cf25a7c04048cebfb5a4ef93ca42ae1cd6585c1beadfe726137724ce917e7"),
    ("isolated-edges",
     {"experiment": "isolated-edges", "grid": {"n": [50, 3000], "c": [0.02, 2.0]},
      "replicates": 3, "base_seed": 43},
     "7156d9f23f45ca4f201ad17d8f7194021f8453e58b71276be135c1834d674a05"),
]


@pytest.mark.parametrize("raw,digest", [case[1:] for case in GOLDEN_CSV],
                         ids=[case[0] for case in GOLDEN_CSV])
def test_golden_csv_digest(raw, digest):
    res = run_experiment(ExperimentConfig.from_dict(raw))
    buf = io.StringIO()
    res.write_csv(buf)
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == digest


# Every public name of the package: a new export, or a dropped one, is a
# reviewed edit of this set.
PUBLIC_NAMES = {
    "COutOfRangeError", "CheckOutcome", "DENSE_CAP", "EXPERIMENTS",
    "EdgeListFormatError", "EmptyGraphError", "ExperimentConfig", "ExperimentResult",
    "GapEstimate", "Graph", "InvalidPartitionError",
    "IsolatedVertexError", "KTooSmallError", "LabeledGraph", "MTooLargeError",
    "ModularityBreakdown", "OracleResult", "Partition", "PruneResult",
    "RateOutOfRangeError", "RobustnessCheck", "SpectralSummary", "SwapTrace",
    "TooLargeError", "TooSmallError", "UpperWitness", "connected_components",
    "discrepancy_audit", "exact_modularity", "extremal_gap", "f_k", "gen_gnm", "gen_gnp",
    "gen_planted", "induced_subgraph", "modularity_score", "optimal_connectivity_check",
    "planted_partition", "prune", "read_edgelist", "read_partition",
    "resolution_limit_check", "robustness_check", "run_experiment",
    "solve_dual", "spectral_summary", "spectral_upper_witness", "substream",
    "swap_bisection", "wilson_upper", "write_edgelist", "write_partition",
}


def test_public_names_pinned():
    # submodules are attributes too, once imported; they are not exports
    exported = {name for name, value in vars(modgraph).items()
                if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert exported == PUBLIC_NAMES
