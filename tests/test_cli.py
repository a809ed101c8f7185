"""CLI surface: file-based subcommands and experiment runs with exit codes."""

import argparse
import csv
import hashlib
import json

import pytest

from modgraph.cli import build_parser, main
from modgraph.experiments import EXPERIMENTS
from modgraph.graph import read_edgelist
from modgraph.oracle import ORACLE_CAP
from modgraph.spectral import GapEstimate


@pytest.fixture
def p4_file(tmp_path):
    path = tmp_path / "p4.txt"
    path.write_text("4 3\n0 1\n1 2\n2 3\n")
    return str(path)


@pytest.fixture
def matching_file(tmp_path):
    # the perfect matching on DENSE_CAP + 2 = 4002 vertices: above the dense
    # cap, and its extremal gap is exactly 1 after 2 applications
    path = tmp_path / "matching.txt"
    path.write_text("4002 2001\n" + "".join(f"{2 * i} {2 * i + 1}\n"
                                             for i in range(2001)))
    return str(path)


class TestOracleCommand:
    def test_q_star_printed(self, p4_file, capsys):
        assert main(["oracle", p4_file]) == 0
        out = capsys.readouterr().out
        assert "q* = 1/6" in out
        assert "partitions scanned: 15" in out

    def test_maximizers_partition_format(self, p4_file, capsys):
        main(["oracle", p4_file, "--maximizers"])
        out = capsys.readouterr().out
        assert "4 2\n0\n0\n1\n1\n" in out

    def test_max_parts(self, p4_file, capsys):
        assert main(["oracle", p4_file, "--max-parts", "1"]) == 0
        out = capsys.readouterr().out
        assert "q_<=k = 0" in out
        assert "partitions scanned: 1; maximizers: 1" in out

    def test_maximizers_with_max_parts(self, p4_file, capsys):
        # the maximizers of q_<=2, not of q*: P4 has the one 0 0 1 1
        assert main(["oracle", p4_file, "--max-parts", "2", "--maximizers"]) == 0
        assert capsys.readouterr().out == (
            "q_<=k = 1/6 = 0.166666666667  (k = 2)\n"
            "partitions scanned: 8; maximizers: 1\n"
            "4 2\n0\n0\n1\n1\n")


class TestInputErrors:
    # each exits 2 with one "error:" line on stderr and no traceback
    def _fails(self, argv, capsys, *words):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err
        for word in words:
            assert word in err

    def test_malformed_edge_list(self, tmp_path, capsys):
        path = tmp_path / "g.txt"
        path.write_text("3 1\n0 1\n0 2\n")
        self._fails(["oracle", str(path)], capsys, "line 3")

    def test_oracle_above_cap(self, tmp_path, capsys):
        path = tmp_path / "matching.txt"
        path.write_text("12 6\n" + "".join(f"{2 * i} {2 * i + 1}\n" for i in range(6)))
        self._fails(["oracle", str(path)], capsys,
                    f"12 non-isolated vertices exceed the oracle cap {ORACLE_CAP}")

    def test_rejected_generator_parameters(self, capsys):
        self._fails(["generate", "--model", "gnm", "--n", "4", "--m", "9"], capsys,
                    "m=9 exceeds pair count 6")
        self._fails(["generate", "--model", "gnm", "--n", "5", "--m", "-1"], capsys,
                    "m must be >= 0, not -1")
        self._fails(["generate", "--model", "gnp", "--n", "5", "--p", "0.5",
                     "--seed", "-1"], capsys, "seed must be >= 0, not -1")

    def test_spectral_on_isolated_vertex(self, tmp_path, capsys):
        path = tmp_path / "g.txt"
        path.write_text("3 1\n0 1\n")
        self._fails(["spectral", str(path)], capsys, "isolated")

    def test_eigenvalues_above_dense_cap(self, matching_file, tmp_path, capsys):
        # the full spectrum takes the dense route at any n, so it is refused
        # above the cap before any file is written
        eigs = tmp_path / "eigs.csv"
        self._fails(["spectral", matching_file, "--eigenvalues", str(eigs)], capsys,
                    "n=4002 exceeds dense cap 4000")
        assert not eigs.exists()

    def test_generate_without_model(self, capsys):
        self._fails(["generate", "--n", "7", "--m", "3"], capsys, "needs 'model'")

    @pytest.mark.parametrize("flags, word", [
        (["--model", "gnm", "--m", "3"], "generate needs 'n'"),
        (["--model", "gnp", "--n", "6"], "model gnp requires field 'p'"),
        (["--model", "planted", "--n", "6", "--alpha", "2", "--beta", "1"],
         "model planted requires field 'k'"),
        (["--model", "gnp", "--n", "6", "--p", "0.5", "--k", "2"],
         "model gnp forbids field 'k'"),
        (["--model", "gnm", "--n", "6", "--m", "5", "--p", "0.5"],
         "model gnm forbids field 'p'")],
        ids=["no-n", "gnp-no-p", "planted-no-k", "gnp-with-k", "gnm-with-p"])
    def test_generate_flags_of_model(self, tmp_path, capsys, flags, word):
        # a model takes its own parameter flags and no others
        out = tmp_path / "g.txt"
        self._fails(["generate", *flags, "--out", str(out)], capsys, word)
        assert not out.exists()

    def test_generate_unknown_model(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["generate", "--model", "ba", "--n", "6"])
        assert info.value.code == 2
        assert "invalid choice: 'ba'" in capsys.readouterr().err

    @pytest.mark.parametrize("model", [["gnp", "--p", "0.5"], ["gnm", "--m", "3"]])
    def test_labels_out_without_planted(self, tmp_path, capsys, model):
        labels = tmp_path / "labels.txt"
        self._fails(["generate", "--model", *model, "--n", "6", "--out",
                     str(tmp_path / "g.txt"), "--labels-out", str(labels)],
                    capsys, "--labels-out")
        assert not labels.exists()

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_threads_below_one(self, tmp_path, capsys, threads):
        cfg = self._sparse_config(tmp_path)
        self._fails(["sparse", "--config", cfg, "--threads", threads], capsys,
                    f"threads must be >= 1, not {threads}")

    def _sparse_config(self, tmp_path, **over):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"experiment": "sparse",
                                    "grid": {"n": [100], "np": [0.5]}, **over}))
        return str(path)

    def test_fractional_replicates(self, tmp_path, capsys):
        cfg = self._sparse_config(tmp_path, replicates=2.5)
        self._fails(["sparse", "--config", cfg], capsys, "replicates must be an integer")

    def test_string_replicates(self, tmp_path, capsys):
        cfg = self._sparse_config(tmp_path, replicates="3")
        self._fails(["sparse", "--config", cfg], capsys, "replicates must be an integer")

    def test_string_grid_value(self, tmp_path, capsys):
        cfg = self._sparse_config(tmp_path, grid={"n": [100], "np": ["0.5"]})
        self._fails(["sparse", "--config", cfg], capsys, "np must be a number")

    @pytest.mark.parametrize("experiment, grid, word", [
        ("growth-rate", {"n": [100], "np": [200.0]}, "np = 200 exceeds n = 100"),
        ("sparse", {"n": [100], "np": [150.0]}, "np = 150 exceeds n = 100"),
        ("threshold-window", {"n": [1], "eps": [0.5]}, "1 + eps = 1.5 exceeds n = 1"),
        ("isolated-edges", {"n": [5], "c": [9.0]}, "c = 9 exceeds n = 5"),
        ("planted", {"n": [4], "c": [9.0], "k": [2]}, "alpha = 12 exceeds n = 4"),
        ("sbm-distinguish", {"n": [10], "alpha": [20.0], "beta": [1.0]},
         "alpha = 20 exceeds n = 10"),
        ("sbm-distinguish", {"n": [10], "alpha": [5.0], "beta": [12.0]},
         "beta = 12 exceeds n = 10"),
        ("concentration", {"n": [8], "m": [40]}, "m = 40 exceeds the 28 pairs")])
    def test_grid_point_out_of_range(self, tmp_path, capsys, experiment, grid, word):
        # each range joins two grid keys, so it is checked per grid point
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"experiment": experiment, "grid": grid}))
        assert main([experiment, "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err
        assert word in err

    @pytest.mark.parametrize("experiment, over, word", [
        ("sparse", {"assertions": {"min_qcc": "high"}},
         "assertion min_qcc must be a number, not 'high'"),
        ("growth-rate", {"assertions": {"slope_range": [-0.6]}},
         "assertion slope_range must be a list of two numbers, not [-0.6]"),
        ("growth-rate", {"assertions": {"min_median_np": 25.0}},
         "assertion min_median_np needs assertion min_median_factor"),
        ("sparse", {"assertions": {"min_qcc": False, "fraction": 0.5}},
         "assertion fraction needs assertion min_qcc"),
        ("sparse", {"assertions": {"min_qcc": 0.9, "fraction": "all"}},
         "assertion fraction must be a number, not 'all'"),
        ("concentration", {"assertions": {"tails_ok": 1}},
         "assertion tails_ok must be true, not 1"),
        ("growth-rate", {"options": {"upper_witness": True},
                         "assertions": {"witness_bound": {"bound_factor": "6"}}},
         "assertion witness_bound must be an object of numbers"),
        ("growth-rate", {"options": {"upper_witness": True},
                         "assertions": {"witness_bound": {"min_fraction": 0.9}}},
         "assertion witness_bound must be an object of numbers"),
        ("concentration", {"options": {"t_values": []}},
         "t_values must be a non-empty list of numbers > 0, not []"),
        ("concentration", {"options": {"t_values": [0.2, -0.1]}},
         "t_values must be a non-empty list of numbers > 0"),
        ("threshold-window", {"assertions": {"window_fraction": 1.5}},
         "assertion window_fraction must be in [0, 1], not 1.5"),
        ("growth-rate", {"assertions": {"slope_range": [-0.4, -0.6]}},
         "assertion slope_range must be [lo, hi] with lo <= hi, not [-0.4, -0.6]"),
        ("growth-rate", {"options": {"upper_witness": True}, "assertions": {
            "witness_bound": {"bound_factor": 6.0, "min_fraction": -0.1}}},
         "assertion witness_bound must be bound_factor > 0 and min_fraction in [0, 1]"),
        ("growth-rate", {"options": {"upper_witness": True},
                         "assertions": {"witness_bound": {"bound_factor": 0}}},
         "assertion witness_bound must be bound_factor > 0 and min_fraction in [0, 1]"),
        ("sparse", {"assertions": {"min_qcc": 0.5, "fraction": 1.5}},
         "assertion fraction must be in [0, 1], not 1.5"),
        ("sbm-distinguish", {"assertions": {"min_separation_rate": -0.1}},
         "assertion min_separation_rate must be in [0, 1], not -0.1"),
        ("planted", {"assertions": {"mean_tolerance": -0.01}},
         "assertion mean_tolerance must be >= 0, not -0.01"),
        ("isolated-edges", {"assertions": {"ratio_band": -0.1}},
         "assertion ratio_band must be >= 0, not -0.1"),
        ("sparse", None, "config must be an object, not None"),
        ("sparse", 5, "config must be an object, not 5"),
        ("sparse", [{}], "config must be an object, not [{}]"),
        ("sparse", "abc", "config must be an object, not 'abc'"),
        ("sparse", {"experiment": ["sparse"]}, "experiment must be a string, not ['sparse']"),
        ("sparse", {"output": True}, "output must be a string or null, not True"),
        ("sparse", {"output": 1}, "output must be a string or null, not 1"),
        ("sparse", {"grid": {"n": [4000000000], "np": [0.5]}},
         "n must be <= 3037000499, not 4000000000")])
    def test_config_refused_before_any_task(self, tmp_path, capsys, monkeypatch,
                                            experiment, over, word):
        # each of these used to fail only after the sweep, assert nothing or
        # end in a traceback; an `over` that is no object is the whole file
        def task(*args):
            raise AssertionError("a task ran")
        monkeypatch.setattr(EXPERIMENTS[experiment], "task", task)
        grid = {"sparse": {"n": [500], "np": [0.5]},
                "growth-rate": {"n": [600], "np": [8.0, 16.0]},
                "concentration": {"n": [6], "m": [5]},
                "threshold-window": {"n": [500], "eps": [0.2]},
                "sbm-distinguish": {"n": [100], "alpha": [4.0], "beta": [1.0]},
                "planted": {"n": [100], "c": [9.0], "k": [2]},
                "isolated-edges": {"n": [500], "c": [0.5]}}[experiment]
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"experiment": experiment, "grid": grid, **over}
                                   if isinstance(over, dict) else over))
        assert main([experiment, "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err
        assert word in err

    def test_negative_base_seed(self, tmp_path, capsys):
        cfg = self._sparse_config(tmp_path, base_seed=-1)
        self._fails(["sparse", "--config", cfg], capsys, "base_seed must be >= 0")
        cfg = self._sparse_config(tmp_path)
        self._fails(["sparse", "--config", cfg, "--seed", "-1"], capsys,
                    "base_seed must be >= 0")


class TestScoreCommand:
    def test_breakdown(self, p4_file, tmp_path, capsys):
        part = tmp_path / "part.txt"
        part.write_text("4 2\n0\n0\n1\n1\n")
        assert main(["score", p4_file, str(part)]) == 0
        out = capsys.readouterr().out
        assert "coverage = 0.666666666667" in out
        assert "degree_tax = 0.5" in out
        assert "score = 0.166666666667" in out


class TestGenerateCommand:
    def test_gnm_from_flags(self, tmp_path):
        out = tmp_path / "g.txt"
        assert main(["generate", "--model", "gnm", "--n", "6", "--m", "5", "--seed", "3",
                     "--out", str(out)]) == 0
        g = read_edgelist(str(out))
        assert g.n == 6 and g.m == 5

    def test_from_flags_with_labels(self, tmp_path):
        out = tmp_path / "g.txt"
        labels = tmp_path / "labels.txt"
        assert main(["generate", "--model", "planted", "--n", "30",
                     "--alpha", "5", "--beta", "1", "--k", "2",
                     "--seed", "7", "--out", str(out),
                     "--labels-out", str(labels)]) == 0
        g = read_edgelist(str(out))
        assert g.n == 30
        lines = labels.read_text().splitlines()
        assert lines[0] == "30 2" and len(lines) == 31

    @pytest.mark.parametrize("argv, digests", [
        (["generate", "--model", "gnp", "--n", "200", "--p", "0.05", "--seed", "7",
          "--out", "g.txt"],
         {"g.txt": "381ceea6af8ffbeb6eba722a90690b334289ddde910ad1e6e90d995329a52ca8"}),
        (["generate", "--model", "planted", "--n", "300", "--alpha", "8", "--beta", "2",
          "--k", "3", "--seed", "11", "--out", "g.txt", "--labels-out", "labels.txt"],
         {"g.txt": "2343d4c41e482ac74836bf4b39efd8441e098a68907330f7f495ecfa9ec68e63",
          "labels.txt": "919617abcb4c60feb8696dbb9d632a88bfcbd8df4a1871e9a9d5ae674749dd70"}),
        (["oracle", "c5.txt", "--maximizers"],
         {"stdout": "e1e1ad22d4c99e891b6a602a55394de70407adb2ac4436a10e1d255bc8ba1c77"})])
    def test_output_bytes_pinned(self, tmp_path, monkeypatch, capsys, argv, digests):
        # sha256 of each output: the text writers may change, the bytes they
        # write may not.  c5.txt is a 5-cycle after two isolated vertices, so
        # each maximizer's labels are out of first-appearance order and take
        # Partition.from_labels' relabel
        monkeypatch.chdir(tmp_path)
        (tmp_path / "c5.txt").write_text("7 5\n2 3\n3 4\n4 5\n5 6\n2 6\n")
        assert main(argv) == 0
        (tmp_path / "stdout").write_text(capsys.readouterr().out)
        assert {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                for name in digests} == digests

    def test_seed_defaults_to_zero(self, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        flags = ["generate", "--model", "planted", "--n", "60", "--alpha", "6",
                 "--beta", "1", "--k", "3"]
        assert main([*flags, "--out", str(a)]) == 0
        assert main([*flags, "--seed", "0", "--out", str(b)]) == 0
        assert a.read_text() == b.read_text()

    def test_determinism(self, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        for out in (a, b):
            main(["generate", "--model", "gnp", "--n", "40", "--p", "0.2",
                  "--seed", "11", "--out", str(out)])
        assert a.read_text() == b.read_text()


class TestSpectralCommand:
    def test_dense_with_eigenvalues(self, p4_file, tmp_path, capsys):
        csv_path = tmp_path / "eigs.csv"
        assert main(["spectral", p4_file, "--eigenvalues", str(csv_path)]) == 0
        assert capsys.readouterr().out == "gap = 1  (dense path, connected=True)\n"
        vals = [float(x) for x in csv_path.read_text().split()]
        assert len(vals) == 4 and abs(vals[0]) < 1e-9

    def test_extremal(self, matching_file, capsys):
        # n above the dense cap takes the extremal route
        assert main(["spectral", matching_file]) == 0
        out = capsys.readouterr().out
        assert out.startswith("gap = 1  (extremal path, tol 1e-06, iterations 2, ")
        assert "residual" in out and out.endswith(", converged=True)\n")

    def test_extremal_default_tol(self, matching_file, capsys, monkeypatch):
        seen = []
        monkeypatch.setattr("modgraph.cli.extremal_gap",
                            lambda g, tol: seen.append(tol) or GapEstimate(0.5, True, 4, 0.0))
        assert main(["spectral", matching_file]) == 0
        assert seen == [1e-6] and "tol 1e-06" in capsys.readouterr().out

    def test_extremal_unconverged_exits_one(self, matching_file, capsys, monkeypatch):
        monkeypatch.setattr("modgraph.cli.extremal_gap",
                            lambda g, tol: GapEstimate(0.5, False, 4, 0.25))
        assert main(["spectral", matching_file]) == 1
        out = capsys.readouterr().out
        assert "gap = 0.5" in out and "iterations 4" in out
        assert "residual 0.25" in out and "converged=False" in out

    def test_options(self):
        # the route follows n; no method, tolerance or cap is taken
        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        options = {o for a in sub.choices["spectral"]._actions
                   for o in a.option_strings or [a.dest]}
        assert options == {"-h", "--help", "graph", "--eigenvalues"}


class TestExperimentCommands:
    def _config(self, tmp_path, assertions):
        cfg = {"experiment": "sparse", "grid": {"n": [5000], "np": [0.5]},
               "replicates": 2, "base_seed": 9, "assertions": assertions}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        return str(path)

    def test_passing_run_exits_zero(self, tmp_path, capsys):
        cfg = self._config(tmp_path, {"min_qcc": 0.99, "fraction": 1.0})
        out = tmp_path / "res.csv"
        assert main(["sparse", "--config", cfg, "--out", str(out)]) == 0
        assert out.read_text().startswith("n,np,seed,m,q_cc")
        assert "[PASS] min_qcc" in capsys.readouterr().out

    def test_failing_assertion_exits_one(self, tmp_path, capsys):
        cfg = self._config(tmp_path, {"min_qcc": 1.5, "fraction": 1.0})
        assert main(["sparse", "--config", cfg]) == 1
        assert "[FAIL] min_qcc" in capsys.readouterr().out

    def test_wrong_subcommand_for_config(self, tmp_path, capsys):
        cfg = self._config(tmp_path, {})
        assert main(["growth-rate", "--config", cfg]) == 2
        assert capsys.readouterr().err.startswith("error: config is for 'sparse'")

    def test_threshold_window_edgeless_draws(self, tmp_path, capsys):
        # G(3, 0.4) is edgeless in about a fifth of its draws: such a row
        # has no q_cc and no in_window, keeps its bounds, and the window
        # fraction counts only the other rows, none of them in the window
        path = tmp_path / "tw.json"
        path.write_text(json.dumps({"experiment": "threshold-window",
                                    "grid": {"n": [3], "eps": [0.2]}, "replicates": 20,
                                    "base_seed": 1, "assertions": {"window_fraction": 0.5}}))
        out = tmp_path / "tw.csv"
        assert main(["threshold-window", "--config", str(path), "--out", str(out)]) == 1
        rows = list(csv.DictReader(out.read_text().splitlines()))
        edgeless = [row for row in rows if row["m"] == "0"]
        assert 0 < len(edgeless) < len(rows)
        for row in rows:
            assert row["lower_bound"] and row["upper_bound"]
            assert row["eq21_value"] and row["x_dual"]
            assert row["in_window"] == ("" if row["m"] == "0" else "false")
            assert (row["q_cc"] == "") == (row["m"] == "0")
        printed = capsys.readouterr().out
        assert '"n=3 eps=0.2": 0.0' in printed
        assert "[FAIL] window_fraction: n=3 eps=0.2: 0.0 in [0.5, 1.0]" in printed

    def test_seed_override_changes_records(self, tmp_path):
        cfg = self._config(tmp_path, {})
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["sparse", "--config", cfg, "--out", str(a), "--seed", "1"])
        main(["sparse", "--config", cfg, "--out", str(b), "--seed", "2"])
        assert a.read_text() != b.read_text()
