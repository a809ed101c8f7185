"""Acceptance gate: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s`.  Large-n "with high
probability" claims are checked as replicate majorities at the sizes and
tolerances of the shipped configs/*acceptance*.json sweeps, which these
tests run; everything else is exact or property-based.
"""

import itertools
import math
import os
import time
from fractions import Fraction

import pytest

from modgraph.experiments import ExperimentConfig, _usable_cpus, run_experiment
from modgraph.generators import gen_gnp, substream
from modgraph.graph import Graph, modularity_score
from modgraph.heuristics import f_k
from modgraph.oracle import (exact_modularity, optimal_connectivity_check,
                             resolution_limit_check, robustness_check)
from modgraph.spectral import discrepancy_audit, spectral_summary

from _samplers import (make_rng, random_connected_graph, random_graph_sized,
                       random_partition)

pytestmark = pytest.mark.acceptance

# workers for the three long sweeps; a sweep's bytes are the same on any count
THREADS = _usable_cpus() or 1


def _report(criterion: int, detail: str) -> None:
    print(f"PASS criterion {criterion}: {detail}")


def _config(name: str) -> ExperimentConfig:
    """The shipped sweep configs/<name>.json; run_experiment does not write
    its `output`."""
    return ExperimentConfig.from_file(
        os.path.join(os.path.dirname(__file__), os.pardir, "configs", f"{name}.json"))


def complete(n):
    return Graph(n, list(itertools.combinations(range(n), 2)))


def matching(m):
    return Graph(2 * m, [(2 * i, 2 * i + 1) for i in range(m)])


def test_criterion_01_oracle_fixtures():
    t0 = time.time()
    for n in range(3, 7):
        assert exact_modularity(complete(n)).q_star == Fraction(0)
    for m in range(1, 5):
        assert exact_modularity(matching(m)).q_star == Fraction(m - 1, m)
    p4 = Graph(4, [(0, 1), (1, 2), (2, 3)])
    assert exact_modularity(p4).q_star == Fraction(1, 6)
    elapsed = time.time() - t0
    assert elapsed < 5.0
    _report(1, f"q*(K_3..K_6)=0, q*(matchings)=1-1/m, q*(P4)=1/6 exact "
               f"({elapsed:.2f}s < 5s)")


def test_criterion_02_spectral_soundness():
    t0 = time.time()
    worst_gap_slack = math.inf
    worst_bound_slack = math.inf
    worst_audit = math.inf
    for i in range(200):
        rng = make_rng(101, i)
        g = random_connected_graph(rng, 4, 10)
        summary = spectral_summary(g)
        q_star = float(exact_modularity(g).q_star)
        worst_gap_slack = min(worst_gap_slack, summary.gap - q_star)
        assert q_star <= summary.gap + 1e-8
        for _ in range(50):
            p = random_partition(rng, g.n)
            q = modularity_score(g, p).score
            bound = summary.gap * (1 - 1 / p.k)
            worst_bound_slack = min(worst_bound_slack, bound - q)
            assert q <= bound + 1e-8
        slack = discrepancy_audit(g)
        worst_audit = min(worst_audit, slack)
        assert slack >= -1e-8
    elapsed = time.time() - t0
    assert elapsed < 120.0
    _report(2, f"200 graphs x (oracle vs gap, 50 partitions vs gap*(1-1/k), "
               f"exhaustive audit); worst slacks {worst_gap_slack:.3g} / "
               f"{worst_bound_slack:.3g} / {worst_audit:.3g} ({elapsed:.1f}s < 2min)")


def test_criterion_03_robustness_suites():
    t0 = time.time()
    # the extremal rewiring pair reproduces delta = 1/2 < 2/3 exactly
    g_path = Graph(6, [(0, 1), (1, 2), (2, 3)])
    fixture = robustness_check(matching(3), g_path)
    assert fixture.delta == Fraction(1, 2) and fixture.bound == Fraction(2, 3)
    assert fixture.ok

    largest_ratio = Fraction(0)  # observed delta * |E| / |E \ E'|
    for i in range(500):
        rng = make_rng(103, i)
        g = random_graph_sized(rng, 3, 8, min_edges=2)
        edges = g.edge_list()
        # delete: random non-empty subset
        k = int(rng.integers(1, g.m + 1))
        idx = rng.choice(g.m, size=k, replace=False)
        deleted = set(edges) - {edges[j] for j in idx}
        assert robustness_check(g, Graph(g.n, sorted(deleted))).ok
        # rewire: same m, move 1..2 edges into vacant slots
        vacant = [e for e in itertools.combinations(range(g.n), 2)
                  if e not in set(edges)]
        if vacant:
            moved = list(edges)
            swaps = min(len(vacant), int(rng.integers(1, 3)))
            sel = rng.choice(len(vacant), size=swaps, replace=False)
            moved = moved[swaps:] + [vacant[j] for j in sel]
            g2 = Graph(g.n, moved)
            if g2 != g:
                assert robustness_check(g, g2).ok
        # general: drop a random prefix, maybe add one vacant edge
        keep = edges[int(rng.integers(1, g.m)):]
        if vacant and rng.random() < 0.5 and len(keep) < g.m:
            keep = keep + [vacant[0]]
        if len(keep) <= g.m and keep:
            g3 = Graph(g.n, keep)
            if g3 != g:
                rc = robustness_check(g, g3)
                assert rc.ok
                e_excl = len(set(edges) - set(g3.edge_list()))
                largest_ratio = max(largest_ratio,
                                    rc.delta * g.m / e_excl)
    elapsed = time.time() - t0
    assert elapsed < 300.0
    _report(3, f"500 randomized trials per lemma all ok; extremal pair exact; "
               f"largest observed delta*|E|/|E\\E'| = {float(largest_ratio):.3f} "
               f"(alpha* window [1.5, 2]) ({elapsed:.1f}s < 5min)")


def test_criterion_04_growth_rate():
    t0 = time.time()
    result = run_experiment(_config("growth_rate_acceptance"), threads=THREADS)
    elapsed = time.time() - t0
    assert result.passed, [c for c in result.checks if not c.passed]
    assert elapsed < 900.0
    _report(4, f"slope={result.summary['slope']:.4f} in [-0.6,-0.4]; medians "
               f">= 0.15 sqrt((1-p)/np) at np >= 25 ({elapsed:.0f}s < 15min)")


def test_criterion_05_upper_witness():
    t0 = time.time()
    result = run_experiment(_config("upper_witness_acceptance"), threads=THREADS)
    elapsed = time.time() - t0
    assert result.passed, [c for c in result.checks if not c.passed]
    frac = result.summary["witness_pass_fraction"]["n=5000 np=100.0"]
    # the per-record lower <= upper invariant is also enforced
    assert all(r["q_swap"] <= r["upper_witness"] + 1e-8 for r in result.records)
    assert elapsed < 1200.0
    _report(5, f"lambda(pruned) + 2|E'|/m <= 0.6 in {frac:.0%} of 100 runs "
               f"(need 95%), lower witness below upper everywhere "
               f"({elapsed:.0f}s < 20min)")


def test_criterion_06_sparse_phase():
    t0 = time.time()
    result = run_experiment(_config("sparse_acceptance"))
    elapsed = time.time() - t0
    assert result.passed, result.checks
    assert elapsed < 60.0
    _report(6, f"q_cc > 0.999 in 20/20 runs (min {result.summary['min_q_cc']:.6f}) "
               f"({elapsed:.0f}s < 1min)")


def test_criterion_07_threshold_window():
    t0 = time.time()
    result = run_experiment(_config("threshold_window_acceptance"), threads=THREADS)
    elapsed = time.time() - t0
    assert result.passed, result.checks
    rates = result.summary["in_window_fraction"]
    assert elapsed < 300.0
    _report(7, f"q_cc inside the sandwich: fractions {rates} (need >= 0.9 "
               f"per eps) ({elapsed:.0f}s < 5min)")


def test_criterion_08_table_reproduction():
    t0 = time.time()
    printed = {2: 0.5000, 3: 0.5550, 4: 0.6418, 5: 0.6660, 6: 0.6686,
               7: 0.6624, 8: 0.6524, 9: 0.6409, 10: 0.6288}
    # the printed table is truncated, not rounded, to 4 decimals: exact
    # truncation match on all nine entries
    for k, want in printed.items():
        assert math.floor(f_k(k) * 1e4) / 1e4 == pytest.approx(want, abs=1e-12)
    # the +-5e-5 band additionally holds wherever truncation agrees with
    # rounding (all k except 4 and 10, whose truncation artifacts are
    # 5.64e-5 and 8.82e-5; see notes)
    for k, want in printed.items():
        if k not in (4, 10):
            assert abs(f_k(k) - want) <= 5e-5
    elapsed = time.time() - t0
    assert elapsed < 1.0
    _report(8, "all nine table values reproduced at print (truncation) "
               "precision; +-5e-5 holds on the seven rounded entries; "
               f"f(4)={f_k(4):.7f} vs 0.6418, f(10)={f_k(10):.7f} vs 0.6288 "
               "are truncation artifacts")


def test_criterion_09_planted_scores():
    t0 = time.time()
    res2 = run_experiment(_config("planted_acceptance_c4_k2"))
    assert res2.passed, res2.checks
    mean2 = res2.summary["means"][0]["mean_score"]

    res6 = run_experiment(_config("planted_acceptance_c9_k6"))
    assert res6.passed, res6.checks
    mean6 = res6.summary["means"][0]["mean_score"]
    elapsed = time.time() - t0
    assert elapsed < 300.0
    _report(9, f"k=2, c=4 mean score {mean2:.4f} within 0.01 of 0.25; "
               f"k=6, c=9 mean {mean6:.4f} >= f(6)/3 - 0.01 = "
               f"{f_k(6)/3 - 0.01:.4f} ({elapsed:.0f}s < 5min)")


def test_criterion_10_concentration():
    t0 = time.time()
    result = run_experiment(_config("concentration_acceptance"))
    elapsed = time.time() - t0
    assert result.passed, result.summary["tails"]
    rows = {r["t"]: r for r in result.summary["tails"]}
    assert elapsed < 600.0
    _report(10, "2000 samples of exact q*(G_{8,10}): tails "
                + ", ".join(f"t={t}: {rows[t]['empirical_tail']:.4f} <= "
                            f"{rows[t]['bound']:.3f}+{rows[t]['wilson_allowance']:.3f}"
                            for t in (0.2, 0.4, 0.6))
                + f" ({elapsed:.0f}s < 10min)")


def test_criterion_11_structure_theorems():
    t0 = time.time()
    for i in range(500):
        rng = make_rng(111, i)
        g = random_graph_sized(rng, 3, 8)
        assert resolution_limit_check(g)
        g2 = random_connected_graph(rng, 3, 8)
        assert optimal_connectivity_check(g2)
    elapsed = time.time() - t0
    assert elapsed < 600.0
    _report(11, f"resolution-limit and optimal-connectivity predicates true "
                f"on 500 random graphs each ({elapsed:.0f}s < 10min)")


def test_criterion_12_few_parts():
    t0 = time.time()
    trials = 0
    # data-only probe of the few-parts deficit: k * (1 - q_<=k / q*)
    deficit_ratios = []
    for i in range(150):
        rng = make_rng(112, i)
        # G(n, c/n)-style small samples at a few densities
        n = int(rng.integers(5, 9))
        c = float(rng.uniform(1.0, 5.0))
        g = gen_gnp(n, min(1.0, c / n), substream(20250817, i))
        if g.m < 1:
            continue
        q_star = exact_modularity(g).q_star
        for k in (1, 2, 3, 4):
            qk = exact_modularity(g, max_parts=k).q_star
            assert qk >= q_star * Fraction(k - 1, k)  # exact rational check
            assert qk <= q_star
            if k >= 2 and q_star > 0:
                deficit_ratios.append(float(k * (1 - qk / q_star)))
            trials += 1
    elapsed = time.time() - t0
    assert trials >= 400
    assert elapsed < 300.0
    _report(12, f"q_(<=k) >= q*(1-1/k) and q_(<=k) <= q* exact on {trials} "
                f"(graph, k) trials; observed k*(1 - q_<=k/q*) in "
                f"[{min(deficit_ratios):.3f}, {max(deficit_ratios):.3f}] "
                f"(data only) ({elapsed:.0f}s < 5min)")
