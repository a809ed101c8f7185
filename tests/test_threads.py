"""The threaded passes: the draw stage of gen_gnp on a helper thread, the
Graph build's degree count, and Swap's and the score's edge pieces.
Whatever the thread count, every byte is the same, no thread outlives a
call, and a raise on any thread reaches the caller."""

import io
import multiprocessing
import os
import sys
import threading
import time

import numpy as np
import pytest

from modgraph import generators, graph
from modgraph.experiments import ExperimentConfig, run_experiment
from modgraph.generators import gen_gnp, substream
from modgraph.graph import Graph, modularity_score
from modgraph.heuristics import swap_bisection

# (n, p): about 225 k edges in 4 blocks through the per-row decode, 150 k
# in 3 blocks through the per-edge decode, and the complete graph in 4
CASES = [(3000, 0.05), (1_000_000, 3e-7), (700, 1.0)]


@pytest.fixture
def cpus(monkeypatch):
    """Set the affinity mask to the first k CPUs and let every pass of a
    block or more use them, in pieces of a block; records the thread count
    of each degree count and edge pass and whether each G(n,p) draw ran its
    draw stage on a helper thread."""
    seen = {"passes": [], "ahead": []}
    run_threads, ahead = graph._run_threads, generators._ahead

    def counted_run(work, items, threads):
        seen["passes"].append(threads)
        return run_threads(work, items, threads)

    def counted_ahead(items, threaded):
        seen["ahead"].append(threaded)
        return ahead(items, threaded)

    monkeypatch.setattr(graph, "_THREAD_MIN_EDGES", graph._BLOCK)
    monkeypatch.setattr(graph, "_run_threads", counted_run)
    monkeypatch.setattr(generators, "_ahead", counted_ahead)

    def use(k):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(k)),
                            raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: k)
        seen["passes"].clear()
        seen["ahead"].clear()
        return seen
    return use


def _outputs(n, p):
    """Every output of one growth task's stages on G(n, p), as bytes, with
    the live thread count checked after each call."""
    alive = threading.active_count()
    rng = substream(71, n)
    g = gen_gnp(n, p, rng)
    assert threading.active_count() == alive
    out = [g.indptr.tobytes(), g.edge_v.tobytes(), rng.random()]
    part, trace = swap_bisection(g)
    assert threading.active_count() == alive
    out += [part.assign.tobytes(), trace.t_values.tobytes(), trace.swaps.tobytes(),
            trace.t_star]
    score = modularity_score(g, part)
    assert threading.active_count() == alive
    return out + [score]


@pytest.mark.parametrize("n, p", CASES)
def test_outputs_identical_on_1_2_3_cpus(cpus, n, p):
    runs = {}
    for k in (1, 2, 3):
        seen = cpus(k)
        runs[k] = _outputs(n, p)
        # a helper for the draw; the build's degree count, Swap and the
        # score take one thread per usable CPU, two at most
        assert seen["ahead"] == [k > 1] and seen["passes"] == [min(k, 2)] * 3
    assert runs[1] == runs[2] == runs[3]


def test_growth_rate_csv_identical_on_1_2_3_cpus(cpus):
    c = ExperimentConfig.from_dict({"experiment": "growth-rate",
                                    "grid": {"n": [3000], "np": [4.0, 60.0]},
                                    "replicates": 2, "base_seed": 9})
    csvs = []
    for k in (1, 2, 3):
        cpus(k)
        buf = io.StringIO()
        run_experiment(c, threads=1).write_csv(buf)  # in-process: the tasks thread
        csvs.append(buf.getvalue())
    assert csvs[0] == csvs[1] == csvs[2]


def test_thread_budget(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    floor = graph._THREAD_MIN_EDGES
    assert graph._threads(floor - 1) == 1 and graph._threads(floor) == 2
    # a sweep's pool worker already holds a CPU of its own
    monkeypatch.setattr(multiprocessing, "parent_process", lambda: object())
    assert graph._threads(floor) == 1


class _Failure(Exception):
    pass


_gap_blocks, _pairs_from_index = generators._gap_blocks, generators._pairs_from_index


def _draw_fails(*args):
    """The draw stage, failing after its first block."""
    yield next(_gap_blocks(*args))
    raise _Failure("draw")


def _decode_fails(pos, n, out=None):
    """The decoder, failing on its second block once the helper, which
    draws a block in about a millisecond, is waiting for room."""
    if _decode_fails.calls:
        time.sleep(0.2)
        raise _Failure("decoder")
    _decode_fails.calls += 1
    return _pairs_from_index(pos, n, out)


@pytest.mark.parametrize("side", ["draw", "decoder"])
def test_raise_on_either_side_reaches_the_caller(cpus, monkeypatch, side):
    # 225 k edges in 4 blocks: when the decoder fails, one block waits in
    # the slot and the helper waits to put the next
    seen = cpus(2)
    if side == "draw":
        monkeypatch.setattr(generators, "_gap_blocks", _draw_fails)
    else:
        _decode_fails.calls = 0
        monkeypatch.setattr(generators, "_pairs_from_index", _decode_fails)
    alive = threading.active_count()
    raised = []

    def call():
        try:
            gen_gnp(3000, 0.05, substream(5))
        except _Failure as exc:
            raised.append(exc)

    caller = threading.Thread(target=call, daemon=True)  # so a hang fails the test
    caller.start()
    caller.join(timeout=60)
    assert not caller.is_alive() and str(raised[0]) == side
    assert seen["ahead"] == [True]
    assert threading.active_count() == alive


@pytest.mark.parametrize("caller", [True, False])
def test_raise_in_a_threaded_pass_reaches_the_caller(caller):
    alive = threading.active_count()
    main = threading.get_ident()

    def work(i):
        time.sleep(0.01)  # so that both threads take items
        if (threading.get_ident() == main) == caller:
            raise _Failure("item")
        return i * i

    with pytest.raises(_Failure, match="item"):
        graph._run_threads(work, range(4), 2)
    assert threading.active_count() == alive
    assert graph._run_threads(lambda i: i * i, range(5), 2) == [0, 1, 4, 9, 16]
    assert threading.active_count() == alive


def test_edge_pieces_own_their_rows(cpus):
    g = gen_gnp(3000, 0.05, substream(5))  # 225 k edges
    everything = np.arange(g.n)
    for k in (1, 2, 3):
        cpus(k)
        pieces = graph._edge_pass(g, lambda blocks: [
            (everything[rows][[0, -1]], v.size) for rows, _, v in blocks])
        assert len(pieces) == max(min(k, 2), g.m // graph._BLOCK)
        assert sum(size for piece in pieces for _, size in piece) == g.m
        # each piece's first row lies past the last row of the one before
        ends = [(piece[0][0][0], piece[-1][0][1]) for piece in pieces]
        assert all(last < first for (_, last), (first, _) in zip(ends, ends[1:]))


def test_stress_more_threads_than_cores(cpus, monkeypatch):
    # 8 threads on this machine's cores, above the cap that a run uses,
    # switching as often as the interpreter allows: a lost update to the
    # shared degree or Swap counts would change them
    monkeypatch.setattr(graph, "_MAX_THREADS", 8)
    cpus(1)
    g = gen_gnp(50_000, 2e-3, substream(8))  # 2.5 M edges: 13 degree counts, 38 pieces
    part, trace = swap_bisection(g)
    want = (g.deg.tobytes(), trace.t_values.tobytes(), modularity_score(g, part))
    seen = cpus(8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            h = Graph.from_arrays(g.n, g.indptr, g.edge_v, _trusted=True)
            _, trace = swap_bisection(h)
            assert (h.deg.tobytes(), trace.t_values.tobytes(),
                    modularity_score(h, part)) == want
    finally:
        sys.setswitchinterval(interval)
    assert seen["passes"] == [8] * 15
