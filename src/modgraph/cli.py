"""Command-line entry point.

Experiment subcommands read an ExperimentConfig JSON, run the sweep, write
a CSV, print the summary and check outcomes, and exit 0 iff every
assertion declared in the config passed:

    modgraph growth-rate --config cfg.json --out results.csv --threads 4

Utility subcommands operate directly on edge-list / partition files:

    modgraph oracle graph.txt --maximizers
    modgraph score graph.txt partition.txt
    modgraph generate --model gnm --n 100 --m 250 --seed 7 --out graph.txt
    modgraph spectral graph.txt --eigenvalues spectrum.csv

Input the library rejects (a malformed file, a bad parameter or config, an
unreadable path) and a flag the chosen path would ignore print one
"error: ..." line and exit 2.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from .experiments import EXPERIMENTS, ExperimentConfig, run_experiment
from .generators import gen_gnm, gen_gnp, gen_planted
from .graph import (_write_records, modularity_score, read_edgelist,
                    read_partition, write_edgelist, write_partition)
from .oracle import ORACLE_CAP, exact_modularity
from .spectral import DENSE_CAP, GAP_TOL, extremal_gap, spectral_summary


def _add_experiment_parsers(sub) -> None:
    for name in sorted(EXPERIMENTS):
        par = sub.add_parser(name, help=f"run the {name} experiment sweep")
        par.add_argument("--config", required=True, help="ExperimentConfig JSON file")
        par.add_argument("--out", default=None, help="CSV output path (overrides config)")
        par.add_argument("--threads", type=int, default=1,
                         help="worker processes, at most one per task and per CPU "
                              "(results identical for any count)")
        par.add_argument("--seed", type=int, default=None,
                         help="override the config's base_seed")
        par.set_defaults(func=_cmd_experiment, experiment=name)


def _cmd_experiment(args) -> int:
    cfg = ExperimentConfig.from_file(args.config)
    if cfg.experiment != args.experiment:
        raise ValueError(f"config is for {cfg.experiment!r}, subcommand is "
                         f"{args.experiment!r}")
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, base_seed=args.seed)
    result = run_experiment(cfg, threads=args.threads)
    out_path = args.out or cfg.output
    if out_path:
        result.write_csv(out_path)
        print(f"wrote {len(result.records)} records to {out_path}", file=sys.stderr)
    total_ms = sum(r.get("walltime_ms", 0.0) for r in result.records)
    print(json.dumps({"experiment": result.experiment, "summary": result.summary,
                      "task_walltime_ms": round(total_ms, 1)},
                     indent=2, default=str))
    for check in result.checks:
        status = "PASS" if check.passed else "FAIL"
        print(f"[{status}] {check.name}: {check.detail}")
    return 0 if result.passed else 1


def _cmd_oracle(args) -> int:
    g = read_edgelist(args.graph)
    result = exact_modularity(g, max_parts=args.max_parts)
    q = result.q_star
    if args.max_parts is None:
        print(f"q* = {q} = {float(q):.12g}")
    else:
        print(f"q_<=k = {q} = {float(q):.12g}  (k = {args.max_parts})")
    print(f"partitions scanned: {result.partitions_scanned}; "
          f"maximizers: {len(result.optimal_partitions)}")
    if args.maximizers:
        for part in result.optimal_partitions:
            write_partition(part, sys.stdout)
    return 0


def _cmd_score(args) -> int:
    g = read_edgelist(args.graph)
    p = read_partition(args.partition)
    b = modularity_score(g, p)
    print(f"coverage = {b.coverage:.12g}")
    print(f"degree_tax = {b.degree_tax:.12g}")
    print(f"score = {b.score:.12g}")
    return 0


# Each model of `generate`: its generator and the flags it takes after --n.
_MODELS = {"gnp": (gen_gnp, ("p",)), "gnm": (gen_gnm, ("m",)),
           "planted": (gen_planted, ("alpha", "beta", "k"))}


def _cmd_generate(args) -> int:
    for flag in ("model", "n"):
        if getattr(args, flag) is None:
            raise ValueError(f"generate needs {flag!r}")
    generator, params = _MODELS[args.model]
    for flag in ("p", "m", "alpha", "beta", "k"):
        given = getattr(args, flag) is not None
        if given != (flag in params):
            verb = "forbids" if given else "requires"
            raise ValueError(f"model {args.model} {verb} field {flag!r}")
    if args.labels_out and args.model != "planted":
        raise ValueError("--labels-out needs the planted model")
    drawn = generator(args.n, *(getattr(args, flag) for flag in params), args.seed)
    graph = drawn.graph if args.model == "planted" else drawn
    if args.out:
        write_edgelist(graph, args.out)
        print(f"wrote n={graph.n} m={graph.m} to {args.out}", file=sys.stderr)
    else:
        write_edgelist(graph, sys.stdout)
    if args.labels_out:
        _write_records(args.labels_out, (graph.n, drawn.k), drawn.labels)
    return 0


def _cmd_spectral(args) -> int:
    g = read_edgelist(args.graph)
    if g.n > DENSE_CAP and not args.eigenvalues:
        est = extremal_gap(g, tol=GAP_TOL)
        print(f"gap = {est.value:.12g}  (extremal path, tol {GAP_TOL:g}, "
              f"iterations {est.iterations}, residual {est.residual:.3g}, "
              f"converged={est.converged})")
        return 0 if est.converged else 1
    summary = spectral_summary(g)
    print(f"gap = {summary.gap:.12g}  (dense path, connected={summary.connected})")
    if args.eigenvalues:
        with open(args.eigenvalues, "w") as fh:
            for val in summary.eigenvalues:
                fh.write(f"{val:.12g}\n")
        print(f"wrote {summary.eigenvalues.size} eigenvalues to {args.eigenvalues}",
              file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="modgraph",
        description="Modularity of random graphs: experiments and graph tools")
    sub = parser.add_subparsers(dest="command", required=True)
    _add_experiment_parsers(sub)

    par = sub.add_parser("oracle", help="exact q* of a graph with at most "
                                        f"{ORACLE_CAP} non-isolated vertices")
    par.add_argument("graph", help="edge-list file")
    par.add_argument("--maximizers", action="store_true",
                     help="also print every optimal partition")
    par.add_argument("--max-parts", type=int, default=None,
                     help="restrict to partitions with at most this many parts")
    par.set_defaults(func=_cmd_oracle)

    par = sub.add_parser("score", help="modularity breakdown of a partition")
    par.add_argument("graph", help="edge-list file")
    par.add_argument("partition", help="partition file")
    par.set_defaults(func=_cmd_score)

    par = sub.add_parser("generate", help="draw a graph from a random-graph model")
    par.add_argument("--model", choices=list(_MODELS), default=None)
    par.add_argument("--n", type=int, default=None)
    par.add_argument("--p", type=float, default=None)
    par.add_argument("--m", type=int, default=None)
    par.add_argument("--alpha", type=float, default=None)
    par.add_argument("--beta", type=float, default=None)
    par.add_argument("--k", type=int, default=None)
    par.add_argument("--seed", type=int, default=0, help="default %(default)s")
    par.add_argument("--out", default=None, help="edge-list output (stdout if absent)")
    par.add_argument("--labels-out", default=None,
                     help="write planted block labels here")
    par.set_defaults(func=_cmd_generate)

    par = sub.add_parser("spectral", help="normalized-Laplacian spectral gap (dense up "
                                          f"to {DENSE_CAP} vertices, else extremal)")
    par.add_argument("graph", help="edge-list file")
    par.add_argument("--eigenvalues", default=None,
                     help=f"CSV path for the full spectrum (dense, n <= {DENSE_CAP})")
    par.set_defaults(func=_cmd_spectral)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        # typed input errors; a failed sweep task raises RuntimeError instead
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
